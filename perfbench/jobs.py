"""The four workloads: their CLI jobs, seeded inputs and output checks.

Couplings and brackets are drawn from the seed out of a fixed-denominator
family (odd multiples of 1/8 in fixed ranges), so the size of the exact
rationals, and with it the cost, does not drift with the seed.  `prove`
takes no inputs from the seed.

Every check compares against a reference that does not come from the
code under test: a fixed count, the closed-form level oracle in
`oracle.py`, the collision point c* = sqrt(24) of n = 3, or the
finite-difference acceptance limits.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

# `qeslab verify` at its defaults (n <= 12, gap <= 4, plus the leakage
# and reflection certificates) prints this many relation reports.
VERIFY_REPORTS = 2679
DELTA4_POINTS = 100
C_STAR_N3 = math.sqrt(24)

# C08's limits for the finite-difference match.  C08 states 1e-3 for
# n = 2; the n = 3 levels reach |E| ~ 16 and the second-order error
# grows with the level, so n = 3 at grid 800 is held to 2e-3.
FD_MAX_DIFF = {2: 1e-3, 3: 2e-3}
FD_BOUNDARY = 1e-6


@dataclass
class Job:
    """One CLI invocation and the check of what it printed."""

    id: str
    argv: list
    check: object  # (status, stdout, out_path) -> list of problems
    out_file: str | None = None  # name of the --out file, if any
    parallel: bool = False  # runs BLAS threads on every CPU; not probed


def _eighths(rng: random.Random, lo: int, hi: int) -> Fraction:
    """An odd multiple of 1/8 in (lo, hi): the denominator is always 8."""
    return Fraction(2 * rng.randrange(lo * 4, hi * 4) + 1, 8)


def _status_problem(status, want=0):
    return [] if status == want else [f"exit status {status!r}, expected {want}"]


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def check_verify(status, stdout, _):
    problems = _status_problem(status)
    lines = stdout.splitlines()
    want = f"# reports={VERIFY_REPORTS} failures=0"
    if not lines or lines[-1] != want:
        problems.append(f"summary {lines[-1] if lines else None!r}, expected {want!r}")
    eq = [line for line in lines if line.startswith("EQ")]
    if len(eq) != VERIFY_REPORTS:
        problems.append(f"{len(eq)} report lines, expected {VERIFY_REPORTS}")
    bad = [line for line in eq if not line.endswith("status=holds")]
    if bad:
        problems.append(f"{len(bad)} relations fail, first: {bad[0]}")
    return problems


def check_delta4(status, stdout, _):
    problems = _status_problem(status)
    lines = stdout.splitlines()
    want = f"# points={DELTA4_POINTS} counterexamples=0"
    if not lines or lines[-1] != want:
        problems.append(f"summary {lines[-1] if lines else None!r}, expected {want!r}")
    points = [line for line in lines if line.startswith("point ")]
    if len(points) != DELTA4_POINTS:
        problems.append(f"{len(points)} scan points, expected {DELTA4_POINTS}")
    return problems


def sweep_check(n, c_min, c_max, steps):
    def check(status, stdout, out_path):
        problems = _status_problem(status)
        text = stdout
        if out_path is not None:
            if stdout.strip():
                problems.append("sweep --out also wrote to stdout")
            try:
                with open(out_path) as fh:
                    text = fh.read()
            except OSError as exc:
                return problems + [f"no CSV written: {exc}"]
        lines = text.splitlines()
        header = "c," + ",".join(f"E_{i}" for i in range(1, 2 * n + 1))
        if not lines or lines[0] != header:
            return problems + [f"CSV header {lines[:1]!r}, expected {header!r}"]
        rows = lines[1:]
        if len(rows) != steps:
            return problems + [f"{len(rows)} CSV rows, expected {steps}"]
        for k, row in enumerate(rows):
            c = c_min + (c_max - c_min) * Fraction(k, steps - 1)
            values = [float(v) for v in row.split(",")]
            if abs(values[0] - float(c)) > 1e-9 * max(1.0, abs(float(c))):
                problems.append(f"row {k}: c={values[0]!r}, expected {float(c)!r}")
            bad = oracle.level_mismatches(values[1:], oracle.levels(n, c))
            if bad:
                problems.append(f"row {k} (c={c}): {bad[0]}")
            if len(problems) >= 5:
                break
        return problems

    return check


def spectrum_check(n, c):
    def check(status, stdout, _):
        problems = _status_problem(status)
        got = []
        for line in stdout.splitlines():
            if line.startswith("E = "):
                value, _, rest = line[4:].partition("  multiplicity=")
                got.extend([float(value)] * int(rest.split()[0]))
        return problems + oracle.level_mismatches(got, oracle.levels(n, c))

    return check


def charpoly_check(n, variable, c):
    def check(status, stdout, _):
        problems = _status_problem(status)
        coeffs = {}
        for line in stdout.splitlines():
            if line.startswith("  lam^"):
                power, _, text = line.strip()[4:].partition(": ")
                coeffs[int(power)] = oracle.parse_poly(text, variable)
        if max(coeffs, default=-1) != 2 * n or coeffs[2 * n] != {0: 1}:
            return problems + [f"not monic of degree {2 * n}"]
        odd = sorted(p for p in coeffs if p % 2)
        if odd:
            problems.append(f"odd coefficients present: lam^{odd}")
        value = c if variable == "c" else -c / (4 * n)
        numeric = {p: oracle.eval_poly(q, value) for p, q in coeffs.items()}
        roots, imag = oracle.poly_roots(numeric)
        if imag > oracle.LEVEL_RTOL:
            problems.append(f"roots at c={c} leave the real axis ({imag:.2e})")
        return problems + oracle.level_mismatches(roots, oracle.levels(n, c))

    return check


def degeneracy_check(n):
    def check(status, stdout, _):
        problems = _status_problem(status)
        lines = stdout.splitlines()
        if len(lines) != 2 or not lines[0].startswith("c* = "):
            return problems + [f"unexpected output {lines[:2]!r}"]
        head = lines[0].split()
        c_star, gap = float(head[2]), float(head[5])
        lower, upper = int(head[7]), int(head[9])
        if abs(c_star - C_STAR_N3) > 1e-6:
            problems.append(f"c* = {c_star!r}, expected sqrt(24)")
        if not 0 <= gap < 1e-6:
            problems.append(f"gap {gap!r} at c* is not a collision")
        if (lower, upper) != (n, n + 1):
            problems.append(f"levels {lower},{upper} collide, expected {n},{n + 1}")
        values = [float(v) for v in lines[1].split(": ")[1].split(", ")]
        # a double level moves like sqrt(c - c*), so the printed c* (12
        # digits) pins the colliding pair only to about 1e-5
        problems += oracle.level_mismatches(
            values, oracle.levels(n, Fraction(c_star)), rtol=1e-4
        )
        return problems

    return check


def crosscheck_check(n, c):
    def check(status, stdout, _):
        problems = _status_problem(status)
        rows, fields = [], {}
        for line in stdout.splitlines():
            if line.startswith("#"):
                continue
            if " = " in line:
                key, _, value = line.partition(" = ")
                fields[key] = float(value)
            elif line and line[0] in "-0123456789":
                rows.append([float(v) for v in line.split(",")])
        problems += oracle.level_mismatches(
            [r[0] for r in rows], oracle.levels(n, c)
        )
        max_diff = fields.get("max_diff", math.inf)
        boundary = fields.get("boundary_amplitude", math.inf)
        if not max_diff < FD_MAX_DIFF[n]:
            problems.append(f"max_diff {max_diff!r} >= {FD_MAX_DIFF[n]}")
        if not boundary < FD_BOUNDARY:
            problems.append(f"boundary_amplitude {boundary!r} >= {FD_BOUNDARY}")
        return problems

    return check


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _prove(rng):
    return [
        Job("verify", ["verify"], check_verify),
        Job("delta4_scan", ["delta4-scan", "--n", "6"], check_delta4),
    ]


def _sweep(rng):
    c3 = _eighths(rng, 0, 2)
    c5 = _eighths(rng, 0, 2)
    c4 = _eighths(rng, 1, 5)
    lo = _eighths(rng, 2, 4)
    hi = _eighths(rng, 6, 8)
    return [
        Job(
            "sweep_n3",
            ["sweep", "--n", "3", "--c-min", str(c3), "--c-max", str(c3 + 10),
             "--steps", "200"],
            sweep_check(3, c3, c3 + 10, 200),
        ),
        Job(
            "sweep_n5",
            ["sweep", "--n", "5", "--c-min", str(c5), "--c-max", str(c5 + 10),
             "--steps", "30", "--out", "{out}"],
            sweep_check(5, c5, c5 + 10, 30),
            out_file="levels.csv",
        ),
        Job(
            "spectrum_n4",
            ["spectrum", "--n", "4", "--c", str(c4)],
            spectrum_check(4, c4),
        ),
        Job(
            "degeneracy_n3",
            ["degeneracy", "--n", "3", "--c-min", str(lo), "--c-max", str(hi)],
            degeneracy_check(3),
        ),
    ]


def _charpoly(rng):
    c_eval = _eighths(rng, 1, 5)
    c8 = _eighths(rng, 1, 5)
    return [
        Job(
            "charpoly_n10_c",
            ["charpoly", "--n", "10", "--variable", "c"],
            charpoly_check(10, "c", c_eval),
        ),
        Job(
            "charpoly_n9_k0",
            ["charpoly", "--n", "9", "--variable", "k0"],
            charpoly_check(9, "k0", c_eval),
        ),
        Job(
            "spectrum_n8",
            ["spectrum", "--n", "8", "--c", str(c8)],
            spectrum_check(8, c8),
        ),
    ]


def _crosscheck(rng):
    jobs = []
    for n, grid in ((2, 1600), (3, 800), (2, 800)):
        c = _eighths(rng, 0, 4)
        jobs.append(
            Job(
                f"crosscheck_n{n}_g{grid}",
                ["crosscheck", "--n", str(n), "--c", str(c), "--grid", str(grid),
                 "--box", "4.5"],
                crosscheck_check(n, c),
                parallel=True,
            )
        )
    return jobs


WORKLOADS = {
    "prove": _prove,
    "sweep": _sweep,
    "charpoly": _charpoly,
    "crosscheck": _crosscheck,
}


def make_jobs(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(seed))


def job_ids() -> list:
    """Every job id of every workload, in a fixed order."""
    return [job.id for name in WORKLOADS for job in make_jobs(name, 0)]


def resolve_argv(job: Job, out_dir: str) -> list:
    if job.out_file is None:
        return list(job.argv)
    path = os.path.join(out_dir, job.out_file)
    return [path if a == "{out}" else a for a in job.argv]
