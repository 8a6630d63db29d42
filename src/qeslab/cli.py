"""Command-line front end: verification suites, spectra, sweeps, scans.

Subcommands: verify, spectrum, charpoly, sweep, degeneracy, crosscheck,
delta4-scan.  Exit codes: 0 success, 1 verification failure or broken
numeric validation, 2 usage error.  Couplings are exact rationals given
as `p/q` strings; decimal floats are rejected wherever exactness
matters.  JSON and text renderings of the same run carry identical
numeric values (floats are rounded to 12 significant digits once,
before formatting).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from qeslab import spectral, verify
from qeslab.exactnum import ParamPoly
from qeslab.spectral import format_sig


def rational(text: str) -> Fraction:
    """Exact-mode argument: integers or p/q, never decimal floats."""
    cleaned = text.strip()
    if any(ch in cleaned for ch in ".eE"):
        raise argparse.ArgumentTypeError(
            f"{text!r} looks like a float; write an exact rational like 1/2"
        )
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def at_least(low, kind=int):
    """Argument type: a finite `kind` number no smaller than `low`."""
    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be a finite number >= {low}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def attach_negative_rationals(argv):
    """Write "--c -3/7" as "--c=-3/7": argparse takes "-3/7" for an
    option, since its negative-number rule covers only -N and -N.N."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and re.fullmatch(r"-\d+/\d+", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def round12(value: float) -> float:
    return float(format_sig(value))


def _emit(payload: dict, args, render_text) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2))
    else:
        render_text(payload)


def _spec(args) -> spectral.HamiltonianSpec:
    """The operator of --n and whichever of --c / --k0 was given."""
    if args.c is not None:
        return spectral.HamiltonianSpec.from_c(args.n, args.c)
    return spectral.HamiltonianSpec(args.n, args.k0)


def _coupling_fields(spec) -> dict:
    return {"n": spec.n, "c": str(spec.c_spec), "k0": str(spec.k0)}


def _coupling_header(payload: dict) -> str:
    return (f"# n={payload['n']} c={payload['c']} "
            f"(k0={payload['k0']}; c = -4*n*k0)")


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

# Largest n whose reflection certificates `verify` runs.  Their full
# 2n x 2n characteristic polynomial over Q[k0] takes 0.025 s at n = 6 and
# 0.048 / 0.085 / 0.157 s at n = 7 / 8 / 9 (medians of 5, shared 2-vCPU
# VM, Python 3.11.7); the cap stays because lifting it would change the
# report count of the default box (2679).
REFLECTION_N_MAX = 6


def cmd_verify(args) -> int:
    # gap d has points only from n = d on, the operator pair from n = 2
    low = max(2, args.delta_max)
    if args.n_max < low:
        print(f"error: --n-max must be at least max(2, --delta-max) = {low}, "
              f"got {args.n_max}", file=sys.stderr)
        return 2
    try:
        fault = verify.check_fault(args.inject_fault, args.delta_max)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = verify.default_suite(
        n_max=args.n_max,
        delta_max=args.delta_max,
        inject_fault=fault,
    )
    reports.extend(spectral.hamiltonian_leakage_reports(args.n_max))
    for n in range(2, min(args.n_max, REFLECTION_N_MAX) + 1):
        reports.extend(spectral.reflection_check(n))
    if args.n_max > REFLECTION_N_MAX:
        print(f"# skipped: reflection certificates (EQ33, EQ33EVEN) for "
              f"n={REFLECTION_N_MAX + 1}..{args.n_max}; they run up to "
              f"n={REFLECTION_N_MAX}", file=sys.stderr)
    bad = verify.failures(reports)
    if not args.quiet:
        for report in reports:
            print(report.line())
    else:
        for report in bad:
            print(report.line())
    print(f"# reports={len(reports)} failures={len(bad)}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# spectrum / charpoly
# ----------------------------------------------------------------------

def _coeff_list(poly: ParamPoly, rounded: bool):
    """The coefficients as exact strings, or for a doublet rounded to
    doubles (an irrational level) as 12-digit floats."""
    if rounded:
        return [round12(float(coeff)) for coeff in poly.coeffs]
    return [str(coeff) for coeff in poly.coeffs]


def cmd_charpoly(args) -> int:
    poly = spectral.symbolic_char_poly(args.n, args.variable)
    coeffs = {str(power): str(c) for power, c in enumerate(poly.coeffs) if c}
    payload = {
        "n": args.n,
        "variable": args.variable,
        "char_poly": {"text": str(poly), "coefficients": coeffs},
    }

    def render(pl):
        print(f"# n={pl['n']} characteristic polynomial, coefficients in "
              f"{pl['variable']}")
        print(pl["char_poly"]["text"])
        for power, coeff in pl["char_poly"]["coefficients"].items():
            print(f"  lam^{power}: {coeff}")

    _emit(payload, args, render)
    return 0


def cmd_spectrum(args) -> int:
    spec = _spec(args)
    spectrum = spectral.algebraic_spectrum(spec)
    funcs = spectral.eigenvectors_y(spectrum)
    levels = []
    for lv in spectrum.levels:
        members = [f for f in funcs if f.level is lv]
        levels.append(
            {
                "value": round12(lv.value),
                "exact": str(lv.exact) if lv.exact is not None else None,
                "multiplicity": lv.multiplicity,
                "vectors": [
                    {
                        "nodes": list(f.nodes) if f.nodes is not None else None,
                        "subspace_dim": f.subspace_dim,
                        "top_y": _coeff_list(f.top_y, lv.exact is None),
                        "bottom_y": _coeff_list(f.bottom_y, lv.exact is None),
                    }
                    for f in members
                ],
            }
        )
    payload = {**_coupling_fields(spec), "levels": levels}

    def render(pl):
        print(_coupling_header(pl))
        for level in pl["levels"]:
            exact = f" exact={level['exact']}" if level["exact"] else ""
            print(
                f"E = {format_sig(level['value'])}  "
                f"multiplicity={level['multiplicity']}{exact}"
            )
            for vec in level["vectors"]:
                if vec["nodes"] is None:
                    marker = f"subspace_dim={vec['subspace_dim']} (nodes skipped)"
                else:
                    marker = "nodes=(%s)" % ",".join(
                        "-" if k is None else str(k) for k in vec["nodes"]
                    )
                print(f"  {marker}")
                print(f"    top_y    coeffs: {vec['top_y']}")
                print(f"    bottom_y coeffs: {vec['bottom_y']}")

    _emit(payload, args, render)
    return 0


# ----------------------------------------------------------------------
# sweep / degeneracy / crosscheck / delta4-scan
# ----------------------------------------------------------------------

def cmd_sweep(args) -> int:
    if args.c_min == args.c_max:
        print("error: empty coupling range: --c-min equals --c-max",
              file=sys.stderr)
        return 2
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = spectral.sweep(args.n, args.c_min, args.c_max, args.steps)
    if args.branches:
        spectral.write_csv(out, "absE", result.abs_branches())
    else:
        spectral.write_csv(out, "E", result.rows)
    if args.out:
        out.close()
    return 0


def cmd_degeneracy(args) -> int:
    if not args.c_min < args.c_max:
        print("error: empty coupling bracket", file=sys.stderr)
        return 2
    try:
        result = spectral.find_degeneracy(args.n, args.c_min, args.c_max)
    except spectral.NoDegeneracyError as exc:
        print(f"no-degeneracy: {exc}", file=sys.stderr)
        return 1
    payload = {
        "n": args.n,
        "c_star": round12(result.c_star),
        "gap": round12(result.gap),
        "lower_level": result.lower_level,
        "upper_level": result.upper_level,
        "levels": [round12(v) for v in result.levels],
    }

    def render(pl):
        print(
            f"c* = {format_sig(pl['c_star'])}  gap = {format_sig(pl['gap'])}  "
            f"levels {pl['lower_level']} and {pl['upper_level']} collide"
        )
        print("levels at c*: "
              + ", ".join(format_sig(v) for v in pl["levels"]))

    _emit(payload, args, render)
    return 0


CROSSCHECK_COLUMNS = ("algebraic", "numeric", "diff")


def cmd_crosscheck(args) -> int:
    spec = _spec(args)
    result = spectral.numeric_crosscheck(
        spec, grid_points=args.grid, box_half_width=args.box
    )
    payload = {
        **_coupling_fields(spec),
        "grid_points": result.grid_points,
        "box_half_width": result.box_half_width,
        "rows": [
            {key: round12(getattr(r, key)) for key in CROSSCHECK_COLUMNS}
            for r in result.rows
        ],
        "max_diff": round12(result.max_diff),
        "boundary_amplitude": round12(result.boundary_amplitude),
    }

    def render(pl):
        print(_coupling_header(pl))
        print(f"# grid={pl['grid_points']} "
              f"box={format_sig(pl['box_half_width'])}")
        print("algebraic,numeric,abs_diff")
        for row in pl["rows"]:
            print(",".join(format_sig(row[key]) for key in CROSSCHECK_COLUMNS))
        print(f"max_diff = {format_sig(pl['max_diff'])}")
        print(f"boundary_amplitude = {format_sig(pl['boundary_amplitude'])}")

    _emit(payload, args, render)
    if result.boundary_amplitude > 1e-6:
        print("error: boundary amplitude too large; box too small",
              file=sys.stderr)
        return 1
    return 0


def cmd_delta4_scan(args) -> int:
    reports = verify.delta4_scan(n=args.n)
    zeros = sum(1 for r in reports if r.residual_quadratic_norm == 0)
    for report in reports:
        print(report.line())
    print(f"# points={len(reports)} counterexamples={zeros}")
    return 1 if zeros else 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeslab",
        description=(
            "Exact-arithmetic laboratory for the graded operator families "
            "and the coupled sextic operator pair"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run every exact relation suite over the (n, gap) box"
    )
    p_verify.add_argument("--n-max", type=int, default=12)
    p_verify.add_argument("--delta-max", type=at_least(1), default=4)
    p_verify.add_argument(
        "--inject-fault",
        metavar="NAME",
        default=None,
        help="perturb one named generator (e.g. T+, QBAR2) to prove the "
        "suite is sensitive",
    )
    p_verify.add_argument(
        "--quiet", action="store_true", help="print only failures and summary"
    )
    p_verify.set_defaults(func=cmd_verify)

    # both doublet components of the operator pair are nonempty
    degree = at_least(2)

    def add_coupling(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--c", type=rational, default=None,
                           help="coupling c as an exact rational p/q")
        group.add_argument("--k0", type=rational, default=None,
                           help="raw parameter k0 as an exact rational p/q")

    p_spectrum = sub.add_parser(
        "spectrum", help="algebraic levels, eigenvectors and node counts"
    )
    p_spectrum.add_argument("--n", type=degree, required=True)
    add_coupling(p_spectrum)
    p_spectrum.add_argument("--format", choices=("text", "json"),
                            default="text")
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_charpoly = sub.add_parser(
        "charpoly", help="symbolic characteristic polynomial"
    )
    p_charpoly.add_argument("--n", type=degree, required=True)
    p_charpoly.add_argument("--variable", choices=("c", "k0"), default="c")
    p_charpoly.add_argument("--format", choices=("text", "json"),
                            default="text")
    p_charpoly.set_defaults(func=cmd_charpoly)

    p_sweep = sub.add_parser(
        "sweep", help="levels on a uniform coupling grid, CSV output"
    )
    p_sweep.add_argument("--n", type=degree, required=True)
    p_sweep.add_argument("--c-min", type=rational, required=True)
    p_sweep.add_argument("--c-max", type=rational, required=True)
    p_sweep.add_argument("--steps", type=at_least(2), required=True)
    p_sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sweep.add_argument(
        "--branches", action="store_true",
        help="emit |E| magnitude branches instead of signed levels",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_deg = sub.add_parser(
        "degeneracy", help="locate the level collision inside a coupling bracket"
    )
    p_deg.add_argument("--n", type=degree, required=True)
    p_deg.add_argument("--c-min", type=rational, required=True)
    p_deg.add_argument("--c-max", type=rational, required=True)
    p_deg.add_argument("--format", choices=("text", "json"), default="text")
    p_deg.set_defaults(func=cmd_degeneracy)

    p_cross = sub.add_parser(
        "crosscheck", help="finite-difference validation of the algebraic levels"
    )
    p_cross.add_argument("--n", type=degree, required=True)
    add_coupling(p_cross)
    p_cross.add_argument("--grid", type=at_least(spectral.FD_MIN_GRID),
                         default=800)
    p_cross.add_argument("--box", type=at_least(spectral.FD_MIN_BOX, float),
                         default=4.5)
    p_cross.add_argument("--format", choices=("text", "json"), default="text")
    p_cross.set_defaults(func=cmd_crosscheck)

    p_scan = sub.add_parser(
        "delta4-scan",
        help="grid certificate that the gap-4 mixed quintet never closes",
    )
    p_scan.add_argument("--n", type=at_least(verify.QUINTET_GAP), default=6)
    p_scan.set_defaults(func=cmd_delta4_scan)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(attach_negative_rationals(argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
