"""End-to-end acceptance: ten checks, one printed pass/fail line each,
and the golden stdout of the relation-prover and charpoly commands.

Run with `pytest -s -v tests/test_acceptance.py` to see the lines.
"""

import hashlib
import math
import time
from fractions import Fraction

from qeslab.cli import main
from qeslab.exactnum import ParamPoly
from qeslab.generators import (
    ANTICOMM_METRIC,
    DEFAULT_MIX,
    MixSpec,
    discover_mix,
    fault_names,
)
from qeslab.spectral import (
    HamiltonianSpec,
    algebraic_spectrum,
    eigenvectors_y,
    find_degeneracy,
    hamiltonian_leakage_reports,
    numeric_crosscheck,
    reflection_check,
    sweep,
    symbolic_char_poly,
)
from qeslab.verify import (
    default_suite,
    delta4_scan,
    failures,
    generator_set,
    leakage_reports,
    verify_q2,
    verify_q2_matrix,
)

F = Fraction


def report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {detail} -> {'pass' if ok else 'FAIL'}")
    assert ok, f"{tag}: {detail}"


def test_c01_exact_relation_suite_runs_clean_and_fast():
    start = time.perf_counter()
    reports = default_suite(n_max=12, delta_max=4)
    elapsed = time.perf_counter() - start
    bad = failures(reports)
    ok = bool(reports) and not bad and elapsed < 10.0
    report(
        "C01",
        ok,
        f"exact relation suite n<=12 gap<=4: {len(reports)} relations, "
        f"{len(bad)} failures, {elapsed:.2f}s (budget 10s)",
    )


def test_c02_pair_family_closes_with_discovered_mix():
    discovery = discover_mix()
    ok = (
        discovery.selected == DEFAULT_MIX
        and discovery.selected == MixSpec(F(-1), F(1), F(-1))
        and discovery.metric == ANTICOMM_METRIC
    )
    bad = []
    for n in range(2, 11):
        gens = generator_set(n, 2)
        bad += failures(verify_q2(gens, mix=discovery.selected))
        bad += failures(verify_q2_matrix(gens, mix=discovery.selected))
    ok = ok and not bad
    report(
        "C02",
        ok,
        "mixed-triplet pair family with discovered mix "
        f"{discovery.selected.label()}: anticommutator table and diagonal "
        f"pairing hold exactly for n=2..10 ({len(bad)} failures)",
    )


def test_c03_degree_two_spectrum():
    cp = symbolic_char_poly(2, "c")
    c = ParamPoly.gen("c")
    lam = ParamPoly.gen("lam")
    expected = lam**4 + (c * c * (-2) - 64) * lam**2 + (c**4 + c * c * 32)
    spectrum = algebraic_spectrum(HamiltonianSpec(2, F(0)))
    roots = [(lv.exact, lv.multiplicity) for lv in spectrum.levels]
    ok = cp == expected and roots == [(F(-8), 1), (F(0), 2), (F(8), 1)]
    report(
        "C03",
        ok,
        "n=2 characteristic polynomial matches the closed form identically "
        "in c; decoupled-point roots exactly {-8, 0, 0, 8}",
    )


def test_c04_degree_three_spectrum():
    cp = symbolic_char_poly(3, "c")
    c = ParamPoly.gen("c")
    ok = (
        cp.coeff(6) == F(1)
        and cp.coeff(4) == c * c * (-3) - 248
        and cp.coeff(2) == c**4 * 3 + c * c * 240 + 4800
        and cp.coeff(0) == c**6 * (-1) + c**4 * 8 + c * c * 1344 - 23040
        and all(cp.coeff(p) == F(0) for p in (1, 3, 5))
    )
    report(
        "C04",
        ok,
        "n=3 characteristic polynomial coefficients match the closed form "
        "exactly (zero tolerance)",
    )


def test_c05_node_count_table():
    ok = True
    for c in (F(1, 2), F(1), F(4)):
        funcs = sorted(
            eigenvectors_y(algebraic_spectrum(HamiltonianSpec.from_c(2, c))),
            key=lambda f: f.level.value,
        )
        ok = ok and [f.nodes for f in funcs] == [
            (0, 0),
            (2, 2),
            (2, 0),
            (4, 2),
        ]
        ok = ok and funcs[0].nodes == (0, 0)
    report(
        "C05",
        ok,
        "node-count pairs at c in {1/2, 1, 4} are (0,0),(2,2),(2,0),(4,2) "
        "in increasing-level order; ground state nodeless",
    )


def test_c06_level_collision_and_branch_separation():
    result = find_degeneracy(3, F(0), F(10))
    ok = 4.0 <= result.c_star <= 6.0 and result.gap < 0.05
    rows = sweep(3, F(0), F(4), 9).abs_branches()
    rows += sweep(3, F(11, 2), F(19, 2), 9).abs_branches()
    for _, mags in rows:
        ok = ok and len(mags) == 3
        ok = ok and min(b - a for a, b in zip(mags, mags[1:])) > 1e-6
    report(
        "C06",
        ok,
        f"level collision at c*={result.c_star:.6f} in [4, 6] with gap "
        f"{result.gap:.2e} < 0.05; three separated magnitude branches "
        "elsewhere on the sweep",
    )


def test_c07_reflection_symmetry_certificates(add_quartic_hook):
    ok = True
    for n in range(2, 7):
        reports = reflection_check(n)
        ok = ok and all(r.holds for r in reports)
        ok = ok and [r.tag for r in reports] == ["33", "33EVEN"]
    add_quartic_hook()
    hook = reflection_check(4)
    ok = ok and [r.tag for r in hook] == ["33", "33EVEN"]
    ok = ok and not any(r.holds for r in hook)
    report(
        "C07",
        ok,
        "sign-flip conjugation negates the restricted matrix for n=2..6 "
        "symbolic in k0, odd characteristic coefficients vanish identically, "
        "and the quartic test hook breaks both certificates",
    )


def test_c08_finite_difference_crosscheck():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for c in (F(0), F(1)):
        spec = HamiltonianSpec.from_c(2, c)
        result = numeric_crosscheck(spec, grid_points=800, box_half_width=4.5)
        worst = max(worst, result.max_diff)
        ok = ok and result.max_diff < 1e-3
        ok = ok and result.boundary_amplitude < 1e-6
        ok = ok and len(result.rows) == 4
    coarse = numeric_crosscheck(
        HamiltonianSpec.from_c(2, F(1)), grid_points=400, box_half_width=4.5
    )
    fine_diff = numeric_crosscheck(
        HamiltonianSpec.from_c(2, F(1)), grid_points=800, box_half_width=4.5
    ).max_diff
    ratio = coarse.max_diff / fine_diff
    elapsed = time.perf_counter() - start
    ok = ok and 3.0 < ratio < 5.0 and elapsed < 60.0
    report(
        "C08",
        ok,
        f"finite-difference match at grid 800 / box 4.5 within 1e-3 "
        f"(worst {worst:.2e}) for both couplings; error ratio {ratio:.2f} "
        f"is second order; {elapsed:.1f}s (budget 60s)",
    )


def test_c09_gap_four_obstruction_scan():
    reports = delta4_scan(n=6)
    zero = [r for r in reports if r.residual_quadratic_norm == 0]
    ok = len(reports) == 100 and not zero
    report(
        "C09",
        ok,
        f"gap-4 mixed-family scan over the default grid: {len(reports)} "
        f"points, {len(zero)} counterexamples — every anticommutator "
        "retains quadratic residue",
    )


def test_c10_invariance_certificates():
    bad = []
    for delta in range(1, 5):
        for n in range(max(2, delta), 13):
            bad += failures(leakage_reports(generator_set(n, delta)))
    ham = hamiltonian_leakage_reports(12)
    bad += [r for r in ham if not r.holds]
    ok = not bad and len(ham) == 11
    report(
        "C10",
        ok,
        "every generator preserves its doublet for n<=12, gap<=4, and the "
        "gauged operator preserves its doublet symbolically in k0 for "
        f"n=2..12 ({len(bad)} leaks)",
    )


# sha256 of the complete stdout: `verify` prints 2679 EQ lines and its
# summary, `delta4-scan --n 6` 100 point lines with their norms and worst
# pairs, then its summary.  Every span=, metric= and
# residual_quadratic_norm= field is pinned, not only the last lines.  The
# `charpoly` runs pin every printed nested coefficient in Q[c] and Q[k0],
# in the text and in the JSON rendering.
GOLDEN_STDOUT = {
    ("verify",): "e57a349bdafbdaed8a335a6245a512c39bced2f419547abfb3f20a8e0c3fb1d3",
    ("delta4-scan", "--n", "6"):
        "2ae8ddb0fa3a7a25c82c7fe57ff747c765de14b3bf91aa80fb25a5c71f8dd884",
    ("charpoly", "--n", "10", "--variable", "c"):
        "fa43a5662a7ea0d182e76ffef933182610d24f15e0aa73087c4c4d1c57fb2a63",
    ("charpoly", "--n", "9", "--variable", "k0"):
        "113515ad8e09553f8a0483815c786d6e9fb90fff1495ae11afeb11bce2931d76",
    ("charpoly", "--n", "9", "--variable", "k0", "--format", "json"):
        "065d0c7350ecfaa7d1547750acfae43b00e5c6fc9d5ad421e6442d8f8a91bd62",
    # recorded before the span projection moved to integer numerators:
    # the scan at a second degree, whose projections run on a larger
    # span basis
    ("delta4-scan", "--n", "8"):
        "c6a6fda6f407a5bddc6a31d6c09297d9e37dcadc804c2274ddee1f7b1c2c3a66",
}

# stdout of runs that exit 1: their summary line and the sha256 of the
# whole stdout.  The fault in Q1 changes the osp(2,2) span= coefficients,
# so the first pin holds projections onto a perturbed basis.  The
# `--n-max 6` pins, one per name of fault_names(4), fix which relations
# each fault breaks, so a change in the operator arithmetic that flips a
# status line shows, not only the exit status.
GOLDEN_FAILING_STDOUT = {
    ("verify", "--inject-fault", "Q1"): (
        "# reports=2679 failures=238",
        "38d6a07f2140ba1f2f0ab9be37c977453672dfe47dc4da57bacdde85d3272824",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "T+"): (
        "# reports=1149 failures=297",
        "3b7889ea5b44dfbdb94ed135fec6697e13344341f6e7013be649138d968c1625",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "T0"): (
        "# reports=1149 failures=317",
        "12bcd7da0b4345da1a587f4c3afad3fd5c3189ae7a7be1bb04adcd0fa7204d6b",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "T-"): (
        "# reports=1149 failures=255",
        "d46e7892e0f4b789fbea2537dab2bca956dda58c87212a2cf78376e9155b4a82",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "J"): (
        "# reports=1149 failures=116",
        "d18794c6ed9037aba840c3d8694de3e1c80eb27577f96a8978b934fa1b0d1419",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "Q1"): (
        "# reports=1149 failures=106",
        "5177e840fdc11380dafbba601a7e16c039dc470f7ffa3ff7d4fb5af514b2a082",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "QBAR1"): (
        "# reports=1149 failures=193",
        "68499d608ab66ac7e3b5ac439d82c34dcff97392738c176053db704043557dc1",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "Q2"): (
        "# reports=1149 failures=150",
        "be9b4e59d9dfa0ed35b6b7d8843db7ec7af4c58659215eb6085cbac552401b20",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "QBAR2"): (
        "# reports=1149 failures=197",
        "51a5b7e9e84a47e42fa07f65944070de02103c8147e98d5bc2f58c3098bba11c",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "Q3"): (
        "# reports=1149 failures=108",
        "1e4f7b9b58a49737b1f7fc83ca0b96a5c10c1f5c977b3ce2ff44f27a7758b805",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "QBAR3"): (
        "# reports=1149 failures=115",
        "2f841afd7e3f3467b6b9fe3051f3a053fd3557ce5a586a37ab7d3510b32e07da",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "Q4"): (
        "# reports=1149 failures=20",
        "2537f6ea47a1129719e3dcd1be1291ae2ef41d0bc98d8f6b8633cf32a96ab8b8",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "QBAR4"): (
        "# reports=1149 failures=23",
        "5ef38bda0749e736da8bd87358b8d63e283c38d6b5d9fab69e2e84aa55e58323",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "Q5"): (
        "# reports=1149 failures=6",
        "ecf3c5daf1a12b55616a166548a6623312683053c9030691bc54765634cea144",
    ),
    ("verify", "--n-max", "6", "--inject-fault", "QBAR5"): (
        "# reports=1149 failures=6",
        "ecfb9b342d794e209fcd9bf3d9a12e729ce4be79784af6da18b3d12ce9e7776e",
    ),
}


def test_golden_stdout_of_verify_and_delta4_scan(capsys):
    for argv, want in GOLDEN_STDOUT.items():
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        got = hashlib.sha256(out.encode()).hexdigest()
        assert got == want, f"qeslab {' '.join(argv)}: stdout hash {got}"


def test_golden_stdout_of_a_failing_verify(capsys):
    pinned = [argv[-1] for argv in GOLDEN_FAILING_STDOUT if "--n-max" in argv]
    assert pinned == list(fault_names(4))
    for argv, (summary, want) in GOLDEN_FAILING_STDOUT.items():
        assert main(list(argv)) == 1
        out = capsys.readouterr().out
        assert out.endswith(summary + "\n"), f"qeslab {' '.join(argv)}"
        got = hashlib.sha256(out.encode()).hexdigest()
        assert got == want, f"qeslab {' '.join(argv)}: stdout hash {got}"


# sha256 of the complete stdout of the commands that print levels,
# recorded before integer Horner and the Newton guess entered root
# refinement: every printed level and eigenvector digit is pinned, so a
# move of Root.value by one ulp shows in the eigenvector digits of
# `spectrum` even where the 12-digit level does not move.
GOLDEN_LEVEL_STDOUT = {
    ("sweep", "--n", "3", "--c-min", "1/8", "--c-max", "81/8", "--steps", "200"):
        "961f9319647565367208ab9c4b86571a8545f8120e6ce916ba85e2adc3c71ddc",
    ("sweep", "--n", "5", "--c-min", "3/8", "--c-max", "83/8", "--steps", "30"):
        "a2f65bada3cdd8b2aca01f1c9ae28a1d396281bac53ede96c2b0cf6a97fd11be",
    ("spectrum", "--n", "8", "--c", "17/8"):
        "4b3f70aed103ebd7fa1ec9e6f82873875d05811f820e1ce37235e95b18822d2b",
    ("spectrum", "--n", "12", "--c", "17/8"):
        "9a9859913c16a95ceff4e1a8f62cf39d0c0b822ff3f78cd97a68cda62c3ff0ab",
    # the JSON rendering, recorded later, before the one integer form
    ("spectrum", "--n", "8", "--c", "17/8", "--format", "json"):
        "30ca671afb9883342219973daba044c98ac631a60a510fcf5b0fc926fa074eb0",
    ("degeneracy", "--n", "8", "--c-min", "0", "--c-max", "10"):
        "7b656c0cb3a3b26af1d688e38ccce211bce63e2c08ea5e250b28ea7d7824d702",
    # the window around the collision at c* = sqrt(24) that CI sweeps
    ("sweep", "--n", "3", "--c-min", "48989794855/10000000000",
     "--c-max", "48989804855/10000000000", "--steps", "50"):
        "79eb5b36cd245f4aac7a729b417f82f828f66d3a2a8203f9e46edfc5fb22f6e5",
}


def test_golden_stdout_of_sweep_spectrum_and_degeneracy(capsys):
    for argv, want in GOLDEN_LEVEL_STDOUT.items():
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        got = hashlib.sha256(out.encode()).hexdigest()
        assert got == want, f"qeslab {' '.join(argv)}: stdout hash {got}"
