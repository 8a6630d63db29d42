"""End-to-end acceptance: ten checks, one printed pass/fail line each.

Run with `pytest -s -v tests/test_acceptance.py` to see the lines.
"""

import math
import time
from fractions import Fraction

from qeslab.exactnum import ParamPoly
from qeslab.generators import (
    ANTICOMM_METRIC,
    DEFAULT_MIX,
    MixSpec,
    discover_mix,
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
