"""Relation suites: exhaustive checks, fault sensitivity, the gap-4 scan."""

from fractions import Fraction

import pytest
import sympy

from qeslab import cli, generators, spectral, verify, weyl
from qeslab.exactnum import ParamPoly, VariableMismatchError, scaled_horner
from qeslab.generators import ANTICOMM_METRIC, DEFAULT_MIX, SIGN_MATRICES, MixSpec, perturb
from qeslab.verify import (
    default_scan_grid,
    default_suite,
    delta4_scan,
    failures,
    fault_names,
    generator_set,
    leakage_reports,
    osp22_reports,
    scan_point,
    specialize_reports,
    verify_identities,
    verify_q2,
    verify_q2_matrix,
    verify_sl2,
    verify_tensor,
    verify_triplets,
)
from qeslab.weyl import DiffOp, MatOp, relation_report, restrict

F = Fraction


def test_default_suite_holds_on_medium_box():
    reports = default_suite(n_max=8, delta_max=3)
    assert reports
    assert not failures(reports)


def test_report_line_wire_format():
    lines = [r.line() for r in verify_sl2(generator_set(3, 1))]
    assert lines[0] == "EQ4 n=3 delta=1 which=pm status=holds"
    assert "EQ4J n=3 delta=1 which=p status=holds" in lines
    q2_lines = [r.line() for r in verify_q2(generator_set(4, 2))]
    assert "EQ19 n=4 delta=2 alpha=1 beta=3 metric=-1 status=holds" in q2_lines
    assert "EQ19 n=4 delta=2 alpha=2 beta=2 metric=1/2 status=holds" in q2_lines
    assert "EQ26 n=4 delta=2 status=holds" in q2_lines


def test_atypical_gap_one_pairing_table():
    lines = [r.line() for r in osp22_reports(generator_set(4, 1)) if r.tag == "OSP22"]
    assert lines == [
        "EQOSP22 n=4 delta=1 alpha=1 beta=1 span=1:0,T+:0,T0:1,T-:0,J:-1 status=holds",
        "EQOSP22 n=4 delta=1 alpha=1 beta=2 span=1:0,T+:0,T0:0,T-:1,J:0 status=holds",
        "EQOSP22 n=4 delta=1 alpha=2 beta=1 span=1:0,T+:1,T0:0,T-:0,J:0 status=holds",
        "EQOSP22 n=4 delta=1 alpha=2 beta=2 span=1:0,T+:0,T0:1,T-:0,J:1 status=holds",
    ]


def test_triplet_suite_covers_all_members():
    reports = verify_triplets(generator_set(5, 2))
    assert not failures(reports)
    tags = {tuple(r.fields) for r in reports if r.tag == "15"}
    assert len(tags) == 27  # three families x three members x three actions


@pytest.mark.parametrize(
    "name", ["T+", "T0", "T-", "J", "Q1", "QBAR2"]
)
def test_fault_injection_is_detected(name):
    reports = default_suite(n_max=5, delta_max=2, inject_fault=name)
    assert failures(reports)


def test_unknown_fault_name_rejected():
    with pytest.raises(ValueError):
        default_suite(n_max=4, delta_max=1, inject_fault="NOPE")


def test_fault_on_a_high_gap_tower_member_is_detected():
    # Q3 exists only from gap 2 on; the suite starts at gap 1
    assert failures(default_suite(n_max=5, delta_max=3, inject_fault="Q3"))


def test_every_relation_family_is_reachable_by_a_fault():
    reports = default_suite(n_max=4, delta_max=4)
    failed = set()
    for name in fault_names(4):
        failed |= {r.tag for r in failures(default_suite(4, 4, name))}
    # perturb keeps every block shape, so three tags hold under any fault:
    # 4J: a constant diagonal J commutes with any (faulted) diagonal T;
    # 25: the odd parts of F_a anticommute with sigma3, and d = sigma3,
    #     so {F_a, sigma3} = 2 T_a for any faulted T;
    # 26: {sigma3, sigma3} involves no generator.
    assert {r.tag for r in reports} - failed == {"4J", "25", "26"}


def count_calls(monkeypatch, *names):
    """Count calls of the named generators or verify functions under
    every alias a qeslab module holds."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(generators, name, None) or getattr(verify, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (generators, verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_delta4_scan_builds_one_generator_set(monkeypatch):
    counts = count_calls(monkeypatch, "bosonic_gens", "fermionic_gens")
    delta4_scan(6)
    assert counts == {"bosonic_gens": 1, "fermionic_gens": 1}


def test_delta4_scan_evaluates_no_polynomial(monkeypatch):
    # each quadratic coefficient is cleared once per sign matrix and
    # tested on integers at every grid point
    def refuse(self, value):
        raise AssertionError(f"{self} evaluated at {value}")

    monkeypatch.setattr(ParamPoly, "__call__", refuse)
    assert len(delta4_scan(5)) == 4 * len(default_scan_grid())


def test_polynomial_families_run_once_per_gap(monkeypatch):
    families = (
        "verify_sl2", "verify_tensor", "verify_triplets", "verify_identities",
        "verify_q2",
    )
    counts = count_calls(monkeypatch, *families)
    default_suite()
    assert counts == {
        "verify_sl2": 4, "verify_tensor": 4, "verify_triplets": 1,
        "verify_identities": 1, "verify_q2": 1,
    }


SYMBOLIC_FAMILIES = {
    1: (verify_sl2, verify_tensor),
    2: (verify_sl2, verify_tensor, verify_triplets, verify_identities, verify_q2),
    3: (verify_sl2, verify_tensor),
    4: (verify_sl2, verify_tensor),
}


@pytest.mark.parametrize("fault", (None,) + fault_names(4))
def test_specialized_reports_match_concrete_families(fault):
    # a fault absent at a gap leaves that gap as the no-fault case
    gaps = [d for d in SYMBOLIC_FAMILIES if fault is None or fault in fault_names(d)]
    failed = 0
    for delta in gaps:
        symbolic = generator_set(ParamPoly.gen("n"), delta, fault)
        for family in SYMBOLIC_FAMILIES[delta]:
            reports = family(symbolic)
            for n in range(delta, 8):
                specialized = specialize_reports(reports, n)
                assert specialized == family(generator_set(n, delta, fault))
                failed += len(failures(specialized))
    assert (failed > 0) == (fault is not None)


def test_specialized_residual_holds_where_it_vanishes():
    n = ParamPoly.gen("n")
    residual = MatOp.diag(DiffOp({(1, 1): n - 3}), DiffOp.zero())
    report = relation_report("X", [("n", n), ("delta", 1)], residual)
    assert not report.holds
    (at_3,) = specialize_reports([report], 3)
    assert at_3.holds and at_3.residual is None
    assert at_3.line() == "EQX n=3 delta=1 status=holds"
    (at_4,) = specialize_reports([report], 4)
    assert at_4.line() == "EQX n=4 delta=1 status=fails"
    assert at_4.residual == MatOp.diag(DiffOp.euler(), DiffOp.zero())
    c = ParamPoly.gen("c")
    for combine in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(VariableMismatchError):
            combine(n, c)
        with pytest.raises(VariableMismatchError):
            combine(c, n)


def test_only_matrix_checks_restrict(monkeypatch, capsys):
    # EQ2 and EQ30 read leakage without building a matrix; restrict runs
    # for the q(2) shadow alone (three mixed generators, three tees and
    # sigma3 at each gap-2 point n = 2..12), then for the five reflection
    # certificates (n = 2..6) of `qeslab verify`
    calls = []
    original = weyl.restrict

    def counted(op, module):
        calls.append(module)
        return original(op, module)

    for module in (weyl, verify, spectral):
        monkeypatch.setattr(module, "restrict", counted)
    default_suite()
    assert len(calls) == 7 * 11
    calls.clear()
    assert cli.main(["verify", "--quiet"]) == 0
    capsys.readouterr()
    assert len(calls) == 7 * 11 + 5


def test_perturb_changes_first_populated_entry():
    op = MatOp.diag(DiffOp.zero(), DiffOp.euler())
    bumped = perturb(op)
    assert bumped != op
    assert bumped[0][0].is_zero
    assert bumped[1][1] != DiffOp.euler()


def test_wrong_mix_constant_fails(monkeypatch):
    monkeypatch.setattr(verify, "DEFAULT_MIX", MixSpec(F(1), F(1), F(-1)))
    assert failures(verify_q2(generator_set(4, 2)))
    assert failures(verify_q2_matrix(generator_set(4, 2)))


def test_wrong_sign_matrix_fails(monkeypatch):
    monkeypatch.setattr(verify, "DEFAULT_MIX", MixSpec(F(-1), F(1), F(1)))
    assert failures(verify_q2(generator_set(4, 2)))
    assert failures(verify_q2_matrix(generator_set(4, 2)))


def test_matrix_shadow_consistency():
    reports = verify_q2_matrix(generator_set(5, 2))
    assert reports
    assert not failures(reports)
    assert any(r.tag == "19SHADOW" for r in reports)


def _sympy_matrix(matrix):
    return sympy.Matrix(
        [[sympy.Rational(e.numerator, e.denominator) for e in row] for row in matrix.entries]
    )


@pytest.mark.parametrize("fault", (None,) + fault_names(2))
def test_matrix_shadow_matches_sympy_table(fault):
    # the q(2) table recomputed by sympy on the same restricted matrices:
    # {F_a, F_b} - n^2 g_ab 1 over the nine pairs, then {F_a, s3} - 2 T_a
    kinds = set()
    for n in range(3, 7):
        gens = generator_set(n, 2, fault)
        module = gens.params.module
        restricted = [restrict(op, module) for op in gens.mixed(DEFAULT_MIX) + gens.tees]
        reports = verify_q2_matrix(gens)
        assert [r.tag for r in reports] == ["19SHADOW"] * 12
        leaks = tuple(term for r in restricted for term in r.leakage)
        if leaks:
            assert all(not r.holds and r.residual == leaks for r in reports)
            kinds.add("leakage")
            continue
        effs = [_sympy_matrix(r.matrix) for r in restricted[:3]]
        tees = [_sympy_matrix(r.matrix) for r in restricted[3:]]
        sigma = _sympy_matrix(restrict(MatOp.sigma3(), module).matrix)
        one = sympy.eye(module.dim)
        want = [
            effs[a - 1] * effs[b - 1] + effs[b - 1] * effs[a - 1]
            - n * n * sympy.Rational(ANTICOMM_METRIC.get((a, b), 0)) * one
            for a in (1, 2, 3)
            for b in (1, 2, 3)
        ]
        want += [f * sigma + sigma * f - 2 * t for f, t in zip(effs, tees)]
        for report, residual in zip(reports, want):
            assert report.holds == residual.is_zero_matrix
            if not report.holds:
                assert _sympy_matrix(report.residual) == residual
                kinds.add("arithmetic")
    # J enters no shadow relation; T+, QBAR1 and QBAR2 leak off the doublet
    leaking = fault in ("T+", "QBAR1", "QBAR2")
    assert kinds == (set() if fault in (None, "J") else {"leakage" if leaking else "arithmetic"})


def test_generator_leakage_certificates_empty():
    for n, delta in ((4, 1), (6, 2), (7, 4)):
        reports = leakage_reports(generator_set(n, delta))
        assert reports
        assert not failures(reports)


def test_scan_point_frozen_residuals():
    r = scan_point(6, MixSpec(F(-1), F(1), F(-1)))
    assert r.residual_quadratic_norm == 70
    assert r.worst_pair == (1, 3)
    assert scan_point(5, MixSpec(F(-1), F(1), F(-1))).residual_quadratic_norm == 64
    disabled = scan_point(6, MixSpec(F(1), F(0), F(0)))
    assert disabled.residual_quadratic_norm == 96


def test_scan_report_line_format():
    r = scan_point(6, MixSpec(F(-1), F(1), F(-1)))
    assert r.line() == (
        "point c=-1 d=diag(1,-1) residual_quadratic_norm=70 worst_pair=13"
    )


def test_default_grid_shape():
    grid = default_scan_grid()
    assert len(grid) == 25
    assert grid[0] == F(-3) and grid[-1] == F(3)
    assert grid[13] - grid[12] == F(1, 4)


def test_small_scan_has_no_counterexamples():
    reports = [r for r in delta4_scan(5) if r.mix.c_mix in (F(-1), F(0), F(1))]
    assert len(reports) == 12
    assert all(r.residual_quadratic_norm > 0 for r in reports)


def test_scan_point_matches_symbolic_scan():
    # concrete-c projection against symbolic-c projection then evaluation
    c_values = (F(-1), F(0), F(1))
    reports = [r for r in delta4_scan(5) if r.mix.c_mix in c_values]
    expected = [
        scan_point(5, MixSpec(c, d_top, d_bottom))
        for d_top, d_bottom in SIGN_MATRICES
        for c in c_values
    ]
    assert reports == expected


def test_scan_needs_the_gap4_doublet():
    for call in (lambda: delta4_scan(3), lambda: scan_point(3, MixSpec(1, 1, -1))):
        with pytest.raises(ValueError, match="gap-4 scan needs n >= 4"):
            call()


def test_root_counts_equal_horner_at_every_grid_point():
    # residual terms a0 + a1 c + a2 c^2 as (a0, a1, a2)
    quadratics = {
        (1, 1): [(1, 2, 1)],  # (c + 1)^2: a double root on the grid
        (1, 2): [(1, -2, 0), (0, 3, 0)],  # linear, roots 1/2 and 0
        (1, 3): [(5, 0, 0)],  # a nonzero constant
        (2, 2): [(-2, 0, 1), (1, 1, 1)],  # irrational and complex roots
        (2, 3): [(-5, 34, 7)],  # (7c - 1)(c + 5): rational, off the grid
        (3, 3): [(2, -9, 4), (4, 4, 1), (-4, 0, 1)],  # 1/4 and 2, -2 twice, +-2
    }
    for d_top, d_bottom in SIGN_MATRICES:
        reports = verify._obstruction_reports(quadratics, d_top, d_bottom)
        assert [r.mix.c_mix for r in reports] == list(default_scan_grid())
        for report in reports:
            c = report.mix.c_mix
            norms = {
                pair: sum(1 for t in terms if scaled_horner(t, c.numerator, c.denominator)[0])
                for pair, terms in quadratics.items()
            }
            assert report == verify.ObstructionReport(
                MixSpec(c, d_top, d_bottom), sum(norms.values()), max(norms, key=norms.get)
            )
