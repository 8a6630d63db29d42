"""Generator families: ladder triple, towers, triplets, quintet, mixing."""

from fractions import Fraction

import pytest

from qeslab import generators
from qeslab.exactnum import ParamPoly
from qeslab.generators import (
    ANTICOMM_METRIC,
    DEFAULT_MIX,
    AlgebraParams,
    MixSpec,
    bosonic_gens,
    discover_mix,
    fermionic_gens,
    generator_set,
    lowering_word,
    p_triplet,
    q2_gens,
    qbar_triplet,
    quintet_S,
    sign_matrix_scan,
    sl2_gens,
    t_triplet,
    triplet_F,
)
from qeslab.verify import _span_basis
from qeslab.weyl import DiffOp, MatOp, Span, anticommutator, commutator, x_monomial

F = Fraction


def test_params_validation():
    with pytest.raises(ValueError):
        AlgebraParams(3, 0)
    with pytest.raises(ValueError):
        AlgebraParams(1, 3)
    params = AlgebraParams(4, 2)
    assert params.top_degree == 2
    assert params.module.dim == 8


def test_ladder_triple_closes_scalar_level():
    for n in (3, 7):
        raising, cartan, lowering = sl2_gens(n)
        assert commutator(raising, lowering) == cartan * -2
        assert commutator(cartan, raising) == raising
        assert commutator(cartan, lowering) == lowering * -1
        # the whole degree-n space is preserved
        top = raising.apply(x_monomial(n))
        assert top.is_zero


def test_ladder_triple_closes_matrix_level():
    params = AlgebraParams(5, 2)
    up, mid, down, charge = bosonic_gens(params)
    assert commutator(up, down) == mid * -2
    assert commutator(mid, up) == up
    assert commutator(mid, down) == down * -1
    for t in (up, mid, down):
        assert commutator(charge, t).is_zero


def test_charge_operator_diagonal_form():
    params = AlgebraParams(6, 2)
    charge = bosonic_gens(params)[3]
    n, delta = params.n, params.delta
    expected = MatOp.identity() * F(2 * n + delta, 4) + MatOp.sigma3() * F(
        delta, 4
    )
    assert charge == expected


def test_lowering_word_structure():
    # above the top tower index the word is a pure derivative power
    assert lowering_word(4, 2, 3) == DiffOp.d(2)
    # at the bottom index it is a product of shifted scaling factors
    euler = DiffOp.euler()
    n, delta = 4, 2
    expected = (euler - (n + 1 - delta)) * (euler - (n + 2 - delta))
    assert lowering_word(n, delta, 1) == expected


def test_tower_entries_live_in_single_corners():
    params = AlgebraParams(5, 3)
    gens = generator_set(params.n, params.delta)
    for alpha in range(1, params.delta + 2):
        down = gens.q(alpha)
        up = gens.qbar(alpha)
        assert down[0][0].is_zero and down[0][1].is_zero and down[1][1].is_zero
        assert down[1][0] == DiffOp.x(alpha - 1)
        assert up[0][0].is_zero and up[1][0].is_zero and up[1][1].is_zero
        assert up[0][1] == lowering_word(params.n, params.delta, alpha)
    assert gens.q(0).is_zero
    assert gens.qbar(params.delta + 2).is_zero


def test_tower_ladder_action_spot_checks():
    params = AlgebraParams(6, 3)
    gens = generator_set(params.n, params.delta)
    up, mid, down = gens.tees
    delta = params.delta
    for alpha in range(1, delta + 2):
        q = gens.q(alpha)
        lhs = commutator(up, q)
        rhs = gens.q(alpha + 1) * -(1 - alpha + delta)
        assert lhs == rhs
        lhs0 = commutator(mid, q)
        assert lhs0 == q * -(F(1) - alpha + F(delta, 2))


def test_triplets_transform_with_spin_one_weights():
    n = 5
    params = AlgebraParams(n, 2)
    up, mid, down, _ = bosonic_gens(params)
    for family in (qbar_triplet(params), p_triplet(params), t_triplet(params)):
        v = {1: family[0], 2: family[1], 3: family[2]}
        v[0] = MatOp.zero()
        v[4] = MatOp.zero()
        for alpha in (1, 2, 3):
            assert commutator(up, v[alpha]) == v[alpha - 1] * (1 - alpha)
            assert commutator(mid, v[alpha]) == v[alpha] * (2 - alpha)
            assert commutator(down, v[alpha]) == v[alpha + 1] * (3 - alpha)


def test_reversed_tower_matches_triplet_order():
    params = AlgebraParams(5, 2)
    towers = fermionic_gens(params)
    ps = p_triplet(params)
    for alpha in (1, 2, 3):
        assert ps[alpha - 1] == towers[2 * (3 - alpha)]


def test_quintet_transforms_with_spin_two_weights():
    up, mid, down, _ = bosonic_gens(AlgebraParams(6, 4))
    quintet = quintet_S((up, mid, down))
    v = {alpha: quintet[alpha - 1] for alpha in range(1, 6)}
    v[0] = MatOp.zero()
    v[6] = MatOp.zero()
    for alpha in range(1, 6):
        assert commutator(up, v[alpha]) == v[alpha - 1] * (1 - alpha)
        assert commutator(mid, v[alpha]) == v[alpha] * (3 - alpha)
        assert commutator(down, v[alpha]) == v[alpha + 1] * (5 - alpha)


@pytest.mark.parametrize("c", [ParamPoly.gen("c"), F(-3, 4)])
def test_gap4_mix_is_qbar_plus_c_p_plus_d_quintet(c):
    gens = generator_set(6, 4)
    d = MatOp.diag(F(1), F(-1))
    quintet = quintet_S(gens.tees)
    # P_a is the multiplication tower in multiplet order: Q_(6-a)
    want = tuple(
        gens.qbar(a) + gens.q(6 - a) * c + d * quintet[a - 1]
        for a in range(1, 6)
    )
    assert gens.mixed(MixSpec(c, 1, -1)) == want


def test_mix_needs_a_gap_with_an_even_multiplet():
    with pytest.raises(ValueError):
        generator_set(5, 3).mixed(MixSpec(1, 1, 1))


def test_mix_spec_surface():
    mix = MixSpec(-1, 1, -1)
    assert mix.c_mix == F(-1)
    assert mix.label() == "c=-1 d=diag(1,-1)"
    with pytest.raises(Exception):
        mix.c_mix = F(2)


def test_mix_spec_coerces_the_mix_constant():
    c = ParamPoly.gen("c")
    assert MixSpec(c, 1, -1).c_mix == c
    constant = MixSpec(ParamPoly("c", [F(3, 4)]), 1, -1).c_mix
    assert constant == F(3, 4) and isinstance(constant, Fraction)
    with pytest.raises(ValueError):
        MixSpec(ParamPoly.gen("x"), 1, -1)


def test_discovery_makes_six_projections(monkeypatch):
    # four sign matrices, then the selected metric table at n = 5 and 8
    calls = []
    original = generators.anticommutator_residuals

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(generators, "anticommutator_residuals", counted)
    discover_mix()
    assert len(calls) == 6


def test_gap4_quintet_closes_for_no_c():
    # a nonzero rational residual coefficient obstructs every c in C
    for n in (4, 5, 6):
        gens = generator_set(n, 4)
        scan = list(sign_matrix_scan(gens, Span(_span_basis(gens.tees))))
        assert len(scan) == 4
        for mix, residuals in scan:
            assert rational_obstructions(residuals), (n, mix.label())


def test_gap2_closing_sign_matrices_leave_no_rational_obstruction():
    gens = generator_set(5, 2)
    obstructed = {
        (mix.d_top, mix.d_bottom): bool(rational_obstructions(residuals))
        for mix, residuals in sign_matrix_scan(gens, Span(_span_basis(gens.tees)))
    }
    assert obstructed == {
        (1, 1): True, (1, -1): False, (-1, 1): False, (-1, -1): True,
    }


def rational_obstructions(residuals):
    """The residual coefficients that are nonzero rational constants."""
    return [
        coeff
        for _, residual in residuals.values()
        for row in residual.entries
        for entry in row
        for coeff in entry.terms.values()
        if isinstance(coeff, Fraction) and coeff
    ]


def test_discovered_mix_is_frozen_expectation():
    discovery = discover_mix()
    labels = sorted(m.label() for m in discovery.candidates)
    assert labels == ["c=-1 d=diag(-1,1)", "c=-1 d=diag(1,-1)"]
    assert discovery.selected == DEFAULT_MIX
    assert DEFAULT_MIX == MixSpec(F(-1), F(1), F(-1))
    assert discovery.metric == ANTICOMM_METRIC
    assert ANTICOMM_METRIC == {
        (1, 3): F(-1),
        (3, 1): F(-1),
        (2, 2): F(1, 2),
    }


def test_mixed_triplet_closes_for_default_mix():
    n = 4
    params = AlgebraParams(n, 2)
    effs = triplet_F(params)
    tees = t_triplet(params)
    sigma = MatOp.sigma3()
    identity = MatOp.identity()
    for alpha in (1, 2, 3):
        for beta in (1, 2, 3):
            want = ANTICOMM_METRIC.get((alpha, beta), F(0)) * n * n
            got = anticommutator(effs[alpha - 1], effs[beta - 1])
            assert got == identity * want, (alpha, beta)
    for alpha in (1, 2, 3):
        assert anticommutator(effs[alpha - 1], sigma) == tees[alpha - 1] * 2


def test_q2_gens_bundle():
    bundle = q2_gens(AlgebraParams(4, 2))
    assert bundle.mix == DEFAULT_MIX
    assert bundle.metric == ANTICOMM_METRIC
    assert len(bundle.tees) == 3 and len(bundle.effs) == 3
    assert bundle.sigma == MatOp.sigma3()
