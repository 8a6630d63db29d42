"""Constructors for the graded operator families on polynomial doublets.

The even (block-diagonal) family consists of a raising / Cartan /
lowering triple acting component-wise plus a charge operator that
separates the two components; the odd (off-diagonal) families are two
towers indexed by 1..gap+1: multiplication towers sending the top
component down, and differential towers sending the bottom component
up.  For gap 2 the towers themselves transform as spin-1 triplets, and
one exact rational mixing of the three triplets closes into a finite
superalgebra; ``discover_mix`` finds that mixing (and the resulting
anticommutator table) by computation instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from qeslab.exactnum import ParamPoly, poly_gcd, real_roots
from qeslab.weyl import (
    DiffOp,
    MatOp,
    ModuleSpec,
    Span,
    anticommutator,
    anticommutator_residuals,
)


@dataclass(frozen=True)
class AlgebraParams:
    """Degrees of the preserved doublet P(n - delta) (+) P(n)."""

    n: int
    delta: int

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("degree gap must be at least 1")
        if self.n - self.delta < -1:
            raise ValueError("top component degree below -1")

    @property
    def top_degree(self) -> int:
        return self.n - self.delta

    @property
    def module(self) -> ModuleSpec:
        return ModuleSpec(self.top_degree, self.n)


def sl2_gens(n: int):
    """(raising, Cartan, lowering) first-order operators on P(n).

    raising = x^2 d - n x annihilates x^n; Cartan = xd - n/2 is diagonal
    on monomials; lowering = d.
    """
    if n < 0:
        raise ValueError("component degree must be nonnegative")
    raising = DiffOp({(2, 1): 1, (1, 0): -n})
    cartan = DiffOp({(1, 1): 1, (0, 0): -Fraction(n, 2)})
    lowering = DiffOp.d()
    return raising, cartan, lowering


@dataclass(frozen=True)
class BosonicSet:
    """Block-diagonal generators preserving the doublet."""

    params: AlgebraParams
    raise_op: MatOp
    cartan_op: MatOp
    lower_op: MatOp
    charge_op: MatOp

    @property
    def triple(self):
        return (self.raise_op, self.cartan_op, self.lower_op)


def bosonic_gens(params: AlgebraParams) -> BosonicSet:
    top_r, top_c, top_l = sl2_gens(params.top_degree)
    bot_r, bot_c, bot_l = sl2_gens(params.n)
    charge = MatOp.diag(
        Fraction(params.n + params.delta, 2), Fraction(params.n, 2)
    )
    return BosonicSet(
        params=params,
        raise_op=MatOp.diag(top_r, bot_r),
        cartan_op=MatOp.diag(top_c, bot_c),
        lower_op=MatOp.diag(top_l, bot_l),
        charge_op=charge,
    )


def lowering_word(n: int, delta: int, alpha: int) -> DiffOp:
    """Scalar word behind the alpha-th differential tower operator.

    product_{j=0}^{delta-alpha} (xd - (n+1-delta) - j)  .  d^(alpha-1)

    It maps P(n) into P(n-delta): the Euler factors annihilate exactly
    the monomial degrees that d^(alpha-1) alone would leave too high.
    """
    if not 1 <= alpha <= delta + 1:
        raise ValueError(f"tower index {alpha} outside 1..{delta + 1}")
    word = DiffOp.d(alpha - 1) if alpha > 1 else DiffOp.one()
    euler = DiffOp.euler()
    for j in range(delta - alpha + 1):
        word = (euler - (n + 1 - delta + j)) * word
    return word


@dataclass(frozen=True)
class FermionicSet:
    """Off-diagonal towers indexed 1..delta+1.

    ``to_bottom[a]`` multiplies the top component by x^(a-1) and moves
    it down; ``to_top[a]`` applies a degree-lowering differential word
    to the bottom component and moves it up.
    """

    params: AlgebraParams
    to_bottom: dict
    to_top: dict

    def to_bottom_or_zero(self, alpha: int) -> MatOp:
        return self.to_bottom.get(alpha, MatOp.zero())

    def to_top_or_zero(self, alpha: int) -> MatOp:
        return self.to_top.get(alpha, MatOp.zero())


def fermionic_gens(params: AlgebraParams) -> FermionicSet:
    n, delta = params.n, params.delta
    to_bottom = {
        alpha: MatOp.lower_shift(DiffOp.x(alpha - 1) if alpha > 1 else 1)
        for alpha in range(1, delta + 2)
    }
    to_top = {
        alpha: MatOp.raise_shift(lowering_word(n, delta, alpha))
        for alpha in range(1, delta + 2)
    }
    return FermionicSet(params=params, to_bottom=to_bottom, to_top=to_top)


def odd_multiplets(towers: FermionicSet):
    """(to_top[1..delta+1], to_bottom[delta+1..1]): both odd towers in
    multiplet order, for any gap."""
    top = towers.params.delta + 1
    return (
        tuple(towers.to_top[a] for a in range(1, top + 1)),
        tuple(towers.to_bottom[a] for a in range(top, 0, -1)),
    )


def mixed_multiplet(qbar, pees, even, c, d: MatOp):
    """F_a = Qbar_a + c P_a + d E_a; `c` may be a symbolic polynomial."""
    return tuple(q + p * c + d * e for q, p, e in zip(qbar, pees, even))


# ----------------------------------------------------------------------
# gap-2 triplets and their mixing
# ----------------------------------------------------------------------

TRIPLET_GAP = 2


def _require_gap2(params: AlgebraParams):
    if params.delta != TRIPLET_GAP:
        raise ValueError("triplet structure requires degree gap 2")


def qbar_triplet(params: AlgebraParams):
    """Differential towers in triplet order (index alpha-1)."""
    _require_gap2(params)
    return odd_multiplets(fermionic_gens(params))[0]


def p_triplet(params: AlgebraParams):
    """Multiplication towers reversed into triplet order."""
    _require_gap2(params)
    return odd_multiplets(fermionic_gens(params))[1]


def t_triplet(params: AlgebraParams):
    """(raising, Cartan, lowering) as a triplet."""
    b = bosonic_gens(params)
    return b.triple


@dataclass(frozen=True)
class MixSpec:
    """Rational mixing of the three triplets: Qbar + c_mix P + d T,
    with d the constant diagonal matrix diag(d_top, d_bottom)."""

    c_mix: Fraction
    d_top: Fraction
    d_bottom: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c_mix", Fraction(self.c_mix))
        object.__setattr__(self, "d_top", Fraction(self.d_top))
        object.__setattr__(self, "d_bottom", Fraction(self.d_bottom))

    def d_mat(self) -> MatOp:
        return MatOp.diag(self.d_top, self.d_bottom)

    def label(self) -> str:
        return (
            f"c={self.c_mix} d=diag({self.d_top},{self.d_bottom})"
        )


def triplet_F(params: AlgebraParams, mix: "MixSpec" = None):
    """The mixed triplet  F_a = Qbar_a + c_mix P_a + d T_a."""
    _require_gap2(params)
    if mix is None:
        mix = DEFAULT_MIX
    qbar, pees = odd_multiplets(fermionic_gens(params))
    return mixed_multiplet(
        qbar, pees, t_triplet(params), mix.c_mix, mix.d_mat()
    )


@dataclass(frozen=True)
class Q2Set:
    """Everything needed to check the closed superalgebra at gap 2."""

    params: AlgebraParams
    mix: MixSpec
    tees: tuple
    effs: tuple
    sigma: MatOp
    metric: dict


def q2_gens(params: AlgebraParams, mix: "MixSpec" = None) -> Q2Set:
    _require_gap2(params)
    if mix is None:
        mix = DEFAULT_MIX
    return Q2Set(
        params=params,
        mix=mix,
        tees=t_triplet(params),
        effs=triplet_F(params, mix),
        sigma=MatOp.sigma3(),
        metric=dict(ANTICOMM_METRIC),
    )


# ----------------------------------------------------------------------
# gap-4 quintet
# ----------------------------------------------------------------------

QUINTET_GAP = 4


def quintet_S(params: AlgebraParams):
    """Quadratic words in the even triple transforming as a 5-plet."""
    if params.delta != QUINTET_GAP:
        raise ValueError("quintet structure requires degree gap 4")
    tp, t0, tm = t_triplet(params)
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    return (
        tp * tp,
        anticommutator(tp, t0) * half,
        (t0 * t0 * 2 + anticommutator(tp, tm) * half) * third,
        anticommutator(t0, tm) * half,
        tm * tm,
    )


# ----------------------------------------------------------------------
# mix discovery
# ----------------------------------------------------------------------

SIGN_MATRICES = (
    (Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(-1)),
    (Fraction(-1), Fraction(1)),
    (Fraction(-1), Fraction(-1)),
)


@dataclass(frozen=True)
class MixDiscovery:
    """Result of scanning for a superalgebra-closing mix.

    ``candidates`` are all (c_mix, sign matrix) combinations for which
    every pairwise anticommutator of the mixed triplet is an exact
    rational multiple of the identity; ``selected`` is the candidate
    whose anticommutator with diag(1,-1) reproduces +2x the even
    triplet; ``metric`` maps (alpha, beta) to the identity coefficient
    divided by n^2.
    """

    candidates: tuple
    selected: MixSpec
    metric: dict


def _common_rational_roots(polys):
    """Exact common rational roots of nonzero polynomials in the mix
    constant (constants count as degree-0 polynomials)."""
    gcd = ParamPoly.zero("c")
    for p in polys:
        if not isinstance(p, ParamPoly):
            p = ParamPoly("c", [p])
        gcd = poly_gcd(gcd, p)
        if gcd.degree == 0:
            return []
    return [r.exact for r in real_roots(gcd) if r.exact is not None]


def discover_mix(n: int = 5, confirm_n: int = 8) -> MixDiscovery:
    """Search (sign matrix) x (symbolic c) for a closing mix at gap 2.

    For each diagonal sign matrix the mix constant is left symbolic, every
    anticommutator is projected onto the scalars, and the common rational
    roots in c of the residual coefficients give the candidates.  The
    anticommutator table is recomputed at a second degree to certify the
    n^2 scaling of the metric.
    """
    candidates = []
    tables = {}
    for d_top, d_bottom in SIGN_MATRICES:
        for c_value in _closing_constants(n, d_top, d_bottom):
            mix = MixSpec(c_value, d_top, d_bottom)
            candidates.append(mix)
            tables[mix] = _metric_table(n, mix)
    selected = None
    for mix in candidates:
        effs = triplet_F(AlgebraParams(n, TRIPLET_GAP), mix)
        tees = t_triplet(AlgebraParams(n, TRIPLET_GAP))
        sigma = MatOp.sigma3()
        if all(
            anticommutator(effs[i], sigma) == tees[i] * 2 for i in range(3)
        ):
            if selected is not None:
                raise ValueError("sign-matrix pairing test is not unique")
            selected = mix
    if selected is None:
        raise ValueError("no candidate pairs with the grading involution")
    metric = tables[selected]
    for other_n in {confirm_n} - {n}:
        if _metric_table(other_n, selected) != metric:
            raise ValueError("metric table is not stable across degrees")
    return MixDiscovery(
        candidates=tuple(candidates), selected=selected, metric=metric
    )


def _closing_constants(n: int, d_top: Fraction, d_bottom: Fraction):
    """Exact mix constants closing every anticommutator for this sign
    matrix: the common rational roots in c of the residual coefficients
    left by projecting the symbolic-c anticommutators onto the scalars."""
    params = AlgebraParams(n, TRIPLET_GAP)
    qbar, pees = odd_multiplets(fermionic_gens(params))
    effs = mixed_multiplet(
        qbar, pees, t_triplet(params), ParamPoly.gen("c"),
        MatOp.diag(d_top, d_bottom),
    )
    residuals = anticommutator_residuals(effs, Span([MatOp.identity()]))
    obstructions = [
        coeff
        for _, residual in residuals.values()
        for row in residual.entries
        for entry in row
        for coeff in entry.terms.values()
    ]
    if not obstructions:
        raise ValueError("anticommutators closed for every mix constant")
    return _common_rational_roots(obstructions)


def _metric_table(n: int, mix: MixSpec) -> dict:
    """(alpha, beta) -> anticommutator scalar / n^2, zeros omitted."""
    effs = triplet_F(AlgebraParams(n, TRIPLET_GAP), mix)
    residuals = anticommutator_residuals(effs, Span([MatOp.identity()]))
    table = {}
    for (a, b), ((scalar,), residual) in residuals.items():
        if not residual.is_zero:
            raise ValueError(f"anticommutator ({a},{b}) is not scalar")
        if scalar:
            table[(a, b)] = table[(b, a)] = scalar / Fraction(n * n)
    return table


# Frozen by running discover_mix (see the tests): the unique mix whose
# anticommutator with diag(1,-1) gives +2x the even triplet.
DEFAULT_MIX = MixSpec(Fraction(-1), Fraction(1), Fraction(-1))

# Frozen anticommutator table of the mixed triplet, as discovered:
# {F_a, F_b} = n^2 * ANTICOMM_METRIC[(a,b)] * identity (absent = 0).
ANTICOMM_METRIC = {
    (1, 3): Fraction(-1),
    (3, 1): Fraction(-1),
    (2, 2): Fraction(1, 2),
}
