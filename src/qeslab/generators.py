"""Constructors for the graded operator families on polynomial doublets.

The even (block-diagonal) family consists of a raising / Cartan /
lowering triple acting component-wise plus a charge operator that
separates the two components; the odd (off-diagonal) families are two
towers indexed by 1..gap+1: multiplication towers sending the top
component down, and differential towers sending the bottom component
up.  ``generator_set(n, gap, fault)`` is the one place where these
generators exist for an (n, gap) point: a ``GeneratorSet`` keyed by
fault name, with at most one generator perturbed, which every relation
suite, the mix discovery and the gap-4 scan read.  At gap 2 the towers
transform as spin-1 triplets and at gap 4 as spin-2 quintets;
``GeneratorSet.mixed`` mixes them with the even multiplet of the same
spin, as one ``MixSpec`` spells it.  ``sign_matrix_scan``, the one loop
over the sign matrices, feeds both the gap-4 scan and ``discover_mix``:
at gap 2 one exact rational mixing closes into a finite superalgebra,
and the discovery finds that mixing (and the resulting anticommutator
table) by computation instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from qeslab.exactnum import ParamPoly, as_exact, poly_gcd, real_roots
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
    """Degrees of the preserved doublet P(n - delta) (+) P(n); n is an
    int or the symbol ``ParamPoly.gen("n")``."""

    n: int | ParamPoly
    delta: int

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("degree gap must be at least 1")
        if isinstance(self.n, int) and self.n - self.delta < -1:
            raise ValueError("top component degree below -1")

    @property
    def top_degree(self) -> int:
        return self.n - self.delta

    @property
    def module(self) -> ModuleSpec:
        return ModuleSpec(self.top_degree, self.n)


def sl2_gens(n):
    """(raising, Cartan, lowering) first-order operators on P(n), for an
    int n or a polynomial in the scalar n.

    raising = x^2 d - n x annihilates x^n; Cartan = xd - n/2 is diagonal
    on monomials; lowering = d.
    """
    if isinstance(n, int) and n < 0:
        raise ValueError("component degree must be nonnegative")
    raising = DiffOp({(2, 1): 1, (1, 0): -n})
    cartan = DiffOp({(1, 1): 1, (0, 0): -n * Fraction(1, 2)})
    lowering = DiffOp.d()
    return raising, cartan, lowering


def bosonic_gens(params: AlgebraParams) -> tuple:
    """(T+, T0, T-, J): the ladder triple acting component-wise, then the
    charge operator separating the two components."""
    pairs = zip(sl2_gens(params.top_degree), sl2_gens(params.n))
    half = Fraction(1, 2)
    charge = MatOp.diag((params.n + params.delta) * half, params.n * half)
    return tuple(MatOp.diag(top, bottom) for top, bottom in pairs) + (charge,)


def lowering_word(n, delta: int, alpha: int) -> DiffOp:
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


def fermionic_gens(params: AlgebraParams) -> tuple:
    """(Q1, QBAR1, ..., Q(delta+1), QBAR(delta+1)).

    Q_a multiplies the top component by x^(a-1) and moves it down;
    QBAR_a applies ``lowering_word(n, delta, a)`` to the bottom component
    and moves it up.
    """
    ops = []
    for a in range(1, params.delta + 2):
        ops.append(MatOp.lower_shift(DiffOp.x(a - 1) if a > 1 else 1))
        ops.append(MatOp.raise_shift(lowering_word(params.n, params.delta, a)))
    return tuple(ops)


# ----------------------------------------------------------------------
# the generator set of one (n, gap) point, with optional fault injection
# ----------------------------------------------------------------------

TRIPLET_GAP = 2
QUINTET_GAP = 4


def perturb(op: MatOp) -> MatOp:
    """Bump one coefficient of the first nonzero entry by +1."""
    rows = [list(r) for r in op.entries]
    for r in (0, 1):
        for c in (0, 1):
            entry = rows[r][c]
            if entry.nums:
                rows[r][c] = entry + DiffOp({max(entry.nums): 1})
                return MatOp(rows)
    rows[0][0] = rows[0][0] + DiffOp.one()
    return MatOp(rows)


def fault_names(delta: int) -> tuple:
    """Names of the generators at gap `delta`, in report order: T+, T0,
    T-, J, then Q_a and QBAR_a for a = 1..delta+1."""
    names = ["T+", "T0", "T-", "J"]
    for a in range(1, delta + 2):
        names += [f"Q{a}", f"QBAR{a}"]
    return tuple(names)


def check_fault(name: str | None, delta_max: int) -> str | None:
    """`name` in upper case (None stays None); ValueError unless some
    generator at a gap up to `delta_max` carries it."""
    if name is None:
        return None
    name = name.upper()
    options = fault_names(delta_max)
    if name not in options:
        raise ValueError(
            f"unknown fault target {name!r}; options: {', '.join(options)}"
        )
    return name


@dataclass(frozen=True)
class GeneratorSet:
    """Every generator of one (n, gap) point, keyed by its fault name,
    with at most one of them perturbed."""

    params: AlgebraParams
    named: dict

    @property
    def tees(self):
        """(raising, Cartan, lowering)."""
        return self.named["T+"], self.named["T0"], self.named["T-"]

    def q(self, a: int) -> MatOp:
        """Multiplication tower member Q_a; zero outside 1..delta+1."""
        return self.named.get(f"Q{a}", MatOp.zero())

    def qbar(self, a: int) -> MatOp:
        """Differential tower member QBAR_a; zero outside 1..delta+1."""
        return self.named.get(f"QBAR{a}", MatOp.zero())

    @property
    def odd_multiplets(self):
        """(QBAR_1..QBAR_(delta+1), Q_(delta+1)..Q_1): both odd towers in
        multiplet order."""
        top = self.params.delta + 1
        return (
            tuple(self.qbar(a) for a in range(1, top + 1)),
            tuple(self.q(a) for a in range(top, 0, -1)),
        )

    @property
    def triplets(self):
        """(T, Qbar, P): the three spin-1 triplets of gap 2."""
        if self.params.delta != TRIPLET_GAP:
            raise ValueError("triplet structure requires degree gap 2")
        return (self.tees, *self.odd_multiplets)

    @cached_property
    def _even_multiplet(self):
        if self.params.delta == TRIPLET_GAP:
            return self.tees
        if self.params.delta == QUINTET_GAP:
            return quintet_S(self.tees)
        raise ValueError("mixed multiplets exist at degree gaps 2 and 4 only")

    def mixed(self, mix: "MixSpec"):
        """F_a = Qbar_a + c P_a + d E_a, with E the even multiplet of the
        odd towers' spin: the triple T at gap 2, its quintet at gap 4."""
        qbar, pees = self.odd_multiplets
        d = MatOp.diag(mix.d_top, mix.d_bottom)
        return tuple(
            q + p * mix.c_mix + d * e
            for q, p, e in zip(qbar, pees, self._even_multiplet)
        )


def generator_set(n, delta: int, fault: str | None = None) -> GeneratorSet:
    """The generators of gap `delta` on P(n - delta) (+) P(n), with the
    one named `fault` perturbed; ValueError if it is absent at this gap.
    At n = ``ParamPoly.gen("n")`` every coefficient is a polynomial in n,
    and evaluating it at an integer n gives ``generator_set(n, ...)``."""
    fault = check_fault(fault, delta)
    params = AlgebraParams(n, delta)
    ops = bosonic_gens(params) + fermionic_gens(params)
    named = dict(zip(fault_names(delta), ops))
    if fault is not None:
        named[fault] = perturb(named[fault])
    return GeneratorSet(params=params, named=named)


def quintet_S(tees):
    """Quadratic words in the even triple transforming as a 5-plet."""
    tp, t0, tm = tees
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
# mixing the odd towers with the even multiplet
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MixSpec:
    """One mix Qbar + c_mix P + d E of the odd towers with the even
    multiplet, d the constant diagonal matrix diag(d_top, d_bottom).
    `c_mix` is a rational or a polynomial in c (a constant polynomial
    collapses to a Fraction)."""

    c_mix: Fraction | ParamPoly
    d_top: Fraction
    d_bottom: Fraction

    def __post_init__(self):
        c_mix = self.c_mix
        c_mix = as_exact(c_mix) if isinstance(c_mix, ParamPoly) else Fraction(c_mix)
        if isinstance(c_mix, ParamPoly) and c_mix.var != "c":
            raise ValueError(f"mix constant polynomial in {c_mix.var!r}, not c")
        object.__setattr__(self, "c_mix", c_mix)
        object.__setattr__(self, "d_top", Fraction(self.d_top))
        object.__setattr__(self, "d_bottom", Fraction(self.d_bottom))

    def label(self) -> str:
        return (
            f"c={self.c_mix} d=diag({self.d_top},{self.d_bottom})"
        )


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


def qbar_triplet(params: AlgebraParams):
    """Differential towers in triplet order (index alpha-1)."""
    return generator_set(params.n, params.delta).triplets[1]


def p_triplet(params: AlgebraParams):
    """Multiplication towers reversed into triplet order."""
    return generator_set(params.n, params.delta).triplets[2]


def t_triplet(params: AlgebraParams):
    """(raising, Cartan, lowering) as a triplet."""
    return generator_set(params.n, params.delta).tees


def triplet_F(params: AlgebraParams, mix: MixSpec = DEFAULT_MIX):
    """The mixed triplet  F_a = Qbar_a + c_mix P_a + d T_a."""
    return q2_gens(params, mix).effs


@dataclass(frozen=True)
class Q2Set:
    """Everything needed to check the closed superalgebra at gap 2."""

    params: AlgebraParams
    mix: MixSpec
    tees: tuple
    effs: tuple
    sigma: MatOp
    metric: dict


def q2_gens(params: AlgebraParams, mix: MixSpec = DEFAULT_MIX) -> Q2Set:
    gens = generator_set(params.n, params.delta)
    return Q2Set(
        params=params,
        mix=mix,
        tees=gens.triplets[0],
        effs=gens.mixed(mix),
        sigma=MatOp.sigma3(),
        metric=dict(ANTICOMM_METRIC),
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


def sign_matrix_scan(gens: GeneratorSet, span: Span):
    """For each of SIGN_MATRICES: the mix with c symbolic, and the
    residuals of its anticommutators projected onto `span`."""
    for d_top, d_bottom in SIGN_MATRICES:
        mix = MixSpec(ParamPoly.gen("c"), d_top, d_bottom)
        yield mix, anticommutator_residuals(gens.mixed(mix), span)


# the degree of the discovery scan, and the second degree whose metric
# table certifies the n^2 scaling
DISCOVERY_N = 5
CONFIRM_N = 8


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


def discover_mix() -> MixDiscovery:
    """Search (sign matrix) x (symbolic c) for a closing mix at gap 2.

    ``sign_matrix_scan`` projects every anticommutator onto the scalars
    at n = DISCOVERY_N, and the common rational roots in c of the
    residual coefficients give the candidates.  The anticommutator table
    of the selected mix is recomputed at n = CONFIRM_N to certify the
    n^2 scaling of the metric.
    """
    gens = generator_set(DISCOVERY_N, TRIPLET_GAP)
    candidates = [
        MixSpec(c_value, mix.d_top, mix.d_bottom)
        for mix, residuals in sign_matrix_scan(gens, Span([MatOp.identity()]))
        for c_value in _closing_constants(residuals)
    ]
    sigma = MatOp.sigma3()
    paired = [
        mix
        for mix in candidates
        if all(
            anticommutator(f, sigma) == t * 2
            for f, t in zip(gens.mixed(mix), gens.tees)
        )
    ]
    if len(paired) != 1:
        raise ValueError(f"{len(paired)} candidates pair with diag(1,-1), not 1")
    (selected,) = paired
    metric = _metric_table(gens, selected)
    if _metric_table(generator_set(CONFIRM_N, TRIPLET_GAP), selected) != metric:
        raise ValueError("metric table is not stable across degrees")
    return MixDiscovery(
        candidates=tuple(candidates), selected=selected, metric=metric
    )


def _closing_constants(residuals):
    """Exact mix constants closing every anticommutator: the common
    rational roots in c of the coefficients of the symbolic-c
    `residuals` (constants count as degree-0 polynomials), read off
    their integral numerators, which have the roots of the
    coefficients."""
    gcd = ParamPoly.zero("c")
    for _, residual in residuals.values():
        for entry in residual.nums:
            for num in entry.values():
                gcd = poly_gcd(gcd, ParamPoly.zero("c") + num)
                if gcd.degree == 0:
                    return []
    if gcd.is_zero:
        raise ValueError("anticommutators closed for every mix constant")
    return [r.exact for r in real_roots(gcd) if r.exact is not None]


def _metric_table(gens: GeneratorSet, mix: MixSpec) -> dict:
    """(alpha, beta) -> anticommutator scalar / n^2, zeros omitted."""
    residuals = anticommutator_residuals(gens.mixed(mix), Span([MatOp.identity()]))
    nn = Fraction(gens.params.n ** 2)
    table = {}
    for (a, b), ((scalar,), residual) in residuals.items():
        if not residual.is_zero:
            raise ValueError(f"anticommutator ({a},{b}) is not scalar")
        if scalar:
            table[(a, b)] = table[(b, a)] = scalar / nn
    return table
