"""Independent oracles for the exact kernels, used by tests only.

sympy recomputes resultants and characteristic polynomials; hypothesis
checks algebraic identities of operators and polynomials on small
random inputs (a fixed, small number of deterministic examples); mpmath
recomputes the roots of q(mu) to 40 digits, against which every printed
level must be correctly rounded.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qeslab.exactnum import ParamPoly, poly_gcd, resultant
from qeslab.spectral import (
    HamiltonianSpec,
    _symbolic_mu_poly,
    algebraic_spectrum,
    format_sig,
    restricted_hamiltonian,
    sweep,
)
from qeslab.weyl import DiffOp

F = Fraction

SMALL = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def to_sympy(value):
    """A Fraction, or a ParamPoly with Fraction or ParamPoly coefficients."""
    if isinstance(value, ParamPoly):
        var = sympy.Symbol(value.var)
        return sum(
            (to_sympy(c) * var**k for k, c in enumerate(value.coeffs)),
            sympy.Integer(0),
        )
    return sympy.Rational(value.numerator, value.denominator)


# ----------------------------------------------------------------------
# sympy: resultants and characteristic polynomials
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 6))
def test_collision_resultant_matches_sympy(n):
    q = _symbolic_mu_poly(n, "c")
    expr = to_sympy(q)
    mu = sympy.Symbol("mu")
    want = sympy.resultant(expr, sympy.diff(expr, mu), mu)
    got = to_sympy(ParamPoly.one("c") * resultant(q, q.derivative()))
    assert sympy.expand(got - want) == 0


@pytest.mark.parametrize("n", range(2, 6))
def test_restricted_char_poly_matches_sympy(n):
    matrix = restricted_hamiltonian(HamiltonianSpec.from_c(n, F(17, 8))).matrix
    lam = sympy.Symbol("lam")
    rows = [[to_sympy(e) for e in row] for row in matrix.entries]
    want = sympy.Matrix(rows).charpoly(lam).as_expr()
    assert sympy.expand(to_sympy(matrix.char_poly("lam")) - want) == 0


# ----------------------------------------------------------------------
# hypothesis: operator and polynomial identities
# ----------------------------------------------------------------------

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
diffops = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), fractions, max_size=4
).map(DiffOp)
x_polys = st.lists(fractions, max_size=6).map(lambda cs: ParamPoly("x", cs))
t_polys = st.lists(fractions, max_size=6).map(lambda cs: ParamPoly("t", cs))


@SMALL
@given(diffops, diffops, diffops)
def test_diffop_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@SMALL
@given(diffops, diffops, x_polys)
def test_diffop_product_acts_as_composition(a, b, p):
    assert (a * b).apply(p) == a.apply(b.apply(p))


@SMALL
@given(t_polys, t_polys.filter(bool))
def test_divmod_identity(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@SMALL
@given(t_polys, t_polys)
def test_gcd_divides_both_arguments(a, b):
    assume(a or b)
    g = poly_gcd(a, b)
    assert (a % g).is_zero and (b % g).is_zero


# ----------------------------------------------------------------------
# mpmath: every printed level is the correctly rounded root
# ----------------------------------------------------------------------

REFERENCE_DPS = 40


def _reference_levels(q_symbolic, c):
    """The 2n levels +-sqrt(mu) over the roots mu of q(mu; c), ascending,
    as 40-digit Decimals."""
    coeffs = [a(c) if isinstance(a, ParamPoly) else a for a in q_symbolic.coeffs]
    with mpmath.workdps(REFERENCE_DPS + 20):
        mus = mpmath.polyroots(
            [mpmath.mpf(a.numerator) / a.denominator for a in reversed(coeffs)],
            maxsteps=200,
            extraprec=200,
        )
        levels = []
        for mu in mus:
            assert abs(mpmath.im(mu)) < mpmath.mpf(10) ** -(REFERENCE_DPS + 5)
            root = mpmath.sqrt(mpmath.re(mu))
            levels += [root, -root]
        return sorted(Decimal(mpmath.nstr(e, REFERENCE_DPS)) for e in levels)


def _rounded12(value: Decimal) -> str:
    """value correctly rounded to 12 significant digits, checked to sit
    far enough from a rounding boundary for 40 digits to decide it."""
    with localcontext() as ctx:
        ctx.prec = 2 * REFERENCE_DPS
        nudge = Decimal(10) ** -30
        below, above = (format(value * (1 + s * nudge), ".11e") for s in (-1, 1))
    assert below == above, f"{value} is too close to a rounding boundary"
    return below


def _assert_printed_levels_exact(n, rows):
    q = _symbolic_mu_poly(n, "c")
    for c, values in rows:
        want = [_rounded12(e) for e in _reference_levels(q, c)]
        got = [format_sig(v) for v in values]
        assert [Decimal(g) for g in got] == [Decimal(w) for w in want], f"c = {c}"


C_STAR_WINDOW = F(48989794855, 10**10)


@pytest.mark.parametrize(
    "n, c_min, c_max, steps",
    [
        (3, F(1, 8), F(81, 8), 200),
        (5, F(3, 8), F(83, 8), 30),
        (3, C_STAR_WINDOW, C_STAR_WINDOW + F(1, 10**6), 50),
    ],
)
def test_sweep_prints_correctly_rounded_levels(n, c_min, c_max, steps):
    _assert_printed_levels_exact(n, sweep(n, c_min, c_max, steps).rows)


def test_large_spectrum_prints_correctly_rounded_levels():
    c = F(17, 8)
    spectrum = algebraic_spectrum(HamiltonianSpec.from_c(12, c))
    _assert_printed_levels_exact(12, [(c, spectrum.values)])
