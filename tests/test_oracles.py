"""Independent oracles for the exact kernels, used by tests only.

sympy recomputes resultants and characteristic polynomials; hypothesis
checks algebraic identities of operators and polynomials on small
random inputs (a fixed, small number of deterministic examples).
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qeslab.exactnum import ParamPoly, poly_gcd, resultant
from qeslab.spectral import (
    HamiltonianSpec,
    _symbolic_mu_poly,
    restricted_hamiltonian,
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
