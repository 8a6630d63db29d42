"""Independent oracles for the exact kernels, used by tests only.

sympy recomputes determinants, the collision locus (from its
discriminant), power sums (from traces of powers of the companion
matrix), characteristic polynomials, kernels, linear solves, adjugates, gcds, square-free decompositions, real roots, root counts
and projections onto a span of operators; hypothesis checks algebraic identities of operators and
polynomials on small random inputs (a fixed, small number of
deterministic examples), that the zero-skipping kernels return
normal-form results equal to zero-seeded reference arithmetic written
out here, and that ``restrict`` and ``leakage`` match the column-by-column
construction kept here as their reference; mpmath recomputes the roots of q(mu) to 40 digits, against
which every printed level must be correctly rounded.
"""

import functools
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import reduce
from operator import mul
from unittest import mock

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from qeslab import exactnum, spectral
from qeslab.exactnum import (
    ExactMatrix,
    ParamPoly,
    _degree_bound,
    _int_sign,
    as_exact,
    count_real_roots,
    poly_gcd,
    power_sums,
    real_roots,
    sign_variations,
    solve_linear,
    square_free_decomposition,
    square_free_part,
    sturm_count,
    sturm_sequence,
)
from qeslab.generators import (
    SIGN_MATRICES,
    GeneratorSet,
    MixSpec,
    fault_names,
    generator_set,
    mix_expansion,
)
from qeslab.spectral import (
    HamiltonianSpec,
    _adjugate_column,
    _adjugate_terms,
    _collision_locus,
    _symbolic_mu_poly,
    algebraic_spectrum,
    eigenvectors,
    format_sig,
    restricted_hamiltonian,
    sweep,
)
from qeslab.verify import _span_basis
from qeslab.weyl import (
    DiffOp,
    LeakageTerm,
    MatOp,
    ModuleSpec,
    Span,
    anticommutator_residuals,
    commutator,
    leakage,
    project_span,
    restrict,
    x_monomial,
)

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
# sympy: the collision locus, power sums and characteristic polynomials
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_collision_resultant_matches_sympy(n):
    # the locus of find_degeneracy, (-1)^n q(0) disc(q), which is
    # q(0) res_mu(q, q') up to sign, from sympy's discriminant: no power sums
    q = _symbolic_mu_poly(n, "c")
    expr = to_sympy(q)
    mu = sympy.Symbol("mu")
    want = (-1) ** n * expr.subs(mu, 0) * sympy.discriminant(expr, mu)
    assert sympy.expand(to_sympy(_collision_locus(q)) - want) == 0
    # q = mu^2 - s mu + p has the locus p (s^2 - 4p)
    c = ParamPoly.gen("c")
    s, p = c * c * 2 + 64, c * c * (c * c + 32)
    quadratic = ParamPoly("mu", (p, -s, 1))
    assert _collision_locus(quadratic) == p * (s * s - p * 4)


def _sympy_char_poly(matrix: ExactMatrix):
    rows = [[to_sympy(e) for e in row] for row in matrix.entries]
    return sympy.Matrix(rows).charpoly(sympy.Symbol("lam")).as_expr()


@pytest.mark.parametrize("n", range(2, 6))
def test_restricted_char_poly_matches_sympy(n):
    matrix = restricted_hamiltonian(HamiltonianSpec.from_c(n, F(17, 8))).matrix
    want = _sympy_char_poly(matrix)
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


# coefficients as callers pass them: rationals, bare ints, and polynomials
# in k0, constant and zero ones included
k0_polys = st.lists(fractions, max_size=3).map(lambda cs: ParamPoly("k0", cs))
raw_coeffs = st.one_of(fractions, st.integers(-3, 3), k0_polys)
k0_diffops = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), raw_coeffs, max_size=3
).map(DiffOp)
nonempty_diffops = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), raw_coeffs.filter(bool),
    min_size=1, max_size=3,
).map(DiffOp)
# which entries are nonempty: diagonal like the tees, off-diagonal like
# the towers, full like a mixed word, or any pattern
entry_masks = st.one_of(
    st.sampled_from([(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1)]),
    st.tuples(*[st.booleans()] * 4),
)


def _masked_matop(drawn) -> MatOp:
    mask, ops = drawn
    cells = [op if keep else DiffOp() for keep, op in zip(mask, ops)]
    return MatOp([cells[:2], cells[2:]])


matops = st.tuples(
    entry_masks, st.lists(nonempty_diffops, min_size=4, max_size=4)
).map(_masked_matop)


@SMALL
@given(matops, matops, matops)
def test_matop_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@SMALL
@given(matops, matops, matops)
def test_matop_product_distributes_over_sums(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * (b - c) == a * b - a * c


# coefficients in Q or in Q[c], for the Jacobi identity over both rings
c_polys_or_rationals = st.one_of(
    fractions, st.lists(fractions, max_size=3).map(lambda cs: ParamPoly("c", cs))
)
c_diffops = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), c_polys_or_rationals, max_size=3
).map(DiffOp)


def _matops_of(entries):
    return st.tuples(entry_masks, st.lists(entries, min_size=4, max_size=4)).map(
        _masked_matop
    )


def _jacobiator(a, b, c):
    """[a, [b, c]] + [b, [c, a]] + [c, [a, b]], zero in any associative
    algebra."""
    return (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )


def _triples(strategy):
    return st.tuples(strategy, strategy, strategy)


@SMALL
@example((DiffOp.x(), DiffOp.d(), DiffOp({(2, 1): F(1, 2), (0, 2): 3})))
@given(st.sampled_from([diffops, c_diffops]).flatmap(_triples))
def test_diffop_commutators_satisfy_the_jacobi_identity(ops):
    assert _jacobiator(*ops).is_zero


@SMALL
@given(st.sampled_from([_matops_of(diffops), _matops_of(c_diffops)]).flatmap(_triples))
def test_matop_commutators_satisfy_the_jacobi_identity(ops):
    assert _jacobiator(*ops).is_zero


@st.composite
def generator_words(draw):
    """(module, word): 2-3 generators of one generator_set(n, gap); each
    keeps its doublet, so the word does too."""
    delta = draw(st.integers(1, 4))
    n = draw(st.integers(max(2, delta), 6))
    gens = generator_set(n, delta)
    names = draw(st.lists(st.sampled_from(fault_names(delta)), min_size=2, max_size=3))
    return gens.params.module, [gens.named[name] for name in names]


@SMALL
@given(generator_words())
def test_restrict_is_multiplicative_on_generator_words(word):
    module, ops = word
    whole = restrict(reduce(mul, ops), module)
    assert whole.leakage_free
    assert whole.matrix == reduce(mul, [restrict(op, module).matrix for op in ops])


# ----------------------------------------------------------------------
# hypothesis: normal form of arithmetic results
# ----------------------------------------------------------------------

def _normal_coeff(c, zero_ok=False) -> bool:
    """A Fraction (nonzero unless zero_ok) or a non-constant ParamPoly:
    never a bare int or a constant polynomial."""
    if type(c) is Fraction:
        return zero_ok or c != 0
    return type(c) is ParamPoly and len(c.coeffs) >= 2


def _reference_sum(a: DiffOp, b: DiffOp, sign=1) -> DiffOp:
    """a + sign*b by the zero-seeded dict sum, through the constructor."""
    out = dict(a.terms)
    for k, c in b.terms.items():
        out[k] = out.get(k, F(0)) + c * sign
    return DiffOp(out)


def _reference_product(a: DiffOp, b: DiffOp) -> DiffOp:
    """a*b by the commutation rule, every term added to a zero seed."""
    out = {}
    for (i, j), ca in a.terms.items():
        for (k, m), cb in b.terms.items():
            for s in range(min(j, k) + 1):
                key = (i + k - s, j + m - s)
                w = math.comb(j, s) * math.perm(k, s)
                out[key] = out.get(key, F(0)) + w * (ca * cb)
    return DiffOp(out)


def _assert_same_diffop(got: DiffOp, want: DiffOp):
    assert all(_normal_coeff(c) for c in got.terms.values()), got.terms
    assert got.terms == want.terms
    assert got == want and got.is_zero == want.is_zero


@SMALL
# both operands over Q with denominators above 1 (the cleared-integer
# product) and a Q / Q[k0] mix (the ring product)
@example(DiffOp({(1, 2): F(-3, 4), (0, 1): F(5, 6)}), DiffOp({(2, 0): F(2, 3)}), F(1, 2))
@example(
    DiffOp({(1, 1): F(1, 2), (0, 2): ParamPoly("k0", (0, 3))}),
    DiffOp({(2, 1): F(-5, 3)}),
    ParamPoly("k0", (1, 1)),
)
@given(k0_diffops, k0_diffops, raw_coeffs)
def test_diffop_results_are_normal_and_match_reference(a, b, scalar):
    _assert_same_diffop(a + b, _reference_sum(a, b))
    _assert_same_diffop(a - b, _reference_sum(a, b, -1))
    _assert_same_diffop(-a, _reference_sum(DiffOp(), a, -1))
    _assert_same_diffop(a * b, _reference_product(a, b))
    _assert_same_diffop(a * scalar, DiffOp({k: c * scalar for k, c in a.terms.items()}))
    assert (a - a).terms == {} and (a - a).is_zero and a - a == 0


def _reference_matop(a: MatOp, b: MatOp, kind: str):
    if kind == "*":
        return [
            [_reference_sum(_reference_product(a[i][0], b[0][j]),
                            _reference_product(a[i][1], b[1][j]))
             for j in (0, 1)]
            for i in (0, 1)
        ]
    sign = 1 if kind == "+" else -1
    return [[_reference_sum(a[i][j], b[i][j], sign) for j in (0, 1)] for i in (0, 1)]


@SMALL
@given(matops, matops)
def test_matop_results_are_normal_and_match_reference(a, b):
    for kind, got in (("+", a + b), ("-", a - b), ("*", a * b)):
        want = _reference_matop(a, b, kind)
        for i in (0, 1):
            for j in (0, 1):
                assert type(got[i][j]) is DiffOp
                _assert_same_diffop(got[i][j], want[i][j])
        assert got.is_zero == all(e.is_zero for row in want for e in row)


# ----------------------------------------------------------------------
# sympy: projection onto a span
# ----------------------------------------------------------------------

def _coordinates(op: MatOp) -> dict:
    """{(row, col, x power, d power): coefficient in sympy} of `op`."""
    return {
        (r, c) + key: to_sympy(v)
        for r in (0, 1) for c in (0, 1) for key, v in op[r][c].terms.items()
    }


def _sympy_dot(a: dict, b: dict):
    return sympy.expand(sum((a[k] * b[k] for k in a.keys() & b.keys()), sympy.Integer(0)))


# basis entries over Q with mixed denominators; the masks empty some
rational_nonempty_diffops = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), fractions.filter(bool),
    min_size=1, max_size=4,
).map(DiffOp)
SPAN_EXAMPLE = [
    MatOp.diag(DiffOp({(0, 0): F(1, 3)}), DiffOp()),
    MatOp.raise_shift(DiffOp({(1, 1): F(2, 5), (0, 0): F(-1, 2)})),
    MatOp([[DiffOp({(1, 0): F(3, 4)}), DiffOp({(0, 0): 1})], [DiffOp(), DiffOp({(0, 2): F(5, 7)})]]),
]
D_THIRD = DiffOp({(0, 1): F(-1, 3), (2, 2): ParamPoly("c", (0, 1))})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example((SPAN_EXAMPLE, MatOp([[D_THIRD, 0], [DiffOp.x(), D_THIRD * 3]]), [ParamPoly.gen("c"), 0, F(1, 2)]))
@example(([MatOp.identity(), MatOp.identity() * F(2, 3)], MatOp.sigma3(), []))  # dependent
@given(st.tuples(
    st.lists(_matops_of(rational_nonempty_diffops), min_size=1, max_size=4),
    st.one_of(_matops_of(diffops), _matops_of(c_diffops)),
    st.one_of(
        st.lists(fractions, min_size=1, max_size=4),
        st.lists(st.lists(fractions, min_size=2, max_size=3).map(lambda cs: ParamPoly("c", cs)),
                 min_size=1, max_size=4),
    ),
))
def test_project_span_matches_sympy_gram_solve(case):
    """The operator is a drawn one plus drawn multiples, in Q or Q[c], of
    the basis, so that its coefficients are polynomials in c too."""
    basis, op, multiples = case
    for b, m in zip(basis, multiples):
        op = op + b * m
    coords = [_coordinates(b) for b in basis]
    gram = sympy.Matrix([[_sympy_dot(u, v) for v in coords] for u in coords])
    if gram.rank() < len(basis):  # a dependent basis
        with pytest.raises(ValueError):
            Span(basis)
        return
    coeffs, residual = project_span(op, Span(basis))
    total = residual
    for b, coeff in zip(basis, coeffs):
        total = total + b * coeff
    assert total == op
    assert all(_sympy_dot(u, _coordinates(residual)) == 0 for u in coords)
    want = gram.LUsolve(sympy.Matrix([_sympy_dot(u, _coordinates(op)) for u in coords]))
    assert all(sympy.expand(to_sympy(c) - w) == 0 for c, w in zip(coeffs, want))


def _reference_restrict(op: MatOp, module: ModuleSpec):
    """(matrix, leakage) of `op` on `module`, column by column: every
    entry applied to every basis monomial, the image coefficients above
    the destination cap kept as leakage in that order."""
    cols = []
    leaks = []
    for comp, power in module.basis_labels():
        col = [F(0)] * module.dim
        mono = x_monomial(power)
        for dest in (0, 1):
            entry = op.entries[dest][comp]
            if not entry.terms:
                continue
            image = entry.apply(mono)
            cap = module.degree_cap(dest)
            for q, cq in enumerate(image.coeffs):
                if not cq:
                    continue
                if q <= cap:
                    col[module.basis_index(dest, q)] = cq
                else:
                    leaks.append(LeakageTerm(comp, power, dest, q, cq))
        cols.append(col)
    return ExactMatrix(list(map(list, zip(*cols)))), tuple(leaks)


# denominators 1-6, polynomials in k0 over them, and mixes of the two;
# x powers up to 6 shift monomials past every cap drawn below
sixths = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
restrict_coeffs = st.one_of(
    sixths, st.lists(sixths, max_size=3).map(lambda cs: ParamPoly("k0", cs))
)
restrict_diffops = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 4)), restrict_coeffs.filter(bool),
    min_size=1, max_size=4,
).map(DiffOp)
restrict_matops = st.tuples(
    entry_masks, st.lists(restrict_diffops, min_size=4, max_size=4)
).map(_masked_matop)
modules = st.builds(ModuleSpec, st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(
    MatOp([[DiffOp({(5, 0): F(1, 6), (0, 1): 2}), DiffOp()],
           [DiffOp({(1, 0): ParamPoly("k0", (0, F(-2, 3)))}), DiffOp.x(3)]]),
    ModuleSpec(1, 0),
)
@given(restrict_matops, modules)
def test_restrict_and_leakage_match_column_reference(op, module):
    want_matrix, want_leaks = _reference_restrict(op, module)
    got = restrict(op, module)
    assert (got.matrix.rows, got.matrix.cols) == (module.dim, module.dim)
    assert all(type(row) is tuple for row in got.matrix.entries)
    assert all(_normal_coeff(e, zero_ok=True) for row in got.matrix.entries for e in row)
    assert got.matrix == want_matrix
    assert got.leakage == want_leaks
    assert leakage(op, module) == want_leaks
    assert all(_normal_coeff(t.coeff) for t in want_leaks)


exact_matrices = st.integers(1, 3).flatmap(
    lambda size: st.lists(
        st.lists(st.one_of(st.just(0), raw_coeffs), min_size=size, max_size=size),
        min_size=size,
        max_size=size,
    )
).map(ExactMatrix)


@SMALL
@given(exact_matrices, exact_matrices, raw_coeffs)
def test_exact_matrix_results_are_normal_and_match_reference(a, b, scalar):
    assume(a.rows == b.rows)
    size = a.rows
    dense = {
        "+": [[a[i][j] + b[i][j] for j in range(size)] for i in range(size)],
        "-": [[a[i][j] - b[i][j] for j in range(size)] for i in range(size)],
        "*": [
            [sum((a[i][k] * b[k][j] for k in range(size)), F(0)) for j in range(size)]
            for i in range(size)
        ],
        "+s": [
            [a[i][j] + (scalar if i == j else 0) for j in range(size)]
            for i in range(size)
        ],
    }
    results = {
        "+": a + b, "-": a - b, "*": a * b, "+s": a.scaled_identity_added(scalar),
    }
    for kind, got in results.items():
        assert all(_normal_coeff(e, zero_ok=True) for row in got.entries for e in row)
        want = [[as_exact(e) for e in row] for row in dense[kind]]
        assert [list(row) for row in got.entries] == want, kind
        assert got.is_zero == (not any(e for row in want for e in row))


@SMALL
@given(st.lists(raw_coeffs, max_size=5), fractions)
def test_poly_eval_matches_zero_seeded_horner(coeffs, value):
    p = ParamPoly("lam", coeffs)
    want = F(0)
    for c in reversed(p.coeffs):
        want = want * value + c
    got = p(value)
    assert _normal_coeff(got, zero_ok=True)
    assert got == as_exact(want)


def _zero_seeded_horner(p: ParamPoly, value):
    want = F(0) if isinstance(value, Fraction) else 0.0
    for c in reversed(p.coeffs):
        want = want * value + c
    return want


wide_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)
integer_horner_args = st.one_of(
    # Fraction(float): dyadic denominators up to 2^1074
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6).map(F),
    # decimal rationals, as the rounding-boundary test in _refine makes
    st.integers(-10**14, 10**14).map(lambda k: F(k, 10**12)),
    wide_fractions,
    st.just(F(0)),
)


@SMALL
@example([F(7, 3)], F(-5, 2**60))
@example([F(7, 3)], F(0))
@example([F(-1, 6), F(0), F(0), F(5, 4)], F(0))
@given(st.lists(wide_fractions, max_size=8), integer_horner_args)
def test_integer_horner_matches_zero_seeded_fraction_horner(coeffs, value):
    p = ParamPoly("x", coeffs)
    got = p(value)
    assert type(got) is Fraction
    assert got == _zero_seeded_horner(p, value)


def _fraction_sign(a, t: Fraction) -> int:
    y = F(0)
    for c in reversed(a):
        y = y * t + c
    return (y > 0) - (y < 0)


def _int_poly_times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# int polys, some with coefficients beyond 2^1024 (beyond the doubles)
int_polys = st.lists(
    st.one_of(st.integers(-9, 9), st.integers(-(2**1100), 2**1100)), min_size=1, max_size=7
).filter(lambda a: a[-1])
sign_points = st.one_of(
    # every finite double, subnormals and the largest included
    st.floats(allow_nan=False, allow_infinity=False),
    # dyadic rationals with 54 to 61 significant bits: not doubles
    st.builds(lambda m, k: F(2 * m + 1, 2**k), st.integers(2**53, 2**60), st.integers(0, 80)),
    # dyadic rationals below the smallest subnormal
    st.builds(lambda m, k: F(2 * m + 1, 2**k), st.integers(-99, 99), st.integers(1075, 1200)),
    # rationals with large denominators
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**40),
)


@st.composite
def polys_near_double_roots(draw):
    """(a, t): a has the roots r_i, doubles, times another int poly, and
    t is one of the r_i or a double next to it."""
    roots = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=3))
    a = draw(int_polys)
    for r in roots:
        m, k = r.as_integer_ratio()
        a = _int_poly_times(a, [-m, k])
    r = draw(st.sampled_from(roots))
    t = draw(st.sampled_from([r, math.nextafter(r, math.inf), math.nextafter(r, -math.inf)]))
    return a, t


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(([-3, 2], 1.5))
@example(([-3, 2], math.nextafter(1.5, math.inf)))
@example(([-(2**1100), 2**80], math.ldexp(1.0, 1020)))
@example(([1, 0, -(2**1100)], F(1, 2**550)))
@given(st.one_of(st.tuples(int_polys, sign_points), polys_near_double_roots()))
def test_int_sign_matches_exact_fraction_horner(case):
    a, t = case
    assert _int_sign(a, t) == _fraction_sign(a, F(t))


c_polys = st.lists(fractions, min_size=2, max_size=3).map(lambda cs: ParamPoly("c", cs))


def _companion_power_traces(p: ParamPoly, count: int):
    """trace(C^k), k = 0..count, C the companion matrix of p by sympy."""
    mu = sympy.Symbol(p.var)
    companion = sympy.Matrix.companion(sympy.Poly(to_sympy(p), mu))
    traces, power = [], sympy.eye(p.degree)
    for _ in range(count + 1):
        traces.append(sympy.expand(power.trace()))
        power = power * companion
    return traces


monic_mu_polys = st.lists(c_polys_or_rationals, min_size=1, max_size=6).map(
    lambda cs: ParamPoly("mu", (*cs, 1))
)


@SMALL
@example(ParamPoly("mu", (4, -4, 1)), 4)  # a repeated root, (mu - 2)^2
@example(ParamPoly("mu", (0, F(-1, 3), 0, 1)), 5)  # a root at 0
@example(ParamPoly("mu", (ParamPoly.gen("c"), 1)), 3)  # degree 1, root -c
@example(ParamPoly("mu", (1, 2, 3, 4, 5, 6, 1)), 2)  # count below the degree
@given(monic_mu_polys, st.integers(0, 12))
def test_power_sums_match_companion_traces(p, count):
    got = power_sums(p, count)
    assert len(got) == count + 1
    want = _companion_power_traces(p, count)
    assert all(sympy.expand(to_sympy(g) - w) == 0 for g, w in zip(got, want))


def test_power_sums_need_a_monic_non_constant_polynomial():
    c = ParamPoly.gen("c")
    for p in (
        ParamPoly("mu", (1, 2)),
        ParamPoly("mu", (1, c)),
        ParamPoly("mu", (1, 1, c + 1)),
        ParamPoly("mu", (1,)),
        ParamPoly.zero("mu"),
    ):
        with pytest.raises(ValueError):
            power_sums(p, 3)


@SMALL
@given(
    st.one_of(
        st.tuples(st.lists(st.one_of(fractions, c_polys), max_size=5), fractions),
        st.tuples(st.lists(fractions, max_size=5), st.floats(-4, 4)),
    )
)
def test_generic_horner_for_q_c_coefficients_and_float_arguments(case):
    coeffs, value = case
    p = ParamPoly("lam", coeffs)
    # one integer Horner for every argument: at a float, the exact value
    # at that double; a constant polynomial returns its coefficient
    want = p.constant() if p.degree <= 0 else _zero_seeded_horner(p, F(value))
    assert p(value) == as_exact(want)


# ----------------------------------------------------------------------
# hypothesis and sympy: the characteristic polynomial and the determinant
# ----------------------------------------------------------------------

def _square_lists(entries, max_size: int):
    return st.integers(1, max_size).flatmap(
        lambda size: st.lists(
            st.lists(entries, min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )


# over Q, sizes 1-5; over Q[t] for t = c or k0, sizes 1-4 and entry
# degrees 0-3; zero entries are frequent in both
rational_matrices = _square_lists(st.one_of(st.just(0), fractions), 5).map(ExactMatrix)
param_matrices = st.sampled_from(["c", "k0"]).flatmap(
    lambda t: _square_lists(
        st.one_of(
            st.just(0),
            st.lists(fractions, min_size=1, max_size=4).map(lambda cs: ParamPoly(t, cs)),
        ),
        4,
    )
).map(ExactMatrix)


@SMALL
@example(ExactMatrix([[0, 1], [1, 0]]))
@given(rational_matrices)
def test_char_poly_over_q_matches_sympy(matrix):
    got = matrix.char_poly("lam")
    assert sympy.expand(to_sympy(got) - _sympy_char_poly(matrix)) == 0


@SMALL
@given(param_matrices)
def test_char_poly_over_q_t_matches_sympy(matrix):
    got = matrix.char_poly("lam")
    assert sympy.expand(to_sympy(got) - _sympy_char_poly(matrix)) == 0


C = ParamPoly.gen("c")
K0 = ParamPoly.gen("k0")


@SMALL
@example(ExactMatrix([[1, F(2, 3)], [0, 0]]))  # a zero row
@example(ExactMatrix([[C, 0], [2, 0]]))  # a zero column
@example(ExactMatrix([[C, C], [0, 0]]))  # a zero row over Q[c]
@example(ExactMatrix([[C, 0], [C, 0]]))  # a zero column over Q[c]
# two rows nonzero only in the same column
@example(ExactMatrix([[0, K0, 0], [0, K0 * K0 + 1, 0], [1, 2, K0]]))
@example(ExactMatrix([[0, C, 1], [C * 3 - 1, 0, C], [F(1, 2), C * C, 0]]))  # zero diagonal
@example(ExactMatrix([[0, 1], [1, 0]]))  # zero diagonal over Q
@example(ExactMatrix([[K0 * F(2, 7) - 1]]))  # 1 x 1
@example(ExactMatrix([[F(-5, 3)]]))
@given(st.one_of(rational_matrices, param_matrices))
def test_det_matches_sympy(matrix):
    rows = [[to_sympy(e) for e in row] for row in matrix.entries]
    got = matrix.det()
    # normal form: a constant determinant is a Fraction
    assert type(got) is Fraction or got.degree > 0
    assert sympy.expand(to_sympy(got) - sympy.Matrix(rows).det()) == 0


def test_det_rejects_other_entry_rings():
    two_variables = ExactMatrix([[C, 1], [1, K0]])
    tower = ExactMatrix([[ParamPoly("lam", [C, 1]), 0], [0, 1]])
    for matrix in (two_variables, tower):
        with pytest.raises(TypeError):
            matrix.det()


def _kernel_rows(rows: int, cols: int):
    """rows x cols lists of rationals, zeros frequent: drawn entry by
    entry, or the product of rows x k and k x cols draws, k = 1-3, whose
    rank is at most k."""
    def dense(r, c):
        entry = st.one_of(st.just(0), fractions)
        return st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)

    products = st.integers(1, 3).flatmap(lambda k: st.tuples(dense(rows, k), dense(k, cols)))
    return st.one_of(
        dense(rows, cols),
        products.map(lambda lr: (ExactMatrix(lr[0]) * ExactMatrix(lr[1])).entries),
    )


kernel_matrices = st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(
    lambda shape: _kernel_rows(*shape)
).map(ExactMatrix)
linear_systems = st.integers(1, 5).flatmap(
    lambda n: st.tuples(_kernel_rows(n, n), st.lists(fractions, min_size=n, max_size=n))
)


def _sympy_rows(rows):
    return sympy.Matrix([[to_sympy(e) for e in row] for row in rows])


def _fractions(vector):
    return tuple(Fraction(int(x.p), int(x.q)) for x in vector)


@SMALL
@example(ExactMatrix.zeros(2, 3))  # the zero matrix
@example(ExactMatrix([[0, 1, 2], [0, 2, 5]]))  # a zero first column, skipped
@example(ExactMatrix([[0, 1, F(1, 2)], [3, 0, 1]]))  # the first pivot needs a row swap
@example(ExactMatrix([[F(-5, 3)]]))  # 1 x 1
@example(ExactMatrix([[0]]))  # 1 x 1 and zero
@given(kernel_matrices)
def test_nullspace_matches_sympy(matrix):
    # the same basis, vector for vector: 1 at its free column, 0 at the others
    want = [_fractions(vec) for vec in _sympy_rows(matrix.entries).nullspace()]
    assert list(matrix.nullspace()) == want


@SMALL
@example(([[1, 0], [0, 0]], [0, 1]))  # [A | b] of full rank, A singular
@example(([[0, 0], [0, 0]], [0, 0]))  # the zero matrix
@example(([[0, 1], [2, 0]], [3, 4]))  # the first pivot needs a row swap
@example(([[F(-5, 3)]], [F(1, 2)]))  # 1 x 1
@given(linear_systems)
def test_solve_linear_matches_sympy(system):
    rows, rhs = system
    a = _sympy_rows(rows)
    if a.det() == 0:
        with pytest.raises(ValueError):
            solve_linear(rows, rhs)
        return
    want = _fractions(a.LUsolve(sympy.Matrix([to_sympy(b) for b in rhs])))
    assert solve_linear(rows, rhs) == want


def _single_parity(draw, parity: int, nonconstant: bool = False):
    """A polynomial in c with powers of one parity only, degree <= 3:
    sum a_p c^p over p in {parity, parity + 2}, possibly zero or constant
    unless `nonconstant`."""
    low, high = draw(fractions), draw(fractions)
    if nonconstant and not (high or parity and low):
        high = draw(nonzero_fractions)
    coeffs = [0] * (parity + 3)
    coeffs[parity], coeffs[parity + 2] = low, high
    return ParamPoly("c", coeffs)


@st.composite
def sign_patterned(draw):
    """(rows, eps): a square matrix over Q[c] of size 1-7 whose entry
    (i, j) holds powers of c of parity eps_i xor eps_j only, so that
    diag(c^eps) conjugates it into Q[c^2]; zero entries, zero diagonal
    entries and mixed denominators are frequent, and one entry is
    forced non-constant."""
    size = draw(st.integers(1, 7))
    eps = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    rows = [
        [_single_parity(draw, a ^ b) if draw(st.booleans()) else 0 for b in eps] for a in eps
    ]
    i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    rows[i][j] = _single_parity(draw, eps[i] ^ eps[j], nonconstant=True)
    return rows, eps


@st.composite
def near_misses(draw):
    """A sign-patterned matrix broken once, so no diag(c^eps) conjugates
    it into Q[c^2]: one entry of mixed parity, one odd diagonal entry,
    or an inconsistent cycle (entries (i, j) and (j, i) of opposite
    parities, both nonzero)."""
    rows, eps = draw(sign_patterned())
    size = len(rows)
    kinds = ["mixed", "odd diagonal", "cycle"][: 2 + (size > 1)]
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, size - 1))
    if kind == "mixed":
        j = draw(st.integers(0, size - 1))
        odd = draw(nonzero_fractions) * C ** draw(st.sampled_from([1, 3]))
        rows[i][j] = odd + draw(nonzero_fractions)
    elif kind == "odd diagonal":
        rows[i][i] = _single_parity(draw, 1, nonconstant=True)
    else:
        j = draw(st.integers(0, size - 1).filter(lambda j: j != i))
        parity = eps[i] ^ eps[j]
        rows[j][i] = _single_parity(draw, parity, nonconstant=True)
        rows[i][j] = _single_parity(draw, 1 - parity, nonconstant=True)
    return rows


def _with_rescaling_spy(matrix: ExactMatrix):
    """(char_poly, det, steps): steps holds what exactnum._in_u returned
    for each call, 2 where it rescaled the rows to u = c^2."""
    steps = []
    real = exactnum._in_u

    def spy(ints):
        rows, step = real(ints)
        steps.append(step)
        return rows, step

    with mock.patch.object(exactnum, "_in_u", spy):
        return matrix.char_poly("lam"), matrix.det(), steps


def _assert_matches_sympy(matrix: ExactMatrix, char_poly, det):
    # sympy's own charpoly and det over QQ[c] (Matrix.det on expressions
    # takes seconds at size 7)
    n, ring = matrix.rows, sympy.QQ[sympy.Symbol("c")]
    rows = [[to_sympy(e) for e in row] for row in matrix.entries]
    dm = DomainMatrix.from_list_sympy(n, n, rows).convert_to(ring)
    lam = sympy.Symbol("lam")
    want = sum(ring.to_sympy(a) * lam ** (n - k) for k, a in enumerate(dm.charpoly()))
    assert sympy.expand(to_sympy(char_poly) - want) == 0
    assert sympy.expand(to_sympy(det) - ring.to_sympy(dm.det())) == 0


@SMALL
@example(([[0, C], [C, 0]], [0, 1]))  # zero diagonal, both lifts
@example(([[0, C**3 - C], [C**3 * F(2, 3), F(1, 5) * C**2]], [1, 0]))  # dmax 2 in u
@example(([[0, 0], [C, 0]], [0, 1]))  # no perfect matching: det 0
@given(sign_patterned())
def test_sign_patterned_matrices_rescale_to_c_squared_and_match_sympy(case):
    rows, _ = case
    matrix = ExactMatrix(rows)
    char_poly, det, steps = _with_rescaling_spy(matrix)
    assert steps == [2, 2]
    _assert_matches_sympy(matrix, char_poly, det)


@SMALL
@example([[0, C, 0], [0, 0, C], [C, 0, 0]])  # an odd cycle of odd entries
@example([[C + 1, 0], [0, 1]])  # one entry of mixed parity
@example([[C, 1], [1, 0]])  # an odd diagonal entry
@given(near_misses())
def test_near_miss_matrices_keep_the_plain_path_and_match_sympy(rows):
    matrix = ExactMatrix(rows)
    char_poly, det, steps = _with_rescaling_spy(matrix)
    assert steps == [1, 1]
    _assert_matches_sympy(matrix, char_poly, det)


# ----------------------------------------------------------------------
# sympy: the adjugate that eigenvectors reads
# ----------------------------------------------------------------------

@SMALL
@example(ExactMatrix([[0, 0], [0, 0]]))
@example(ExactMatrix([[F(1, 2), F(1, 3)], [F(-2, 5), 0]]))
@example(ExactMatrix([[F(7, 4)]]))
@given(rational_matrices)
def test_adjugate_terms_match_sympy(matrix):
    n = matrix.rows
    den, terms = _adjugate_terms(matrix, matrix.char_poly("mu").coeffs)
    assert all(type(e) is int for term in terms for row in term for e in row)
    x = sympy.Symbol("x")
    a = sympy.Matrix([[to_sympy(e) for e in row] for row in matrix.entries])
    want = (x * sympy.eye(n) - a).adjugate()
    got = sum(
        (x ** (n - 1 - k) * sympy.Matrix(term) / den**k for k, term in enumerate(terms)),
        sympy.zeros(n, n),
    )
    assert (got - want).expand() == sympy.zeros(n, n)


@pytest.mark.parametrize("c", [F(0), F(17, 8), F(-3, 7)])
@pytest.mark.parametrize("n", range(2, 7))
def test_eigenvector_column_is_a_positive_multiple_of_sympy_adjugate(
    n, c, monkeypatch
):
    # every exact column eigenvectors evaluates, once at each mu = E^2
    # for E the float of an irrational level (E and -E share it), is a
    # positive multiple of column j of sympy's adj(mu - BC)
    spectrum = algebraic_spectrum(HamiltonianSpec.from_c(n, c))
    den = spectrum.bc.den
    exact = []

    def spy(terms, x, scale, j):
        column = _adjugate_column(terms, x, scale, j)
        if type(x) is int:
            exact.append((F(x, den * scale), j, column))
        return column

    monkeypatch.setattr(spectral, "_adjugate_column", spy)
    eigenvectors(spectrum)
    irrational = [lv for lv in spectrum.levels if lv.exact is None]
    assert sorted(mu for mu, _, _ in exact) == sorted({F(lv.value) ** 2 for lv in irrational})
    bc = sympy.Matrix([[to_sympy(e) for e in row] for row in spectrum.bc.entries])
    for mu, j, column in exact:
        want = list((to_sympy(mu) * sympy.eye(n) - bc).adjugate()[:, j])
        pivot = next(i for i, w in enumerate(want) if w != 0)
        ratio = sympy.Rational(column[pivot]) / want[pivot]
        assert ratio > 0
        assert [sympy.Rational(u) for u in column] == [ratio * w for w in want]


@SMALL
@example([[1, 1], [-1, -1]], False)  # a zero row
@example([[2, -1], [0, -1]], False)  # a zero column
@example([[-1, 3, -1], [-1, 0, -1], [1, 2, 0]], False)  # rows 0 and 1 share one column
@example([[-1, 2], [1, -1]], False)  # a negative diagonal with a matching
@given(_square_lists(st.one_of(st.just(-1), st.integers(0, 4)), 6), st.booleans())
def test_degree_bound_is_the_heaviest_permutation(degrees, floor_diagonal):
    # a negative degree marks a zero entry; char_poly floors the diagonal
    # at 0, det does not, and then no permutation may avoid the zeros
    n = len(degrees)
    if floor_diagonal:
        for i in range(n):
            degrees[i][i] = max(degrees[i][i], 0)
    want = max(
        (
            sum(row[j] for row, j in zip(degrees, perm))
            for perm in itertools.permutations(range(n))
            if all(row[j] >= 0 for row, j in zip(degrees, perm))
        ),
        default=None,
    )
    assert _degree_bound(degrees) == want


# polynomials in lam over Q[c], interior zero coefficients included
lam_over_c_polys = st.lists(st.one_of(fractions, c_polys), max_size=4).map(
    lambda cs: ParamPoly("lam", cs)
)


@SMALL
@given(st.one_of(t_polys, lam_over_c_polys), st.one_of(fractions.filter(bool), c_polys))
def test_unchecked_results_equal_checked_construction(p, scalar):
    results = [
        (-p, [-c for c in p.coeffs]),
        (p.derivative(), [k * c for k, c in enumerate(p.coeffs)][1:]),
    ]
    if p.degree > 0:
        # a constant p collapses to its coefficient before the product
        # (test_constant_polynomial_operands_collapse_first)
        results.append((p * scalar, [c * scalar for c in p.coeffs]))
    for got, coeffs in results:
        want = ParamPoly(p.var, coeffs)
        # repr pins the type and the variable of every coefficient
        assert repr(got) == repr(want)
        assert got.coeffs == want.coeffs


@SMALL
@given(t_polys, t_polys)
def test_gcd_divides_both_arguments(a, b):
    assume(a or b)
    g = _sympy_poly(poly_gcd(a, b))
    assert _sympy_poly(a).rem(g).is_zero and _sympy_poly(b).rem(g).is_zero


T = ParamPoly.gen("t")
nonzero_fractions = fractions.filter(bool)


@st.composite
def factored_pairs(draw):
    """Two polynomials in t built from one pool of small rational linear
    and quadratic factors, each raised to a power 0-3 (at least 1 in the
    first), times a nonzero scale; then a bracket (lo, hi], each end
    sometimes on a rational root."""
    factors = draw(st.lists(
        st.one_of(
            fractions.map(lambda r: T - r),
            st.tuples(fractions, fractions).map(lambda bc: T * T + bc[0] * T + bc[1]),
        ),
        min_size=1,
        max_size=3,
    ))
    a = ParamPoly.one("t") * draw(nonzero_fractions)
    b = ParamPoly.one("t") * draw(nonzero_fractions)
    for f in factors:
        a = a * f ** draw(st.integers(1, 3))
        b = b * f ** draw(st.integers(0, 3))
    roots = [-f.constant() for f in factors if f.degree == 1]
    ends = st.one_of(fractions, st.sampled_from(roots)) if roots else fractions
    lo, hi = sorted(draw(st.tuples(ends, ends)))
    return a, b, lo, hi


def _sympy_monic(expr):
    return sympy.Poly(expr, sympy.Symbol("t"), domain="QQ").monic()


@SMALL
# a repeated root under a negative leading coefficient
@example((-2 * (T - 1) ** 2 * (T + 3), T - 1, F(-5), F(1)))
@example((ParamPoly.one("t") * F(-3, 2), T, F(-1), F(1)))  # a constant p
@example(((T - 1) ** 2 * (T + 2), (T - 1) * (T + 2), F(-2), F(1)))
# the remainder of f' drops two degrees, so an odd power of a negative
# leading coefficient scales the next one
@example((T**4 + 4 * T - 1, T - 1, F(-3), F(1)))
@given(factored_pairs())
def test_remainder_sequence_matches_sympy(case):
    a, b, lo, hi = case
    sa, sb = to_sympy(a), to_sympy(b)
    assert _sympy_monic(to_sympy(poly_gcd(a, b))) == _sympy_monic(sympy.gcd(sa, sb))
    square_free = _sympy_poly(a).sqf_part().monic()
    assert _sympy_monic(to_sympy(square_free_part(a))) == square_free
    roots = sympy.real_roots(square_free)
    assert sturm_count(a, lo, hi) == sum(1 for r in roots if lo < r <= hi)
    chain = sturm_sequence(a)
    leads = [q.leading() > 0 for q in chain]
    at_top = sign_variations(chain, math.inf)
    assert at_top == sum(1 for u, v in zip(leads, leads[1:]) if u != v)
    assert sign_variations(chain, hi) - at_top == sum(1 for r in roots if r > hi)
    assert sign_variations(chain, lo) - sign_variations(chain, hi) == sturm_count(a, lo, hi)


# ----------------------------------------------------------------------
# sympy: the integer root kernel (modular gcd, Yun, Descartes isolation)
# ----------------------------------------------------------------------

FIRST_PRIME = exactnum._PRIMES[0]
# roots far above 2^61 in numerator and denominator
huge_fractions = st.builds(
    Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**90)
)
# roots on the dyadic points that bisection visits
dyadic_fractions = st.builds(
    lambda m, k: Fraction(m, 2**k), st.integers(-64, 64), st.integers(0, 6)
)
kernel_roots = st.one_of(fractions, dyadic_fractions, huge_fractions)


@st.composite
def kernel_polys(draw):
    """A product of one to three linear and quadratic factors in t, each
    to a power 1-3, times a nonzero scale.  Roots come from small
    rationals, dyadic rationals and rationals of 200-bit numerators; a
    linear factor may have the first prime of _int_gcd as its leading
    coefficient, so that prime divides the leading coefficient of the
    product's numerators."""
    linear = st.tuples(kernel_roots, st.sampled_from([1, FIRST_PRIME])).map(
        lambda rl: rl[1] * T - rl[0]
    )
    quadratic = st.tuples(kernel_roots, kernel_roots).map(
        lambda bc: T * T + bc[0] * T + bc[1]
    )
    factors = draw(st.lists(st.one_of(linear, quadratic), min_size=1, max_size=3))
    p = ParamPoly.one("t") * draw(nonzero_fractions)
    for f in factors:
        p = p * f ** draw(st.integers(1, 3))
    return p


KERNEL_EXAMPLES = [
    (2 * T - 1) * (4 * T - 3),  # both roots on bisection points
    (4 * T * T - 1) * (16 * T * T - 9),  # even: x = 1/2, 3/4 hit in x
    (2 * T - 1) ** 2 * (4 * T - 3) * (T * T - 2),
    (FIRST_PRIME * T - 1) * (T - 2) ** 2,  # the first prime is skipped
    (FIRST_PRIME * T * T - 3) ** 2 * (T + 1),
    (T - Fraction(2**200 + 1, 3)) ** 2 * (T * T - Fraction(3, 2**150)),
    T**3 * (T - 1) ** 2,  # a multiple root at 0
]


def _sympy_poly(p: ParamPoly):
    return sympy.Poly(to_sympy(p), sympy.Symbol("t"), domain="QQ")


def _kernel_examples(arguments=lambda p: (p,)):
    """Decorate a test with one example per KERNEL_EXAMPLES entry, its
    arguments made from the polynomial by `arguments`."""

    def decorate(test):
        for p in KERNEL_EXAMPLES:
            test = example(*arguments(p))(test)
        return test

    return decorate


def _monic_coeffs(poly: sympy.Poly):
    return tuple(poly.monic().all_coeffs())


@SMALL
@_kernel_examples()
@given(kernel_polys())
def test_modular_gcd_and_yun_match_sympy(p):
    sp = _sympy_poly(p)
    gcd = poly_gcd(p, p.derivative())
    assert _monic_coeffs(_sympy_poly(gcd)) == _monic_coeffs(sympy.gcd(sp, sp.diff()))
    got = sorted(
        (_monic_coeffs(_sympy_poly(f)), m) for f, m in square_free_decomposition(p)
    )
    want = sorted((_monic_coeffs(f), m) for f, m in sp.sqf_list()[1])
    assert got == want
    assert all(f == f.monic() for f, _ in square_free_decomposition(p))


@SMALL
@_kernel_examples(lambda p: (p, p * (T - Fraction(1, 2)) * (T * T - 3)))
@given(kernel_polys(), kernel_polys())
def test_modular_gcd_of_two_polynomials_matches_sympy(a, b):
    want = sympy.gcd(_sympy_poly(a), _sympy_poly(b))
    assert _monic_coeffs(_sympy_poly(poly_gcd(a, b))) == _monic_coeffs(want)


def _rational(x) -> sympy.Rational:
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def _close_to(value: float, root) -> bool:
    """value within one ulp of the real algebraic sympy root."""
    return abs(sympy.N(root - _rational(value), 60)) <= _rational(math.ulp(value))


@SMALL
@_kernel_examples(lambda p: (p, False))
@_kernel_examples(lambda p: (p, True))
@given(kernel_polys(), st.booleans())
def test_descartes_isolation_matches_sympy_real_roots(p, lift):
    if lift:
        p = exactnum.even_poly(p, "t")  # the even path, isolated in x > 0
    sp = _sympy_poly(p)
    all_roots = sympy.real_roots(sp)
    distinct = sorted(set(all_roots), key=lambda r: sympy.N(r, 60))
    multiplicity = {r: all_roots.count(r) for r in distinct}
    try:
        roots = real_roots(p)
    except ValueError as exc:  # only a root beyond the double range
        assert "beyond the double range" in str(exc)
        assert any(abs(sympy.N(r, 30)) > 1.7e308 for r in distinct)
        return
    assert len(roots) == len(distinct)
    for got, want in zip(roots, distinct):
        assert got.multiplicity == multiplicity[want]
        assert _close_to(got.value, want)
        if got.exact is not None:
            assert got.exact == Fraction(int(want.p), int(want.q))
        elif want.is_rational:
            # a rational root left inexact has a large denominator
            assert want.q > exactnum.EXACT_DENOMINATOR


@SMALL
@_kernel_examples(lambda p: (p, [Fraction(0), Fraction(1, 2), Fraction(3, 4)]))
@given(kernel_polys(), st.lists(st.one_of(fractions, dyadic_fractions), min_size=1, max_size=3))
def test_root_counts_match_sympy_count_roots(p, cuts):
    sp = _sympy_poly(p)
    ends = sorted(set(cuts))
    counts = count_real_roots(p, [*ends, math.inf])
    want = []
    for lo, hi in zip(ends, [*ends[1:], None]):
        lo_s = _rational(lo)
        hi_s = None if hi is None else _rational(hi)
        closed = sp.count_roots(lo_s, hi_s)
        want.append(closed - (1 if sp.eval(lo_s) == 0 else 0))
    assert counts == want


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


# ----------------------------------------------------------------------
# the bilinear mix expansion against direct projection of each mix
# ----------------------------------------------------------------------

def _dressed(gens: GeneratorSet) -> GeneratorSet:
    """`gens` with a full 2x2 operator added to every generator: on the
    block structure of the true generators three of the ten monomials of
    the expansion vanish (Qbar Qbar, P P, and the top and bottom halves
    of the diagonal E), and c^2 with them; here none does."""
    named = {
        name: op + MatOp(((k, DiffOp.x()), (DiffOp.d(k % 2 + 1), DiffOp.x(k % 3))))
        for k, (name, op) in enumerate(gens.named.items(), 1)
    }
    return GeneratorSet(gens.params, named)


# gap 2 at n = 3..6, gap 4 at n = 4..7, and one dressed set per gap
EXPANSION_POINTS = [(2, n) for n in range(3, 7)] + [(4, n) for n in range(4, 8)]
EXPANSION_POINTS += [(2, 4, False, True), (4, 5, False, True)]


@functools.lru_cache(maxsize=None)
def _expansion(gap, n, scalars_only=False, dressed=False):
    gens = generator_set(n, gap)
    span = Span([MatOp.identity()] if scalars_only else _span_basis(gens.tees))
    if dressed:
        gens = _dressed(gens)
    return gens, span, mix_expansion(gens, span)


# every sign matrix has d_top^2 = d_bottom^2 = 1, so it cannot tell those
# monomials from 1 or from each other: draw other diagonals, 0 included
diagonals = st.one_of(st.just(F(0)), fractions.filter(lambda d: abs(d) != 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example((4, 4), F(0), F(0), F(0))
@example((2, 3), F(-1), F(2), F(0))
@example((4, 7), F(5, 3), F(0), F(-3, 2))
@given(st.sampled_from(EXPANSION_POINTS), fractions, diagonals, diagonals)
def test_mix_expansion_equals_direct_projection(point, c, d_top, d_bottom):
    gens, span, expansion = _expansion(*point)
    mix = MixSpec(c, d_top, d_bottom)
    assert expansion.residuals(mix) == anticommutator_residuals(gens.mixed(mix), span)


@pytest.mark.parametrize(
    "point", [(2, 5, True), (2, 4), (4, 4), (4, 6), (4, 5, False, True)]
)
def test_mix_expansion_equals_direct_projection_in_c(point):
    gens, span, expansion = _expansion(*point)
    c = ParamPoly.gen("c")
    for d_top, d_bottom in SIGN_MATRICES + ((F(2, 3), F(0)), (F(-5, 2), F(3))):
        mix = MixSpec(c, d_top, d_bottom)
        assert expansion.residuals(mix) == anticommutator_residuals(gens.mixed(mix), span)
