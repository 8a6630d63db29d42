"""Exact scalar layer: polynomials, root isolation, rational matrices."""

import ast
import itertools
import math
import pathlib
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

import qeslab
import qeslab.exactnum as exactnum_mod
from qeslab.exactnum import (
    ExactMatrix,
    ParamPoly,
    VariableMismatchError,
    as_exact,
    cauchy_bound,
    even_poly,
    isolate_real_roots,
    poly_gcd,
    real_roots,
    solve_linear,
    square_free_decomposition,
    square_free_part,
    sturm_count,
)
from qeslab.spectral import _collision_locus, _symbolic_mu_poly
from qeslab.weyl import DiffOp, MatOp, Span, specialize

F = Fraction


def rand_fraction(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 9))


def rand_poly(rng, var="t", max_degree=5):
    coeffs = [rand_fraction(rng) for _ in range(rng.randint(0, max_degree) + 1)]
    return ParamPoly(var, coeffs)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20260814)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * ParamPoly.one("t") == a
        assert a + ParamPoly.zero("t") == a
        assert a - a == ParamPoly.zero("t")


def test_evaluation_matches_expansion():
    rng = random.Random(7)
    for _ in range(25):
        p = rand_poly(rng)
        at = rand_fraction(rng)
        direct = sum(
            (p.coeff(k) * at**k for k in range(p.degree + 1)), start=F(0)
        )
        assert p(at) == direct


def test_derivative_product_rule():
    rng = random.Random(11)
    for _ in range(20):
        f, g = rand_poly(rng), rand_poly(rng)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


def test_scalar_parameter_nests_into_other_variables():
    k0 = ParamPoly.gen("k0")
    x = ParamPoly.gen("x")
    mixed = (k0 * 2) * x + k0 * k0
    assert mixed.coeff(1) == k0 * 2
    assert mixed.coeff(0) == k0 * k0
    # and back out by evaluating the scalar
    collapsed = mixed.map_coeffs(
        lambda c: c(F(1, 2)) if isinstance(c, ParamPoly) else c
    )
    assert collapsed == ParamPoly("x", (F(1, 4), F(1)))


def test_two_nonscalar_variables_do_not_mix():
    x = ParamPoly.gen("x")
    lam = ParamPoly.gen("lam")
    with pytest.raises(VariableMismatchError):
        _ = (x + 1) * (lam + 1)


def test_gcd_divides_both_and_contains_common_factor():
    rng = random.Random(17)
    for _ in range(15):
        f, g, h = (rand_poly(rng, max_degree=3) for _ in range(3))
        if f.is_zero or g.is_zero or h.is_zero:
            continue
        d = poly_gcd(f * h, g * h)
        assert _divides(d, f * h)
        assert _divides(d, g * h)
        assert _divides(h, d)


def _divides(d, a):
    """Whether the polynomial d in t divides a, by sympy's Poly.rem on
    the sympy images."""
    a, d = (sympy.Poly(to_sympy(p), sympy.Symbol("t"), domain="QQ") for p in (a, d))
    return a.rem(d).is_zero


def test_modular_gcd_drops_unlucky_primes_and_checks_stable_lifts():
    t = ParamPoly.gen("t")
    p0, p1 = itertools.islice(exactnum_mod._primes(), 2)
    # t - 1 and t - 1 - p0 agree modulo p0 only: the image of degree 1
    # there is unlucky, and the next prime proves the gcd is 1
    assert poly_gcd(t - 1, t - 1 - p0) == ParamPoly.one("t")
    # modulo p1 the image (t + 2)(t - 1) has a higher degree than the
    # lucky t + 2
    assert poly_gcd((t + 2) * (t - 1), (t + 2) * (t - 1 - p1)) == t + 2
    # p0 p1 + 1 lifts to 1 modulo p0 and modulo p0 p1 alike, so the
    # candidate t + 1 is stable over two primes; trial division rejects it
    g = t + (p0 * p1 + 1)
    assert poly_gcd(g * (t - 1), g * (t + 2)) == g


def test_square_free_decomposition_rebuilds(monkeypatch):
    t = ParamPoly.gen("t")
    p = (t - 1) ** 3 * (t + 2) ** 2 * (t - F(1, 2))
    parts = square_free_decomposition(p)
    rebuilt = ParamPoly.one("t")
    for factor, mult in parts:
        rebuilt = rebuilt * factor**mult
        assert factor == factor.monic()
    assert rebuilt == p.monic()
    mults = sorted(m for _, m in parts)
    assert mults == [1, 2, 3]
    sf = square_free_part(p)
    assert sf == ((t - 1) * (t + 2) * (t - F(1, 2))).monic()
    # a square-free input comes back whole, certified by the gcd image
    # of degree 0 at the first prime: one modular Euclid run, no more
    images = []
    gcd_mod = exactnum_mod._gcd_mod

    def counted(a, b, prime):
        images.append(gcd_mod(a, b, prime))
        return images[-1]

    monkeypatch.setattr(exactnum_mod, "_gcd_mod", counted)
    assert square_free_decomposition(3 * sf) == [(sf, 1)]
    assert images == [[1]]


def test_sturm_counts_on_known_intervals():
    t = ParamPoly.gen("t")
    assert sturm_count(t * t - 1, F(0), F(2)) == 1
    assert sturm_count(t * t + 1, F(-10), F(10)) == 0
    cubic = t**3 - 248 * t * t + 4800 * t - 23040
    assert sturm_count(cubic, F(0), F(10**6)) == 3
    # half-open convention: root at the left endpoint is excluded
    assert sturm_count(t * t - 1, F(1), F(2)) == 0
    assert sturm_count(t * t - 1, F(0), F(1)) == 1
    # a repeated root counts once
    assert sturm_count((t - 1) ** 2 * (t + 2), F(-2), F(1)) == 1
    # (lo, lo] is empty; a reversed interval and the zero polynomial are errors
    assert sturm_count(t * t - 1, F(1), F(1)) == 0
    zero = ParamPoly.zero("t")
    for p, lo, hi in ((t * t - 1, F(2), F(1)), (zero, F(0), F(1)), (zero, F(1), F(1))):
        with pytest.raises(ValueError):
            sturm_count(p, lo, hi)


def test_polynomial_division_runs_only_on_integers():
    # the integer kernel's _int_divmod is the one long division
    for name in ("__divmod__", "__floordiv__", "__mod__"):
        assert not hasattr(ParamPoly, name), name
    assert not hasattr(exactnum_mod, "_remainders")


def test_sturm_against_companion_matrix_oracle():
    rng = random.Random(19)
    for _ in range(20):
        if rng.random() < 0.5:
            roots = sorted(
                F(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(3)
            )
            if len(set(roots)) < 3:
                continue
            t = ParamPoly.gen("t")
            p = (t - roots[0]) * (t - roots[1]) * (t - roots[2])
            true_real = 3
        else:
            r = F(rng.randint(-20, 20), rng.randint(1, 5))
            a = F(rng.randint(-10, 10), rng.randint(1, 5))
            b = F(rng.randint(1, 10), rng.randint(1, 5))
            t = ParamPoly.gen("t")
            p = (t - r) * (t * t - 2 * a * t + (a * a + b * b))
            true_real = 1
        bound = cauchy_bound(p)
        assert sturm_count(p, -bound, bound) == true_real
        numeric = np.roots([float(p.coeff(k)) for k in range(3, -1, -1)])
        assert sum(1 for z in numeric if abs(z.imag) < 1e-7) == true_real


def test_isolation_brackets_separate_roots():
    t = ParamPoly.gen("t")
    p = (t - 1) ** 2 * (t - 2) * (t + 5)  # a repeated root is isolated once
    brackets = isolate_real_roots(p)
    assert len(brackets) == 3
    for lo, hi in brackets:
        assert sturm_count(p, lo, hi) == 1


# sqrt(2) = 1.41421356237309504880...: both rationals lie within one ulp
# of it, one on each side
BELOW_SQRT2 = F(14142135623730950, 10**16)
ABOVE_SQRT2 = F(14142135623730951, 10**16)


@pytest.mark.parametrize(
    "poly",
    [
        ParamPoly("t", (-2, 0, 1)),  # even: isolated on q(mu) = mu - 2
        ParamPoly("t", (6, -2, -3, 1)),  # (t - 3)(t^2 - 2): the general path
    ],
)
def test_root_compare_is_exact_next_to_the_root(poly):
    roots = [r for r in real_roots(poly) if r.exact is None]
    assert len(roots) == 2
    neg, pos = roots
    assert (pos.compare(BELOW_SQRT2), pos.compare(ABOVE_SQRT2)) == (1, -1)
    assert (neg.compare(-ABOVE_SQRT2), neg.compare(-BELOW_SQRT2)) == (1, -1)
    assert (pos.compare(F(-10)), pos.compare(F(10)), neg.compare(F(0))) == (1, -1, -1)
    exact = [r for r in real_roots(poly * ParamPoly("t", (-3, 1))) if r.exact]
    assert [r.compare(F(3)) for r in exact] == [0]


def test_real_roots_exact_and_multiplicity():
    t = ParamPoly.gen("t")
    roots = real_roots(t**4 - 64 * t * t)
    assert [(r.exact, r.multiplicity) for r in roots] == [
        (F(-8), 1),
        (F(0), 2),
        (F(8), 1),
    ]
    irr = real_roots(t * t - 2)
    assert [r.exact for r in irr] == [None, None]
    assert abs(irr[0].value + 2**0.5) < 1e-12
    assert abs(irr[1].value - 2**0.5) < 1e-12
    mixed = real_roots((t - F(1, 3)) ** 2 * (t + 2))
    assert [(r.exact, r.multiplicity) for r in mixed] == [
        (F(-2), 1),
        (F(1, 3), 2),
    ]
    # one square-free factor of degree 5: its rational roots are found by
    # checking the nearest rational of small denominator
    p = (t - F(7, 3)) * (t + F(123457, 1000)) * (t * t * t - 2)
    roots = real_roots(p)
    assert [r.exact for r in roots] == [F(-123457, 1000), None, F(7, 3)]
    assert "%.12g" % roots[1].value == "1.25992104989"


def _correctly_rounded(value: Decimal) -> Decimal:
    """value rounded half to even to 12 significant digits."""
    return Decimal(format(value, ".11e"))


def _printed(value: float) -> Decimal:
    return Decimal("%.12g" % value)


def test_values_print_correctly_rounded_across_a_rounding_boundary():
    # 1.000000000005 lies halfway between two 12-digit decimals; its
    # nearest double does not say on which side of it a root lies
    tie = F("1.000000000005")
    t = ParamPoly.gen("t")
    tiny = F(1, 10**40)
    for r in (tie - tiny, tie, tie + tiny):
        (root,) = real_roots(t - r)
        with localcontext() as ctx:
            ctx.prec = 60
            want = _correctly_rounded(Decimal(r.numerator) / r.denominator)
        assert root.exact == r
        assert _printed(root.value) == want
        assert abs(root.value - float(r)) <= math.ulp(float(r))
    # irrational roots +-sqrt(s) just above and below the boundary
    for offset in (tiny, -tiny):
        s = (tie + offset) ** 2 + tiny * tiny
        roots = real_roots(t * t - s)
        with localcontext() as ctx:
            ctx.prec = 60
            root_s = (Decimal(s.numerator) / s.denominator).sqrt()
            want = [_correctly_rounded(-root_s), _correctly_rounded(root_s)]
        assert [_printed(r.value) for r in roots] == want
        assert [r.exact for r in roots] == [None, None]
    # float() alone rounds across the boundary for one of them
    printed = {_printed(float(r)) for r in (tie - tiny, tie + tiny)}
    assert printed == {_printed(float(tie))}


def _sweep_char_polys(n, c_min, c_max, steps):
    """The char poly in lam at every coupling of `sweep(n, c_min, c_max,
    steps)`, from q(mu; c) evaluated at c."""
    q = _symbolic_mu_poly(n, "c")
    for k in range(steps):
        c = c_min + (c_max - c_min) * F(k, steps - 1)
        mu = ParamPoly("mu", [a(c) if isinstance(a, ParamPoly) else a for a in q.coeffs])
        yield even_poly(mu, "lam")


def _shifted_guess(ulps):
    guess = exactnum_mod._newton_guess

    def shifted(coeffs, lo, hi, sign_lo):
        g = guess(coeffs, lo, hi, sign_lo)
        return g + ulps * math.ulp(g)

    return shifted


# stand-ins for the Newton guess of _refine: either bracket end (outside
# the open bracket, so refinement only bisects), far from the root, and
# a few ulps to either side of the true guess
GUESS_STAND_INS = {
    "lo": lambda coeffs, lo, hi, sign_lo: float(lo),
    "hi": lambda coeffs, lo, hi, sign_lo: float(hi),
    "far": _shifted_guess(2**30),
    "below": _shifted_guess(-3),
    "above": _shifted_guess(3),
}


def test_refined_roots_do_not_depend_on_the_guess(monkeypatch):
    t = ParamPoly.gen("t")
    tie = F("1.000000000005")
    tiny = F(1, 10**40)
    polys = [
        *_sweep_char_polys(3, F(1, 8), F(81, 8), 200),
        *_sweep_char_polys(5, F(3, 8), F(83, 8), 30),
        # square-free, two roots 2^-45 apart: 1/3 is found exact, the
        # other root is not a rational of small denominator
        (3 * t - 1) * (3 * t - 1 - F(3, 2**45)),
        # the other side of the rounding boundary, and an odd quintic
        t * t - ((tie + tiny) ** 2 + tiny * tiny),
        (t - F(7, 3)) * (t + F(123457, 1000)) * (t * t * t - 2),
        # ordinary roots, one near 106.3 with denominator 5^475, so the
        # cleared numerators leave the double range unless scaled
        (t * t - 2) * (t - F(3**700, 5**475)) * (t + F(1, 3)),
    ]
    want = [real_roots(p) for p in polys]
    big = want[-1]
    cleared = exactnum_mod.dense_numerators(polys[-1].nums)
    assert max(abs(c).bit_length() for c in cleared) > 1024
    assert all(map(math.isfinite, exactnum_mod._float_coeffs(cleared)))
    assert [r.exact for r in big] == [None, F(-1, 3), None, None]
    assert abs(F(big[-1].value) - F(3**700, 5**475)) <= F(math.ulp(big[-1].value))
    close = want[-4]
    assert close[0].exact == F(1, 3) and close[1].exact is None
    assert close[0].value < close[1].value
    assert abs(F(close[1].value) - F(1, 3) - F(1, 2**45)) <= F(math.ulp(1 / 3))
    for name, stand_in in GUESS_STAND_INS.items():
        monkeypatch.setattr(exactnum_mod, "_newton_guess", stand_in)
        for p, roots in zip(polys, want):
            assert real_roots(p) == roots, (name, p)


def test_real_roots_and_compare_evaluate_no_param_poly(monkeypatch):
    # every sign of refinement, of the rounding boundary and of
    # Root.compare is taken on the factor's integer numerators
    from qeslab.spectral import _mu_char_poly, block_form

    polys = [
        *_sweep_char_polys(3, F(1, 8), F(81, 8), 200),
        *_sweep_char_polys(5, F(3, 8), F(83, 8), 30),
    ]
    locus = _collision_locus(_mu_char_poly(block_form(8).bc))

    def forbidden(self, value):
        raise AssertionError("ParamPoly evaluated")

    monkeypatch.setattr(ParamPoly, "__call__", forbidden)
    for p in polys:
        assert len(real_roots(p)) == p.degree
    roots = real_roots(locus)
    irrational = [r for r in roots if r.exact is None]
    assert irrational
    for r in roots:
        assert r.compare(0) == (1 if r.value > 0 else -1 if r.value < 0 else 0)
        assert r.compare(10) == (-1 if r.value < 10 else 1)
    for r in irrational:
        # inside the bracket: the exact sign of the locus decides
        t = F(r.value)
        assert r.compare(t) in (-1, 1)
        assert r.compare(t - F(1, 10**6)) == 1 and r.compare(t + F(1, 10**6)) == -1


def test_cauchy_bound_is_strict():
    t = ParamPoly.gen("t")
    p = (t - 3) * (t + 7) * (t - F(1, 9))
    bound = cauchy_bound(p)
    for root in real_roots(p):
        assert abs(root.exact) < bound


def sympy_det(matrix: ExactMatrix) -> F:
    """det of a rational matrix by sympy's exact determinant over QQ: a
    reference that shares no code with char_poly or det."""
    entries = [[QQ(e.numerator, e.denominator) for e in row] for row in matrix.entries]
    d = DomainMatrix(entries, (matrix.rows, matrix.cols), QQ).det()
    return F(int(d.numerator), int(d.denominator))


def rand_matrix(rng, size=4):
    return ExactMatrix(
        [[rand_fraction(rng) for _ in range(size)] for _ in range(size)]
    )


def test_char_poly_matches_fraction_free_determinant():
    rng = random.Random(23)
    for _ in range(10):
        m = rand_matrix(rng)
        cp = m.char_poly("lam")
        r = rand_fraction(rng)
        shifted = ExactMatrix.identity(4) * r - m
        assert cp(r) == sympy_det(shifted)


def test_char_poly_known_companion():
    # companion matrix of t^3 - 2t + 5
    m = ExactMatrix([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    t = ParamPoly.gen("lam")
    assert m.char_poly("lam") == t**3 - 2 * t + 5


def test_char_poly_pivots_where_the_shifted_matrix_is_singular():
    lam = ParamPoly.gen("lam")
    # integer eigenvalues 0..3 (and, halved, 0..3/2 with L = 2): x*I - L*A
    # is singular at every sample point x = 0..3
    unimodular = ExactMatrix([[3, -1, 1, -1], [-5, 7, 2, 1], [-2, 7, -1, 2], [0, 3, -1, 1]])
    inverse = ExactMatrix(
        [[1, -2, 6, -9], [-1, 3, -9, 14], [3, -7, 22, -34], [6, -16, 49, -75]]
    )
    assert (unimodular * inverse) == ExactMatrix.identity(4)
    diagonal = ExactMatrix([[k if i == k else 0 for k in range(4)] for i in range(4)])
    a = unimodular * diagonal * inverse
    assert a.char_poly("lam") == lam * (lam - 1) * (lam - 2) * (lam - 3)
    half = a * F(1, 2)
    assert half.char_poly("lam") == lam * (lam - F(1, 2)) * (lam - 1) * (lam - F(3, 2))
    # zero leading principal minors: the first pivot is zero at x = 0
    assert ExactMatrix([[0, 1], [1, 0]]).char_poly("lam") == lam * lam - 1
    cyclic = ExactMatrix([[0, 2, 0], [0, 0, 3], [5, 0, 0]])
    assert cyclic.char_poly("lam") == lam**3 - 30
    c = ParamPoly.gen("c")
    assert ExactMatrix([[0, c], [c, 0]]).char_poly("lam") == lam * lam - c * c
    # the 1 x 1 matrix and the zero matrix
    assert ExactMatrix([[F(3, 4)]]).char_poly("lam") == lam - F(3, 4)
    assert ExactMatrix([[c * c - 1]]).char_poly("lam") == lam - c * c + 1
    assert ExactMatrix.zeros(3, 3).char_poly("lam") == lam**3


def test_char_poly_rejects_other_entry_rings():
    c, k0, x = ParamPoly.gen("c"), ParamPoly.gen("k0"), ParamPoly.gen("x")
    cases = [
        (ExactMatrix([[c, 0], [0, k0]]), "lam"),  # two variables
        (ExactMatrix([[ParamPoly("lam", [c, 1]), 0], [0, 1]]), "lam"),  # a tower
        (ExactMatrix([[x, 1], [0, 1]]), "lam"),  # not a scalar variable
        (ExactMatrix([[c, 1], [0, 1]]), "c"),  # the entries' own variable
    ]
    for matrix, var in cases:
        with pytest.raises(TypeError):
            matrix.char_poly(var)


def test_real_roots_certify_a_square_free_q_by_one_gcd_image(monkeypatch):
    images = []
    gcd_mod = exactnum_mod._gcd_mod

    def counted(a, b, prime):
        images.append(gcd_mod(a, b, prime))
        return images[-1]

    def forbidden(*args):
        raise AssertionError("real_roots built a Sturm chain")

    monkeypatch.setattr(exactnum_mod, "_gcd_mod", counted)
    for name in ("sturm_sequence", "sign_variations", "sturm_count"):
        monkeypatch.setattr(exactnum_mod, name, forbidden)
    t = ParamPoly.gen("t")
    polys = [
        *_sweep_char_polys(3, F(1, 8), F(81, 8), 5),  # even, on q
        (t - F(7, 3)) * (t + 4) * (t * t * t - 2),  # no parity
    ]
    for p in polys:
        images.clear()
        roots = real_roots(p)
        # one modular Euclid run, whose gcd of degree 0 certifies q
        assert roots and images == [[1]], p
    # a linear p needs no gcd at all
    images.clear()
    assert [r.exact for r in real_roots(3 * t - 1)] == [F(1, 3)] and not images
    # a repeated factor needs images of positive degree and more gcds
    images.clear()
    assert [r.multiplicity for r in real_roots((t - 1) ** 2 * (t + 2))] == [1, 2]
    assert len(images) > 1 and any(len(g) > 1 for g in images)


def test_real_roots_narrow_brackets_into_the_double_range():
    # the bracket from the root bound ends near 1e400; the root does not
    p = ParamPoly("x", (-(10**400), 0, 0, 1))
    [root] = real_roots(p)
    assert root.multiplicity == 1 and root.exact is None
    below = math.nextafter(root.value, 0)
    above = math.nextafter(root.value, math.inf)
    assert p(F(below)) < 0 < p(F(above))
    with localcontext() as ctx:
        ctx.prec = 60
        want = Decimal(10) ** 133 * Decimal(10) ** (Decimal(1) / 3)
    assert _printed(root.value) == _correctly_rounded(want)


@pytest.mark.parametrize(
    "coeffs",
    [
        (-(10**1000), 0, 0, 1),  # bisected: 10^(1000/3)
        (10**1000, 0, 0, 1),  # negative
        (-(10**400), 1),  # linear: exact 10^400
        (-(10**700), 0, 1),  # even, q linear: exact 10^350
        (-(10**701), 0, 1),  # even, bisected
        (-2, 0, 0, 0, 0, 0, 1, 0, F(-1, 10**700)),  # one root small, one huge
    ],
)
def test_real_roots_beyond_the_double_range_raise_value_error(coeffs):
    with pytest.raises(ValueError, match="beyond the double range"):
        real_roots(ParamPoly("x", coeffs))


def dense_product(left, right):
    """Reference product: every scalar product, summed in column order."""
    return [
        [
            as_exact(sum((a * b for a, b in zip(row, col)), F(0)))
            for col in zip(*right.entries)
        ]
        for row in left.entries
    ]


def sparse_matrix(rng, rows, cols, density, entry):
    return ExactMatrix(
        [
            [entry(rng) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def rand_c_poly(rng):
    return ParamPoly("c", [rand_fraction(rng) for _ in range(rng.randint(1, 3))])


def rand_lam_over_c(rng):
    return ParamPoly("lam", [rand_c_poly(rng) for _ in range(rng.randint(1, 3))])


def assert_same_entries(got, want):
    # repr pins the type and the variable of every entry, not only its value
    assert [[repr(e) for e in row] for row in got.entries] == [
        [repr(e) for e in row] for row in want
    ]


def test_matrix_product_matches_dense_reference():
    rng = random.Random(20261017)
    cases = [
        (12, 12, 12, 0.1, rand_fraction),
        (3, 5, 2, 0.5, rand_fraction),
        (6, 6, 6, 0.3, rand_c_poly),
        (5, 4, 5, 0.4, rand_lam_over_c),
    ]
    for rows, inner, cols, density, entry in cases:
        for _ in range(10):
            left = sparse_matrix(rng, rows, inner, density, entry)
            right = sparse_matrix(rng, inner, cols, density, entry)
            assert_same_entries(left * right, dense_product(left, right))


def test_matrix_product_zero_rows_and_columns():
    rng = random.Random(41)
    left = sparse_matrix(rng, 4, 4, 0.6, rand_c_poly)
    right = sparse_matrix(rng, 4, 4, 0.6, rand_c_poly)
    zero_row = ExactMatrix(
        [[0] * 4 if i == 2 else row for i, row in enumerate(left.entries)]
    )
    zero_col = ExactMatrix(
        [[0 if j == 1 else e for j, e in enumerate(row)] for row in right.entries]
    )
    prod = zero_row * zero_col
    assert_same_entries(prod, dense_product(zero_row, zero_col))
    assert all(type(e) is F and e == 0 for e in prod.entries[2])
    assert all(type(row[1]) is F and row[1] == 0 for row in prod.entries)


def test_matrix_product_cancelling_sum_is_a_fraction_zero():
    c = ParamPoly.gen("c")
    prod = ExactMatrix([[c, -c]]) * ExactMatrix([[1], [1]])
    assert type(prod[0][0]) is F and prod[0][0] == 0


def test_matrix_product_shape_mismatch_raises():
    with pytest.raises(ValueError):
        _ = ExactMatrix.zeros(3, 5) * ExactMatrix.zeros(4, 2)


def test_char_poly_of_sparse_tridiagonal_matches_det():
    rng = random.Random(43)
    size = 9
    m = ExactMatrix(
        [
            [rand_fraction(rng) if abs(i - j) <= 1 else 0 for j in range(size)]
            for i in range(size)
        ]
    )
    cp = m.char_poly("lam")
    for r in (F(0), F(1, 3), F(-5, 2), F(7)):
        assert cp(r) == sympy_det((-m).scaled_identity_added(r))


def test_nullspace_vectors_annihilate():
    rng = random.Random(29)
    for _ in range(10):
        left = [[rand_fraction(rng) for _ in range(2)] for _ in range(4)]
        right = [[rand_fraction(rng) for _ in range(4)] for _ in range(2)]
        prod = [
            [
                sum((left[i][k] * right[k][j] for k in range(2)), start=F(0))
                for j in range(4)
            ]
            for i in range(4)
        ]
        m = ExactMatrix(prod)
        kernel = m.nullspace()
        # eliminated on the stored numerators: no Fraction view is built
        assert m._view is None
        assert len(kernel) >= 2
        for vec in kernel:
            image = [
                sum((m[i][j] * vec[j] for j in range(4)), start=F(0))
                for i in range(4)
            ]
            assert all(entry == 0 for entry in image)
    # one elimination serves determinants, kernels and solves
    assert not hasattr(exactnum_mod, "_row_reduce")


# ----------------------------------------------------------------------
# the sparse integer form against sympy
# ----------------------------------------------------------------------

C = ParamPoly.gen("c")


def to_sympy(value):
    if isinstance(value, ParamPoly):
        return sum(
            (to_sympy(a) * sympy.Symbol(value.var) ** k for k, a in enumerate(value.coeffs)),
            sympy.Integer(0),
        )
    return sympy.Rational(value.numerator, value.denominator)


def sympy_matrix(rows):
    return sympy.Matrix([[to_sympy(F(e) if isinstance(e, int) else e) for e in row] for row in rows])


def vanishes(m) -> bool:
    return m.expand() == sympy.zeros(*m.shape)


def integer_coefficients(num):
    """Every integer coefficient of a stored numerator, nested ones too."""
    if type(num) is ParamPoly:
        assert num.den == 1 and num.degree > 0  # integral, not constant
        return [a for v in num.nums.values() for a in integer_coefficients(v)]
    assert type(num) is int and num
    return [num]


def assert_normal_numerators(den, rows):
    """The one stored form: no zero or constant-polynomial numerator,
    integral coefficients, a positive den coprime to their content."""
    content = [den]
    for row in rows:
        for num in row.values():
            content += integer_coefficients(num)
    assert type(den) is int and den > 0 and math.gcd(*content) == 1


def is_view_value(value, zero_ok=True) -> bool:
    """A Fraction (nonzero unless zero_ok) or a non-constant ParamPoly."""
    if type(value) is F:
        return zero_ok or value != 0
    return type(value) is ParamPoly and value.degree > 0


def assert_normal_form(m):
    """The stored form of every row, and a normal dense view."""
    assert_normal_numerators(m.den, m.nums)
    assert len(m.entries) == m.rows and all(len(row) == m.cols for row in m.entries)
    for row in m.entries:
        assert all(map(is_view_value, row))


def assert_normal_poly(p):
    assert_normal_numerators(p.den, (p.nums,))
    assert all(type(v) is int or v.var != p.var for v in p.nums.values())
    assert all(map(is_view_value, p.coeffs))
    assert p.degree == len(p.coeffs) - 1 and (p.is_zero or p.coeffs[-1] != 0)


def assert_shared_arithmetic(a, b, value):
    """The arithmetic that all four normal-form types inherit from
    exactnum.NormalForm, on operands a and b of one type and shape and
    the Fraction `value`."""
    zero = a - a
    rows = zero.nums if isinstance(zero.nums, tuple) else (zero.nums,)
    assert zero.is_zero and not zero and zero.den == 1 and not any(rows)
    assert (a + b) - b == a and a + (b - a) == b
    assert -(-a) == a and -a + a == zero
    for got in (a + zero, zero + a, a - zero, zero - (-a), -(zero - a)):
        assert got == a
    # scalar multiples by a Fraction and by a polynomial in c
    assert a * value + a * value == a * (value * 2) == (value * 2) * a
    assert a * C - a * C == zero and a * C + a == a * (C + 1) == (C + 1) * a
    # equal values reached over different denominators compare equal
    assert a * F(1, 3) * 3 == a * 6 * F(1, 6) == a


# entries over Q, or over Q[c] with constant polynomials among them;
# zeros are frequent in both
q_entries = st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=6))
c_entries = st.one_of(
    q_entries, st.lists(st.fractions(-4, 4, max_denominator=6), min_size=1, max_size=3).map(
        lambda cs: ParamPoly("c", cs)
    )
)


def square_rows(size, entries):
    return st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size)


def square_matrices(size):
    """Over Q or over Q[c], so products pair the two rings too."""
    return st.sampled_from([q_entries, c_entries]).flatmap(lambda e: square_rows(size, e))


sparse_operands = st.integers(1, 4).flatmap(
    lambda size: st.tuples(square_matrices(size), square_matrices(size), c_entries)
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(([[F(1, 2), C], [0, 1]], [[F(-1, 2), -C], [0, -1]], 0))  # a sum that cancels to zero
@example(([[C + 1, F(1, 3)], [0, C]], [[-C, F(2, 3)], [1, -C]], C))  # numerators collapse to constants
@example(([[F(1, 6), 0], [0, F(1, 4)]], [[C, 1], [F(1, 2), 0]], F(3)))  # Q times Q[c]
@example(([[0, 0], [0, 0]], [[C * C, F(1, 5)], [0, C]], F(-7, 2)))
@given(sparse_operands)
def test_sparse_matrix_matches_sympy(operands):
    a_rows, b_rows, scalar = operands
    a, b = ExactMatrix(a_rows), ExactMatrix(b_rows)
    sa, sb, s = sympy_matrix(a_rows), sympy_matrix(b_rows), to_sympy(as_exact(scalar))
    results = {
        "a": (a, sa),
        "+": (a + b, sa + sb),
        "-": (a - b, sa - sb),
        "*": (a * b, sa * sb),
        "-a": (-a, -sa),
        "a*s": (a * scalar, sa * s),
        "s*a": (scalar * a, sa * s),
        "a+sI": (a.scaled_identity_added(scalar), sa + s * sympy.eye(a.rows)),
    }
    for kind, (got, want) in results.items():
        assert_normal_form(got)
        assert vanishes(sympy_matrix(got.entries) - want), kind
        assert got.is_zero == vanishes(want), kind
        assert [got[i] for i in range(got.rows)] == list(got.entries)
    # equal matrices reached over different denominators compare equal
    assert (a + b) - b == a
    assert a * 6 * F(1, 6) == a == ExactMatrix(a.entries)
    assert (a == b) == vanishes(sa - sb)
    assert_shared_arithmetic(a, b, F(-3, 4))
    # a scalar is no matrix, and two shapes do not add
    for refused in (lambda: a + 1, lambda: 1 + a, lambda: a - F(1, 2), lambda: 1 - a):
        with pytest.raises(TypeError):
            refused()
    wider = ExactMatrix.zeros(a.rows, a.cols + 1)
    for refused in (lambda: a + wider, lambda: wider - a, lambda: a - ExactMatrix.identity(a.rows + 1)):
        with pytest.raises(ValueError):
            refused()
    assert a != wider
    lam = sympy.Symbol("lam")
    for m, sm in ((a, sa), (b, sb), (a * b, sa * sb)):
        assert sympy.expand(to_sympy(m.char_poly("lam")) - sm.charpoly(lam).as_expr()) == 0
        assert sympy.expand(to_sympy(as_exact(m.det())) - sm.det()) == 0


# polynomials over Q in t, and in lam over Q[c]; scalars in Q or Q[c]
t_polys = st.lists(q_entries, max_size=5).map(lambda cs: ParamPoly("t", cs))
lam_polys = st.lists(c_entries, max_size=4).map(lambda cs: ParamPoly("lam", cs))
poly_operands = st.sampled_from([t_polys, lam_polys]).flatmap(
    lambda polys: st.tuples(polys, polys, c_entries, st.fractions(-3, 3, max_denominator=4))
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example((ParamPoly("t", [F(1, 2), F(1, 3)]), ParamPoly("t", [F(-1, 2), F(-1, 3)]), 0, F(1)))  # cancels
@example((ParamPoly("lam", [C + 1, F(1, 6)]), ParamPoly("lam", [-C, F(5, 6)]), C * F(1, 2), F(-2)))
@example((ParamPoly("lam", [C]), ParamPoly("lam", [C * C]), C + 1, F(1, 2)))  # constants in Q[c]
@given(poly_operands)
def test_polynomial_form_matches_sympy(operands):
    a, b, scalar, value = operands
    sa, sb, s = to_sympy(a), to_sympy(b), to_sympy(as_exact(scalar))
    var = sympy.Symbol(a.var)
    results = {
        "a": (a, sa),
        "+": (a + b, sa + sb),
        "-": (a - b, sa - sb),
        "*": (a * b, sa * sb),
        "-a": (-a, -sa),
        "a*s": (a * scalar, sa * s),
        "s*a": (scalar * a, sa * s),
        "a+s": (a + scalar, sa + s),
        "a'": (a.derivative(), sympy.diff(sa, var)),
        "0+a": (0 + a, sa),
        "1-a": (1 - a, 1 - sa),
        "s-a": (scalar - a, s - sa),
    }
    for kind, (got, want) in results.items():
        want = sympy.expand(want)
        assert sympy.expand(to_sympy(got) - want) == 0, kind
        if isinstance(got, ParamPoly):
            assert_normal_poly(got)
            assert got.is_zero == (want == 0), kind
    # evaluation at a rational: a Fraction, or a polynomial in c
    got = a(value)
    assert is_view_value(got)
    assert sympy.expand(to_sympy(got) - sa.subs(var, to_sympy(value))) == 0
    # equal values reached over different denominators have equal forms
    assert (a + b) - b == a
    assert a * 6 * F(1, 6) == a == ParamPoly(a.var, a.coeffs)
    assert ((a - a).den, (a - a).nums) == (1, {})
    assert (a == b) == (sympy.expand(sa - sb) == 0)
    assert_shared_arithmetic(a, b, value)
    # two scalar variables never mix
    with pytest.raises(VariableMismatchError):
        (C + value) + ParamPoly("k0", [value, 1])


def test_constant_polynomial_operands_collapse_first():
    # a constant polynomial in lam whose coefficient lies in Q[c] is that
    # coefficient: it combines with a polynomial in c as c itself
    const = ParamPoly("lam", [C])
    for got in (const + (C + 1), (C + 1) + const):
        assert repr(got) == repr(C * 2 + 1)
    for got in (const * (C + 1), (C + 1) * const):
        assert repr(got) == repr(C * C + C)
    zero = ParamPoly.zero("lam")
    for got in (zero + (C + 1), (C + 1) + zero):
        assert repr(got) == repr(C + 1)
    for got in (zero * (C + 1), (C + 1) * zero):
        assert got.is_zero
    # a constant in Q stays a scalar of the other operand's variable
    assert repr(ParamPoly("t", [3]) * (C + 1)) == repr(C * 3 + 3)
    assert repr((C + 1) + ParamPoly("t", [F(1, 2)])) == repr(C + F(3, 2))


X = sympy.Symbol("x")
FX = sympy.Function("f")(X)


def applied_to_f(op, expr=FX):
    """sum c_ij x^i d^j expr, the operator applied to expr in sympy."""
    return sum(
        (to_sympy(c) * X**i * sympy.diff(expr, X, j) for (i, j), c in op.terms.items()),
        sympy.Integer(0),
    )


def diffops(coefficients):
    return st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=4
    ).map(DiffOp)


diffop_operands = st.sampled_from([q_entries, c_entries]).flatmap(
    lambda e: st.tuples(diffops(e), diffops(e), c_entries, st.fractions(-3, 3, max_denominator=4))
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example((DiffOp({(1, 1): F(1, 2)}), DiffOp({(1, 1): F(-1, 2)}), 0, F(1)))  # a sum that cancels
@example((DiffOp({(0, 2): C + 1, (1, 0): F(1, 6)}), DiffOp({(0, 2): -C, (2, 1): C * C}), C, F(2, 3)))
@example((DiffOp({(2, 1): F(1, 4), (0, 0): F(2, 3)}), DiffOp({(1, 2): F(3, 2)}), F(6), F(-1)))
@given(diffop_operands)
def test_diffop_form_matches_sympy(operands):
    a, b, scalar, value = operands
    fa, fb, s = applied_to_f(a), applied_to_f(b), to_sympy(as_exact(scalar))
    results = {
        "a": (a, fa),
        "+": (a + b, fa + fb),
        "-": (a - b, fa - fb),
        "*": (a * b, applied_to_f(a, applied_to_f(b))),
        "-a": (-a, -fa),
        "a*s": (a * scalar, fa * s),
        "s*a": (scalar * a, fa * s),
        "a+s": (a + scalar, fa + s * FX),
        "0+a": (0 + a, fa),
        "1-a": (1 - a, FX - fa),
        "s-a": (scalar - a, s * FX - fa),
    }
    for kind, (got, want) in results.items():
        want = sympy.expand(want)
        assert sympy.expand(applied_to_f(got) - want) == 0, kind
        assert_normal_numerators(got.den, (got.nums,))
        assert all(is_view_value(c, zero_ok=False) for c in got.terms.values()), kind
        assert got.is_zero == (want == 0), kind
        # the ring map c -> value, on the numerators
        at = specialize(got, value)
        assert_normal_numerators(at.den, (at.nums,))
        assert sympy.expand(applied_to_f(at) - want.subs(sympy.Symbol("c"), to_sympy(value))) == 0
    assert (a + b) - b == a
    assert a * 6 * F(1, 6) == a == DiffOp(a.terms)
    assert ((a - a).den, (a - a).nums) == (1, {}) and a - a == 0
    assert (a == b) == (sympy.expand(fa - fb) == 0)
    assert_shared_arithmetic(a, b, value)


def dot2(x, y, u, v):
    """x*y + u*v without multiplying by an empty factor: the entrywise
    rule of a product of 2x2 grids of DiffOps, the reference for MatOp
    products."""
    if x.nums and y.nums:
        return x * y + u * v if u.nums and v.nums else x * y
    return u * v if u.nums and v.nums else DiffOp()


def matops(coefficients):
    """2x2 grids of DiffOps, empty entries frequent, built as MatOps."""
    return st.lists(diffops(coefficients), min_size=4, max_size=4).map(
        lambda e: MatOp((e[:2], e[2:]))
    )


matop_operands = st.sampled_from([q_entries, c_entries]).flatmap(
    lambda e: st.tuples(matops(e), matops(e), c_entries, st.fractions(-3, 3, max_denominator=4))
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example((  # a sum that cancels, over mixed denominators
    MatOp(((DiffOp({(1, 1): F(1, 2)}), F(1, 3)), (0, DiffOp({(0, 2): C * F(1, 6)})))),
    MatOp(((DiffOp({(1, 1): F(-1, 2)}), F(-1, 3)), (0, DiffOp({(0, 2): C * F(-1, 6)})))),
    0, F(1),
))
@example((  # off-diagonal towers times diagonal tees, in Q[c]
    MatOp(((0, DiffOp({(0, 2): C + 1, (1, 0): F(1, 6)})), (DiffOp({(2, 1): F(3, 4)}), 0))),
    MatOp(((DiffOp({(1, 1): C * C}), 0), (0, DiffOp({(0, 0): F(2, 5), (1, 2): -C})))),
    C, F(2, 3),
))
@example((MatOp.zero(), MatOp.sigma3(), F(6), F(-1)))
@given(matop_operands)
def test_matop_form_matches_entrywise_diffops(operands):
    a, b, scalar, value = operands
    (a00, a01), (a10, a11) = a.entries
    (b00, b01), (b10, b11) = b.entries

    def each(op, f):
        return [[f(e) for e in row] for row in op.entries]

    pairs = [list(zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)]
    results = {
        "+": (a + b, [[x + y for x, y in row] for row in pairs]),
        "-": (a - b, [[x - y for x, y in row] for row in pairs]),
        "-a": (-a, each(a, lambda e: -e)),
        "*": (a * b, [
            [dot2(a00, b00, a01, b10), dot2(a00, b01, a01, b11)],
            [dot2(a10, b00, a11, b10), dot2(a10, b01, a11, b11)],
        ]),
        "a*s": (a * scalar, each(a, lambda e: e * scalar)),
        "s*a": (scalar * a, each(a, lambda e: scalar * e)),
        "a*q": (a * value, each(a, lambda e: e * value)),
        "q*a": (value * a, each(a, lambda e: value * e)),
        "a+sI": (a.scaled_identity_added(scalar), [[a00 + scalar, a01], [a10, a11 + scalar]]),
        "a(q)": (specialize(a, value), each(a, lambda e: specialize(e, value))),
    }
    for kind, (got, want) in results.items():
        assert type(got) is MatOp, kind
        assert len(got.nums) == 4, kind
        assert_normal_numerators(got.den, got.nums)
        assert [list(row) for row in got.entries] == want, kind
        assert [got[0], got[1]] == list(got.entries), kind
        assert got == MatOp(want) == MatOp(got.entries), kind
        assert got.is_zero == all(e.is_zero for row in want for e in row), kind
    # equal operators reached over different denominators have equal forms
    assert (a + b) - b == a
    assert a * 6 * F(1, 6) == a
    assert ((a - a).den, (a - a).nums) == (1, ({}, {}, {}, {}))
    assert (a == b) == (a.entries == b.entries)
    assert_shared_arithmetic(a, b, value)
    # a scalar is no matrix operator
    for refused in (lambda: a + 1, lambda: 1 + a, lambda: a - scalar, lambda: 1 - a):
        with pytest.raises(TypeError):
            refused()


def test_sparse_form_is_normal_across_denominators():
    halves = ExactMatrix([[F(1, 2), F(1, 3)], [0, C * F(5, 6)]])
    assert (halves.den, halves.nums) == (6, ({0: 3, 1: 2}, {1: C * 5}))
    assert halves * 6 == ExactMatrix([[3, 2], [0, C * 5]])
    assert (halves * 6).den == 1
    third = ExactMatrix([[F(1, 3)]])
    assert (third + third + third).den == 1 and (third + third + third)[0][0] == 1
    assert ExactMatrix([[C + 1]]) - ExactMatrix([[C]]) == ExactMatrix.identity(1)
    assert (ExactMatrix([[C + 1]]) - ExactMatrix([[C]])).nums == ({0: 1},)


def test_solve_linear_roundtrip():
    rng = random.Random(31)
    solved = 0
    while solved < 8:
        m = rand_matrix(rng, 3)
        if not m.det():
            continue
        x_true = [rand_fraction(rng) for _ in range(3)]
        rhs = [
            sum((m[i][j] * x_true[j] for j in range(3)), start=F(0))
            for i in range(3)
        ]
        assert list(solve_linear(m.entries, rhs)) == x_true
        # several right-hand sides, the columns of a matrix, in one solve
        assert solve_linear(m.entries, [[b, 2 * b] for b in rhs]) == [(x, 2 * x) for x in x_true]
        inverse = solve_linear(m.entries, [[int(i == j) for j in range(3)] for i in range(3)])
        assert ExactMatrix(inverse) * m == ExactMatrix.identity(3)
        solved += 1
    # a system of the wrong shape, the empty one included, is refused,
    # not truncated to fit
    for call in (
        lambda: solve_linear([[1, 0, 0], [0, 1, 0]], [5, 6]),
        lambda: solve_linear([[1, 0], [0, 1]], [5, 6, 7]),
        lambda: solve_linear([], []),
        lambda: Span([]),  # its Gram inverse is an empty solve
    ):
        with pytest.raises(ValueError):
            call()


def test_no_module_imports_a_private_exactnum_name():
    # the integer normal form is read through public names only
    imported = []
    for path in sorted(pathlib.Path(qeslab.__file__).parent.glob("*.py")):
        if path.name == "exactnum.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("qeslab.exactnum", "exactnum"):
                imported += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert imported == []
