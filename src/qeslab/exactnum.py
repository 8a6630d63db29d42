"""Exact scalar, polynomial, and matrix kernels.

Everything here is exact over the rationals, and every exact value is
stored in one integer normal form: dicts of nonzero numerators over one
positive int denominator, coprime to their content.  A numerator is an
int, or for a coefficient in Q[t] a non-constant ParamPoly in t with
integral coefficients; ``normal_form`` is the one normaliser, shared by
``ParamPoly`` (one dict {power: numerator}), ``weyl.DiffOp`` (one dict
{(x power, d power): numerator}), ``weyl.MatOp`` (four such dicts, one
per entry) and ``ExactMatrix`` (one dict {column: numerator} per row),
so sums, products and evaluations run on integers and equal values
have equal forms.  The four inherit from ``NormalForm``, the one home of
the arithmetic that the form alone decides: equality, negation, sums,
differences and scalar multiples.  ``cleared_rows`` brings
exact values (ints, Fractions, polynomials) into that form at the API
boundary, and ``ratio`` reads one value back as a Fraction or a
non-constant ParamPoly, the types of the read-only views.  Polynomials
in a scalar variable (SCALAR_VARS) nest inside the coefficients of a
polynomial in any other variable (a characteristic polynomial in
``lam`` with coefficients in Q[k0], say).  Exact linear algebra has
one elimination, fraction-free Bareiss on integers (``_echelon``).
Determinants and characteristic polynomials over Q or Q[t] take
integer determinants at sample points and interpolate from forward
differences, in lam for a characteristic polynomial and in t up to a
certified degree bound; in u = t^2 after a diagonal similarity when the
entries' parities allow one, and for lam^k only to its own bound (the
triangle).  Kernels are back-substituted on integers over the last
pivot, and a linear solve is the kernel of [rows | -rhs].  Power sums
of roots need no division (power_sums, Newton's identities).  Root
finding runs on the integer numerators too: square-free parts by Yun's
algorithm on a modular gcd that trial division certifies, and real roots
isolated by Descartes bisection in dyadic brackets (for an even
p(x) = q(x^2), q is decomposed at half the degree and only x > 0 is
isolated).  Roots are refined in doubles on the same
integer polynomial, from a float Newton guess, by steps away from the
guess and then bisection, and every sign is exact: Horner on integers
at the double or rational as a ratio of integers.  Refinement stops at
adjacent doubles, and the exact sign at a decimal rounding boundary
settles the last digit when they print differently, so every digit of
'%.12g' of a root is certified; a root beyond the double range raises
ValueError.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

# degree reported for the zero polynomial
ZERO_DEGREE = -1

# Variables that act as scalar parameters: a polynomial in one of these
# may sit inside the coefficients of a polynomial in any non-scalar
# variable, and arithmetic nests it there automatically.  Two distinct
# variables of the same kind never mix: the degree n of the relation
# suites never meets the mix constant c of the gap-4 scan.
SCALAR_VARS = frozenset({"k0", "c", "n"})


def nests_inside(inner_var: str, outer_var: str) -> bool:
    return inner_var in SCALAR_VARS and outer_var not in SCALAR_VARS


class VariableMismatchError(ValueError):
    """Arithmetic between polynomials in different formal variables."""


def as_exact(value):
    """Coerce ints to Fraction and collapse constant polynomials."""
    if type(value) is Fraction:
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, ParamPoly) and value.degree <= 0:
        return value.constant()
    return value


# ----------------------------------------------------------------------
# the integer normal form
# ----------------------------------------------------------------------

def normal_form(den: int, rows):
    """(den, rows) in normal form for the numerator dicts `rows` over the
    int den > 0: zero numerators dropped, a constant polynomial replaced
    by its one numerator, and the gcd of den and every integer
    coefficient of every numerator divided out, so that equal values
    have equal forms."""
    out = []
    for row in rows:
        clean = {}
        for key, num in row.items():
            if type(num) is int:
                if num:
                    clean[key] = num
            elif num.nums:
                clean[key] = num.nums[0] if len(num.nums) == 1 and 0 in num.nums else num
        out.append(clean)
    if den > 1:
        ints = [num for row in out for num in row.values()]
        if any(type(num) is not int for num in ints):
            nested, ints = ints, []
            while nested:
                num = nested.pop()
                if type(num) is int:
                    ints.append(num)
                else:
                    nested.extend(num.nums.values())
        g = math.gcd(den, *ints)
        if g > 1:
            den //= g
            out = [{key: _divided(num, g) for key, num in row.items()} for row in out]
    return den, tuple(out)


def _divided(num, g: int):
    """The numerator num divided by the int g, which divides it."""
    if type(num) is int:
        return num // g
    return ParamPoly._of(num.var, 1, {k: _divided(c, g) for k, c in num.nums.items()})


def cleared(value):
    """(den, numerator) of one exact value: an int, a Fraction or a
    ParamPoly, whose numerator is then integral (a constant collapses)."""
    if type(value) is int:
        return 1, value
    if type(value) is Fraction:
        return value.denominator, value.numerator
    if type(value) is ParamPoly:
        if value.degree <= 0:
            return value.den, value.nums.get(0, 0)
        return value.den, ParamPoly._of(value.var, 1, value.nums)
    if isinstance(value, int):
        return 1, int(value)
    raise TypeError(f"not an exact value: {value!r}")


def cleared_rows(rows, den: int = 1):
    """The normal form of the exact values rows[i][key] / den, for dicts
    `rows` of exact values: every value cleared to an integral numerator
    over the least common denominator."""
    parts = [{key: cleared(v) for key, v in row.items()} for row in rows]
    scale = math.lcm(*(d for row in parts for d, _ in row.values()))
    return normal_form(den * scale, [
        {key: num * (scale // d) if d != scale else num for key, (d, num) in row.items()}
        for row in parts
    ])


def ratio(num, den: int):
    """The exact value num / den of a numerator over den: a Fraction, or
    a non-constant ParamPoly."""
    if type(num) is ParamPoly:
        if num.degree > 0:
            return ParamPoly._normal(num.var, den, num.nums)
        num = num.nums.get(0, 0)
        if type(num) is ParamPoly:
            return ratio(num, den)
    return Fraction(num, den)


def dense_numerators(nums) -> list:
    """The numerators {power: numerator} as a dense ascending list, 0 for
    a missing power."""
    return [nums.get(i, 0) for i in range(max(nums, default=-1) + 1)]


class NormalForm:
    """An exact value in the integer normal form: numerator dicts over
    one positive int ``den`` (normal_form), and the one home of the
    arithmetic that this form alone decides: ``is_zero``, truth, ``==``,
    negation, sums and differences on either side, and scalar multiples
    in Q or Q[t] (``_scaled``), each result normalised once.  A subclass
    keeps its checked constructor, ``_of``, its product and its public
    view, cached in ``_view``, and supplies three hooks: ``_rows``, its
    numerator dicts as a tuple; ``_same``, a value of its own type and
    shape on a normal form (den, rows); and ``_pair``, the two operands
    of a sum in one type and shape, or None, which makes the operation
    NotImplemented.  Instances are immutable by convention, so a sum
    with a zero operand may return the other operand itself.
    """

    __slots__ = ("den", "nums", "_view")

    __hash__ = None  # immutable by convention, but never used as a key

    @property
    def is_zero(self) -> bool:
        return not any(self._rows())

    def __bool__(self) -> bool:
        return any(self._rows())

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.den == b.den and a.nums == b.nums

    def __neg__(self):
        return self._same(self.den, tuple({k: -v for k, v in row.items()} for row in self._rows()))

    def _sum(self, other, sign: int):
        """self + sign * other, on the numerators over the lcm of the two
        denominators."""
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        a_rows, b_rows = a._rows(), b._rows()
        if not any(b_rows):
            return a
        if sign == 1 and not any(a_rows):
            return b
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        out = []
        for ra, rb in zip(a_rows, b_rows):
            row = {k: v * fa for k, v in ra.items()} if fa != 1 else dict(ra)
            for k, v in rb.items():
                v = v * fb if fb != 1 else v
                row[k] = row[k] + v if k in row else v
            out.append(row)
        return a._same(*normal_form(den, out))

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def _scaled(self, scalar):
        """scalar times self, for an exact scalar (an int, a Fraction or
        a ParamPoly in a scalar variable)."""
        s_den, s_num = (1, scalar) if type(scalar) is int else cleared(scalar)
        return self._same(*normal_form(
            self.den * s_den, [{k: v * s_num for k, v in row.items()} for row in self._rows()]
        ))


class ParamPoly(NormalForm):
    """Univariate polynomial with exact coefficients, stored in the
    integer normal form (NormalForm, which holds its sums and scalar
    multiples): ``nums`` maps each power with a nonzero coefficient to
    its numerator over ``den``, so the zero polynomial has no numerators
    and ``degree == ZERO_DEGREE``.  A numerator is an int, or an
    integral ParamPoly in a scalar variable for a coefficient in Q[k0],
    Q[c] or Q[n].  ``coeffs`` is a read-only dense view, built on first
    read: a Fraction (zero is Fraction(0)) or a non-constant ParamPoly
    per power.
    """

    __slots__ = ("var",)

    def __init__(self, var: str, coeffs=()):
        self.var = var
        self.den, (self.nums,) = cleared_rows([dict(enumerate(coeffs))])
        self._view = None

    @classmethod
    def _of(cls, var: str, den: int, nums: dict) -> "ParamPoly":
        """Unchecked constructor for a form (den, nums) already normal."""
        self = object.__new__(cls)
        self.var, self.den, self.nums, self._view = var, den, nums, None
        return self

    @classmethod
    def _normal(cls, var: str, den: int, nums: dict) -> "ParamPoly":
        """The polynomial of the numerators nums over den, brought to
        normal form."""
        den, (nums,) = normal_form(den, (nums,))
        return cls._of(var, den, nums)

    def _rows(self):
        return (self.nums,)

    def _same(self, den: int, rows) -> "ParamPoly":
        return ParamPoly._of(self.var, den, rows[0])

    def _pair(self, other):
        return _common(self, other)

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, var: str) -> "ParamPoly":
        return cls._of(var, 1, {})

    @classmethod
    def one(cls, var: str) -> "ParamPoly":
        return cls._of(var, 1, {0: 1})

    @classmethod
    def gen(cls, var: str) -> "ParamPoly":
        """The variable itself as a degree-1 polynomial."""
        return cls._of(var, 1, {1: 1})

    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        return max(self.nums, default=ZERO_DEGREE)

    @property
    def coeffs(self) -> tuple:
        if self._view is None:
            self._view = tuple(map(self.coeff, range(self.degree + 1)))
        return self._view

    def coeff(self, power: int):
        num = self.nums.get(power)
        return Fraction(0) if num is None else ratio(num, self.den)

    def constant(self):
        return self.coeff(0)

    def leading(self):
        return self.coeff(self.degree)

    # ------------------------------------------------------------------
    def __eq__(self, other):
        """Equal forms in one variable; a constant equals its value in
        any variable."""
        if isinstance(other, ParamPoly) and other.var == self.var:
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction, ParamPoly)):
            if self.degree <= 0:
                return self.constant() == other
            return isinstance(other, ParamPoly) and other.degree <= 0 and self == other.constant()
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        pair = _common(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        out = {}
        for i, x in a.nums.items():
            for j, y in b.nums.items():
                p = x * y
                out[i + j] = out[i + j] + p if i + j in out else p
        return ParamPoly._normal(a.var, a.den * b.den, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ParamPoly.one(self.var)
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, value):
        """The exact value at `value` = m/k (an int, a Fraction, or a
        double taken exactly), by Horner's rule on the numerators:
        y <- y m + N_i k^j for j = 1 .. deg (scaled_horner), then
        y / (den k^deg).  The numerators may be polynomials in a scalar
        variable, and so is the value then."""
        if not self.nums:
            return Fraction(0)
        y, kd = scaled_horner(dense_numerators(self.nums), *value.as_integer_ratio())
        return ratio(y, self.den * kd)

    def derivative(self) -> "ParamPoly":
        return ParamPoly._normal(
            self.var, self.den, {i - 1: i * c for i, c in self.nums.items() if i}
        )

    def map_coeffs(self, func) -> "ParamPoly":
        return ParamPoly(self.var, tuple(func(c) for c in self.coeffs))

    # --- field-coefficient operations ---------------------------------
    def _require_rational(self):
        if not all(type(c) is int for c in self.nums.values()):
            raise TypeError("operation needs rational coefficients")

    def monic(self) -> "ParamPoly":
        self._require_rational()
        if self.is_zero:
            return self
        lead = self.nums[self.degree]
        nums = self.nums if lead > 0 else {k: -v for k, v in self.nums.items()}
        return ParamPoly._normal(self.var, abs(lead), nums)

    # ------------------------------------------------------------------
    def __repr__(self):
        return f"ParamPoly({self.var!r}, {list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for power in sorted(self.nums, reverse=True):
            parts.append(_format_term(self.coeffs[power], self.var, power, first=not parts))
        return "".join(parts)


def _constant(var: str, value) -> ParamPoly:
    """The constant polynomial in var with the exact value `value`."""
    den, num = cleared(value)
    return ParamPoly._of(var, den, {0: num} if num else {})


def _common(a: ParamPoly, b):
    """(a, b) as two polynomials in one variable, for the ParamPoly a and
    an exact value b, or None when b is none: a constant polynomial in
    another variable than the other operand's collapses to its
    coefficient first, and a polynomial in a scalar variable nests as a
    constant coefficient of one in any other."""
    if type(b) is not ParamPoly:
        return (a, _constant(a.var, b)) if isinstance(b, (int, Fraction)) else None
    if a.var == b.var:
        return a, b
    if b.degree <= 0:
        return _common(a, b.constant())
    if a.degree <= 0:
        const = a.constant()
        if type(const) is ParamPoly:
            return _common(const, b)
        return _constant(b.var, const), b
    if nests_inside(b.var, a.var):
        return a, _constant(a.var, b)
    if nests_inside(a.var, b.var):
        return _constant(b.var, a), b
    raise VariableMismatchError(f"cannot combine polynomials in {a.var!r} and {b.var!r}")


def _format_term(coeff, var: str, power: int, first: bool) -> str:
    if isinstance(coeff, ParamPoly):
        body = f"({coeff})"
        sign = " + " if not first else ""
    else:
        neg = coeff < 0
        mag = -coeff if neg else coeff
        sign = ("-" if neg else "") if first else (" - " if neg else " + ")
        body = str(mag)
    if power == 0:
        return sign + body
    var_s = var if power == 1 else f"{var}^{power}"
    if not isinstance(coeff, ParamPoly) and abs(coeff) == 1:
        return sign + var_s
    return f"{sign}{body}*{var_s}"


def even_poly(poly: ParamPoly, var: str) -> ParamPoly:
    """p(t) -> p(var^2) as a polynomial in `var`."""
    return ParamPoly._of(var, poly.den, {2 * k: v for k, v in poly.nums.items()})


# ----------------------------------------------------------------------
# integer polynomials: modular gcd, square-free parts, Descartes isolation
# ----------------------------------------------------------------------
#
# An int poly is a list of int coefficients, ascending, whose last one is
# nonzero; the zero polynomial is the empty list.  A rational ParamPoly
# enters through its numerators (dense_numerators(p.nums)).

def scaled_horner(a, m: int, k: int):
    """(k^d a(m / k), k^d) for the dense numerators a of degree d (ints,
    or integral polynomials in a scalar variable) and k > 0, by Horner
    on integers: y <- y m + a_i k^j for j = 1 .. d."""
    y = a[-1]
    kj = 1
    for c in a[-2::-1]:
        kj *= k
        y = y * m + c * kj if c else y * m
    return y, kj


def _monic_poly(var: str, a) -> ParamPoly:
    """a / a[-1] as a ParamPoly, for the primitive int poly a with
    a[-1] > 0, whose normal form is then (a[-1], a) itself."""
    return ParamPoly._of(var, a[-1], {i: c for i, c in enumerate(a) if c})


def _primitive(a):
    """The int poly a over its content, with a positive leading coefficient."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _int_derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def _int_sub(a, b):
    out = [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]
    while out and not out[-1]:
        out.pop()
    return out


def _int_divmod(a, b):
    """(quotient, remainder) of the int polys a and b != 0, or None at the
    first quotient coefficient that is not an integer."""
    db = len(b) - 1
    lead = b[-1]
    rem = list(a)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c, r = divmod(rem[i], lead)
        if r:
            return None
        if c:
            quot[i - db] = c
            rem[i - db : i] = [x - c * y for x, y in zip(rem[i - db : i], b)]
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _int_divexact(a, b):
    """a / b for the int polys a and b != 0, or None when that is not an
    int poly."""
    out = _int_divmod(a, b)
    return None if out is None or out[1] else out[0]


# The moduli of _int_gcd: primes below 2^61, descending from the Mersenne
# prime 2^61 - 1, found as they are needed.
_PRIMES = [2**61 - 1]


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes as bases, which decides
    every odd n < 3.3e24."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    for i in itertools.count():
        if i == len(_PRIMES):
            n = _PRIMES[-1] - 2
            while not _is_prime(n):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[i]


def _reduced(a, p: int):
    out = [c % p for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def _gcd_mod(a, b, p: int):
    """The monic gcd over GF(p) of the int polys a and b, a nonzero mod p."""
    a, b = _reduced(a, p), _reduced(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] * inv % p
            if c:
                a[i - db : i] = [(x - c * y) % p for x, y in zip(a[i - db : i], b)]
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _int_gcd(a, b):
    """The primitive gcd, with a positive leading coefficient, of the
    nonzero int polys a and b: Brown's modular algorithm (J. ACM 18
    (1971) 478).

    Modulo each prime p that divides neither leading coefficient, the
    image of the gcd divides the monic gcd mod p, so its degree bounds
    the gcd's: degree 0 proves the gcd is 1.  A prime whose gcd has a
    higher degree than another's is unlucky and dropped.  The images,
    scaled to the gcd of the two leading coefficients, are combined by
    CRT and lifted to symmetric residues.  When one more prime leaves the
    primitive lift unchanged, trial division decides: a lift that divides
    a and b over Z has the bound's degree, so it is the gcd."""
    a, b = _primitive(a), _primitive(b)
    if len(a) == 1 or len(b) == 1:
        return [1]
    scale = math.gcd(a[-1], b[-1])
    image, modulus, candidate = None, 1, None
    for p in _primes():
        if not a[-1] % p or not b[-1] % p:
            continue
        g = _gcd_mod(a, b, p)
        if len(g) == 1:
            return [1]
        if image is not None and len(g) > len(image):
            continue
        g = [c * scale % p for c in g]
        if image is None or len(g) < len(image):
            image, modulus = g, p
        else:
            inv = pow(modulus, -1, p)
            image = [h + modulus * ((x - h) * inv % p) for h, x in zip(image, g)]
            modulus *= p
        half = modulus >> 1
        lifted = _primitive([h - modulus if h > half else h for h in image])
        if (
            lifted == candidate
            and _int_divexact(a, lifted) is not None
            and _int_divexact(b, lifted) is not None
        ):
            return lifted
        candidate = lifted


def _int_square_free(f):
    """Yun's algorithm over Z on the primitive int poly f of degree >= 1,
    leading coefficient positive: [(a_i, i)] with f = prod a_i^i, each a_i
    primitive, square-free, of degree >= 1 and positive leading
    coefficient.  Every gcd is primitive, so every division is exact over
    Z and w and y keep Yun's common scalar."""
    df = _int_derivative(f)
    g = _int_gcd(f, df)
    if len(g) == 1:
        return [(f, 1)]
    w = _int_divexact(f, g)
    y = _int_divexact(df, g)
    out = []
    mult = 1
    while len(w) > 1:
        z = _int_sub(y, _int_derivative(w))
        gi = _int_gcd(w, z) if z else w
        if len(gi) > 1:
            out.append((gi, mult))
        w = _int_divexact(w, gi)
        y = _int_divexact(z, gi)
        mult += 1
    return out


def _square_free_ints(p: ParamPoly):
    """The primitive square-free part of the nonzero rational p, as an int
    poly with a positive leading coefficient."""
    f = _primitive(dense_numerators(p.nums))
    if len(f) == 1:
        return [1]
    return _int_divexact(f, _int_gcd(f, _int_derivative(f)))


def poly_gcd(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Monic gcd over Q (zero when a and b are), by _int_gcd."""
    a._require_rational()
    b._require_rational()
    if not b:
        return a.monic()
    if not a:
        return b.monic()
    return _monic_poly(a.var, _int_gcd(dense_numerators(a.nums), dense_numerators(b.nums)))


def square_free_part(p: ParamPoly) -> ParamPoly:
    """Monic square-free part of p."""
    if p.is_zero:
        raise ValueError("square-free part of the zero polynomial")
    p._require_rational()
    return _monic_poly(p.var, _square_free_ints(p))


def square_free_decomposition(p: ParamPoly):
    """Yun's algorithm on the integer numerators of p (_int_square_free):
    a list of (monic square-free factor, multiplicity).  A square-free p
    comes back as [(p.monic(), 1)] after one gcd image of degree 0, at
    the first prime that does not divide its leading coefficient."""
    if p.is_zero:
        raise ValueError("square-free decomposition of the zero polynomial")
    p._require_rational()
    if p.degree <= 0:
        return []
    f = _primitive(dense_numerators(p.nums))
    return [(_monic_poly(p.var, a), mult) for a, mult in _int_square_free(f)]


def _taylor_shift(a, s: int = 1):
    """a(t + s) for the int poly a and the int s: deg a passes of
    synthetic division, each one running sum (a plain sum when s = 1)."""
    step = None if s == 1 else (lambda acc, c: acc * s + c)
    out = []
    rest = a[::-1]
    while rest:
        rest = list(itertools.accumulate(rest, step))
        out.append(rest.pop())
    return out


def _descartes(a) -> int:
    """min(2, V) for V the sign variations of (t + 1)^d a(1 / (t + 1)),
    d = deg a.  By Descartes' rule V bounds the number of roots of a in
    the open (0, 1) and has its parity, so 0 and 1 are that number.  The
    coefficients come from the Taylor shift of a's reverse, lowest first,
    and the shift stops at the second variation."""
    count = last = 0
    rest = list(a)
    while rest:
        rest = list(itertools.accumulate(rest))
        c = rest.pop()
        if c:
            if last and (c ^ last) < 0:
                count += 1
                if count == 2:
                    return 2
            last = c
    return count


def _unit_roots(a):
    """The roots in the open (0, 1) of the square-free int poly a, by
    Vincent-Collins-Akritas bisection (Collins & Akritas, SYMSAC 1976;
    Rouillier & Zimmermann, J. Comput. Appl. Math. 162 (2004) 33):
    (brackets, hits).  A bracket (c, k, s) is the open
    (c / 2^k, (c + 1) / 2^k) holding exactly one root, s the sign of a
    just above its left end; a hit (c, k) is a root at c / 2^k exactly,
    found at a bisection point.  Each interval carries the int poly
    2^(k d) a((c + t) / 2^k) over its powers of two, so a halving is a
    shift of each coefficient and the right half one Taylor shift by 1.
    A root at an interval end is not counted in it, nor does it stop the
    bisection from ending."""
    brackets, hits = [], []
    stack = [(0, 0, a)]
    while stack:
        c, k, q = stack.pop()
        v = _descartes(q)
        if v == 1:
            s = next(x for x in q if x)
            brackets.append((c, k, 1 if s > 0 else -1))
        elif v:
            d = len(q) - 1
            left = [x << (d - i) for i, x in enumerate(q)]
            twos = min((x & -x).bit_length() for x in left if x) - 1
            if twos:
                left = [x >> twos for x in left]
            right = _taylor_shift(left)
            if not right[0]:
                hits.append((2 * c + 1, k + 1))
            stack.append((2 * c + 1, k + 1, right))
            stack.append((2 * c, k + 1, left))
    return brackets, hits


def _positive_root_exponent(a):
    """e with every positive root of the int poly a below 2^e, from
    Kioustelidis' bound 2 max |a_i / a_d|^(1 / (d - i)) over the a_i of
    sign opposite to a_d, each ratio rounded up to a power of two by bit
    lengths; None when no coefficient has the opposite sign, so that a
    has no positive root."""
    d = len(a) - 1
    top = a[-1].bit_length() - 1  # |a_d| >= 2^top
    negative = a[-1] < 0
    e = None
    for i in range(d):
        x = a[i]
        if x and (x < 0) != negative:
            # |a_i / a_d| < 2^(bits - top): its (d - i)-th root is below
            # 2^ceil((bits - top) / (d - i))
            r = -((top - x.bit_length()) // (d - i))
            if e is None or r > e:
                e = r
    return None if e is None else e + 1


def _dyadic(m: int, k: int):
    """m / 2^k exactly: a float when that is a double, else a Fraction."""
    if -(2**53) < m < 2**53 and -900 < k < 900:
        return math.ldexp(m, -k)
    return Fraction(m, 1 << k) if k >= 0 else Fraction(m << -k)


def _positive_roots(a):
    """(brackets, hits) for the positive roots of the square-free int poly
    a: _unit_roots on a(2^e t), with 2^e a power-of-two root bound
    (_positive_root_exponent).  Bracket ends are dyadic, floats where they
    are doubles (_dyadic); a bracket (lo, hi, s) holds one root in the
    open (lo, hi), a of sign s on (lo, root); hits are Fractions."""
    e = _positive_root_exponent(a)
    if e is None:
        return [], []
    d = len(a) - 1
    if e >= 0:
        scaled = [x << (e * i) for i, x in enumerate(a)]
    else:
        scaled = [x << (-e * (d - i)) for i, x in enumerate(a)]
    brackets, hits = _unit_roots(scaled)
    return (
        [(_dyadic(c, k - e), _dyadic(c + 1, k - e), s) for c, k, s in brackets],
        [Fraction(_dyadic(c, k - e)) for c, k in hits],
    )


def count_real_roots(p: ParamPoly, ends):
    """[n_1, n_2, ...]: n_i distinct real roots of the nonzero rational p
    lie in the half-open (ends[i-1], ends[i]]; the ends ascend and are
    rationals, the last may be math.inf.

    On the square-free part f of p (_square_free_ints): for an interval
    (lo, hi] with lo = a/b, the roots r of f become the roots y = br - a
    of g(y) = b^d f((y + a)/b), one Taylor shift by a.  Up to +inf they
    are g's positive roots (_positive_roots); else t = y/(b (hi - lo))
    maps them to (0, 1) (_unit_roots), where a root at t = 1, a zero sum
    of coefficients, is the root at hi."""
    p._require_rational()
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    f = _square_free_ints(p)
    d = len(f) - 1
    counts = []
    for lo, hi in zip(ends, ends[1:]):
        lo = Fraction(lo)
        if not lo < hi:
            raise ValueError("empty interval")
        a, b = lo.numerator, lo.denominator
        g = _taylor_shift([c * b ** (d - i) for i, c in enumerate(f)], a)
        if hi == math.inf:
            while not g[0]:
                g = g[1:]
            brackets, hits = _positive_roots(g)
            counts.append(len(brackets) + len(hits))
            continue
        width = b * (Fraction(hi) - lo)
        u, v = width.numerator, width.denominator
        g = [c * u**i * v ** (d - i) for i, c in enumerate(g)]
        count = 0 if sum(g) else 1
        while not g[0]:
            g = g[1:]
        brackets, hits = _unit_roots(g)
        counts.append(count + len(brackets) + len(hits))
    return counts


# ----------------------------------------------------------------------
# Sturm chains: sturm_sequence, sturm_count, isolate_real_roots and
# cauchy_bound stay only because perfbench/tracer.py wraps them by name;
# no command calls them.  The chain's remainders come from the integer
# kernel's one long division, _int_divmod
# ----------------------------------------------------------------------

def sturm_sequence(p: ParamPoly):
    """Sturm chain of any nonzero p, as the chain of its square-free part
    f (_square_free_ints): f, f' and then each negated pseudo-remainder
    -prem(a, b), prem(a, b) = |lc b|^(deg a - deg b + 1) a mod b, over
    its content, until a constant (Collins, J. ACM 14 (1967) 128).  Every
    scaling is positive, so the signs are those of Sturm's remainders.
    A constant p is its own chain."""
    if p.degree <= 0:
        return [p]
    chain = [_square_free_ints(p)]
    chain.append(_int_derivative(chain[0]))
    while len(chain[-1]) > 1:
        a, b = chain[-2:]
        scale = abs(b[-1]) ** (len(a) - len(b) + 1)
        rem = _int_divmod([c * scale for c in a], b)[1]
        g = math.gcd(*rem)
        chain.append([-c // g for c in rem])
    return [ParamPoly._of(p.var, 1, {i: c for i, c in enumerate(q) if c}) for q in chain]


def sign_variations(chain, x: Fraction) -> int:
    """Sign changes of the Sturm chain at x, zeros skipped; at math.inf,
    of the leading coefficients (exact: they may exceed the double range)."""
    values = [q.leading() for q in chain] if x == math.inf else [q(x) for q in chain]
    signs = [s for s in map(_sign, values) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cauchy_bound(p: ParamPoly) -> Fraction:
    """B with every real root of p inside (-B, B)."""
    p._require_rational()
    if p.is_zero:
        raise ValueError("root bound of the zero polynomial")
    if p.degree <= 0:
        return Fraction(1)
    lead = abs(p.leading())
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / lead


def sturm_count(p: ParamPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval
    (lo, hi] (count_real_roots); p need not be square-free.  (lo, lo] is
    empty, and its one end still has count_real_roots check p."""
    return sum(count_real_roots(p, (lo, hi) if lo != hi else (lo,)))


def isolate_real_roots(p: ParamPoly):
    """Disjoint rational intervals (lo, hi], one distinct real root of p
    in each, in increasing order, by bisection of (-B, B] (cauchy_bound)
    on Sturm counts."""
    p._require_rational()
    if p.degree <= 0:
        return []
    bound = cauchy_bound(p)
    chain = sturm_sequence(p)
    out = []
    stack = [(-bound, bound, sign_variations(chain, -bound), sign_variations(chain, bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        count = vlo - vhi
        if count <= 0:
            continue
        if count == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        vmid = sign_variations(chain, mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi, vmid, vhi))
    return sorted(out)


def _sign(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


@dataclass(frozen=True)
class Root:
    """One real root: a float within one ulp of the root whose '%.12g'
    is the root correctly rounded to PRINT_DIGITS significant digits,
    the multiplicity, and the exact value when the root is known to be
    rational.  ``compare`` places the root against any rational
    exactly: by the exact value when there is one, else by `side`, which
    real_roots sets from the root's isolating bracket (_bracket_side)."""

    value: float
    multiplicity: int
    exact: Fraction | None = None
    side: object = field(default=None, compare=False, repr=False)

    def compare(self, t) -> int:
        """The sign of root - t at the rational t, decided exactly."""
        if self.exact is not None:
            return _sign(self.exact - t)
        return self.side(t)


# significant digits that real_roots certifies: '%.12g' of Root.value
# is the correctly rounded value of the root
PRINT_DIGITS = 12
# a refined root is checked against the nearest rational of at most
# this denominator
EXACT_DENOMINATOR = 10**9

_MAX_DOUBLE = Fraction(sys.float_info.max)
_BEYOND_DOUBLES = "a real root lies beyond the double range (|root| > 1.8e308)"


def _digits(x: float) -> str:
    """x rounded to PRINT_DIGITS significant digits, as '%.12g' rounds."""
    return "%.*e" % (PRINT_DIGITS - 1, x)


def _outward(lo, hi):
    """The nearest doubles a <= lo and b >= hi."""
    a, b = float(lo), float(hi)
    if a > lo:
        a = math.nextafter(a, -math.inf)
    if b < hi:
        b = math.nextafter(b, math.inf)
    return a, b


def _midpoint(lo, hi) -> float:
    """The double nearest (lo + hi) / 2."""
    if type(lo) is float and type(hi) is float:
        return (lo + hi) / 2
    return float((Fraction(lo) + Fraction(hi)) / 2)


def _round_between(a: float, b: float, side) -> float:
    """Of the adjacent doubles a < b, which print differently, the one
    that prints the correctly rounded value of a root between them.
    side(t) is the sign of root - t at the rounding boundary t; a root
    on the boundary rounds half to even, as '%.12g' does."""
    low, high = _digits(a), _digits(b)
    t = (Fraction(low) + Fraction(high)) / 2
    s = side(t)
    if not s:
        s = -1 if int(low[low.index("e") - 1]) % 2 == 0 else 1
    return b if s > 0 else a


def _exact_value(r: Fraction) -> float:
    """A double that prints the rational r correctly rounded (float(r)
    itself can sit across a rounding boundary from r); ValueError when
    r lies beyond the double range."""
    if abs(r) > _MAX_DOUBLE:
        raise ValueError(_BEYOND_DOUBLES)
    a, b = _outward(r, r)
    if _digits(a) == _digits(b):
        return float(r)
    return _round_between(a, b, lambda t: _sign(r - t))


def _int_sign(a, t) -> int:
    """The sign of the int poly a at t, a double or a rational, exactly:
    that of k^d a(t) for t = m / k (as_integer_ratio, k > 0)."""
    return _sign(scaled_horner(a, *t.as_integer_ratio())[0])


def _float_coeffs(a):
    """The int poly a's coefficients as doubles, over one power of two that
    cuts the largest to at most 1000 bits: same roots, correctly rounded, finite."""
    shift = max(0, max(abs(c).bit_length() for c in a) - 1000)
    return tuple(c / (1 << shift) for c in a)


# a bound on the iterations of _newton_guess
_NEWTON_STEPS = 64


def _newton_guess(coeffs, lo, hi, sign_lo: int):
    """A double near the one root of a in (lo, hi), not certified:
    Newton's method in doubles on a's scaled doubles `coeffs`,
    started at the midpoint.  The float sign of a at each iterate
    shrinks a float bracket; a step that leaves that bracket, or a zero
    derivative, gives way to the bracket's midpoint.  Stops when a step
    moves by at most one ulp, or after _NEWTON_STEPS iterations."""
    a, b = float(lo), float(hi)
    x = (a + b) / 2
    for _ in range(_NEWTON_STEPS):
        y = dy = 0.0
        for c in reversed(coeffs):
            dy = dy * x + y
            y = y * x + c
        if not y:
            return x
        if (y > 0) == (sign_lo > 0):
            a = x
        else:
            b = x
        step = x - y / dy if dy else math.nan
        if abs(step - x) <= math.ulp(x):
            return step
        x = step if a < step < b else (a + b) / 2
    return x


def _refine(a, coeffs, lo, hi, sign_lo: int):
    """(value, exact) for the one root of the square-free int poly a in
    (lo, hi), where a(lo) has the sign sign_lo and a(hi) the other sign.

    Every bracket update rests on the exact sign of a at a double
    (_int_sign).  First a double guess from float Newton (_newton_guess)
    on coeffs, a's scaled doubles (_float_coeffs), which need not be
    right, narrows the bracket: its sign moves one end to it, then steps
    of 1, 2, 4, ... ulps away from it, towards the root, move that end
    until a step crosses the root and moves the other end, or leaves the
    bracket.  Then bisection at doubles runs until no double is left
    inside the bracket, so the value is within one ulp of the root.  The
    final bracket is the same whatever the guess: its ends are the
    doubles nearest the root on either side, or the given ends where no
    double lies between them and the root.  If the doubles a <= lo and
    b >= hi print the same PRINT_DIGITS digits, every number between
    them, the root included, rounds to that string; if not, the exact
    sign at the rounding boundary between them decides which of a and b
    prints the root's correctly rounded value.  A root that a tested
    double hits, or that is the rational of denominator at most
    EXACT_DENOMINATOR nearest the value, checked to lie in the final
    bracket and to be a root, is returned exactly.

    Ends may be doubles or rationals.  Ends beyond the double range,
    which are never doubles, are first moved exactly to -+ the largest
    double, by the sign of a there; a root beyond the double range
    raises ValueError."""
    if type(lo) is not float or type(hi) is not float:
        for end in (-_MAX_DOUBLE, _MAX_DOUBLE):
            if lo < end < hi:
                s = _int_sign(a, end)
                if not s:
                    return _exact_value(end), end
                if s == sign_lo:
                    lo = end
                else:
                    hi = end
        if lo < -_MAX_DOUBLE or hi > _MAX_DOUBLE:
            raise ValueError(_BEYOND_DOUBLES)
    guess = _newton_guess(coeffs, lo, hi, sign_lo)
    if lo < guess < hi:
        s = _int_sign(a, guess)
        if not s:
            return guess, Fraction(guess)
        up = s == sign_lo  # the root lies above the guess
        step = math.ulp(guess)
        t = guess
        while True:
            if s == sign_lo:
                lo = t
            else:
                hi = t
            if (s == sign_lo) != up:  # t is past the root
                break
            t = guess + step if up else guess - step
            if not lo < t < hi:
                break
            s = _int_sign(a, t)
            if not s:
                return t, Fraction(t)
            step *= 2
    while True:
        m = _midpoint(lo, hi)
        if not lo < m < hi:
            break
        s = _int_sign(a, m)
        if not s:
            return m, Fraction(m)
        if s == sign_lo:
            lo = m
        else:
            hi = m
    low, high = _outward(lo, hi)
    if _digits(low) == _digits(high):
        value = m
    else:
        value = _round_between(low, high, _bracket_side(a, lo, hi, sign_lo))
    candidate = Fraction(value).limit_denominator(EXACT_DENOMINATOR)
    if lo <= candidate <= hi and not _int_sign(a, candidate):
        return _exact_value(candidate), candidate
    return value, None


def _bracket_side(a, lo, hi, sign_lo: int):
    """side(t), the sign of r - t at a rational t, for the one root r of
    the int poly a in the open (lo, hi), where a has the sign sign_lo on
    (lo, r): the bracket decides it for t outside, the exact sign of
    a(t) inside (_int_sign)."""

    def side(t):
        if t <= lo:
            return 1
        if t >= hi:
            return -1
        return _int_sign(a, t) * sign_lo

    return side


def _negated_side(side):
    """side(t) of -r, from side(t) of r (None stays None)."""
    return side and (lambda t: -side(-t))


def _rational_sqrt(r: Fraction):
    """sqrt(r) when r is the square of a rational, else None."""
    if r < 0:
        return None
    num, den = math.isqrt(r.numerator), math.isqrt(r.denominator)
    if num * num == r.numerator and den * den == r.denominator:
        return Fraction(num, den)
    return None


def _factor_roots(factor: ParamPoly, mult: int, even: bool, roots):
    """Append to `roots` the real roots of the monic square-free factor
    of multiplicity mult, a polynomial in x, or in mu = x^2 when even;
    then a root mu > 0 gives the roots +-sqrt(mu) and mu = 0 gives x = 0
    of multiplicity 2 mult, and negative and complex mu give none.

    A root at 0 and the roots of a linear factor (of q, whose root must
    then be a rational square) are exact.  The others are isolated on
    the factor's primitive integer numerators, lifted to x when even, by
    _positive_roots (for odd factors also on a(-x)); a root that
    bisection hits exactly is divided out and the rest isolated again,
    so no bracket end is a root.  Each bracket is then refined on the
    same int poly (_refine), whose scaled doubles (_float_coeffs) are
    computed once here, and the root's side evaluates it too."""
    nums = dense_numerators(factor.nums)
    if not nums[0]:
        roots.append(Root(0.0, 2 * mult if even else mult, Fraction(0)))
        nums = nums[1:]
    while len(nums) > 1:
        exact = None
        if len(nums) == 2:
            exact = Fraction(-nums[0], nums[1])
            if even:
                exact = _rational_sqrt(exact)
        if exact is None:
            lifted = [c for a in nums for c in (a, 0)][:-1] if even else nums
            brackets, hits = _positive_roots(lifted)
            if not even and not hits:
                mirrored = [-c if i % 2 else c for i, c in enumerate(nums)]
                below, hits = _positive_roots(mirrored)
                brackets += [(-hi, -lo, -s) for lo, hi, s in below]
                hits = [-h for h in hits]
            if not hits:
                coeffs = _float_coeffs(lifted)
                for lo, hi, s in brackets:
                    value, found = _refine(lifted, coeffs, lo, hi, s)
                    side = _bracket_side(lifted, lo, hi, s)
                    roots.append(Root(value, mult, found, side))
                    if even:
                        negated = None if found is None else -found
                        roots.append(Root(-value, mult, negated, _negated_side(side)))
                return
            exact = hits[0]
        value = _exact_value(exact)
        roots.append(Root(value, mult, exact))
        if even:
            roots.append(Root(-value, mult, -exact))
            exact *= exact
        nums = _int_divexact(nums, [-exact.numerator, exact.denominator])


def real_roots(p: ParamPoly):
    """All real roots of p, sorted, with multiplicities.

    Yun's square-free decomposition on integers, then Descartes
    bisection of each factor isolates the roots exactly, in dyadic
    brackets below a power-of-two root bound (_factor_roots); an even
    p = q(x^2) is decomposed on q, at half the degree, and only its
    positive roots are isolated.  Each bracket is narrowed around a float
    Newton guess and then bisected in doubles, down to adjacent doubles;
    every step takes the exact sign of the factor's integer numerators
    from Horner on integers (_int_sign), so the guess moves no digit and
    no ParamPoly is evaluated.  Root.value then prints the root
    correctly rounded to PRINT_DIGITS digits (see _refine).  A root is
    flagged exact when it comes from a linear factor (of q, whose root
    must then be a rational square), when bisection hits it, or when the
    rational of denominator at most EXACT_DENOMINATOR nearest its value
    lies in its final bracket and is checked to be a root.
    """
    p._require_rational()
    if p.is_zero:
        raise ValueError("roots of the zero polynomial")
    even = p.degree > 0 and not any(k % 2 for k in p.nums)
    q = ParamPoly._of(p.var, p.den, {k // 2: v for k, v in p.nums.items()}) if even else p
    roots = []
    for factor, mult in square_free_decomposition(q):
        _factor_roots(factor, mult, even, roots)
    roots.sort(key=lambda r: r.value)
    return roots


# ----------------------------------------------------------------------
# exact matrices
# ----------------------------------------------------------------------

def _int_horner(coeffs, x: int) -> int:
    """The int polynomial with ascending `coeffs` at the int x."""
    y = 0
    for c in reversed(coeffs):
        y = y * x + c
    return y


def _echelon(rows, width: int):
    """Fraction-free Bareiss elimination with row pivoting of `rows`, int
    row lists of `width` entries (consumed): each step eliminates the
    first column of the trailing block, skipped if it is zero, and every
    division by the previous pivot is exact.  Returns the pivot columns,
    ascending, each pivot row from its pivot column on (its pivot is the
    minor of the pivot rows and columns so far), and the swaps' sign."""
    pivots, tops, sign, prev = [], [], 1, 1
    for col in range(width):
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        if pivot:
            rows[0], rows[pivot] = rows[pivot], rows[0]
            sign = -sign
        top = rows[0]
        p, rest = top[0], top[1:]
        rows = [
            [(a * p - row[0] * b) // prev for a, b in zip(row[1:], rest)]
            if row[0]
            else [a * p // prev for a in row[1:]]
            for row in rows[1:]
        ]
        pivots.append(col)
        tops.append(top)
        prev = p
    return pivots, tops, sign


def _int_det(rows) -> int:
    """Determinant of a square int matrix (a list of row lists, consumed):
    the sign of the swaps times the last pivot of _echelon, the minor of
    the whole matrix, or 0 when a column has no pivot."""
    n = len(rows)
    pivots, tops, sign = _echelon(rows, n)
    return sign * tops[-1][0] if len(pivots) == n else 0


def _degree_bound(degrees):
    """max over permutations s of sum_i degrees[i][s(i)], where a
    negative degree marks a zero entry that no s may use, or None when
    every s meets one: the largest weight of a perfect matching, by the
    Hungarian algorithm with potentials on the costs -degree.  It bounds
    the degree of the determinant of a matrix whose entries have at
    most these degrees, since it bounds every term of its expansion."""
    n = len(degrees)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j]: the row, from 1, matched to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while match[j0]:
            used[j0] = True
            i0 = match[j0]
            row = degrees[i0 - 1]
            delta, j1 = math.inf, 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                if row[j - 1] >= 0:
                    cur = -row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                if minv[j] < delta:
                    delta, j1 = minv[j], j
            if delta == math.inf:  # no augmenting path, no perfect matching
                return None
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return v[0]


def _interpolate(values):
    """Ascending coefficients, len(values) of them, of the polynomial
    with integer coefficients and degree below len(values) that takes
    `values` at 0, 1, 2, ...: from Newton's forward differences,
    P(x) = sum_k (Delta^k P(0) / k!) x (x-1) ... (x-k+1), where k!
    divides Delta^k P(0) for integer coefficients (ArithmeticError
    otherwise), expanded to powers of x by Horner's rule."""
    newton = []
    diffs = list(values)
    fact = 1
    for k in range(len(values)):
        fact *= k or 1
        q, r = divmod(diffs[0], fact)
        if r:
            raise ArithmeticError("interpolated values of a non-integer polynomial")
        newton.append(q)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs = []
    for k in range(len(newton) - 1, -1, -1):
        # coeffs <- coeffs * (x - k) + newton[k]
        shifted = [0, *coeffs]
        for i, c in enumerate(coeffs):
            shifted[i] -= k * c
        shifted[0] += newton[k]
        coeffs = shifted
    return coeffs


def _in_u(ints):
    """(rows, 2): the int rows (ascending coefficients, ExactMatrix._int_rows)
    of D^-1 N D in u = t^2, D = diag(t^e_i), e in {0,1}^n, when every
    nonzero entry N_ij holds powers of t of parity e_i xor e_j only; the
    similarity keeps det and char poly, and N_ij t^(e_j - e_i) is even.
    A walk over the nonzero pattern sets e; if an entry then has a power
    of the other parity (mixed, an odd diagonal entry, or an odd cycle of
    odd entries), it returns (ints, 1)."""
    n = len(ints)
    eps = [None] * n
    for start in range(n):
        if eps[start] is None:
            eps[start], stack = 0, [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    e = ints[i][j] or ints[j][i]
                    if e and eps[j] is None:
                        eps[j] = eps[i] ^ any(e[1::2])
                        stack.append(j)
    if any(any(e[eps[i] == eps[j] :: 2]) for i, row in enumerate(ints) for j, e in enumerate(row)):
        return ints, 1
    return [
        [(0, *e[1::2]) if e and eps[j] > eps[i] else e[eps[i] != eps[j] :: 2] for j, e in enumerate(row)]
        for i, row in enumerate(ints)
    ], 2


def _in_t(t, coeffs, step: int):
    """sum_p coeffs[p] t^(step p), integral; coeffs[0] when t is None."""
    if t is None:
        return coeffs[0]
    return ParamPoly._normal(t, 1, {step * p: c for p, c in enumerate(coeffs)})


def _scalar_matrix(value, size: int) -> "ExactMatrix":
    """value * I, size by size, for an exact scalar value."""
    den, num = cleared(value)
    return ExactMatrix._of(size, den, tuple({i: num} if num else {} for i in range(size)))


class ExactMatrix(NormalForm):
    """Matrix over Q or Q[t], stored sparse in the integer normal form
    (NormalForm, which holds its sums and scalar multiples).

    Row i of ``nums`` is a dict {column: numerator} of its nonzero
    entries alone, each numerator / ``den``.  A numerator is an int, or
    for an entry in Q[t] a non-constant ParamPoly with integral
    coefficients; both support +, * and bool, so the arithmetic shares
    one path that touches no zero entry and builds no Fraction.
    ``entries`` (and ``m[i]``) is a read-only dense view, built on first
    use: row tuples of Fractions (zero is Fraction(0)) and non-constant
    ParamPolys.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, entries):
        rows = [dict(enumerate(row)) for row in entries]
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix rows")
        self.rows, self.cols, self._view = len(rows), width, None
        self.den, self.nums = cleared_rows(rows)

    @classmethod
    def _of(cls, cols: int, den: int, nums: tuple) -> "ExactMatrix":
        """Unchecked constructor for a form already normal."""
        self = object.__new__(cls)
        self.rows, self.cols, self._view = len(nums), cols, None
        self.den, self.nums = den, nums
        return self

    @classmethod
    def _normal(cls, cols: int, den: int, rows) -> "ExactMatrix":
        """The matrix of the numerator dicts `rows` over den, brought to
        normal form (normal_form)."""
        return cls._of(cols, *normal_form(den, rows))

    def _rows(self):
        return self.nums

    def _same(self, den: int, rows) -> "ExactMatrix":
        return ExactMatrix._of(self.cols, den, rows)

    def _pair(self, other):
        if not isinstance(other, ExactMatrix):
            return None
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return self, other

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @property
    def entries(self) -> tuple:
        if self._view is None:
            zero, den = Fraction(0), self.den
            dense = []
            for row in self.nums:
                out = [zero] * self.cols
                for j, v in row.items():
                    out[j] = ratio(v, den)
                dense.append(tuple(out))
            self._view = tuple(dense)
        return self._view

    def __getitem__(self, idx):
        return self.entries[idx]

    def __eq__(self, other):
        """Equal shapes and forms; matrices of two shapes are unequal."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.cols, self.den, self.nums) == (other.cols, other.den, other.nums)

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return self._scaled(other)
        if self.cols != other.rows:
            raise ValueError("matrix shapes incompatible for product")
        # row i of the product is sum_k a_ik * (row k of other), over the
        # nonzero a_ik and the nonzero entries of row k alone
        right = other.nums
        out = []
        for row in self.nums:
            acc = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append(acc)
        return ExactMatrix._normal(other.cols, self.den * other.den, out)

    __rmul__ = __mul__

    def scaled_identity_added(self, scalar) -> "ExactMatrix":
        """self + scalar*I."""
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        return self + _scalar_matrix(scalar, self.rows)

    def _int_rows(self):
        """(t, rows): the numerators as dense rows of ascending int
        coefficient sequences in t, () for a zero entry, with t the one
        variable of the polynomial entries (None when there are none).
        Entries in two variables or with non-rational coefficients raise
        TypeError."""
        t = None
        rows = []
        for row in self.nums:
            dense = [()] * self.cols
            for j, v in row.items():
                if type(v) is int:
                    dense[j] = (v,)
                    continue
                if t is None:
                    t = v.var
                if v.var != t or not all(type(c) is int for c in v.nums.values()):
                    raise TypeError("determinants need entries in Q or in Q[t] for one variable t")
                dense[j] = dense_numerators(v.nums)
            rows.append(dense)
        return t, rows

    # ------------------------------------------------------------------
    def char_poly(self, var: str = "lam") -> ParamPoly:
        """det(var*I - self), for entries in Q or in Q[t] with t one
        scalar variable (SCALAR_VARS), by exact evaluation and
        interpolation over the integers.

        With L = den, the common denominator of the entries,
        P(x) = det(x*I - L*self) has integer coefficients (integral
        polynomials in t) and det(var*I - self) = sum_k P_k var^k / L^(n-k),
        the numerators P_k L^k over L^n.  When the rows admit it (_in_u),
        P is that of D^-1 (L*self) D, similar and even in t, so sampled in
        u = t^2 with every exponent doubled at the end (else u = t).  P_k
        is (-1)^(n-k) times a sum of principal minors of size n - k, so its
        u-degree is at most (n - k) dmax, dmax the largest entry degree,
        and at most B, the heaviest permutation with the diagonal counted
        at least 0 (_degree_bound).  At each point u = 0..B in turn, the
        P_k sampled past their bound are interpolated and evaluated, as is
        the monic P_n, and the unknown prefix P_0..P_(m-1) is rebuilt from
        the forward differences of P(x) minus those terms at x = 0..m-1,
        m integer determinants (_int_det); over Q that is one point and n
        determinants.  Any other entry ring (two variables, nested
        polynomials) raises TypeError."""
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.rows
        t, ints = self._int_rows()
        den = self.den
        if t is not None and not nests_inside(t, var):
            raise TypeError(f"char_poly in {var!r} of entries in Q[{t}]")
        step, bound, tops = 1, 0, [0] * n  # tops[k] bounds the degree of P_k
        if t is not None:
            ints, step = _in_u(ints)
            degrees = [[len(e) - 1 for e in row] for row in ints]
            dmax = max(map(max, degrees))
            for i in range(n):
                degrees[i][i] = max(degrees[i][i], 0)
            bound = _degree_bound(degrees)  # at most n * dmax, so tops[0] = bound
            tops = [min(bound, (n - k) * dmax) for k in range(n)]
        samples = [[] for _ in range(n)]  # P_k at u = 0, 1, ... while unknown
        m, known = n, {n: [1]}
        for point in range(bound + 1):
            while tops[m - 1] < point:
                m -= 1
                known[m] = _interpolate(samples[m])
            neg = [[-_int_horner(e, point) for e in row] for row in ints]
            top = [_int_horner(known[k], point) for k in range(m, n + 1)]
            values = []
            for x in range(m):
                shifted = [list(row) for row in neg]
                for i in range(n):
                    shifted[i][i] += x
                values.append(_int_det(shifted) - x**m * _int_horner(top, x))
            for k, v in enumerate(_interpolate(values)):
                samples[k].append(v)
        for k in range(m):  # one sample (bound 0) is the constant itself
            known[k] = _interpolate(samples[k]) if bound else samples[k]
        return ParamPoly._normal(
            var, den**n, {k: _in_t(t, cs, step) * den**k for k, cs in known.items()}
        )

    def det(self):
        """det(self) for entries in Q or in Q[t], t one variable: the
        integer determinant of L*self (_int_det), L = den the common
        denominator, at each point u = 0..B, interpolated and divided by
        L^n, with u = t^2 on the similar matrix of _in_u when the rows
        admit it, else u = t, and B the u-degree bound of _degree_bound.
        It is 0 when every permutation meets a zero entry; any other entry
        ring raises TypeError."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        t, ints = self._int_rows()
        step, bound = 1, 0
        if t is not None:
            ints, step = _in_u(ints)
            bound = _degree_bound([[len(e) - 1 for e in row] for row in ints])
            if bound is None:
                return Fraction(0)
        values = [
            _int_det([[_int_horner(e, point) for e in row] for row in ints])
            for point in range(bound + 1)
        ]
        return ratio(_in_t(t, _interpolate(values), step), self.den**self.rows)

    def nullspace(self):
        """Basis of the exact kernel (rational entries only): per free
        column of the echelon form of the numerators (_echelon), the kernel
        vector that is 1 there and 0 at the other free columns.  With d
        the last pivot, d times it is integral (Cramer's rule), so it is
        back-substituted on integers and every division is exact."""
        cols = self.cols
        if any(type(v) is not int for row in self.nums for v in row.values()):
            raise TypeError("nullspace needs rational entries")
        pivots, tops, _ = _echelon([[row.get(j, 0) for j in range(cols)] for row in self.nums], cols)
        d = tops[-1][0] if tops else 1
        basis = []
        for free in (c for c in range(cols) if c not in pivots):
            x = [d if c == free else 0 for c in range(cols)]
            for c, top in zip(reversed(pivots), reversed(tops)):
                x[c] = -sum(a * b for a, b in zip(top[1:], x[c + 1:])) // top[0]
            basis.append(tuple(Fraction(v, d) for v in x))
        return tuple(basis)

    def __repr__(self):
        return f"ExactMatrix({[list(r) for r in self.entries]!r})"


def power_sums(p: ParamPoly, count: int) -> list:
    """[s_0, ..., s_count], s_k the sum of the k-th powers of the roots of
    p = x^n + e_1 x^(n-1) + ... + e_n over Q or Q[t], by Newton's identities
    s_k = -(k e_k + sum_(0 < i < k) e_i s_(k-i)), e_i = 0 for i > n, which
    divide by nothing as p is monic; any other p raises ValueError."""
    n = p.degree
    if n < 1 or p.nums[n] != p.den:
        raise ValueError("power sums need a monic polynomial of degree at least 1")
    e = [p.coeff(n - i) for i in range(n + 1)]
    s = [Fraction(n)]
    for k in range(1, count + 1):
        head = k * e[k] if k <= n else 0
        s.append(-sum((e[i] * s[k - i] for i in range(1, min(k - 1, n) + 1)), head))
    return s


def solve_linear(rows, rhs):
    """Solve the square exact rational system rows * x = rhs, rows n x n
    with n >= 1 and rhs n rows, else ValueError, as on singular systems.
    As in numpy.linalg.solve, rhs is one right-hand side or a matrix whose
    columns are several; rows is nonsingular iff the kernel basis of
    [rows | -rhs] (nullspace) is the identity on the right-hand columns,
    and then basis vector j is (solution j, e_j)."""
    n = len(rows)
    if not n or len(rhs) != n or any(len(row) != n for row in rows):
        raise ValueError("solve_linear needs n x n rows and n right-hand rows, n >= 1")
    vector = not isinstance(rhs[0], (list, tuple))
    sides = [[b] if vector else b for b in rhs]
    kernel = ExactMatrix([[*row, *(-b for b in bs)] for row, bs in zip(rows, sides)]).nullspace()
    if tuple(vec[n:] for vec in kernel) != ExactMatrix.identity(len(sides[0])).entries:
        raise ValueError("singular linear system")
    return kernel[0][:n] if vector else list(zip(*(vec[:n] for vec in kernel)))
