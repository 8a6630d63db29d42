"""Exact scalar, polynomial, and matrix kernels.

Everything here is exact over the rationals.  Polynomials are dense
coefficient tuples; coefficients are rationals or, for two-level towers
(a characteristic polynomial in ``lam`` whose coefficients live in
Q[k0], say), polynomials in another variable.  The characteristic
polynomial uses the Faddeev-LeVerrier recursion, which divides by
integers only and therefore stays inside any coefficient ring that is a
Q-vector space.  Real roots are isolated with Sturm sequences and
refined by bisection with exact sign tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# degree reported for the zero polynomial
ZERO_DEGREE = -1

_MAX_BISECT = 300
ROOT_TOL = 1e-12  # real_roots narrows irrational root brackets below this

# Variables that act as scalar parameters: a polynomial in one of these
# may sit inside the coefficients of a polynomial in any non-scalar
# variable, and arithmetic nests it there automatically.  Two distinct
# non-scalar variables never mix.
SCALAR_VARS = frozenset({"k0", "c"})


def nests_inside(inner_var: str, outer_var: str) -> bool:
    return inner_var in SCALAR_VARS and outer_var not in SCALAR_VARS


class VariableMismatchError(ValueError):
    """Arithmetic between polynomials in different formal variables."""


def as_exact(value):
    """Coerce ints to Fraction and collapse constant polynomials."""
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, ParamPoly) and len(value.coeffs) <= 1:
        return value.coeffs[0] if value.coeffs else Fraction(0)
    return value


class ParamPoly:
    """Dense univariate polynomial with exact coefficients.

    Trailing zeros are stripped, so the zero polynomial has an empty
    coefficient tuple and ``degree == ZERO_DEGREE``.  Instances are
    immutable by convention; all arithmetic returns new objects.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs=()):
        cs = [as_exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.var = var
        self.coeffs = tuple(cs)

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, var: str) -> "ParamPoly":
        return cls(var, ())

    @classmethod
    def one(cls, var: str) -> "ParamPoly":
        return cls(var, (1,))

    @classmethod
    def gen(cls, var: str) -> "ParamPoly":
        """The variable itself as a degree-1 polynomial."""
        return cls(var, (0, 1))

    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else ZERO_DEGREE

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, power: int):
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def constant(self):
        return self.coeff(0)

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    # ------------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return len(self.coeffs) <= 1 and self.constant() == other
        if isinstance(other, ParamPoly):
            if self.var == other.var:
                return self.coeffs == other.coeffs
            if len(self.coeffs) <= 1:
                return self.constant() == other
            if len(other.coeffs) <= 1:
                return self == other.constant()
            return False
        return NotImplemented

    __hash__ = None  # mutable-free but unhashable; never used as a key

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.var, tuple(-c for c in self.coeffs))

    def _add_coeffs(self, oc) -> "ParamPoly":
        a, b = self.coeffs, tuple(oc)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return ParamPoly(self.var, out)

    def __add__(self, other):
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return self._add_coeffs((other,) if other else ())
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if other.var == self.var or len(other.coeffs) <= 1:
            return self._add_coeffs(other.coeffs)
        if len(self.coeffs) <= 1:
            return other._add_coeffs(self.coeffs)
        if nests_inside(other.var, self.var):
            return self._add_coeffs((other,))
        if nests_inside(self.var, other.var):
            return other._add_coeffs((self,))
        raise VariableMismatchError(
            f"cannot combine polynomials in {self.var!r} and {other.var!r}"
        )

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _scale(self, scalar) -> "ParamPoly":
        if not scalar:
            return ParamPoly.zero(self.var)
        return ParamPoly(self.var, tuple(c * scalar for c in self.coeffs))

    def _mul_coeffs(self, oc) -> "ParamPoly":
        a, b = self.coeffs, tuple(oc)
        if not a or not b:
            return ParamPoly.zero(self.var)
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
        return ParamPoly(self.var, out)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return self._scale(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if other.var == self.var:
            return self._mul_coeffs(other.coeffs)
        if len(other.coeffs) <= 1:
            return self._scale(other.constant())
        if len(self.coeffs) <= 1:
            return other._scale(self.constant())
        if nests_inside(other.var, self.var):
            return self._scale(other)
        if nests_inside(self.var, other.var):
            return other._scale(self)
        raise VariableMismatchError(
            f"cannot combine polynomials in {self.var!r} and {other.var!r}"
        )

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
        """Evaluate by Horner's rule.  `value` may be exact or float."""
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * value + c
        return as_exact(out)

    def derivative(self) -> "ParamPoly":
        return ParamPoly(
            self.var, tuple(i * c for i, c in enumerate(self.coeffs))[1:]
        )

    def map_coeffs(self, func) -> "ParamPoly":
        return ParamPoly(self.var, tuple(func(c) for c in self.coeffs))

    # --- field-coefficient operations ---------------------------------
    def _require_rational(self):
        if not all(isinstance(c, Fraction) for c in self.coeffs):
            raise TypeError("operation needs rational coefficients")

    def monic(self) -> "ParamPoly":
        self._require_rational()
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        return ParamPoly(self.var, tuple(c / lead for c in self.coeffs))

    def __divmod__(self, other: "ParamPoly"):
        self._require_rational()
        other._require_rational()
        if not isinstance(other, ParamPoly) or other.var != self.var:
            if isinstance(other, ParamPoly) and len(other.coeffs) <= 1:
                other = ParamPoly(self.var, other.coeffs)
            else:
                raise VariableMismatchError("divmod needs matching variables")
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c / lead
            quot[i - dd] = q
            for k in range(dd + 1):
                rem[i - dd + k] = rem[i - dd + k] - q * div[k]
        return ParamPoly(self.var, quot), ParamPoly(self.var, rem[:dd])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # ------------------------------------------------------------------
    def __repr__(self):
        return f"ParamPoly({self.var!r}, {list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coeff(power)
            if not c:
                continue
            parts.append(_format_term(c, self.var, power, first=not parts))
        return "".join(parts)


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


# ----------------------------------------------------------------------
# gcd / square-free machinery (rational coefficients)
# ----------------------------------------------------------------------

def poly_gcd(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Monic gcd over Q."""
    while not b.is_zero:
        a, b = b, a % b
        if not b.is_zero:
            b = b.monic()  # keeps coefficient growth in check
    return a.monic() if not a.is_zero else a


def square_free_part(p: ParamPoly) -> ParamPoly:
    if p.is_zero:
        raise ValueError("square-free part of the zero polynomial")
    if p.degree <= 0:
        return p.monic()
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return (p // g).monic()


def square_free_decomposition(p: ParamPoly):
    """Yun's algorithm: list of (monic square-free factor, multiplicity)."""
    if p.is_zero:
        raise ValueError("square-free decomposition of the zero polynomial")
    p = p.monic()
    if p.degree <= 0:
        return []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    if g.degree <= 0:
        return [(p, 1)]
    w = p // g
    y = dp // g
    z = y - w.derivative()
    out = []
    mult = 1
    while w.degree > 0:
        gi = poly_gcd(w, z)
        if gi.degree > 0:
            out.append((gi, mult))
        w = w // gi
        y = z // gi
        z = y - w.derivative()
        mult += 1
    return out


# ----------------------------------------------------------------------
# Sturm sequences and real roots
# ----------------------------------------------------------------------

def sturm_sequence(p: ParamPoly):
    chain = [p]
    d = p.derivative()
    if not d.is_zero:
        chain.append(d)
        while chain[-1].degree > 0:
            rem = chain[-2] % chain[-1]
            if rem.is_zero:
                break
            chain.append(-rem)
    return chain


def _sign(value: Fraction) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def sign_variations(chain, x: Fraction) -> int:
    """Sign changes of the Sturm chain at x, zeros skipped."""
    signs = [s for s in (_sign(q(x)) for q in chain) if s != 0]
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
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    p._require_rational()
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    sq = square_free_part(p)
    if sq.degree <= 0:
        return 0
    chain = sturm_sequence(sq)
    # dropping zero entries from the sign sequence makes the variation
    # count at a root equal its right-hand limit, so (lo, hi] comes out
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def isolate_real_roots(p: ParamPoly):
    """Disjoint rational intervals (lo, hi], one root of p in each, in
    increasing order.  p must be square-free, as the factors of
    ``square_free_decomposition`` are; otherwise the Sturm counts are
    not root counts."""
    p._require_rational()
    if p.degree <= 0:
        return []
    chain = sturm_sequence(p)
    bound = cauchy_bound(p)
    out = []
    stack = [
        (-bound, bound, sign_variations(chain, -bound), sign_variations(chain, bound))
    ]
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


@dataclass(frozen=True)
class Root:
    """One real root: float approximation, multiplicity, and the exact
    rational value when the root is rational."""

    value: float
    multiplicity: int
    exact: Fraction | None = None


def _refine_root(factor: ParamPoly, lo: Fraction, hi: Fraction):
    """Bisect a simple-root bracket with exact sign tests.

    The bracket is half-open, (lo, hi]; `lo` itself may be another root
    of the factor, in which case we walk inward until the sign flips.
    Returns (float value, exact Fraction or None)."""
    fhi = factor(hi)
    if fhi == 0:
        return float(hi), hi
    sign_hi = _sign(fhi)
    if factor(lo) == 0:
        # lo is a neighbouring root; walk inward until the sign flips
        step = (hi - lo) / 2
        while True:
            t = lo + step
            ft = factor(t)
            if ft == 0:
                return float(t), t
            if _sign(ft) != sign_hi:
                lo = t
                break
            step = step / 2
    sign_lo = -sign_hi
    for _ in range(_MAX_BISECT):
        if float(hi) - float(lo) <= ROOT_TOL:
            break
        mid = (lo + hi) / 2
        fm = factor(mid)
        if fm == 0:
            return float(mid), mid
        if _sign(fm) == sign_lo:
            lo = mid
        else:
            hi = mid
    approx = (lo + hi) / 2
    candidate = Fraction(float(approx)).limit_denominator(10**9)
    if factor(candidate) == 0:
        return float(candidate), candidate
    return float(approx), None


def real_roots(p: ParamPoly):
    """All real roots of p, sorted, with multiplicities.

    Brackets are narrowed below ROOT_TOL; roots that are exactly rational
    (up to denominator 1e9) are flagged with their exact value.
    """
    p._require_rational()
    if p.is_zero:
        raise ValueError("roots of the zero polynomial")
    roots = []
    for factor, mult in square_free_decomposition(p):
        if factor.degree == 1:
            exact = -factor.coeff(0) / factor.coeff(1)
            roots.append(Root(float(exact), mult, exact))
            continue
        for lo, hi in isolate_real_roots(factor):
            value, exact = _refine_root(factor, lo, hi)
            roots.append(Root(value, mult, exact))
    roots.sort(key=lambda r: r.value)
    return roots


# ----------------------------------------------------------------------
# exact matrices
# ----------------------------------------------------------------------

def exact_div(a, b):
    """Exact division in the coefficient ring (used by Bareiss)."""
    if isinstance(b, Fraction):
        return a * (Fraction(1) / b)
    if isinstance(a, Fraction):
        if not a:
            return Fraction(0)
        raise ZeroDivisionError("inexact division of a constant by a polynomial")
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ZeroDivisionError("inexact polynomial division")
    return as_exact(q)


class ExactMatrix:
    """Matrix over Fraction / ParamPoly entries.

    Storage is dense: ``entries`` is a tuple of row tuples, and a zero
    entry is ``Fraction(0)``.  The matrix product skips zero factors, so
    its cost follows the number of nonzero pairs rather than the shape;
    the restricted generator and Hamiltonian matrices are mostly zero.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(as_exact(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix rows")
        self.rows = len(rows)
        self.cols = width
        self.entries = rows

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    def __getitem__(self, idx):
        return self.entries[idx]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return not any(e for row in self.entries for e in row)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._shape_match(other)
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._shape_match(other)
        return ExactMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-a for a in row] for row in self.entries])

    def _shape_match(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes differ")

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("matrix shapes incompatible for product")
            # row i of the product is sum_k a_ik * (row k of other); terms
            # are added in increasing k, and a zero factor is never multiplied
            nonzero_rows = [
                [(j, b) for j, b in enumerate(row) if b] for row in other.entries
            ]
            out = []
            for row in self.entries:
                acc = [Fraction(0)] * other.cols
                for a, terms in zip(row, nonzero_rows):
                    if a:
                        for j, b in terms:
                            acc[j] = acc[j] + a * b
                out.append(acc)
            return ExactMatrix(out)
        return ExactMatrix([[e * other for e in row] for row in self.entries])

    def __rmul__(self, other):
        return ExactMatrix([[other * e for e in row] for row in self.entries])

    def scaled_identity_added(self, scalar) -> "ExactMatrix":
        """self + scalar*I without building an identity of the right ring."""
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        rows = [list(r) for r in self.entries]
        for i in range(self.rows):
            rows[i][i] = rows[i][i] + scalar
        return ExactMatrix(rows)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return as_exact(sum((self.entries[i][i] for i in range(self.rows)), Fraction(0)))

    def map_entries(self, func) -> "ExactMatrix":
        return ExactMatrix([[func(e) for e in row] for row in self.entries])

    def eval_param(self, value) -> "ExactMatrix":
        """Substitute `value` into every polynomial entry."""
        return self.map_entries(
            lambda e: e(value) if isinstance(e, ParamPoly) else e
        )

    # ------------------------------------------------------------------
    def faddeev_leverrier(self):
        """(coeffs, terms): the ascending coefficients of det(t*I - self)
        and the matrices N_0 .. N_{n-1} with
        adj(t*I - self) = sum_k t^(n-1-k) N_k."""
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.rows
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[n] = Fraction(1)
        terms = [ExactMatrix.identity(n)]
        for k in range(1, n + 1):
            am = self * terms[-1]
            ck = -(am.trace() * Fraction(1, k))
            coeffs[n - k] = as_exact(ck)
            if k < n:
                terms.append(am.scaled_identity_added(ck))
        return coeffs, terms

    def char_poly(self, var: str = "lam") -> ParamPoly:
        """det(var*I - self) by the Faddeev-LeVerrier recursion."""
        return ParamPoly(var, self.faddeev_leverrier()[0])

    def det(self):
        """Bareiss fraction-free elimination (exact in an integral domain)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        a = [list(row) for row in self.entries]
        sign = 1
        prev = Fraction(1)
        for k in range(n - 1):
            if not a[k][k]:
                pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
                if pivot is None:
                    return Fraction(0)
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                    a[i][j] = exact_div(num, prev)
                a[i][k] = Fraction(0)
            prev = a[k][k]
        return as_exact(sign * a[n - 1][n - 1])

    def nullspace(self):
        """Basis of the exact kernel (rational entries only)."""
        m = [list(row) for row in self.entries]
        for row in m:
            for e in row:
                if not isinstance(e, Fraction):
                    raise TypeError("nullspace needs rational entries")
        rows, cols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(cols):
            pivot = next((i for i in range(r, rows) if m[i][c]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = Fraction(1) / m[r][c]
            m[r] = [v * inv for v in m[r]]
            for i in range(rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [v - f * w for v, w in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == rows:
                break
        free = [c for c in range(cols) if c not in pivots]
        basis = []
        for f in free:
            vec = [Fraction(0)] * cols
            vec[f] = Fraction(1)
            for prow, pcol in enumerate(pivots):
                vec[pcol] = -m[prow][f]
            basis.append(tuple(vec))
        return tuple(basis)

    def __repr__(self):
        return f"ExactMatrix({[list(r) for r in self.entries]!r})"


def resultant(p: ParamPoly, q: ParamPoly):
    """res(p, q) = lc(p)^deg(q) * prod q(r) over the roots r of p.

    The determinant of the Sylvester matrix, by Bareiss elimination, so
    coefficients may be rationals or polynomials in a scalar variable.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant with the zero polynomial")
    m, k = p.degree, q.degree
    if not m or not k:
        return as_exact(p.leading() ** k * q.leading() ** m)

    def shifted_rows(poly, count):
        top_down = list(reversed(poly.coeffs))
        return [
            [0] * s + top_down + [0] * (count - 1 - s) for s in range(count)
        ]

    return ExactMatrix(shifted_rows(p, k) + shifted_rows(q, m)).det()


def solve_linear(rows, rhs):
    """Solve a square exact rational system; raises on singular systems."""
    n = len(rows)
    m = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            raise ValueError("singular linear system")
        m[c], m[pivot] = m[pivot], m[c]
        inv = Fraction(1) / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[c])]
    return tuple(m[i][n] for i in range(n))
