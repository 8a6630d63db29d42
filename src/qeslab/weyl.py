"""Normal-ordered one-variable Weyl algebra with 2x2 matrix coefficients.

A scalar operator is a finite sum  sum_{i,j} c_{ij} x^i d^j  with the
powers of x written to the left of the powers of the derivative d; the
coefficients c_{ij} live in Q or in Q[t] for one scalar parameter t
(k0, c or the degree n).  They are stored in the integer normal form of
``exactnum`` (``normal_form``): int numerators, or integral polynomials
in t, over one denominator.  Products are renormalised with the
two-term commutation rule d x = x d + 1, i.e.

    d^b x^c = sum_s  C(b, s) * c!/(c-s)! * x^(c-s) d^(b-s),

on the numerators, over the product of the two denominators; sums,
``apply``, ``specialize`` and ``restrict`` read the numerators too.

``MatOp`` wraps a 2x2 matrix of such operators acting on doublets of
polynomials; ``specialize`` evaluates the parameter polynomials in the
coefficients of either at one value.  ``project_span`` projects a
matrix operator exactly onto the span of others, on integer
numerators: a ``Span`` holds integer numerators per basis operator and
an integer Gram inverse over one denominator, and each residual entry
is normalised once.  ``anticommutator_residuals`` does so for every
anticommutator of an odd multiplet.  ``restrict`` turns a matrix
operator into the exact matrix of its action on a finite doublet of
polynomial spaces, filled term by term along each term's band, and
keeps any components that fall outside the target space as explicit
leakage records instead of silently dropping them.  ``leakage`` finds
those records alone, from the few top monomials that can overshoot,
without building the matrix.
``RelationReport`` is the one record of an exact relation check, built
from a residual (``relation_report``) or from leakage records
(``doublet_report``); the relation suites and the spectral certificates
both build their reports here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from qeslab.exactnum import (
    ExactMatrix,
    ParamPoly,
    SCALAR_VARS,
    added_forms,
    cleared_rows,
    normal_form,
    ratio,
    scaled_forms,
    solve_linear,
)

X_VAR = "x"


def x_monomial(power: int, coeff=1) -> ParamPoly:
    """coeff * x**power as an exact polynomial."""
    if power < 0:
        raise ValueError("negative monomial power")
    return ParamPoly(X_VAR, [Fraction(0)] * power + [coeff])


def _is_scalar(value) -> bool:
    if isinstance(value, (int, Fraction)):
        return True
    if isinstance(value, ParamPoly):
        return value.var in SCALAR_VARS or len(value.coeffs) <= 1
    return False


def _x_poly(poly) -> ParamPoly:
    """`poly` as a polynomial in x: scalars and parameter polynomials
    count as constants."""
    if isinstance(poly, ParamPoly) and poly.var == X_VAR:
        return poly
    if not _is_scalar(poly):
        if isinstance(poly, ParamPoly):
            raise ValueError(f"expected a polynomial in {X_VAR!r}, got {poly.var!r}")
        raise TypeError(f"expected a polynomial, got {poly!r}")
    return ParamPoly(X_VAR, [poly])


def _product_terms(left, right) -> dict:
    """Numerators of the normal-ordered product of the term lists `left`
    and `right` ((i, j), numerator), zeros kept: every term pair and
    every commutation step adds into one dict."""
    out = {}
    for (a, b), ca in left:
        for (c, d), cb in right:
            coeff = ca * cb
            key = (a + c, b + d)
            out[key] = out[key] + coeff if key in out else coeff
            # the s = 0 term is above; d^b x^c also yields s >= 1
            for s in range(1, min(b, c) + 1):
                term = coeff * (math.comb(b, s) * math.perm(c, s))
                key = (a + c - s, b + d - s)
                out[key] = out[key] + term if key in out else term
    return out


class DiffOp:
    """Normal-ordered scalar differential operator.

    ``nums`` maps (x_power, d_power) -> numerator over ``den``, in the
    integer normal form of ``exactnum.normal_form``: only nonzero terms
    are stored, each an int or a non-constant integral ``ParamPoly`` in
    a scalar variable, and ``den`` is coprime to their content.  Every
    arithmetic result goes through that one normaliser, so equal
    operators have equal forms and the zero operator has no terms.
    ``terms`` is the read-only view {(x_power, d_power): coefficient},
    built on first read, each coefficient a ``Fraction`` or a
    non-constant ``ParamPoly``.  Sums and products touch only stored
    terms: a sum with an empty operand returns the other operand, and
    no term is added to a zero seed.
    """

    __slots__ = ("den", "nums", "_terms")

    def __init__(self, terms=None):
        terms = dict(terms or {})
        for i, j in terms:
            if i < 0 or j < 0:
                raise ValueError(f"negative operator powers {(i, j)}")
        self.den, (self.nums,) = cleared_rows([terms])
        self._terms = None

    @classmethod
    def _of(cls, den: int, nums: dict) -> "DiffOp":
        """The operator on the form (den, nums), unchecked: its keys are
        valid powers and the form is normal."""
        op = object.__new__(cls)
        op.den, op.nums, op._terms = den, nums, None
        return op

    @classmethod
    def _form(cls, form) -> "DiffOp":
        """The operator on a normal form (den, (nums,)) of exactnum."""
        den, (nums,) = form
        return cls._of(den, nums)

    @property
    def terms(self) -> dict:
        if self._terms is None:
            self._terms = {k: ratio(v, self.den) for k, v in self.nums.items()}
        return self._terms

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "DiffOp":
        return cls()

    @classmethod
    def one(cls) -> "DiffOp":
        return cls({(0, 0): 1})

    @classmethod
    def x(cls, power: int = 1) -> "DiffOp":
        return cls({(power, 0): 1})

    @classmethod
    def d(cls, power: int = 1) -> "DiffOp":
        return cls({(0, power): 1})

    @classmethod
    def euler(cls) -> "DiffOp":
        """x d, whose eigenvectors are the monomials."""
        return cls({(1, 1): 1})

    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def coeff(self, x_power: int, d_power: int):
        num = self.nums.get((x_power, d_power))
        return Fraction(0) if num is None else ratio(num, self.den)

    def __eq__(self, other):
        if _is_scalar(other):
            other = DiffOp({(0, 0): other})
        if isinstance(other, DiffOp):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    __hash__ = None

    # ------------------------------------------------------------------
    def __neg__(self) -> "DiffOp":
        return DiffOp._of(self.den, {k: -c for k, c in self.nums.items()})

    def _sum(self, other, sign: int):
        if _is_scalar(other):
            other = DiffOp({(0, 0): other})
        if not isinstance(other, DiffOp):
            return NotImplemented
        if not other.nums:
            return self
        if not self.nums and sign == 1:
            return other
        return DiffOp._form(added_forms(self.den, (self.nums,), other.den, (other.nums,), sign))

    def __add__(self, other):
        return self._sum(other, 1)

    def __radd__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def __mul__(self, other):
        if isinstance(other, DiffOp):
            out = _product_terms(self.nums.items(), list(other.nums.items()))
            return DiffOp._form(normal_form(self.den * other.den, (out,)))
        if _is_scalar(other):
            return DiffOp._form(scaled_forms(self.den, (self.nums,), other))
        return NotImplemented

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    def apply(self, poly: ParamPoly) -> ParamPoly:
        """Apply to a polynomial in x (exactly), on the numerators: the
        term c x^i d^j sends x^k to c k!/(k-j)! x^(k+i-j)."""
        poly = _x_poly(poly)
        out = {}
        for (i, j), c in self.nums.items():
            for k, pk in poly.nums.items():
                if k < j:
                    continue
                term = c * pk * math.perm(k, j)
                q = k + i - j
                out[q] = out[q] + term if q in out else term
        return ParamPoly._normal(X_VAR, self.den * poly.den, out)

    # ------------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda k: (k[0] + k[1], k[0])):
            c = self.terms[(i, j)]
            mono = "*".join(
                s
                for s in (
                    "" if i == 0 else ("x" if i == 1 else f"x^{i}"),
                    "" if j == 0 else ("d" if j == 1 else f"d^{j}"),
                )
                if s
            )
            cs = f"({c})" if isinstance(c, ParamPoly) else str(c)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffOp({self.terms!r})"


_ZERO = DiffOp()


# ----------------------------------------------------------------------
# 2x2 matrices of operators
# ----------------------------------------------------------------------

def _as_diffop(value) -> DiffOp:
    if isinstance(value, DiffOp):
        return value
    if _is_scalar(value):
        return DiffOp({(0, 0): value})
    raise TypeError(f"cannot interpret {value!r} as a scalar operator")


def _dot2(x: DiffOp, y: DiffOp, u: DiffOp, v: DiffOp) -> DiffOp:
    """x*y + u*v, without multiplying by an empty factor."""
    if x.nums and y.nums:
        return x * y + u * v if u.nums and v.nums else x * y
    return u * v if u.nums and v.nums else _ZERO


class MatOp:
    """2x2 matrix of scalar operators acting on doublets (top, bottom).

    Products skip every entry pair with an empty factor and sums skip an
    empty operand; the tees are diagonal and the towers off-diagonal, so
    most entry products of a mixed word are zero by structure.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(_as_diffop(e) for e in row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("MatOp needs a 2x2 entry grid")
        self.entries = rows

    @classmethod
    def _of(cls, rows) -> "MatOp":
        """The MatOp on `rows`, a 2x2 tuple grid of DiffOps, unchecked:
        for results of MatOp arithmetic."""
        op = object.__new__(cls)
        op.entries = rows
        return op

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "MatOp":
        z = DiffOp.zero()
        return cls(((z, z), (z, z)))

    @classmethod
    def identity(cls) -> "MatOp":
        return cls.diag(DiffOp.one(), DiffOp.one())

    @classmethod
    def diag(cls, top, bottom) -> "MatOp":
        z = DiffOp.zero()
        return cls(((_as_diffop(top), z), (z, _as_diffop(bottom))))

    @classmethod
    def sigma3(cls) -> "MatOp":
        return cls.diag(1, -1)

    @classmethod
    def lower_shift(cls, op=1) -> "MatOp":
        """op in the bottom-left slot: sends (top, bottom) to (0, op top)."""
        z = DiffOp.zero()
        return cls(((z, z), (_as_diffop(op), z)))

    @classmethod
    def raise_shift(cls, op=1) -> "MatOp":
        """op in the top-right slot: sends (top, bottom) to (op bottom, 0)."""
        z = DiffOp.zero()
        return cls(((z, _as_diffop(op)), (z, z)))

    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def __getitem__(self, idx):
        return self.entries[idx]

    def __eq__(self, other):
        if isinstance(other, MatOp):
            return self.entries == other.entries
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> "MatOp":
        return MatOp._of(tuple(tuple(-e for e in row) for row in self.entries))

    def __add__(self, other):
        if isinstance(other, MatOp):
            if other.is_zero:
                return self
            if self.is_zero:
                return other
            return MatOp._of(
                tuple(
                    tuple(a + b for a, b in zip(ra, rb))
                    for ra, rb in zip(self.entries, other.entries)
                )
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, MatOp):
            if other.is_zero:
                return self
            return MatOp._of(
                tuple(
                    tuple(a - b for a, b in zip(ra, rb))
                    for ra, rb in zip(self.entries, other.entries)
                )
            )
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, MatOp):
            (a00, a01), (a10, a11) = self.entries
            (b00, b01), (b10, b11) = other.entries
            return MatOp._of((
                (_dot2(a00, b00, a01, b10), _dot2(a00, b01, a01, b11)),
                (_dot2(a10, b00, a11, b10), _dot2(a10, b01, a11, b11)),
            ))
        if _is_scalar(other):
            return MatOp._of(
                tuple(tuple(e * other for e in row) for row in self.entries)
            )
        return NotImplemented

    def __rmul__(self, other):
        if _is_scalar(other):
            return MatOp._of(
                tuple(tuple(other * e for e in row) for row in self.entries)
            )
        return NotImplemented

    # ------------------------------------------------------------------
    def apply(self, doublet) -> tuple:
        top, bottom = doublet
        return (
            self.entries[0][0].apply(top) + self.entries[0][1].apply(bottom),
            self.entries[1][0].apply(top) + self.entries[1][1].apply(bottom),
        )

    def scaled_identity_added(self, scalar) -> "MatOp":
        """self + scalar*1, as ``ExactMatrix.scaled_identity_added``."""
        return self + MatOp.diag(scalar, scalar)

    def __str__(self):
        return "[[{}, {}], [{}, {}]]".format(
            self.entries[0][0], self.entries[0][1],
            self.entries[1][0], self.entries[1][1],
        )

    def __repr__(self):
        return f"MatOp({self.entries!r})"


def specialize(op, value):
    """`op` (a DiffOp, MatOp or ExactMatrix) with every polynomial
    coefficient evaluated at the rational `value`: a ring map, so it
    commutes with sums, products and normal ordering.  Each polynomial
    numerator is evaluated by ``ParamPoly.__call__``, and the values over
    op's denominator are cleared once (``exactnum.cleared_rows``)."""
    if isinstance(op, MatOp):
        return MatOp._of(
            tuple(tuple(specialize(e, value) for e in row) for row in op.entries)
        )
    rows = op.nums if isinstance(op, ExactMatrix) else (op.nums,)
    form = cleared_rows(
        [{k: v(value) if type(v) is ParamPoly else v for k, v in row.items()} for row in rows],
        op.den,
    )
    if isinstance(op, ExactMatrix):
        return ExactMatrix._of(op.cols, *form)
    return DiffOp._form(form)


def commutator(a, b):
    return a * b - b * a


def anticommutator(a, b):
    return a * b + b * a


# ----------------------------------------------------------------------
# exact span projection
# ----------------------------------------------------------------------

def _cleared_entries(op: MatOp):
    """(den, nums): the numerator dicts of op's four entries, row by row,
    over the lcm den of their denominators."""
    entries = [e for row in op.entries for e in row]
    den = math.lcm(*(e.den for e in entries))
    return den, [
        e.nums if e.den == den else {k: v * (den // e.den) for k, v in e.nums.items()}
        for e in entries
    ]


def _dot(a, b):
    """Sum of a[k] * b[k] over the terms k that the entries of two
    operators share, for their numerator dicts `a` and `b`."""
    total = 0
    for ea, eb in zip(a, b):
        if len(ea) > len(eb):
            ea, eb = eb, ea
        for key, va in ea.items():
            vb = eb.get(key)
            if vb is not None:
                total = total + vb * va
    return total


class Span:
    """Linear span of independent rational MatOps, with its exact Gram
    inverse.

    Inner products treat each normal-ordered matrix term as an
    orthonormal coordinate.  Basis operator i is held as integer
    numerators ``nums[i]`` over ``dens[i]``; their Gram matrix is
    integral, and its inverse, from one ``solve_linear`` here, is held
    as the int matrix ``inverse`` over the int ``den``.
    """

    __slots__ = ("basis", "dens", "nums", "inverse", "den")

    def __init__(self, basis):
        self.basis = tuple(basis)
        self.dens, self.nums = zip(*map(_cleared_entries, self.basis))
        size = len(self.basis)
        gram = [[_dot(self.nums[i], self.nums[j]) for j in range(size)] for i in range(size)]
        # one elimination of [gram | I]
        unit = [[int(i == j) for j in range(size)] for i in range(size)]
        inverse = solve_linear(gram, unit)
        self.den = math.lcm(*(v.denominator for row in inverse for v in row))
        self.inverse = [[v.numerator * (self.den // v.denominator) for v in row] for row in inverse]


def project_span(op: MatOp, span: Span):
    """Orthogonal projection of `op` = M/E onto `span`, coefficient-exact,
    on integer numerators: with r_j = <N_j, M> and w = inverse r,
    coefficient i is D_i w_i / (den E), and the residual is
    (den M - sum_i w_i N_i) / (den E), each entry normalised once.

    Returns (coefficients, residual); coefficients may be polynomials in
    a scalar parameter when `op` has such coefficients.
    """
    op_den, op_nums = _cleared_entries(op)
    rhs = [(j, r) for j, nums in enumerate(span.nums) if (r := _dot(nums, op_nums))]
    weights = [sum((r * row[j] for j, r in rhs if row[j]), 0) for row in span.inverse]
    den = span.den * op_den
    entries = []
    for k, m in enumerate(op_nums):
        out = {key: v * span.den for key, v in m.items()}
        for w, nums in zip(weights, span.nums):
            if w:
                for key, v in nums[k].items():
                    out[key] = out[key] - w * v if key in out else -w * v
        entries.append(DiffOp._form(normal_form(den, (out,))))
    coeffs = [ratio(w * d, den) for w, d in zip(weights, span.dens)]
    return coeffs, MatOp._of((tuple(entries[:2]), tuple(entries[2:])))


def anticommutator_residuals(effs, span: Span) -> dict:
    """{(a, b): (coeffs, residual)} for 1 <= a <= b <= len(effs).

    Each anticommutator {F_a, F_b} of the odd multiplet is projected onto
    `span`; it lies in the span exactly when its residual is zero.
    """
    return {
        (a, b): project_span(anticommutator(effs[a - 1], effs[b - 1]), span)
        for a in range(1, len(effs) + 1)
        for b in range(a, len(effs) + 1)
    }


# ----------------------------------------------------------------------
# restriction to polynomial doublets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModuleSpec:
    """The doublet P(top_degree) (+) P(bottom_degree).

    Basis order: monomials 1, x, ..., x^top_degree of the top component,
    then 1, x, ..., x^bottom_degree of the bottom one.
    """

    top_degree: int
    bottom_degree: int

    def __post_init__(self):
        if self.top_degree < 0 or self.bottom_degree < 0:
            raise ValueError("component degrees must be nonnegative")

    @property
    def dim(self) -> int:
        return self.top_degree + self.bottom_degree + 2

    def degree_cap(self, component: int) -> int:
        return self.top_degree if component == 0 else self.bottom_degree

    def basis_index(self, component: int, power: int) -> int:
        if not 0 <= power <= self.degree_cap(component):
            raise IndexError(f"x^{power} outside component {component}")
        return power if component == 0 else self.top_degree + 1 + power

    def basis_labels(self):
        for comp in (0, 1):
            for power in range(self.degree_cap(comp) + 1):
                yield comp, power


@dataclass(frozen=True)
class LeakageTerm:
    """A piece of the image that fell outside the target doublet."""

    source_component: int
    source_power: int
    dest_component: int
    dest_power: int
    coeff: object

    def __str__(self):
        return (
            f"comp{self.source_component} x^{self.source_power} -> "
            f"comp{self.dest_component} x^{self.dest_power} (coeff {self.coeff})"
        )


@dataclass(frozen=True)
class RestrictedMatrix:
    """Exact matrix of a MatOp on a ModuleSpec basis, plus leakage."""

    module: ModuleSpec
    matrix: ExactMatrix
    leakage: tuple

    @property
    def leakage_free(self) -> bool:
        return not self.leakage


def leakage(op: MatOp, module: ModuleSpec) -> tuple:
    """The LeakageTerms of `op` on the doublet: every image coefficient
    above its destination's degree cap, ordered by (source component,
    power, destination, image power).  A term x^i d^j sends x^p to
    x^(p+i-j), so an entry with largest shift i - j can overshoot the cap
    only from the powers p > cap - shift; the entry is applied to those
    monomials alone."""
    tasks = []
    for comp in (0, 1):
        for dest in (0, 1):
            entry = op.entries[dest][comp]
            if not entry.nums:
                continue
            cap = module.degree_cap(dest)
            first = max(cap + 1 - max(i - j for i, j in entry.nums), 0)
            tasks += [
                (comp, power, dest, entry, cap)
                for power in range(first, module.degree_cap(comp) + 1)
            ]
    tasks.sort(key=lambda task: task[:3])
    leaks = []
    for comp, power, dest, entry, cap in tasks:
        image = entry.apply(x_monomial(power))
        leaks += [
            LeakageTerm(comp, power, dest, q, image.coeff(q))
            for q in sorted(image.nums)
            if q > cap
        ]
    return tuple(leaks)


def restrict(op: MatOp, module: ModuleSpec) -> RestrictedMatrix:
    """Matrix of `op` on the doublet basis, with out-of-space leakage.

    The matrix is filled by band scatter straight into its sparse rows
    of numerators over L, the least common multiple of the entries'
    denominators: a term of numerator N over D in x^i d^j of the entry
    (dest, comp) adds N (L/D) p!/(p-j)! at the row of x^(p+i-j) in dest
    and the column of x^p in comp, for every j <= p whose image stays
    within dest's cap; cells that several terms reach are summed.  The
    images above the cap come from ``leakage``."""
    den = math.lcm(*(e.den for row in op.entries for e in row))
    rows = [{} for _ in range(module.dim)]
    offsets = (0, module.top_degree + 1)
    for dest in (0, 1):
        cap = module.degree_cap(dest)
        for comp in (0, 1):
            entry = op.entries[dest][comp]
            scale = den // entry.den
            for (i, j), c in entry.nums.items():
                # x^p -> x^(p+i-j) for j <= p <= the source cap, within the cap
                for p in range(j, min(module.degree_cap(comp), cap - i + j) + 1):
                    row = rows[offsets[dest] + p + i - j]
                    col = offsets[comp] + p
                    term = c * (scale * math.perm(p, j))
                    row[col] = row[col] + term if col in row else term
    matrix = ExactMatrix._normal(module.dim, den, rows)
    return RestrictedMatrix(module, matrix, leakage(op, module))


# ----------------------------------------------------------------------
# relation reports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RelationReport:
    """One verified relation: opaque tag, key=value fields, outcome."""

    tag: str
    fields: tuple
    holds: bool
    residual: object = None

    @property
    def status(self) -> str:
        return "holds" if self.holds else "fails"

    def line(self) -> str:
        tokens = [f"EQ{self.tag}"]
        tokens += [f"{key}={value}" for key, value in self.fields]
        tokens.append(f"status={self.status}")
        return " ".join(tokens)


def relation_report(tag, fields, residual) -> RelationReport:
    """Holds when `residual` (an operator, a matrix or a polynomial) is
    exactly zero, else it is kept."""
    holds = residual.is_zero
    return RelationReport(tag, tuple(fields), holds, None if holds else residual)


def doublet_report(tag, fields, leakage) -> RelationReport:
    """Holds when an operator keeps its doublet: `leakage` (of its
    restriction) is empty, else it is the residual."""
    return RelationReport(tag, tuple(fields), not leakage, leakage or None)


def failures(reports):
    return [r for r in reports if not r.holds]
