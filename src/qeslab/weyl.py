"""Normal-ordered one-variable Weyl algebra with 2x2 matrix coefficients.

A scalar operator is a finite sum  sum_{i,j} c_{ij} x^i d^j  with the
powers of x written to the left of the powers of the derivative d; the
coefficients c_{ij} live in Q or in Q[t] for one scalar parameter t
(k0, c or the degree n).  They are stored in the integer normal form of
``exactnum`` (``normal_form``): int numerators, or integral polynomials
in t, over one denominator.  Products are renormalised with the
two-term commutation rule d x = x d + 1, i.e.

    d^b x^c = sum_s  C(b, s) * c!/(c-s)! * x^(c-s) d^(b-s),

on the numerators, over the product of the two denominators;
``apply``, ``specialize`` and ``restrict`` read the numerators too.

``MatOp`` is a 2x2 matrix of such operators acting on doublets of
polynomials, stored in the same form: four numerator dicts over one
denominator, which its products, ``specialize``, ``restrict``,
``leakage`` and the span projection read directly.  ``DiffOp`` and
``MatOp`` inherit equality, negation, sums, differences and scalar
multiples from ``exactnum.NormalForm``, as ``ParamPoly`` and
``ExactMatrix`` do.  ``specialize`` evaluates the parameter polynomials
in the coefficients of a DiffOp, MatOp or ExactMatrix at one value.
``project_span`` projects a matrix operator exactly onto the span of
others, on integer numerators: a ``Span`` reads the numerators of its
basis operators and holds an integer Gram inverse over one denominator,
and each residual is normalised once.  ``anticommutator_residuals``
does so for every anticommutator of an odd multiplet.  ``restrict``
turns a matrix operator into the exact matrix of its action on a finite
doublet of polynomial spaces, filled term by term along each term's
band, and keeps any components that fall outside the target space as
explicit leakage records instead of silently dropping them.
``leakage`` finds those records alone, from the few top monomials that
can overshoot, without building the matrix.
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
    NormalForm,
    ParamPoly,
    SCALAR_VARS,
    cleared,
    cleared_rows,
    normal_form,
    ratio,
    solve_linear,
)

X_VAR = "x"


def x_monomial(power: int, coeff=1) -> ParamPoly:
    """coeff * x**power as an exact polynomial."""
    if power < 0:
        raise ValueError("negative monomial power")
    den, num = cleared(coeff)
    return ParamPoly._of(X_VAR, den, {power: num} if num else {})


def _is_scalar(value) -> bool:
    if isinstance(value, (int, Fraction)):
        return True
    if isinstance(value, ParamPoly):
        return value.var in SCALAR_VARS or value.degree <= 0
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


def _product_terms(left, right, out: dict) -> dict:
    """Add into `out` the numerators of the normal-ordered product of the
    term lists `left` and `right` ((i, j), numerator), zeros kept: every
    term pair and every commutation step adds into the one dict."""
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


class DiffOp(NormalForm):
    """Normal-ordered scalar differential operator.

    ``nums`` maps (x_power, d_power) -> numerator over ``den``, in the
    integer normal form of ``exactnum``: only nonzero terms are stored,
    each an int or a non-constant integral ``ParamPoly`` in a scalar
    variable, so the zero operator has no terms.  Its sums, differences
    and scalar multiples, with scalars promoted to operators of degree
    0, are those of ``exactnum.NormalForm``.  ``terms`` is the read-only
    view {(x_power, d_power): coefficient}, built on first read, each
    coefficient a ``Fraction`` or a non-constant ``ParamPoly``.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        terms = dict(terms or {})
        for i, j in terms:
            if i < 0 or j < 0:
                raise ValueError(f"negative operator powers {(i, j)}")
        self.den, (self.nums,) = cleared_rows([terms])
        self._view = None

    @classmethod
    def _of(cls, den: int, nums: dict) -> "DiffOp":
        """The operator on the form (den, nums), unchecked: its keys are
        valid powers and the form is normal."""
        op = object.__new__(cls)
        op.den, op.nums, op._view = den, nums, None
        return op

    def _rows(self):
        return (self.nums,)

    def _same(self, den: int, rows) -> "DiffOp":
        return DiffOp._of(den, rows[0])

    def _pair(self, other):
        if _is_scalar(other):
            return self, DiffOp({(0, 0): other})
        return (self, other) if isinstance(other, DiffOp) else None

    @property
    def terms(self) -> dict:
        if self._view is None:
            self._view = {k: ratio(v, self.den) for k, v in self.nums.items()}
        return self._view

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
    def coeff(self, x_power: int, d_power: int):
        num = self.nums.get((x_power, d_power))
        return Fraction(0) if num is None else ratio(num, self.den)

    def __mul__(self, other):
        if isinstance(other, DiffOp):
            out = _product_terms(self.nums.items(), list(other.nums.items()), {})
            return self._same(*normal_form(self.den * other.den, (out,)))
        if _is_scalar(other):
            return self._scaled(other)
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


# ----------------------------------------------------------------------
# 2x2 matrices of operators
# ----------------------------------------------------------------------

def _entry_form(value):
    """(den, nums): the normal form of an operator, or of a scalar as the
    operator of degree 0."""
    if isinstance(value, DiffOp):
        return value.den, value.nums
    if _is_scalar(value):
        den, num = cleared(value)
        return den, {(0, 0): num} if num else {}
    raise TypeError(f"cannot interpret {value!r} as a scalar operator")


class MatOp(NormalForm):
    """2x2 matrix of scalar operators acting on doublets (top, bottom).

    Stored as ``ExactMatrix`` stores its rows: ``nums`` holds four dicts
    {(x_power, d_power): numerator}, for the entries 00, 01, 10 and 11,
    over the one positive int ``den``, in the integer normal form of
    ``exactnum``, whose ``NormalForm`` holds its sums and scalar
    multiples.  A product adds every entry pair's normal-ordered terms
    into four dicts and normalises once, skipping each pair with an
    empty factor (the tees are diagonal and the towers off-diagonal, so
    most entry products of a mixed word are zero by structure).
    ``entries`` (and ``op[r]``) is a read-only 2x2 grid of DiffOps,
    built on first read.
    """

    __slots__ = ()

    def __init__(self, entries):
        rows = tuple(tuple(map(_entry_form, row)) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("MatOp needs a 2x2 entry grid")
        forms = rows[0] + rows[1]
        # over the lcm of normal denominators the joint form is normal too
        self.den = math.lcm(*(d for d, _ in forms))
        self.nums = tuple(
            nums if d == self.den else {k: v * (self.den // d) for k, v in nums.items()}
            for d, nums in forms
        )
        self._view = None

    @classmethod
    def _of(cls, den: int, nums: tuple) -> "MatOp":
        """The MatOp on a normal form (den, nums), unchecked: for results
        of MatOp arithmetic."""
        op = object.__new__(cls)
        op.den, op.nums, op._view = den, nums, None
        return op

    def _rows(self):
        return self.nums

    def _same(self, den: int, rows) -> "MatOp":
        return MatOp._of(den, rows)

    def _pair(self, other):
        return (self, other) if isinstance(other, MatOp) else None

    @property
    def entries(self) -> tuple:
        if self._view is None:
            forms = (normal_form(self.den, (row,)) for row in self.nums)
            e = [DiffOp._of(den, nums) for den, (nums,) in forms]
            self._view = ((e[0], e[1]), (e[2], e[3]))
        return self._view

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "MatOp":
        return cls(((0, 0), (0, 0)))

    @classmethod
    def identity(cls) -> "MatOp":
        return cls.diag(1, 1)

    @classmethod
    def diag(cls, top, bottom) -> "MatOp":
        return cls(((top, 0), (0, bottom)))

    @classmethod
    def sigma3(cls) -> "MatOp":
        return cls.diag(1, -1)

    @classmethod
    def lower_shift(cls, op=1) -> "MatOp":
        """op in the bottom-left slot: sends (top, bottom) to (0, op top)."""
        return cls(((0, 0), (op, 0)))

    @classmethod
    def raise_shift(cls, op=1) -> "MatOp":
        """op in the top-right slot: sends (top, bottom) to (op bottom, 0)."""
        return cls(((0, op), (0, 0)))

    # ------------------------------------------------------------------
    def __getitem__(self, idx):
        return self.entries[idx]

    def __mul__(self, other):
        if isinstance(other, MatOp):
            a, b = self.nums, other.nums
            out = ({}, {}, {}, {})
            for r in (0, 2):
                for c in (0, 1):
                    for k in (0, 1):
                        left, right = a[r + k], b[2 * k + c]
                        if left and right:
                            _product_terms(left.items(), list(right.items()), out[r + c])
            return MatOp._of(*normal_form(self.den * other.den, out))
        if _is_scalar(other):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    def apply(self, doublet) -> tuple:
        top, bottom = doublet
        (a, b), (c, d) = self.entries
        return (a.apply(top) + b.apply(bottom), c.apply(top) + d.apply(bottom))

    def scaled_identity_added(self, scalar) -> "MatOp":
        """self + scalar*1, as ``ExactMatrix.scaled_identity_added``."""
        return self + MatOp.diag(scalar, scalar)

    def __str__(self):
        return "[[{}, {}], [{}, {}]]".format(*self.entries[0], *self.entries[1])

    def __repr__(self):
        return f"MatOp({self.entries!r})"


def specialize(op, value):
    """`op` (a ParamPoly, DiffOp, MatOp or ExactMatrix) with every
    polynomial coefficient evaluated at the rational `value`: a ring map,
    so it commutes with sums, products, normal ordering and determinants.
    Each polynomial numerator is evaluated by ``ParamPoly.__call__``, and
    the values over op's denominator are cleared once
    (``exactnum.cleared_rows``)."""
    rows = [{k: v(value) if type(v) is ParamPoly else v for k, v in row.items()} for row in op._rows()]
    return op._same(*cleared_rows(rows, op.den))


def commutator(a, b):
    return a * b - b * a


def anticommutator(a, b):
    return a * b + b * a


# ----------------------------------------------------------------------
# exact span projection
# ----------------------------------------------------------------------

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
    orthonormal coordinate.  Basis operator i is read as its stored
    integer numerators (``MatOp.nums``) over its ``den``; their Gram
    matrix is integral, and its inverse, from one ``solve_linear`` here,
    is held as the int matrix ``inverse`` over the int ``den``.
    """

    __slots__ = ("basis", "dens", "nums", "inverse", "den")

    def __init__(self, basis):
        self.basis = tuple(basis)
        self.dens = tuple(op.den for op in self.basis)
        self.nums = tuple(op.nums for op in self.basis)
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
    (den M - sum_i w_i N_i) / (den E), normalised once.

    Returns (coefficients, residual); coefficients may be polynomials in
    a scalar parameter when `op` has such coefficients.
    """
    rhs = [(j, r) for j, nums in enumerate(span.nums) if (r := _dot(nums, op.nums))]
    weights = [sum((r * row[j] for j, r in rhs if row[j]), 0) for row in span.inverse]
    den = span.den * op.den
    outs = []
    for k, m in enumerate(op.nums):
        out = {key: v * span.den for key, v in m.items()}
        for w, nums in zip(weights, span.nums):
            if w:
                for key, v in nums[k].items():
                    out[key] = out[key] - w * v if key in out else -w * v
        outs.append(out)
    coeffs = [ratio(w * d, den) for w, d in zip(weights, span.dens)]
    return coeffs, MatOp._of(*normal_form(den, outs))


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
    monomials alone, read from op's numerators over op's denominator
    (``apply`` normalises each image)."""
    tasks = []
    for comp in (0, 1):
        for dest in (0, 1):
            nums = op.nums[2 * dest + comp]
            if not nums:
                continue
            entry = DiffOp._of(op.den, nums)
            cap = module.degree_cap(dest)
            first = max(cap + 1 - max(i - j for i, j in nums), 0)
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

    The matrix is filled by band scatter of op's numerators straight
    into its sparse rows over op's denominator: a term of numerator N in
    x^i d^j of the entry (dest, comp) adds N p!/(p-j)! at the row of
    x^(p+i-j) in dest and the column of x^p in comp, for every j <= p
    whose image stays within dest's cap; cells that several terms reach
    are summed.  The images above the cap come from ``leakage``."""
    rows = [{} for _ in range(module.dim)]
    offsets = (0, module.top_degree + 1)
    for dest in (0, 1):
        cap = module.degree_cap(dest)
        for comp in (0, 1):
            for (i, j), c in op.nums[2 * dest + comp].items():
                # x^p -> x^(p+i-j) for j <= p <= the source cap, within the cap
                for p in range(j, min(module.degree_cap(comp), cap - i + j) + 1):
                    row = rows[offsets[dest] + p + i - j]
                    col = offsets[comp] + p
                    term = c * math.perm(p, j)
                    row[col] = row[col] + term if col in row else term
    matrix = ExactMatrix._normal(module.dim, op.den, rows)
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
