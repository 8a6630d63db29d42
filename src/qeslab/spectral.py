"""The coupled sextic operator pair: spectra, eigenvectors, cross-checks.

The physical operator acts on two-component wavefunctions of y:

    H = -d^2/dy^2 1 + y^6 1 + (1-4n) y^2 1 - 4 y^2 s3 + c s1,  c = -4 n k0.

A similarity transformation combined with x = y^2 turns it into a
matrix differential operator h that preserves P(n) (+) P(n-2) exactly;
its restricted 2n x 2n matrix gives the algebraic part of the spectrum
as exact characteristic-polynomial roots.  This module builds h for a
rational or a symbolic coupling, certifies the parity symmetry that
puts the restricted matrix in the block form [[0, B], [C, 0]] once per
n over Q[c] (BlockForm), evaluates that form at each coupling to get
spectra and eigenvectors (with node counts in y), sweeps the coupling,
computes every spectral quantity from q(mu) = det(mu - BC)
with mu = E^2 (so the spectrum is even under E -> -E by construction),
taken over Q[c] once and evaluated where a sweep or a collision search
needs many couplings, locates the exact level-collision locus, and
cross-checks everything against a finite-difference discretization of
the physical operator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf
from operator import mul

# OpenBLAS worker threads busy-wait for 2^28 cycles (about 0.08 s) after
# the library loads and after each threaded call before they sleep.  Only
# the FD cross-check calls BLAS, a few times per run, so that spin burns
# a second core during every command, exact ones included, by an amount
# that depends on scheduling.  2^4 cycles makes idle workers sleep at
# once; an OPENBLAS_THREAD_TIMEOUT set by the caller wins, and the
# default does nothing when numpy is already loaded.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np  # noqa: E402

from qeslab.exactnum import (
    ExactMatrix,
    PRINT_DIGITS,
    ParamPoly,
    Root,
    as_exact,
    count_real_roots,
    even_poly,
    power_sums,
    real_roots,
)
from qeslab.weyl import (
    DiffOp,
    MatOp,
    ModuleSpec,
    RestrictedMatrix,
    doublet_report,
    leakage,
    relation_report,
    restrict,
    specialize,
)


class SpectralError(RuntimeError):
    """Construction or invariant failure in the spectral pipeline."""


class NoDegeneracyError(SpectralError):
    """The gap minimizer sits on the bracket boundary."""


K0_VAR = "k0"
# the variables a symbolic coupling may be a polynomial in
COUPLING_VARS = (K0_VAR, "c")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Degree n >= 2 and the coupling k0 of the operator pair: a rational,
    or a polynomial in k0 or c that makes every matrix built from the
    spec symbolic in the coupling (COUPLING_VARS; no other variable)."""

    n: int
    k0: Fraction | ParamPoly

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2 so both components are nonempty")
        k0 = self.k0
        k0 = as_exact(k0) if isinstance(k0, ParamPoly) else Fraction(k0)
        if isinstance(k0, ParamPoly) and k0.var not in COUPLING_VARS:
            raise ValueError(f"coupling polynomial in {k0.var!r}, not k0 or c")
        object.__setattr__(self, "k0", k0)

    @property
    def c_spec(self):
        return -4 * self.n * self.k0

    @classmethod
    def from_c(cls, n: int, c) -> "HamiltonianSpec":
        return cls(n, c * Fraction(-1, 4 * n))

    @property
    def module(self) -> ModuleSpec:
        return ModuleSpec(self.n, self.n - 2)

    def channel_y2_coeff(self, channel: int) -> Fraction:
        """The y^2 coefficient of the physical potential in one channel."""
        sign = -4 if channel == 0 else 4
        return Fraction(1 - 4 * self.n + sign)


# ----------------------------------------------------------------------
# the polynomial-space operator and its restricted matrix
# ----------------------------------------------------------------------

def build_hamiltonian_gauged(spec: HamiltonianSpec) -> MatOp:
    """The polynomial-space form h on P(n) (+) P(n-2).

    h = -(4x d^2 + 2d) 1 - 4n k0^2 d s3
        + 4 diag(x^2 d - n x, x^2 d - (n-2) x)
        + 4 k0 [[0, -n], [(1 + k0^2 n) d^2, 0]]

    A symbolic spec.k0 puts every matrix entry in Q[k0] or Q[c].
    """
    n, k0 = spec.n, spec.k0
    kinetic = DiffOp({(1, 2): -4, (0, 1): -2})
    drift = DiffOp({(0, 1): k0 * k0 * (-4 * n)})
    top = kinetic + drift + DiffOp({(2, 1): 4, (1, 0): -4 * n})
    bottom = kinetic - drift + DiffOp({(2, 1): 4, (1, 0): -4 * (n - 2)})
    upper = DiffOp({(0, 0): k0 * (-4 * n)})
    lower = DiffOp({(0, 2): (k0 * k0 * k0 * n + k0) * 4})
    return MatOp(((top, upper), (lower, bottom)))


def restricted_hamiltonian(spec: HamiltonianSpec) -> RestrictedMatrix:
    """The matrix of h on P(n) (+) P(n-2); SpectralError if h leaks off
    it.  Spectra restrict once per n, symbolic in c (block_form); at a
    rational coupling it is the reference that the block form matches."""
    result = restrict(build_hamiltonian_gauged(spec), spec.module)
    if not result.leakage_free:
        raise SpectralError(
            f"operator leaks off the doublet: {[str(t) for t in result.leakage]}"
        )
    return result


# ----------------------------------------------------------------------
# parity block form and the characteristic polynomial
# ----------------------------------------------------------------------

def _parity_signs(module: ModuleSpec):
    signs = []
    for comp, power in module.basis_labels():
        comp_sign = 1 if comp == 0 else -1
        signs.append(comp_sign * (-1) ** power)
    return signs


def _parity_split(matrix: ExactMatrix, module: ModuleSpec):
    """(B, C, stray) for M = [[0, B], [C, 0]] + stray in the basis sorted
    by parity sign, even first.  `stray` keeps the entries of M that join
    two basis vectors of the same parity; it is zero iff S M S = -M."""
    signs = _parity_signs(module)
    even = [i for i, s in enumerate(signs) if s > 0]
    odd = [i for i, s in enumerate(signs) if s < 0]

    def block(rows, cols):
        index = {j: k for k, j in enumerate(cols)}
        nums = [{index[j]: v for j, v in matrix.nums[i].items() if j in index} for i in rows]
        return ExactMatrix._normal(len(cols), matrix.den, nums)

    stray = [
        {j: v for j, v in row.items() if signs[j] == si}
        for row, si in zip(matrix.nums, signs)
    ]
    return block(even, odd), block(odd, even), ExactMatrix._normal(matrix.cols, matrix.den, stray)


def _parity_blocks(restricted: RestrictedMatrix):
    """(B, C) of M = [[0, B], [C, 0]].  Raises SpectralError if M has a
    nonzero same-parity entry."""
    b, c, stray = _parity_split(restricted.matrix, restricted.module)
    if not stray.is_zero:
        raise SpectralError("restricted matrix is not odd under parity")
    return b, c


@dataclass(frozen=True)
class BlockForm:
    """The restricted matrix M of h at one n for every coupling, with the
    blocks of its parity form M = [[0, B], [C, 0]] and their product BC,
    entries in Q[c] (k0 = -c/(4n)) or in Q[k0].  block_form certifies M
    once, no leakage and no same-parity entry, as polynomial identities,
    so both hold at every coupling.  A numeric spectrum evaluates the
    entries it needs at its own coupling (`coupling`, weyl.specialize)."""

    variable: str
    restricted: RestrictedMatrix
    b: ExactMatrix
    c: ExactMatrix
    bc: ExactMatrix

    def coupling(self, spec: HamiltonianSpec) -> Fraction:
        """The value of `variable` for a rational spec of this degree."""
        if isinstance(spec.k0, ParamPoly):
            raise TypeError("a symbolic coupling has no numeric block form")
        if spec.module != self.restricted.module:
            raise ValueError(f"block form of {self.restricted.module}, not {spec.module}")
        return spec.c_spec if self.variable == "c" else spec.k0


def block_form(n: int, variable: str = "c") -> BlockForm:
    """The certified block form of h at degree n, over Q[c] or Q[k0]: one
    restriction, one parity split and one block product."""
    build = HamiltonianSpec.from_c if variable == "c" else HamiltonianSpec
    restricted = restricted_hamiltonian(build(n, ParamPoly.gen(variable)))
    b, c = _parity_blocks(restricted)
    return BlockForm(variable, restricted, b, c, b * c)


def _mu_char_poly(bc: ExactMatrix) -> ParamPoly:
    """q(mu) = det(mu - BC); the characteristic polynomial of
    M = [[0, B], [C, 0]] is det(lam^2 - BC) = q(lam^2).  Every spectrum,
    numeric or symbolic, takes its q from here."""
    return bc.char_poly("mu")


def _symbolic_mu_poly(n: int, variable: str) -> ParamPoly:
    """q(mu) with coefficients in Q[k0], or in Q[c] with k0 = -c/(4n)."""
    return _mu_char_poly(block_form(n, variable).bc)


def symbolic_char_poly(n: int, variable: str = "c") -> ParamPoly:
    """Characteristic polynomial in lam, coefficients in Q[k0] or Q[c].

    The c-form is built from the spec with k0 = -c/(4n), matching the
    coupling constant used for spectra and sweeps.
    """
    return even_poly(_symbolic_mu_poly(n, variable), "lam")


# ----------------------------------------------------------------------
# algebraic spectrum
# ----------------------------------------------------------------------

def _levels(q: ParamPoly) -> tuple:
    """The certified levels of M = [[0, B], [C, 0]] at one rational
    coupling, from q(mu) = det(mu - BC) there: each printing correctly
    rounded (see exactnum.real_roots).  SpectralError unless all 2n are
    real."""
    # det(lam - M) = q(lam^2), so real_roots isolates in mu = lam^2 on q,
    # of degree n: each root mu >= 0 gives the levels +-sqrt(mu), and
    # negative or complex mu give none.  The levels add up to 2n with
    # multiplicity iff all n roots of q are real and nonnegative.
    levels = tuple(real_roots(even_poly(q, "lam")))
    if sum(lv.multiplicity for lv in levels) != 2 * q.degree:
        raise SpectralError("characteristic polynomial has nonreal roots")
    return levels


def _values(levels) -> tuple:
    """The level values with multiplicity, ascending."""
    return tuple(lv.value for lv in levels for _ in range(lv.multiplicity))


@dataclass(frozen=True)
class AlgebraicSpectrum:
    """Certified levels of one operator: `form` is the block form of its
    degree that they were evaluated from, `bc` its BC at spec's coupling."""

    spec: HamiltonianSpec
    form: BlockForm
    bc: ExactMatrix
    char_poly: ParamPoly
    levels: tuple

    @property
    def values(self):
        """All 2n levels with multiplicity, ascending."""
        return list(_values(self.levels))


def algebraic_spectrum(spec: HamiltonianSpec) -> AlgebraicSpectrum:
    """Exact characteristic polynomial q(lam^2) and its certified-real
    roots (_levels), from BC of block_form(spec.n) at spec's coupling."""
    form = block_form(spec.n)
    bc = specialize(form.bc, form.coupling(spec))
    q = _mu_char_poly(bc)
    return AlgebraicSpectrum(spec, form, bc, even_poly(q, "lam"), _levels(q))


# ----------------------------------------------------------------------
# eigenvectors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EigenPair:
    """One level with a basis of eigenvector doublets (p_top, p_bottom),
    polynomials in x: exact at a rational level, and otherwise each
    coefficient rounded to the nearest double (held as its exact value)."""

    level: Root
    doublets: tuple
    defective: bool = False


def _split_doublet(vector, module: ModuleSpec):
    top = ParamPoly("x", vector[: module.top_degree + 1])
    bottom = ParamPoly("x", vector[module.top_degree + 1 :])
    return top, bottom


def _rounded(value: Fraction) -> Fraction:
    """The exact value of the double nearest `value`."""
    return Fraction(float(value))


def _normalize_doublet(top: ParamPoly, bottom: ParamPoly):
    """Scale so the highest-degree nonzero top coefficient is +1
    (falling back to the bottom component for top-zero vectors)."""
    for poly in (top, bottom):
        if not poly.is_zero:
            inv = Fraction(1) / poly.leading()
            return top * inv, bottom * inv
    raise SpectralError("zero eigenvector")


def _adjugate_terms(bc: ExactMatrix, q):
    """(L, [T_0 .. T_(n-1)]) with adj(mu - BC) = sum_k mu^(n-1-k) T_k / L^k,
    for q the ascending coefficients of det(mu - BC) and L the common
    denominator of BC: by Cayley-Hamilton on integers, T_0 = I and
    T_k = (L BC) T_(k-1) + L^k q_(n-k) I, where L^k q_(n-k) is a
    coefficient of det(x - L BC), so an integer."""
    den, n = bc.den, bc.rows
    a = [[row.get(j, 0) for j in range(n)] for row in bc.nums]
    terms = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for k in range(1, n):
        shift = q[n - k] * den**k
        if shift.denominator != 1:
            raise ArithmeticError("det(x - L BC) has a non-integer coefficient")
        term = [[sum(map(mul, row, col)) for col in zip(*terms[-1])] for row in a]
        for i in range(n):
            term[i][i] += shift.numerator
        terms.append(term)
    return den, terms


def _adjugate_column(terms, x, scale, j: int):
    """Column j of sum_k x^(n-1-k) scale^k terms[k], by Horner in x: of
    adj(x - BC) for the T_k / L^k of _adjugate_terms and scale 1, and
    (bL)^(n-1) times that of adj(a/b - BC) for the T_k, x = aL, scale b."""
    column = [0] * len(terms[0])
    weight = 1
    for term in terms:
        column = [acc * x + weight * row[j] for acc, row in zip(column, term)]
        weight *= scale
    return column


def eigenvectors(spectrum: AlgebraicSpectrum):
    """Eigenvector doublets per level of the spectrum's restricted
    matrix, M and C evaluated from its block form and BC taken from the
    spectrum: exact kernels of M - E at rational levels E (defective ones
    flagged).  An irrational level E must be simple, else SpectralError;
    it is nonzero.  With E the rational value of its float and mu = E^2,
    the largest column u of adj(mu - BC) spans the kernel of mu - BC and
    w = C u / E completes the vector.  A float pre-pass picks the column,
    which alone is evaluated exactly, on integers and up to a positive
    factor, once per mu: E and -E (the spectrum is even) share u, and
    their w differ by sign.  The normalized doublet is rounded to doubles
    once."""
    form = spectrum.form
    value = form.coupling(spectrum.spec)
    module = form.restricted.module
    matrix = specialize(form.restricted.matrix, value)
    c = specialize(form.c, value)
    den, terms = _adjugate_terms(spectrum.bc, spectrum.char_poly.coeffs[::2])
    # int true division rounds correctly: the floats of the adjugate's terms
    scales = [den**k for k in range(len(terms))]
    float_terms = [[[x / s for x in row] for row in t] for t, s in zip(terms, scales)]
    pairs = []
    columns = {}  # mu -> u
    for level in spectrum.levels:
        if level.exact is not None:
            shifted = matrix.scaled_identity_added(-level.exact)
            kernel = shifted.nullspace()
            doublets = tuple(
                _normalize_doublet(*_split_doublet(list(vec), module))
                for vec in kernel
            )
            pairs.append(EigenPair(level, doublets, len(kernel) < level.multiplicity))
            continue
        if level.multiplicity > 1:
            raise SpectralError(f"repeated irrational level {level.value!r}")
        e = Fraction(level.value)
        mu = e * e
        u = columns.get(mu)
        if u is None:
            j = max(
                range(form.b.rows),
                key=lambda j: sum(
                    x * x for x in _adjugate_column(float_terms, float(mu), 1, j)
                ),
            )
            u = columns[mu] = _adjugate_column(terms, mu.numerator * den, mu.denominator, j)
        w = [row[0] / e for row in (c * ExactMatrix([[x] for x in u])).entries]
        parts = {1: iter(u), -1: iter(w)}
        vector = [next(parts[sign]) for sign in _parity_signs(module)]
        top, bottom = _normalize_doublet(*_split_doublet(vector, module))
        doublet = (top.map_coeffs(_rounded), bottom.map_coeffs(_rounded))
        pairs.append(EigenPair(level, (doublet,)))
    return pairs


# ----------------------------------------------------------------------
# y-space eigenfunctions and node counts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class YEigenfunction:
    """Polynomial pair multiplying exp(-y^4/4); node counts are None for
    members of a degenerate subspace basis."""

    level: Root
    top_y: ParamPoly
    bottom_y: ParamPoly
    nodes: tuple | None
    subspace_dim: int


# x-roots within this distance of 0 count as the single y-zero y = 0
NODE_GUARD = Fraction(1, 10**9)


def y_node_count(x_poly: ParamPoly) -> int:
    """Distinct real y-zeros of  q(y) = x_poly(y^2).

    Each x-root above NODE_GUARD contributes a symmetric pair of
    y-zeros; any root in the window (-NODE_GUARD, NODE_GUARD] contributes
    the single zero y = 0.  Both counts come from one square-free part
    (exactnum.count_real_roots).
    """
    if x_poly.is_zero:
        raise ValueError("node count of the zero polynomial")
    window, above = count_real_roots(x_poly, (-NODE_GUARD, NODE_GUARD, inf))
    return 2 * above + (1 if window else 0)


def eigenvectors_y(spectrum: AlgebraicSpectrum):
    """Gauge the x-doublets back to two-component functions of y.

    top(y) = p_top(y^2);  bottom(y) = k0 p_top'(x)|_{x=y^2} + p_bottom(y^2);
    the shared factor exp(-y^4/4) is implicit.  Node counts are skipped
    (None) for levels with multiplicity > 1.
    """
    pairs = eigenvectors(spectrum)
    k0 = spectrum.spec.k0

    def component_nodes(x_poly):
        return None if x_poly.is_zero else y_node_count(x_poly)

    out = []
    for pair in pairs:
        subspace = len(pair.doublets)
        for top, bottom in pair.doublets:
            bottom_x = top.derivative() * k0 + bottom
            top_y = even_poly(top, "y")
            bottom_y = even_poly(bottom_x, "y")
            simple = pair.level.multiplicity == 1 and not pair.defective
            nodes = (
                (component_nodes(top), component_nodes(bottom_x))
                if simple
                else None
            )
            out.append(
                YEigenfunction(
                    level=pair.level,
                    top_y=top_y,
                    bottom_y=bottom_y,
                    nodes=nodes,
                    subspace_dim=subspace,
                )
            )
    return out


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    n: int
    rows: tuple  # (c: Fraction, values: tuple of 2n floats ascending)

    def abs_branches(self):
        """(c, |E| n-tuple) per row: the upper half of the spectrum, which
        is symmetric under E -> -E, so the n magnitudes ascending."""
        return [(c, values[self.n:]) for c, values in self.rows]


def sweep(n: int, c_min, c_max, steps: int) -> SweepResult:
    """The algebraic spectrum at `steps` >= 2 evenly spaced rational
    couplings from c_min to c_max, both included: one row (c, values) per
    coupling, the 2n levels with multiplicity ascending, each a double
    that prints correctly rounded to PRINT_DIGITS digits (_levels).

    Every row evaluates q(mu) = det(mu - BC) at its c, from one block
    form.  When 2 steps >= n + 3, q is taken once over Q[c] and each row
    evaluates its coefficients; below that, each row takes q of BC at its
    c.  One q over Q[c] costs n + n(n + 1)/2 integer determinants, and q
    at one c costs n, so the rule picks the route with fewer.  Evaluation
    is a ring map and commutes with det, so both routes give the same q,
    and the same rows, at every c."""
    if steps < 2:
        raise ValueError("need at least two sweep steps")
    c_min = Fraction(c_min)
    c_max = Fraction(c_max)
    bc = block_form(n).bc
    q = _mu_char_poly(bc) if 2 * steps >= n + 3 else None
    rows = []
    for k in range(steps):
        c = c_min + (c_max - c_min) * Fraction(k, steps - 1)
        at_c = _mu_char_poly(specialize(bc, c)) if q is None else specialize(q, c)
        rows.append((c, _values(_levels(at_c))))
    return SweepResult(n=n, rows=tuple(rows))


def format_sig(value: float) -> str:
    return "%.*g" % (PRINT_DIGITS, float(value))


def write_csv(fh, column: str, rows):
    """Write (c, values) rows to `fh` as CSV under the header
    c,<column>_1,...; every number has 12 significant digits."""
    width = len(rows[0][1])
    lines = ["c," + ",".join(f"{column}_{i}" for i in range(1, width + 1))]
    for c, values in rows:
        lines.append(
            ",".join([format_sig(float(c))] + [format_sig(v) for v in values])
        )
    fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# exact level-collision locus
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DegeneracyResult:
    c_star: float
    gap: float
    lower_level: int  # 1-indexed in the ascending full spectrum
    upper_level: int
    levels: tuple


def _collision_locus(q: ParamPoly) -> ParamPoly:
    """(-1)^n q(0) disc(q) = (-1)^(n(n+1)/2) q(0) res(q, q') for q monic of degree n:
    det [s_(i+j+1)] over the power sums of its roots r, as V^T diag(r) V, V = (r_k^i)."""
    n, s = q.degree, power_sums(q, 2 * q.degree - 1)
    return ParamPoly.one("c") * ExactMatrix([[s[i + j + 1] for j in range(n)] for i in range(n)]).det()


def find_degeneracy(n: int, c_min, c_max) -> DegeneracyResult:
    """The first exact level collision strictly inside (c_min, c_max).

    The levels are E = +-sqrt(mu) over the roots mu of q(mu) = det(mu - BC),
    symbolic in c.  Two levels meet exactly where a mu-root doubles or
    where mu = 0 joins +E and -E; c* is the smallest real root of the
    collision locus q(0) disc(q) (_collision_locus) strictly inside the
    bracket.  real_roots isolates the roots once, and each root's exact
    comparison with c_min and c_max (Root.compare) decides whether it
    lies inside.  The gap and levels are the exact spectrum at c* (at
    its float value, within one ulp of c* and itself a rational, when c*
    is irrational), whose levels come from q evaluated there: one
    restriction and one characteristic polynomial in all.

    Raises NoDegeneracyError when no collision lies inside the bracket.
    """
    c_min = Fraction(c_min)
    c_max = Fraction(c_max)
    if not c_min < c_max:
        raise ValueError("empty coupling bracket")
    q = _mu_char_poly(block_form(n).bc)
    locus = _collision_locus(q)
    if locus.is_zero:
        raise SpectralError("levels collide at every coupling")
    # a root at c_min or at c_max is not inside
    inside = [
        r for r in real_roots(locus) if r.compare(c_min) > 0 and r.compare(c_max) < 0
    ]
    if not inside:
        raise NoDegeneracyError(f"no level collision inside ({c_min}, {c_max})")
    root = inside[0]
    c_star = Fraction(root.value) if root.exact is None else root.exact
    values = _values(_levels(specialize(q, c_star)))
    gaps = [b - a for a, b in zip(values, values[1:])]
    idx = min(range(len(gaps)), key=gaps.__getitem__)
    return DegeneracyResult(
        c_star=float(c_star),
        gap=gaps[idx],
        lower_level=idx + 1,
        upper_level=idx + 2,
        levels=tuple(values),
    )


def hamiltonian_leakage_reports(n_max: int):
    """Invariance certificates: h preserves its doublet for every n,
    symbolic in the coupling."""
    reports = []
    for n in range(2, n_max + 1):
        spec = HamiltonianSpec(n, ParamPoly.gen(K0_VAR))
        leaks = leakage(build_hamiltonian_gauged(spec), spec.module)
        reports.append(doublet_report("30", (("n", n),), leaks))
    return reports


# ----------------------------------------------------------------------
# parity / reflection certificate
# ----------------------------------------------------------------------

def reflection_check(n: int):
    """Certify S M S = -M for the restricted matrix, symbolic in k0,
    where S carries (-1)^degree on monomials and opposite block signs:
    the parity split leaves no stray same-parity entry, which is the
    residual otherwise.  Corollary, checked independently on the
    characteristic polynomial of the full 2n x 2n matrix (not on the
    block product BC; ExactMatrix.char_poly over Q[k0]): its odd part in
    lam is the zero polynomial over Q[k0].
    """
    spec = HamiltonianSpec(n, ParamPoly.gen(K0_VAR))
    matrix = restrict(build_hamiltonian_gauged(spec), spec.module).matrix
    _, _, stray = _parity_split(matrix, spec.module)
    cp = matrix.char_poly("lam")
    odd = ParamPoly("lam", [c if p % 2 else 0 for p, c in enumerate(cp.coeffs)])
    fields = (("n", n), ("delta", 2))
    return [relation_report(t, fields, r) for t, r in (("33", stray), ("33EVEN", odd))]


# ----------------------------------------------------------------------
# finite-difference cross-check
# ----------------------------------------------------------------------

# the coarsest grid and the narrowest box numeric_crosscheck accepts
FD_MIN_GRID = 200
FD_MIN_BOX = 3.0
# block inverse iteration runs at the algebraic level t itself, which is
# O(h^2) from its FD eigenvalues, so each pass damps every other
# eigencomponent by O(h^2 / gap).  Passes stop once the block residual is
# within FD_CONVERGED_ULPS u ||A||_inf (measured: at most 10 passes for
# n = 2..6, grids 200-1600, c in [0, 4]).  Only a block that has not
# converged after FD_MAX_PASSES passes (a coarse grid, or levels closer
# than the FD error) moves on to its Rayleigh quotient: a shift that near
# an eigenvalue leaves tiny pivots near the eigenvector's nodes in the
# unpivoted block LDL^T, and the solves there keep less of their
# backward stability (residuals at 36-90 u ||A||_inf for n = 6, grid
# 800, c = 3, where the shift t gives 4)
FD_CONVERGED_ULPS = 4
FD_MAX_PASSES = 16
# a Ritz residual ||A v - theta v|| may reach this many units of
# u ||A||_inf (measured: at most 7.3 over 514 cases, n = 2..8, grids
# 200-1600, boxes 3-8, c in [-17/8, 20])
FD_RESIDUAL_ULPS = 64
# the inertia window around a level t reaches twice as far from t as its
# farthest matched Ritz value, plus the residual and this many units of
# u ||A||_inf.  The block LDL^T count is only reliable away from an
# eigenvalue (it flips back and forth within 1e-9, 300 u ||A||_inf, of
# one at n = 7, grid 200, c = 21/4), so no edge sits next to a matched one
FD_WINDOW_ULPS = 64


@dataclass(frozen=True)
class CrosscheckRow:
    algebraic: float
    numeric: float
    diff: float


@dataclass(frozen=True)
class CrosscheckResult:
    spec: HamiltonianSpec
    grid_points: int
    box_half_width: float
    rows: tuple
    max_diff: float
    boundary_amplitude: float
    # the matched FD eigenvectors, column i for rows[i], unit norm, on the
    # interleaved grid (entry 2i + ch is channel ch at y_i)
    vectors: np.ndarray = field(repr=False, compare=False)


def _fd_band(spec: HamiltonianSpec, m: int, h: float) -> np.ndarray:
    """Lower band, band[k, j] = A[j+k, j], of the interleaved FD matrix A.

    Row 2i + ch is channel ch at y_i: the kinetic term couples y_i to
    y_(i+1) at offset 2, the coupling c joins the two channels of one
    point at offset 1.
    """
    ys = h * (np.arange(1, m + 1) - 0.5)
    inv_h2 = 1.0 / (h * h)
    band = np.zeros((3, 2 * m))
    for ch in (0, 1):
        potential = ys**6 + float(spec.channel_y2_coeff(ch)) * ys**2
        band[0, ch::2] = 2.0 * inv_h2 + potential
    # even reflection across the origin: the ghost value at -h/2 equals
    # the value at +h/2
    band[0, :2] -= inv_h2
    band[1, 0::2] = float(spec.c_spec)
    band[2, :-2] = -inv_h2
    return band


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for the symmetric matrix A held as a lower band."""
    y = band[0][:, None] * x
    for k in range(1, len(band)):
        off = band[k, :-k][:, None]
        y[k:] += off * x[:-k]
        y[:-k] += off * x[k:]
    return y


def _block_ldl(band: np.ndarray, sigma: float):
    """Block LDL^T of A - sigma I for the interleaved FD band of _fd_band.

    A is block tridiagonal in the 2 x 2 blocks of one grid point: the
    diagonal blocks D_i join the two channels of y_i (band[1] is zero at
    odd columns), and the off-diagonal blocks B_i = diag(band[2, 2i],
    band[2, 2i+1]) join y_i to y_(i+1).  The pivots are
    S_i = D_i - sigma I - B_(i-1) S_(i-1)^-1 B_(i-1), run on Python floats.
    Returns their inverses, as the lists (P, Q, R) of the entries
    S_i^-1 = [[P_i, Q_i], [Q_i, R_i]], and the number of negative pivot
    eigenvalues, which by Sylvester's law of inertia is the number of
    eigenvalues of A below sigma.  A singular pivot raises SpectralError.
    """
    diag, sub, off = band.tolist()
    g0, g1 = [0.0] + off[0:-2:2], [0.0] + off[1:-2:2]
    inv_p, inv_q, inv_r = [], [], []
    p = q = r = 0.0
    negatives = 0
    for a, c, d, b0, b1 in zip(diag[0::2], sub[0::2], diag[1::2], g0, g1):
        a -= sigma + b0 * b0 * p
        c -= b0 * b1 * q
        d -= sigma + b1 * b1 * r
        det = a * d - c * c
        if det < 0.0:
            negatives += 1
        elif det > 0.0:
            negatives += 2 if a < 0.0 else 0
        else:
            raise SpectralError(f"singular FD pivot at shift {sigma!r}")
        p, q, r = d / det, -c / det, a / det
        inv_p.append(p)
        inv_q.append(q)
        inv_r.append(r)
    return (inv_p, inv_q, inv_r), negatives


def _block_solve(
    band: np.ndarray, sigma: float, pivots, rhs: np.ndarray
) -> np.ndarray:
    """X with (A - sigma I) X = rhs, for the pivot inverses `pivots` of
    _block_ldl(band, sigma): block forward substitution with the unit
    factor L (L_(i+1,i) = B_i S_i^-1) and the pivots, back substitution
    with L^T, and one step of iterative refinement.  The factorization
    does not pivot, so where the shooting solution at sigma has a node
    near a grid point a pivot is tiny and the backward error of one
    substitution grows (to about 480 u ||A|| at n = 6, grid 800, c = 3);
    the refinement step brings it back to about u ||A||."""
    inv_p, inv_q, inv_r = pivots
    off = band[2].tolist()
    g0, g1 = [0.0] + off[0:-2:2], [0.0] + off[1:-2:2]

    def substitute(b: np.ndarray) -> np.ndarray:
        out = []
        for col in b.T.tolist():
            # forward: y_i = S_i^-1 (b_i - B_(i-1) y_(i-1))
            y0s, y1s = [], []
            y0 = y1 = 0.0
            for f0, f1, b0, b1, p, q, r in zip(
                col[0::2], col[1::2], g0, g1, inv_p, inv_q, inv_r
            ):
                z0 = f0 - b0 * y0
                z1 = f1 - b1 * y1
                y0 = p * z0 + q * z1
                y1 = q * z0 + r * z1
                y0s.append(y0)
                y1s.append(y1)
            # back: x_i = y_i - S_i^-1 B_i x_(i+1), from the last point down
            x = []
            x0 = x1 = 0.0
            for y0, y1, p, q, r, b0, b1 in zip(
                *map(reversed, (y0s, y1s, inv_p, inv_q, inv_r, off[0::2], off[1::2]))
            ):
                u0 = b0 * x0
                u1 = b1 * x1
                x0 = y0 - (p * u0 + q * u1)
                x1 = y1 - (q * u0 + r * u1)
                x += (x1, x0)
            out.append(x[::-1])
        return np.array(out).T

    x = substitute(rhs)
    return x + substitute(rhs - _band_matvec(band, x) + sigma * x)


def _inverse_iteration(
    band: np.ndarray, shift: float, x: np.ndarray, done: np.ndarray, tol: float
) -> np.ndarray:
    """Block inverse iteration from the start columns x, kept orthogonal
    to the orthonormal columns `done` and, by a QR after each pass, to one
    another.  It runs FD_MAX_PASSES passes at most with one block LDL^T of
    A - shift I, and as many again at the block's Rayleigh quotient if the
    residual ||A X - X (X^T A X)|| has not fallen to tol by then; it
    returns the orthonormal block either way."""
    for _ in range(2):
        pivots = _block_ldl(band, shift)[0]
        for _ in range(FD_MAX_PASSES):
            y = _block_solve(band, shift, pivots, x)
            x = np.linalg.qr(y - done @ (done.T @ y))[0]
            ax = _band_matvec(band, x)
            rayleigh = x.T @ ax
            if np.linalg.norm(ax - x @ rayleigh) <= tol:
                return x
        shift = float(np.trace(rayleigh)) / len(rayleigh)
    return x


def numeric_crosscheck(
    spec: HamiltonianSpec,
    grid_points: int = 800,
    box_half_width: float = 4.5,
) -> CrosscheckResult:
    """Discretize the physical two-channel operator and match levels.

    The potential is even in y and every algebraic eigenfunction is a
    polynomial in y^2 times exp(-y^4/4), so the whole algebraic block
    lives in the even-parity sector.  The solver therefore discretizes
    the half-line with a cell-centered uniform grid (y_i = (i-1/2)h,
    h = box/grid_points): second-order central differences, reflective
    stencil across y = 0, Dirichlet wall at the outer edge.  The
    symmetric (2 grid_points)^2 matrix A is block tridiagonal in 2 x 2
    blocks, one per grid point, and is kept as a band.  Only the FD
    eigenvectors nearest the algebraic levels are computed, by block
    inverse iteration on Python floats (_inverse_iteration): for each
    level t of multiplicity k, in ascending order, k hashed start columns at
    the shift t, kept orthogonal to the vectors of the levels before it,
    so each level takes the nearest eigenvectors no earlier level took.  A
    Rayleigh-Ritz step on the span of all 2n columns gives the numeric
    levels as Ritz values, each algebraic level greedily matched to the
    nearest unused one.  A Ritz residual beyond FD_RESIDUAL_ULPS u ||A||
    raises SpectralError.  So does an inertia count: the FD eigenvalues
    in a window around t that reaches twice as far as t's matched Ritz
    values (FD_WINDOW_ULPS), counted by two block LDL^T factorizations
    at its edges (_block_ldl), must be exactly the computed ones there.
    That certifies that no FD eigenvalue left uncomputed is nearer to t
    than its matched ones, so the matching is the greedy one over the
    whole FD spectrum.  The boundary amplitude of the matched
    eigenvectors certifies the box is wide enough.
    """
    if grid_points < FD_MIN_GRID:
        raise ValueError(f"need at least {FD_MIN_GRID} grid points")
    if not FD_MIN_BOX <= box_half_width < np.inf:
        raise ValueError(f"need a finite box half-width >= {FD_MIN_BOX}")

    spectrum = algebraic_spectrum(spec)
    band = _fd_band(spec, grid_points, box_half_width / grid_points)
    dim = band.shape[1]
    ulp = np.finfo(float).eps * _band_matvec(np.abs(band), np.ones((dim, 1))).max()
    # each level takes the FD eigenvectors nearest to it that no level
    # before it took, as the greedy matching below does; this keeps two
    # levels closer than the FD error from converging to one vector.  The
    # starts hash their entry index, so every run repeats bit for bit
    q = np.zeros((dim, 0))
    for level in spectrum.levels:
        i = np.arange(q.size, q.size + dim * level.multiplicity, dtype=np.uint64)
        start = (i * 2654435761 % 2**32 / 2**32 - 0.5).reshape(dim, -1)
        x = _inverse_iteration(band, float(level.value), start, q, FD_CONVERGED_ULPS * ulp)
        q = np.hstack([q, x])
    q, _ = np.linalg.qr(q)
    aq = _band_matvec(band, q)
    ritz, w = np.linalg.eigh(q.T @ aq)
    vecs = q @ w
    residuals = np.linalg.norm(aq @ w - vecs * ritz, axis=0)
    if not residuals.max() <= FD_RESIDUAL_ULPS * ulp:
        raise SpectralError(
            f"FD eigenvectors did not converge: residual {residuals.max():.3g} "
            f"(bound {FD_RESIDUAL_ULPS * ulp:.3g})"
        )
    cols = []
    for target in spectrum.values:
        nearest = np.argsort(np.abs(ritz - target))
        cols.append(next(int(i) for i in nearest if int(i) not in cols))
    # the 2n Ritz values lie within the norm of the residual block, at
    # most its Frobenius norm, of 2n distinct FD eigenvalues (Kahan)
    residual_norm = float(np.linalg.norm(residuals))
    start = 0
    for level in spectrum.levels:
        t, k = float(level.value), level.multiplicity
        reach = np.abs(ritz[cols[start : start + k]] - t).max()
        start += k
        radius = 2 * reach + residual_norm + FD_WINDOW_ULPS * ulp
        # every FD eigenvalue within radius of t must be a computed one,
        # and no Ritz value may sit within its residual of an edge
        dist = np.abs(ritz - t)
        inside = int(np.sum(dist < radius))
        count = _block_ldl(band, t + radius)[1] - _block_ldl(band, t - radius)[1]
        if count != inside or np.any(np.abs(dist - radius) <= residual_norm):
            raise SpectralError(
                f"FD inertia count {count} within {radius:.3g} of the level "
                f"{t!r}, not the {inside} computed FD eigenvalues there"
            )
    # the Ritz values, accurate to their residuals, are the numeric levels
    rows = tuple(
        CrosscheckRow(
            algebraic=float(target),
            numeric=float(level),
            diff=abs(float(level) - float(target)),
        )
        for target, level in zip(spectrum.values, ritz[cols])
    )
    vectors = vecs[:, cols]
    amps = np.max(np.abs(vectors[-2:]), axis=0) / np.max(np.abs(vectors), axis=0)
    return CrosscheckResult(
        spec=spec,
        grid_points=grid_points,
        box_half_width=box_half_width,
        rows=rows,
        max_diff=max(r.diff for r in rows),
        boundary_amplitude=float(amps.max()),
        vectors=vectors,
    )
