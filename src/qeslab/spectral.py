"""The coupled sextic operator pair: spectra, eigenvectors, cross-checks.

The physical operator acts on two-component wavefunctions of y:

    H = -d^2/dy^2 1 + y^6 1 + (1-4n) y^2 1 - 4 y^2 s3 + c s1,  c = -4 n k0.

A similarity transformation combined with x = y^2 turns it into a
matrix differential operator h that preserves P(n) (+) P(n-2) exactly;
its restricted 2n x 2n matrix gives the algebraic part of the spectrum
as exact characteristic-polynomial roots.  This module builds both
forms, extracts spectra and eigenvectors (with node counts in y),
sweeps the coupling, certifies the parity symmetry that puts the
restricted matrix in the block form [[0, B], [C, 0]], computes every
spectral quantity from det(mu - BC) with mu = E^2 (so the spectrum is
even under E -> -E by construction), locates the exact level-collision
locus, and cross-checks everything against a finite-difference
discretization of the physical operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qeslab.exactnum import (
    ExactMatrix,
    ParamPoly,
    Root,
    cauchy_bound,
    real_roots,
    resultant,
    sign_variations,
    square_free_part,
    sturm_sequence,
)
from qeslab.verify import RelationReport, doublet_report
from qeslab.weyl import (
    DiffOp,
    MatOp,
    ModuleSpec,
    RestrictedMatrix,
    restrict,
)


class SpectralError(RuntimeError):
    """Construction or invariant failure in the spectral pipeline."""


class NoDegeneracyError(SpectralError):
    """The gap minimizer sits on the bracket boundary."""


K0_VAR = "k0"


@dataclass(frozen=True)
class HamiltonianSpec:
    """Degree n >= 2 and the coupling parameter of the operator pair."""

    n: int
    k0: Fraction

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2 so both components are nonempty")
        object.__setattr__(self, "k0", Fraction(self.k0))

    @property
    def c_spec(self) -> Fraction:
        return -4 * self.n * self.k0

    @classmethod
    def from_c(cls, n: int, c) -> "HamiltonianSpec":
        return cls(n, Fraction(c) / (-4 * n))

    @property
    def module(self) -> ModuleSpec:
        return ModuleSpec(self.n, self.n - 2)


# ----------------------------------------------------------------------
# the two operator forms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RawHamiltonian:
    """-d^2/dy^2 plus a polynomial 2x2 potential, kept as coefficients."""

    n: int
    k0: Fraction

    @property
    def coupling(self) -> Fraction:
        return -4 * self.n * self.k0

    def channel_y2_coeff(self, channel: int) -> Fraction:
        sign = -4 if channel == 0 else 4
        return Fraction(1 - 4 * self.n + sign)

    def potential_matrix(self, y):
        """Exact 2x2 potential at a rational (or float) ordinate."""
        y2 = y * y
        y6 = y2 * y2 * y2
        top = y6 + self.channel_y2_coeff(0) * y2
        bottom = y6 + self.channel_y2_coeff(1) * y2
        off = self.coupling
        return ((top, off), (off, bottom))


def build_hamiltonian_raw(spec: HamiltonianSpec) -> RawHamiltonian:
    return RawHamiltonian(n=spec.n, k0=spec.k0)


def build_hamiltonian_gauged(spec: HamiltonianSpec, symbolic: bool = False) -> MatOp:
    """The polynomial-space form h on P(n) (+) P(n-2).

    h = -(4x d^2 + 2d) 1 - 4n k0^2 d s3
        + 4 diag(x^2 d - n x, x^2 d - (n-2) x)
        + 4 k0 [[0, -n], [(1 + k0^2 n) d^2, 0]]

    With ``symbolic`` the coupling k0 stays a formal parameter and every
    matrix entry lives in Q[k0].
    """
    n = spec.n
    k0 = ParamPoly.gen(K0_VAR) if symbolic else spec.k0
    kinetic = DiffOp({(1, 2): -4, (0, 1): -2})
    drift = DiffOp({(0, 1): k0 * k0 * (-4 * n)})
    top = kinetic + drift + DiffOp({(2, 1): 4, (1, 0): -4 * n})
    bottom = kinetic - drift + DiffOp({(2, 1): 4, (1, 0): -4 * (n - 2)})
    upper = DiffOp({(0, 0): k0 * (-4 * n)})
    lower = DiffOp({(0, 2): (k0 * k0 * k0 * n + k0) * 4})
    return MatOp(((top, upper), (lower, bottom)))


def restricted_hamiltonian(
    spec: HamiltonianSpec, symbolic: bool = False
) -> RestrictedMatrix:
    result = restrict(build_hamiltonian_gauged(spec, symbolic), spec.module)
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
        return ExactMatrix([[matrix[i][j] for j in cols] for i in rows])

    stray = ExactMatrix(
        [
            [e if si == sj else 0 for e, sj in zip(row, signs)]
            for row, si in zip(matrix.entries, signs)
        ]
    )
    return block(even, odd), block(odd, even), stray


def _parity_blocks(restricted: RestrictedMatrix):
    """(B, C) of M = [[0, B], [C, 0]].  Raises SpectralError if M has a
    nonzero same-parity entry."""
    b, c, stray = _parity_split(restricted.matrix, restricted.module)
    if not stray.is_zero:
        raise SpectralError("restricted matrix is not odd under parity")
    return b, c


def _mu_char_poly(restricted: RestrictedMatrix) -> ParamPoly:
    """q(mu) = det(mu - BC); the characteristic polynomial of
    M = [[0, B], [C, 0]] is det(lam^2 - BC) = q(lam^2)."""
    b, c = _parity_blocks(restricted)
    return (b * c).char_poly("mu")


def _even_poly(poly: ParamPoly, var: str) -> ParamPoly:
    """p(t) -> p(var^2) as a polynomial in `var`."""
    coeffs = []
    for c in poly.coeffs:
        coeffs.append(c)
        coeffs.append(0)
    return ParamPoly(var, coeffs[:-1] if coeffs else ())


def _symbolic_mu_poly(n: int, variable: str) -> ParamPoly:
    """q(mu) with coefficients in Q[k0] or, substituting k0 = -c/(4n),
    in Q[c]."""
    if variable not in (K0_VAR, "c"):
        raise ValueError("variable must be 'k0' or 'c'")
    spec = HamiltonianSpec(n, Fraction(0))
    q = _mu_char_poly(restricted_hamiltonian(spec, symbolic=True))
    if variable == K0_VAR:
        return q
    c_sub = ParamPoly.gen("c") * Fraction(-1, 4 * n)
    return q.map_coeffs(
        lambda coeff: coeff(c_sub) if isinstance(coeff, ParamPoly) else coeff
    )


def symbolic_char_poly(n: int, variable: str = "c") -> ParamPoly:
    """Characteristic polynomial in lam, coefficients in Q[k0] or Q[c].

    The c-form substitutes k0 = -c/(4n), matching the coupling constant
    used for spectra and sweeps.
    """
    return _even_poly(_symbolic_mu_poly(n, variable), "lam")


# ----------------------------------------------------------------------
# algebraic spectrum
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraicSpectrum:
    spec: HamiltonianSpec
    char_poly: ParamPoly
    levels: tuple

    @property
    def values(self):
        """All 2n levels with multiplicity, ascending."""
        out = []
        for lv in self.levels:
            out.extend([lv.value] * lv.multiplicity)
        return out


def algebraic_spectrum(spec: HamiltonianSpec) -> AlgebraicSpectrum:
    """Exact characteristic polynomial and its certified-real roots."""
    cp = _even_poly(_mu_char_poly(restricted_hamiltonian(spec)), "lam")
    levels = tuple(real_roots(cp))
    # cp has degree 2n: its real roots account for every root only if
    # none is complex
    if sum(lv.multiplicity for lv in levels) != 2 * spec.n:
        raise SpectralError("characteristic polynomial has nonreal roots")
    return AlgebraicSpectrum(spec=spec, char_poly=cp, levels=levels)


# ----------------------------------------------------------------------
# eigenvectors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EigenPair:
    """One level with a basis of eigenvector doublets (p_top, p_bottom),
    polynomials in x with exact or float coefficients."""

    level: Root
    doublets: tuple
    exact_coeffs: bool
    defective: bool = False


def _split_doublet(vector, module: ModuleSpec):
    top = ParamPoly("x", vector[: module.top_degree + 1])
    bottom = ParamPoly("x", vector[module.top_degree + 1 :])
    return top, bottom


def _normalize_doublet(top: ParamPoly, bottom: ParamPoly):
    """Scale so the highest-degree nonzero top coefficient is +1
    (falling back to the bottom component for top-zero vectors)."""
    for poly in (top, bottom):
        if not poly.is_zero:
            inv = Fraction(1) / poly.leading()
            return top * inv, bottom * inv
    raise SpectralError("zero eigenvector")


def _adjugate_column(terms, mu, j: int):
    """Column j of adj(mu - A) = sum_k mu^(n-1-k) N_k, by Horner in mu,
    for the Faddeev-LeVerrier matrices N_k of A."""
    column = [0] * terms[0].rows
    for term in terms:
        column = [acc * mu + row[j] for acc, row in zip(column, term.entries)]
    return column


def eigenvectors(spec: HamiltonianSpec, spectrum: AlgebraicSpectrum = None):
    """Eigenvector doublets per level: exact kernels at rational levels
    (defective ones flagged).  An irrational level E must be simple, else
    SpectralError; it is nonzero.  With E the rational value of its float
    and mu = E^2, the largest column u of adj(mu - BC) spans the kernel of
    mu - BC and w = C u / E completes the vector.  A float pre-pass picks
    the column, which alone is evaluated exactly; the normalized doublet
    is rounded to floats once."""
    if spectrum is None:
        spectrum = algebraic_spectrum(spec)
    restricted = restricted_hamiltonian(spec)
    module = restricted.module
    matrix = restricted.matrix
    b, c = _parity_blocks(restricted)
    terms = (b * c).faddeev_leverrier()[1]
    float_terms = [term.map_entries(float) for term in terms]
    pairs = []
    for level in spectrum.levels:
        if level.exact is not None:
            shifted = matrix.scaled_identity_added(-level.exact)
            kernel = shifted.nullspace()
            doublets = tuple(
                _normalize_doublet(*_split_doublet(list(vec), module))
                for vec in kernel
            )
            pairs.append(
                EigenPair(
                    level=level,
                    doublets=doublets,
                    exact_coeffs=True,
                    defective=len(kernel) < level.multiplicity,
                )
            )
            continue
        if level.multiplicity > 1:
            raise SpectralError(f"repeated irrational level {level.value!r}")
        e = Fraction(level.value)
        mu = e * e
        j = max(
            range(b.rows),
            key=lambda j: sum(
                x * x for x in _adjugate_column(float_terms, float(mu), j)
            ),
        )
        u = _adjugate_column(terms, mu, j)
        w = [row[0] / e for row in (c * ExactMatrix([[x] for x in u])).entries]
        parts = {1: iter(u), -1: iter(w)}
        vector = [next(parts[sign]) for sign in _parity_signs(module)]
        top, bottom = _normalize_doublet(*_split_doublet(vector, module))
        doublet = (top.map_coeffs(float), bottom.map_coeffs(float))
        pairs.append(EigenPair(level=level, doublets=(doublet,), exact_coeffs=False))
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


def _exactify(poly: ParamPoly) -> ParamPoly:
    return ParamPoly(
        poly.var,
        [c if isinstance(c, Fraction) else Fraction(float(c)) for c in poly.coeffs],
    )


# x-roots within this distance of 0 count as the single y-zero y = 0
NODE_GUARD = Fraction(1, 10**9)


def y_node_count(x_poly: ParamPoly) -> int:
    """Distinct real y-zeros of  q(y) = x_poly(y^2).

    Each x-root above NODE_GUARD contributes a symmetric pair of
    y-zeros; a root inside the guard window around zero contributes the
    single zero y = 0.  Float coefficients are embedded exactly first.
    """
    poly = _exactify(x_poly)
    if poly.is_zero:
        raise ValueError("node count of the zero polynomial")
    if poly.degree == 0:
        return 0
    bound = max(cauchy_bound(poly), NODE_GUARD * 2)
    chain = sturm_sequence(square_free_part(poly))
    below, above, at_bound = (
        sign_variations(chain, x) for x in (-NODE_GUARD, NODE_GUARD, bound)
    )
    return 2 * (above - at_bound) + (1 if below > above else 0)


def eigenvectors_y(spec: HamiltonianSpec, spectrum: AlgebraicSpectrum = None):
    """Gauge the x-doublets back to two-component functions of y.

    top(y) = p_top(y^2);  bottom(y) = k0 p_top'(x)|_{x=y^2} + p_bottom(y^2);
    the shared factor exp(-y^4/4) is implicit.  Node counts are skipped
    (None) for levels with multiplicity > 1.
    """
    pairs = eigenvectors(spec, spectrum)
    k0 = spec.k0

    def component_nodes(x_poly):
        return None if x_poly.is_zero else y_node_count(x_poly)

    out = []
    for pair in pairs:
        subspace = len(pair.doublets)
        for top, bottom in pair.doublets:
            bottom_x = top.derivative() * k0 + bottom
            top_y = _even_poly(top, "y")
            bottom_y = _even_poly(bottom_x, "y")
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
        """|E| branch triples (or n-tuples) per row: the distinct
        magnitudes of the symmetric spectrum, ascending."""
        out = []
        for c, values in self.rows:
            mags = sorted({abs(v) for v in values})
            out.append((c, tuple(mags)))
        return out


def sweep(n: int, c_min, c_max, steps: int) -> SweepResult:
    if steps < 2:
        raise ValueError("need at least two sweep steps")
    c_min = Fraction(c_min)
    c_max = Fraction(c_max)
    rows = []
    for k in range(steps):
        c = c_min + (c_max - c_min) * Fraction(k, steps - 1)
        spectrum = algebraic_spectrum(HamiltonianSpec.from_c(n, c))
        rows.append((c, tuple(spectrum.values)))
    return SweepResult(n=n, rows=tuple(rows))


def format_sig(value: float) -> str:
    return "%.12g" % float(value)


def csv_text(column: str, rows) -> str:
    """CSV of (c, values) rows under the header c,<column>_1,...; every
    number has 12 significant digits."""
    width = len(rows[0][1])
    lines = ["c," + ",".join(f"{column}_{i}" for i in range(1, width + 1))]
    for c, values in rows:
        lines.append(
            ",".join([format_sig(float(c))] + [format_sig(v) for v in values])
        )
    return "\n".join(lines) + "\n"


def write_csv(result: SweepResult, path: str):
    with open(path, "w", newline="") as fh:
        fh.write(csv_text("E", result.rows))


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


def find_degeneracy(n: int, c_min, c_max) -> DegeneracyResult:
    """The first exact level collision strictly inside (c_min, c_max).

    The levels are E = +-sqrt(mu) over the roots mu of q(mu) = det(mu - BC),
    symbolic in c.  Two levels meet exactly where a mu-root doubles,
    res_mu(q, q') = 0, or where mu = 0 joins +E and -E, q(0) = 0; c* is
    the smallest real root of q(0) * res_mu(q, q') inside the bracket.
    The gap and levels are the exact spectrum at c* (at its float value,
    itself a rational, when c* is irrational).

    Raises NoDegeneracyError when no collision lies inside the bracket.
    """
    c_min = Fraction(c_min)
    c_max = Fraction(c_max)
    if not c_min < c_max:
        raise ValueError("empty coupling bracket")
    q = _symbolic_mu_poly(n, "c")
    locus = ParamPoly.one("c") * q.constant() * resultant(q, q.derivative())
    if locus.is_zero:
        raise SpectralError("levels collide at every coupling")
    inside = [
        root
        for root in real_roots(locus)
        if c_min < (root.value if root.exact is None else root.exact) < c_max
    ]
    if not inside:
        raise NoDegeneracyError(f"no level collision inside ({c_min}, {c_max})")
    root = inside[0]
    c_star = Fraction(root.value) if root.exact is None else root.exact
    values = algebraic_spectrum(HamiltonianSpec.from_c(n, c_star)).values
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
        spec = HamiltonianSpec(n, Fraction(0))
        result = restrict(build_hamiltonian_gauged(spec, symbolic=True), spec.module)
        reports.append(doublet_report("30", (("n", n),), result.leakage))
    return reports


# ----------------------------------------------------------------------
# parity / reflection certificate
# ----------------------------------------------------------------------

def y4_hook(spec: HamiltonianSpec, symbolic: bool = False) -> MatOp:
    """Gauged form of an added quartic confining term.

    In x-space the extra term is multiplication by x^2 conjugated by
    the similarity transformation: [[x^2, 0], [-2 k0 x, x^2]].  It
    spoils both the doublet invariance and the parity pattern; it
    exists purely as a negative-test hook.
    """
    k0 = ParamPoly.gen(K0_VAR) if symbolic else spec.k0
    x2 = DiffOp.x(2)
    return MatOp(((x2, DiffOp.zero()), (DiffOp({(1, 0): k0 * (-2)}), x2)))


def reflection_check(n: int, with_y4_hook: bool = False):
    """Certify S M S = -M for the restricted matrix, symbolic in k0,
    where S carries (-1)^degree on monomials and opposite block signs:
    the parity split leaves no stray same-parity entry, which is the
    residual otherwise.  Corollary, checked independently on the full
    2n x 2n Faddeev-LeVerrier polynomial: every odd characteristic
    coefficient is the zero polynomial in Q[k0].  The quartic hook (when
    enabled) breaks the pattern, so its report says so.
    """
    spec = HamiltonianSpec(n, Fraction(0))
    op = build_hamiltonian_gauged(spec, symbolic=True)
    if with_y4_hook:
        op = op + y4_hook(spec, symbolic=True)
    matrix = restrict(op, spec.module).matrix
    _, _, stray = _parity_split(matrix, spec.module)
    anti_ok = stray.is_zero
    tag_fields = [("n", n), ("delta", 2)]
    if with_y4_hook:
        tag_fields.append(("hook", "y4"))
    reports = [
        RelationReport(
            tag="33",
            fields=tuple(tag_fields),
            holds=anti_ok,
            residual=None if anti_ok else stray,
        )
    ]
    if not with_y4_hook:
        cp = matrix.char_poly("lam")
        odd = [cp.coeff(p) for p in range(1, cp.degree + 1, 2)]
        even_ok = all(
            (not c) if isinstance(c, Fraction) else c.is_zero for c in odd
        )
        reports.append(
            RelationReport(
                tag="33EVEN",
                fields=(("n", n), ("delta", 2)),
                holds=even_ok,
                residual=None if even_ok else odd,
            )
        )
    return reports


# ----------------------------------------------------------------------
# finite-difference cross-check
# ----------------------------------------------------------------------

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
    symmetric (2 grid_points)^2 matrix is diagonalized densely and each
    algebraic level is greedily matched to the nearest unused numeric
    one.  The boundary amplitude of the matched eigenvectors certifies
    the box is wide enough.
    """
    if grid_points < 200:
        raise ValueError("need at least 200 grid points")
    if box_half_width < 3.0:
        raise ValueError("box too small for the confining tail")
    raw = build_hamiltonian_raw(spec)
    spectrum = algebraic_spectrum(spec)
    m = grid_points
    h = box_half_width / m
    ys = h * (np.arange(1, m + 1) - 0.5)
    inv_h2 = 1.0 / (h * h)
    dim = 2 * m
    fd = np.zeros((dim, dim))
    coupling = float(raw.coupling)
    ch_coeffs = (float(raw.channel_y2_coeff(0)), float(raw.channel_y2_coeff(1)))
    for ch in (0, 1):
        idx = 2 * np.arange(m) + ch
        potential = ys**6 + ch_coeffs[ch] * ys**2
        fd[idx, idx] = 2.0 * inv_h2 + potential
        # even reflection across the origin: the ghost value at -h/2
        # equals the value at +h/2
        fd[idx[0], idx[0]] -= inv_h2
        fd[idx[:-1], idx[1:]] = -inv_h2
        fd[idx[1:], idx[:-1]] = -inv_h2
    even = 2 * np.arange(m)
    fd[even, even + 1] = coupling
    fd[even + 1, even] = coupling
    evals, evecs = np.linalg.eigh(fd)
    rows = []
    used = set()
    boundary = 0.0
    for target in spectrum.values:
        order = np.argsort(np.abs(evals - target))
        pick = next(int(i) for i in order if int(i) not in used)
        used.add(pick)
        rows.append(
            CrosscheckRow(
                algebraic=float(target),
                numeric=float(evals[pick]),
                diff=abs(float(evals[pick]) - float(target)),
            )
        )
        vec = evecs[:, pick]
        amp = np.max(np.abs(vec[[-2, -1]])) / np.max(np.abs(vec))
        boundary = max(boundary, float(amp))
    return CrosscheckResult(
        spec=spec,
        grid_points=grid_points,
        box_half_width=box_half_width,
        rows=tuple(rows),
        max_diff=max(r.diff for r in rows),
        boundary_amplitude=boundary,
    )
