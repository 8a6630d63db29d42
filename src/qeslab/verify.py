"""Exact verification suites for the operator-family relations.

Every check computes a normal-ordered residual (left side minus the
expected right side) and reports holds/fails by exact zero-ness; there
are no tolerances anywhere in this module.  Every relation family and
the gap-4 scan read their operators from one
``generators.generator_set``.  The families whose coefficients are
polynomial in n (sl(2), the tensor relations, and at gap 2 the triplets,
the identities and the q(2) table) run once per gap on the set at
n = ``ParamPoly.gen("n")``; ``specialize_reports`` reads their reports
off at each integer n.  The checks that need a concrete module (leakage,
the OSP22 projection, the q(2) matrix shadow) run on one set per
(n, gap) point.  The q(2) checks and the gap-4 scan spell their mix as
one ``generators.MixSpec``.  The scan reads every sign matrix and every
grid coupling off one ``generators.mix_expansion``, the projected
anticommutators as polynomials in the mix parameters, which also serves
the gap-2 mix discovery.  Fault injection perturbs a single named generator
coefficient there, so the sensitivity of every family can be
demonstrated with one switch.

Reports are ``weyl.RelationReport`` records, whose lines follow the wire
format

    EQ<tag> n=<n> delta=<d> [alpha=<a>] [beta=<b>] [extras] status=<holds|fails>
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from qeslab.exactnum import ParamPoly
from qeslab.generators import (
    ANTICOMM_METRIC,
    DEFAULT_MIX,
    SIGN_MATRICES,
    GeneratorSet,
    MixSpec,
    QUINTET_GAP,
    TRIPLET_GAP,
    check_fault,
    fault_names,
    generator_set,
    mix_expansion,
)
from qeslab.weyl import (
    DiffOp,
    MatOp,
    RelationReport,
    Span,
    anticommutator,
    anticommutator_residuals,
    commutator,
    doublet_report,
    failures,  # re-exported: callers read verify.failures
    leakage,
    project_span,
    relation_report,
    restrict,
    specialize,
)


# ----------------------------------------------------------------------
# block-diagonal relations
# ----------------------------------------------------------------------

def verify_sl2(gens: GeneratorSet):
    """The three even-triple commutators plus charge-operator centrality."""
    tp, t0, tm = gens.tees
    j = gens.named["J"]
    base = [("n", gens.params.n), ("delta", gens.params.delta)]
    reports = [
        relation_report("4", base + [("which", "pm")], commutator(tp, tm) + t0 * 2),
        relation_report("4", base + [("which", "zp")], commutator(t0, tp) - tp),
        relation_report("4", base + [("which", "zm")], commutator(t0, tm) + tm),
        relation_report("4J", base + [("which", "p")], commutator(j, tp)),
        relation_report("4J", base + [("which", "z")], commutator(j, t0)),
        relation_report("4J", base + [("which", "m")], commutator(j, tm)),
    ]
    return reports


def leakage_reports(gens: GeneratorSet):
    """EQ2: every generator preserves its doublet (empty leakage, found
    without building its matrix)."""
    n, delta, module = gens.params.n, gens.params.delta, gens.params.module
    return [
        doublet_report(
            "2", (("n", n), ("delta", delta), ("which", name)), leakage(op, module)
        )
        for name, op in gens.named.items()
    ]


# ----------------------------------------------------------------------
# mixed (even-odd) tower relations
# ----------------------------------------------------------------------

def verify_tensor(gens: GeneratorSet):
    """Commutators of the even operators with both odd towers.

    The raising-with-up-tower relation (tag 11) is checked against the
    closed form found by computation, (1-alpha) * up[alpha-1]; the form
    is printed in the report so its stability is auditable.  The gap-1
    projections, whose printed coefficients depend on n, are
    ``osp22_reports``.
    """
    n, delta = gens.params.n, gens.params.delta
    q, qbar = gens.q, gens.qbar
    tp, t0, tm = gens.tees
    j = gens.named["J"]
    half_delta = Fraction(delta, 2)
    reports = []
    for a in range(1, delta + 2):
        down, up = q(a), qbar(a)
        relations = [
            ("8", [], commutator(tp, down)
             - q(a + 1) * Fraction(-(1 - a + delta))),
            ("9", [], commutator(t0, down) - down * (-(1 - a + half_delta))),
            ("10", [], commutator(tm, down) - q(a - 1) * Fraction(a - 1)),
            ("11", [("form", "(1-alpha)*up(alpha-1)")], commutator(tp, up)
             - qbar(a - 1) * Fraction(1 - a)),
            ("12", [], commutator(t0, up) - up * (1 - a + half_delta)),
            ("13", [], commutator(tm, up)
             - qbar(a + 1) * Fraction(1 - a + delta)),
            ("14", [("which", "down")], commutator(j, down) - down * (-half_delta)),
            ("14", [("which", "up")], commutator(j, up) - up * half_delta),
        ]
        base = [("n", n), ("delta", delta), ("alpha", a)]
        reports += [
            relation_report(tag, base + extra, r) for tag, extra, r in relations
        ]
    return reports


def osp22_reports(gens: GeneratorSet):
    """Gap 1: mixed anticommutators close linearly in the even span."""
    basis_named = [("1", MatOp.identity())]
    basis_named += [(name, gens.named[name]) for name in ("T+", "T0", "T-", "J")]
    even_span = Span(op for _, op in basis_named)
    reports = []
    for a in (1, 2):
        for b in (1, 2):
            acom = anticommutator(gens.q(a), gens.qbar(b))
            coeffs, residual = project_span(acom, even_span)
            span = ",".join(
                f"{name}:{coeff}" for (name, _), coeff in zip(basis_named, coeffs)
            )
            fields = (
                ("n", gens.params.n), ("delta", 1), ("alpha", a), ("beta", b),
                ("span", span),
            )
            reports.append(relation_report("OSP22", fields, residual))
    return reports


# ----------------------------------------------------------------------
# gap-2 structures
# ----------------------------------------------------------------------

def verify_triplets(gens: GeneratorSet):
    """Spin-1 transformation law of the three gap-2 triplets."""
    tees, qbar, pp = gens.triplets
    towers = [("QBAR", qbar), ("P", pp), ("T", tees)]
    laws = [
        (1, lambda V, a: V[a - 2] * Fraction(1 - a) if a >= 2 else MatOp.zero()),
        (2, lambda V, a: V[a - 1] * Fraction(2 - a)),
        (3, lambda V, a: V[a] * Fraction(3 - a) if a <= 2 else MatOp.zero()),
    ]
    reports = []
    for which, tower in towers:
        for a in (1, 2, 3):
            for b, expect in laws:
                residual = commutator(tees[b - 1], tower[a - 1]) - expect(tower, a)
                reports.append(
                    relation_report(
                        "15",
                        [
                            ("n", gens.params.n),
                            ("delta", 2),
                            ("alpha", a),
                            ("beta", b),
                            ("which", which),
                        ],
                        residual,
                    )
                )
    return reports


def verify_identities(gens: GeneratorSet):
    """Scalar intertwining identities behind the gap-2 closure.

    Read off the gap-2 generators: j_b(n-2) and j_b(n) are the top and
    bottom entries of T_b, p_a = x^(3-a) is the entry of P_a, and w_a
    the differential word of QBAR_a:

        j_b(n) p_a - p_a j_b(n-2)   = (b-a) p_(a+b-2)
        j_b(n-2) w_a - w_a j_b(n)   = (b-a) w_(a+b-2)

    Corner targets (a+b-2 = 0 or 4) occur only at b = a where the
    coefficient vanishes; the computed left side is reported (it
    vanishes identically).
    """
    tees, qbar, pees = gens.triplets
    top = {b: t[0][0] for b, t in enumerate(tees, 1)}
    bottom = {b: t[1][1] for b, t in enumerate(tees, 1)}
    p_ops = {a: p[1][0] for a, p in enumerate(pees, 1)}
    words = {a: q[0][1] for a, q in enumerate(qbar, 1)}
    reports = []
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            target = a + b - 2
            in_range = 1 <= target <= 3
            extras = [] if in_range else [("note", "lhs-vanishes")]
            base = [("n", gens.params.n), ("delta", 2), ("alpha", a), ("beta", b)]
            base += extras
            lhs22 = bottom[b] * p_ops[a] - p_ops[a] * top[b]
            rhs22 = p_ops[target] * Fraction(b - a) if in_range else DiffOp.zero()
            reports.append(relation_report("22", base, lhs22 - rhs22))
            lhs23 = top[b] * words[a] - words[a] * bottom[b]
            rhs23 = words[target] * Fraction(b - a) if in_range else DiffOp.zero()
            reports.append(relation_report("23", base, lhs23 - rhs23))
    return reports


Q2_PAIRS = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3))


def _metric(a: int, b: int) -> Fraction:
    return ANTICOMM_METRIC.get((a, b), Fraction(0))


def _q2_residuals(n, effs, tees, sigma):
    """Residuals of {F_a, F_b} = n^2 metric(a, b) 1 over Q2_PAIRS, then
    of {F_a, sigma} = 2 T_a: on operators or on their matrices."""
    nn = n * n
    anti = {
        (a, b): anticommutator(effs[a - 1], effs[b - 1])
        for a, b in Q2_PAIRS
        if a <= b
    }
    residuals = [
        anti[min(a, b), max(a, b)].scaled_identity_added(-nn * _metric(a, b))
        for a, b in Q2_PAIRS
    ]
    return residuals + [anticommutator(f, sigma) - t * 2 for f, t in zip(effs, tees)]


def verify_q2(gens: GeneratorSet):
    """The closed superalgebra table for the gap-2 triplet mixed by
    DEFAULT_MIX.

    Checks, exactly: the full 3x3 anticommutator table against
    n^2 * ANTICOMM_METRIC, the pairing of the mixed triplet with
    diag(1,-1) back onto the even triple, and the involution square.
    """
    n = gens.params.n
    effs = gens.mixed(DEFAULT_MIX)
    sigma = MatOp.sigma3()
    residuals = _q2_residuals(n, effs, gens.tees, sigma)
    base = [("n", n), ("delta", 2)]
    reports = [
        relation_report(
            "19", base + [("alpha", a), ("beta", b), ("metric", _metric(a, b))], r
        )
        for (a, b), r in zip(Q2_PAIRS, residuals)
    ]
    reports += [
        relation_report("25", base + [("alpha", a)], r)
        for a, r in zip((1, 2, 3), residuals[len(Q2_PAIRS):])
    ]
    reports.append(
        relation_report("26", base, anticommutator(sigma, sigma) - MatOp.identity() * 2)
    )
    return reports


def verify_q2_matrix(gens: GeneratorSet):
    """Shadow of the superalgebra table on the restricted matrices.

    The same relations as ``verify_q2``, on the exact matrices of the
    same mixed triplet acting on the doublet basis.  If an operator
    leaks out of the doublet (a fault can make it), there is no matrix
    to check: every line fails, with the leakage as its residual.
    """
    n = gens.params.n
    module = gens.params.module
    effs = gens.mixed(DEFAULT_MIX)
    restricted = [restrict(op, module) for op in effs + gens.tees]
    base = (("n", n), ("delta", 2))
    fields = [base + (("alpha", a), ("beta", b)) for a, b in Q2_PAIRS]
    fields += [base + (("alpha", a), ("which", "sigma")) for a in (1, 2, 3)]
    leakage = tuple(term for r in restricted for term in r.leakage)
    if leakage:
        return [doublet_report("19SHADOW", f, leakage) for f in fields]
    mats = [r.matrix for r in restricted]
    sigma = restrict(MatOp.sigma3(), module).matrix
    residuals = _q2_residuals(n, mats[:3], mats[3:], sigma)
    return [relation_report("19SHADOW", f, r) for f, r in zip(fields, residuals)]


# ----------------------------------------------------------------------
# gap-4 obstruction scan
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionReport:
    """Residual content of the mixed-quintet anticommutators at one
    sample point; a zero norm would certify a closing combination."""

    mix: MixSpec
    residual_quadratic_norm: int
    worst_pair: tuple

    def line(self) -> str:
        return (
            f"point {self.mix.label()} "
            f"residual_quadratic_norm={self.residual_quadratic_norm} "
            f"worst_pair={self.worst_pair[0]}{self.worst_pair[1]}"
        )


def default_scan_grid():
    return tuple(Fraction(k, 4) for k in range(-12, 13))


def _span_basis(tees):
    """Independent basis of degree-<=1 words in the even operators,
    graded by the diagonal involution: {1, s3, T_a, s3 T_a}.  The
    charge operator lies in span{1, s3} and is therefore implied."""
    sigma = MatOp.sigma3()
    basis = [MatOp.identity(), sigma]
    for t in tees:
        basis.append(t)
        basis.append(sigma * t)
    return basis


def _report(mix: MixSpec, norms: dict) -> ObstructionReport:
    """The report of per-pair quadratic term counts `norms` at `mix`: their
    total, and the first pair with the largest count."""
    return ObstructionReport(mix, sum(norms.values()), max(norms, key=norms.get))


def _scan_setup(n: int):
    """The gap-4 generator set at n and the degree-<=1 span onto which
    its anticommutators are projected."""
    if n < QUINTET_GAP:
        raise ValueError(
            f"the gap-4 scan needs n >= {QUINTET_GAP}, so that P(n - 4) exists; got n={n}"
        )
    gens = generator_set(n, QUINTET_GAP)
    return gens, Span(_span_basis(gens.tees))


def _rational_roots(a0: int, a1: int, a2: int) -> set:
    """The distinct rational roots of a0 + a1 c + a2 c^2, not identically
    zero, as ``Fraction.as_integer_ratio`` pairs: at most two, from the
    discriminant by ``math.isqrt``, and a double root once."""
    if a2:
        disc = a1 * a1 - 4 * a2 * a0
        root = math.isqrt(disc) if disc >= 0 else -1
        if root * root != disc:
            return set()
        ratios = ((-a1 - root, 2 * a2), (-a1 + root, 2 * a2))
    elif a1:
        ratios = ((-a0, a1),)
    else:
        return set()
    reduced = set()
    for p, q in ratios:
        g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
        reduced.add((p // g, q // g))
    return reduced


def _obstruction_reports(quadratics: dict, d_top, d_bottom):
    """The reports at every c of ``default_scan_grid`` for the sign matrix
    diag(d_top, d_bottom), from `quadratics`, per pair the int triples
    (a0, a1, a2) of its residual terms a0 + a1 c + a2 c^2 with i + j >= 2,
    none identically zero.  A pair's count at c is its number of terms
    less the number of them that have c as a rational root."""
    grid = default_scan_grid()
    index = {c.as_integer_ratio(): k for k, c in enumerate(grid)}
    counts = {}
    for pair, terms in quadratics.items():
        row = counts[pair] = [len(terms)] * len(grid)
        for t in terms:
            for root in _rational_roots(*t):
                if root in index:
                    row[index[root]] -= 1
    return [
        _report(MixSpec(c, d_top, d_bottom), {pair: row[k] for pair, row in counts.items()})
        for k, c in enumerate(grid)
    ]


def scan_point(n: int, mix: MixSpec) -> ObstructionReport:
    """Exact residual analysis of one rational mix at gap 4: the
    anticommutators of ``GeneratorSet.mixed(mix)`` projected directly,
    and per pair the number of residual terms with i + j >= 2."""
    gens, span = _scan_setup(n)
    residuals = anticommutator_residuals(gens.mixed(mix), span)
    return _report(mix, {
        pair: sum(1 for entry in residual.nums for i, j in entry if i + j >= 2)
        for pair, (_, residual) in residuals.items()
    })


def delta4_scan(n: int = 6):
    """Grid certificate for the gap-4 obstruction.

    ``generators.mix_expansion`` projects the fifteen unordered
    anticommutators onto the degree-<=1 span once, over Q, as
    polynomials in (c, d_top, d_bottom).  Per sign matrix each quadratic
    residual term (i + j >= 2) is read off it as a polynomial of degree
    <= 2 in c, and ``_obstruction_reports`` counts the terms that are
    nonzero at each c of ``default_scan_grid`` from their rational
    roots.  Every report should have a positive residual norm; a zero
    would be a counterexample to the no-closure claim.
    """
    gens, span = _scan_setup(n)
    expansion = mix_expansion(gens, span)
    reports = []
    for d_top, d_bottom in SIGN_MATRICES:
        quadratics = {
            pair: [t for row in rows for (i, j), t in row.items() if i + j >= 2]
            for pair, (_, _, rows) in expansion.in_c(d_top, d_bottom).items()
        }
        reports += _obstruction_reports(quadratics, d_top, d_bottom)
    return reports


# ----------------------------------------------------------------------
# the default suite
# ----------------------------------------------------------------------

def specialize_reports(reports, n: int):
    """`reports` of a family run at symbolic n, as they read at the
    integer n: a residual that is zero in Q[n] holds at every n, and any
    other is specialized at n."""
    value = Fraction(n)
    out = []
    for report in reports:
        fields = tuple((key, n if key == "n" else v) for key, v in report.fields)
        if report.holds:
            out.append(RelationReport(report.tag, fields, True))
        else:
            residual = specialize(report.residual, value)
            out.append(relation_report(report.tag, fields, residual))
    return out


def default_suite(
    n_max: int = 12,
    delta_max: int = 4,
    inject_fault: str | None = None,
):
    """Every relation suite over the (n, gap) box, as one report list.

    Per gap, the families polynomial in n run once on the symbolic-n
    generator set, and their reports are read off at each n; the checks
    on a concrete module run on one generator set per (n, gap) point.
    The injected fault is applied at every gap where its generator
    exists.
    """
    fault = check_fault(inject_fault, delta_max)
    reports = []
    for delta in range(1, min(delta_max, n_max) + 1):
        at_gap = fault if fault in fault_names(delta) else None
        symbolic = generator_set(ParamPoly.gen("n"), delta, at_gap)
        even = verify_sl2(symbolic) + verify_tensor(symbolic)
        if delta == TRIPLET_GAP:
            triplet = verify_triplets(symbolic) + verify_identities(symbolic)
            triplet += verify_q2(symbolic)
        for n in range(delta, n_max + 1):
            gens = generator_set(n, delta, at_gap)
            reports.extend(specialize_reports(even, n))
            if delta == 1:
                reports.extend(osp22_reports(gens))
            reports.extend(leakage_reports(gens))
            if delta == TRIPLET_GAP:
                reports.extend(specialize_reports(triplet, n))
                reports.extend(verify_q2_matrix(gens))
    return reports
