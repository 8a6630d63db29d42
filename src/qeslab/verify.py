"""Exact verification suites for the operator-family relations.

Every check computes a normal-ordered residual (left side minus the
expected right side) and reports holds/fails by exact zero-ness; there
are no tolerances anywhere in this module.  A small fault-injection
hook perturbs a single named generator coefficient so the sensitivity
of the suite itself can be demonstrated.

Report lines follow the wire format

    EQ<tag> n=<n> delta=<d> [alpha=<a>] [beta=<b>] [extras] status=<holds|fails>
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from qeslab.exactnum import ParamPoly
from qeslab.generators import (
    ANTICOMM_METRIC,
    AlgebraParams,
    DEFAULT_MIX,
    FermionicSet,
    MixSpec,
    SIGN_MATRICES,
    bosonic_gens,
    fermionic_gens,
    lowering_word,
    mixed_multiplet,
    odd_multiplets,
    quintet_S,
    sl2_gens,
    t_triplet,
    triplet_F,
)
from qeslab.weyl import (
    DiffOp,
    MatOp,
    Span,
    anticommutator,
    anticommutator_residuals,
    commutator,
    project_span,
    restrict,
)


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


def _report(tag, fields, residual) -> RelationReport:
    holds = residual.is_zero
    return RelationReport(
        tag=tag,
        fields=tuple((k, v) for k, v in fields),
        holds=holds,
        residual=None if holds else residual,
    )


# ----------------------------------------------------------------------
# generator construction with optional fault injection
# ----------------------------------------------------------------------

def perturb(op: MatOp) -> MatOp:
    """Bump one coefficient of the first nonzero entry by +1."""
    rows = [list(r) for r in op.entries]
    for r in (0, 1):
        for c in (0, 1):
            entry = rows[r][c]
            if entry.terms:
                rows[r][c] = entry + DiffOp({max(entry.terms): 1})
                return MatOp(rows)
    rows[0][0] = rows[0][0] + DiffOp.one()
    return MatOp(rows)


def _named_gens(params: AlgebraParams, fault: str | None):
    """All generators keyed by fault-injection name."""
    b = bosonic_gens(params)
    f = fermionic_gens(params)
    named = {
        "T+": b.raise_op,
        "T0": b.cartan_op,
        "T-": b.lower_op,
        "J": b.charge_op,
    }
    for a in range(1, params.delta + 2):
        named[f"Q{a}"] = f.to_bottom[a]
        named[f"QBAR{a}"] = f.to_top[a]
    if fault is not None:
        fault = fault.upper()
        if fault not in named:
            raise ValueError(
                f"unknown fault target {fault!r}; options: {sorted(named)}"
            )
        named[fault] = perturb(named[fault])
    return named


def _towers(named, params):
    down = {
        a: named[f"Q{a}"] for a in range(1, params.delta + 2)
    }
    up = {
        a: named[f"QBAR{a}"] for a in range(1, params.delta + 2)
    }
    return FermionicSet(params=params, to_bottom=down, to_top=up)


# ----------------------------------------------------------------------
# block-diagonal relations
# ----------------------------------------------------------------------

def verify_sl2(n: int, delta: int, fault: str | None = None):
    """The three even-triple commutators plus charge-operator centrality."""
    params = AlgebraParams(n, delta)
    g = _named_gens(params, fault)
    tp, t0, tm, j = g["T+"], g["T0"], g["T-"], g["J"]
    base = [("n", n), ("delta", delta)]
    reports = [
        _report("4", base + [("which", "pm")], commutator(tp, tm) + t0 * 2),
        _report("4", base + [("which", "zp")], commutator(t0, tp) - tp),
        _report("4", base + [("which", "zm")], commutator(t0, tm) + tm),
        _report("4J", base + [("which", "p")], commutator(j, tp)),
        _report("4J", base + [("which", "z")], commutator(j, t0)),
        _report("4J", base + [("which", "m")], commutator(j, tm)),
    ]
    return reports


def leakage_reports(n: int, delta: int, fault: str | None = None):
    """EQ2: every generator preserves its doublet (empty leakage)."""
    params = AlgebraParams(n, delta)
    g = _named_gens(params, fault)
    reports = []
    for name, op in g.items():
        restricted = restrict(op, params.module)
        reports.append(
            RelationReport(
                tag="2",
                fields=(("n", n), ("delta", delta), ("which", name)),
                holds=restricted.leakage_free,
                residual=None if restricted.leakage_free else restricted.leakage,
            )
        )
    return reports


# ----------------------------------------------------------------------
# mixed (even-odd) tower relations
# ----------------------------------------------------------------------

def verify_tensor(n: int, delta: int, fault: str | None = None):
    """Commutators of the even operators with both odd towers.

    The raising-with-up-tower relation (tag 11) is checked against the
    closed form found by computation, (1-alpha) * up[alpha-1]; the form
    is printed in the report so its stability is auditable.
    """
    params = AlgebraParams(n, delta)
    g = _named_gens(params, fault)
    f = _towers(g, params)
    tp, t0, tm, j = g["T+"], g["T0"], g["T-"], g["J"]
    half_delta = Fraction(delta, 2)
    reports = []
    for a in range(1, delta + 2):
        down = f.to_bottom[a]
        up = f.to_top[a]
        base = [("n", n), ("delta", delta), ("alpha", a)]
        reports.append(
            _report(
                "8",
                base,
                commutator(tp, down)
                - f.to_bottom_or_zero(a + 1) * Fraction(-(1 - a + delta)),
            )
        )
        reports.append(
            _report(
                "9",
                base,
                commutator(t0, down) - down * (-(1 - a + half_delta)),
            )
        )
        reports.append(
            _report(
                "10",
                base,
                commutator(tm, down) - f.to_bottom_or_zero(a - 1) * Fraction(a - 1),
            )
        )
        reports.append(
            _report(
                "11",
                base + [("form", "(1-alpha)*up(alpha-1)")],
                commutator(tp, up) - f.to_top_or_zero(a - 1) * Fraction(1 - a),
            )
        )
        reports.append(
            _report(
                "12",
                base,
                commutator(t0, up) - up * (1 - a + half_delta),
            )
        )
        reports.append(
            _report(
                "13",
                base,
                commutator(tm, up) - f.to_top_or_zero(a + 1) * Fraction(1 - a + delta),
            )
        )
        reports.append(
            _report(
                "14",
                base + [("which", "down")],
                commutator(j, down) - down * (-half_delta),
            )
        )
        reports.append(
            _report(
                "14",
                base + [("which", "up")],
                commutator(j, up) - up * half_delta,
            )
        )
    if delta == 1:
        reports.extend(_osp22_reports(n, g, f))
    return reports


def _osp22_reports(n: int, g, f: FermionicSet):
    """Gap 1: mixed anticommutators close linearly in the even span."""
    basis_named = [
        ("1", MatOp.identity()),
        ("T+", g["T+"]),
        ("T0", g["T0"]),
        ("T-", g["T-"]),
        ("J", g["J"]),
    ]
    even_span = Span(op for _, op in basis_named)
    reports = []
    for a in (1, 2):
        for b in (1, 2):
            acom = anticommutator(f.to_bottom[a], f.to_top[b])
            coeffs, residual = project_span(acom, even_span)
            span = ",".join(
                f"{name}:{coeff}" for (name, _), coeff in zip(basis_named, coeffs)
            )
            fields = (
                ("n", n), ("delta", 1), ("alpha", a), ("beta", b), ("span", span)
            )
            reports.append(_report("OSP22", fields, residual))
    return reports


# ----------------------------------------------------------------------
# gap-2 structures
# ----------------------------------------------------------------------

def _triplet_towers(n: int, fault: str | None):
    """(T, Qbar, P) triplets built from the fault-injected generators."""
    params = AlgebraParams(n, 2)
    g = _named_gens(params, fault)
    return (g["T+"], g["T0"], g["T-"]), *odd_multiplets(_towers(g, params))


def verify_triplets(n: int, fault: str | None = None):
    """Spin-1 transformation law of the three gap-2 triplets."""
    tees, qbar, pp = _triplet_towers(n, fault)
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
                    _report(
                        "15",
                        [
                            ("n", n),
                            ("delta", 2),
                            ("alpha", a),
                            ("beta", b),
                            ("which", which),
                        ],
                        residual,
                    )
                )
    return reports


def verify_identities(n: int):
    """Scalar intertwining identities behind the gap-2 closure.

    With j_1, j_2, j_3 the raising/Cartan/lowering triple and
    p_a = x^(3-a), w_a the differential tower words:

        j_b(n) p_a - p_a j_b(n-2)   = (b-a) p_(a+b-2)
        j_b(n-2) w_a - w_a j_b(n)   = (b-a) w_(a+b-2)

    Corner targets (a+b-2 = 0 or 4) occur only at b = a where the
    coefficient vanishes; the computed left side is reported (it
    vanishes identically).
    """
    if n < 2:
        raise ValueError("need n >= 2 for the gap-2 doublet")
    jays = {}
    for m in (n, n - 2):
        raising, cartan, lowering = sl2_gens(m)
        jays[m] = {1: raising, 2: cartan, 3: lowering}
    p_ops = {a: DiffOp.x(3 - a) if a < 3 else DiffOp.one() for a in (1, 2, 3)}
    words = {a: lowering_word(n, 2, a) for a in (1, 2, 3)}
    reports = []
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            target = a + b - 2
            in_range = 1 <= target <= 3
            extras = [] if in_range else [("note", "lhs-vanishes")]
            base = [("n", n), ("delta", 2), ("alpha", a), ("beta", b)] + extras
            lhs22 = jays[n][b] * p_ops[a] - p_ops[a] * jays[n - 2][b]
            rhs22 = p_ops[target] * Fraction(b - a) if in_range else DiffOp.zero()
            reports.append(_report("22", base, lhs22 - rhs22))
            lhs23 = jays[n - 2][b] * words[a] - words[a] * jays[n][b]
            rhs23 = words[target] * Fraction(b - a) if in_range else DiffOp.zero()
            reports.append(_report("23", base, lhs23 - rhs23))
    return reports


def verify_q2(n: int, mix: MixSpec | None = None, fault: str | None = None):
    """The closed superalgebra table for the mixed gap-2 triplet.

    Checks, exactly: the full 3x3 anticommutator table against
    n^2 * ANTICOMM_METRIC, the pairing of the mixed triplet with
    diag(1,-1) back onto the even triple, and the involution square.
    """
    if mix is None:
        mix = DEFAULT_MIX
    tees, qbar, pees = _triplet_towers(n, fault)
    effs = mixed_multiplet(qbar, pees, tees, mix.c_mix, mix.d_mat())
    table = anticommutator_residuals(effs, Span([MatOp.identity()]))
    sigma = MatOp.sigma3()
    reports = []
    nn = Fraction(n * n)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            gamma = ANTICOMM_METRIC.get((a, b), Fraction(0))
            # {F_a, F_b} - n^2 gamma 1, from its projection onto the scalars
            (scalar,), off_span = table[min(a, b), max(a, b)]
            residual = off_span + MatOp.scalar(scalar - nn * gamma)
            reports.append(
                _report(
                    "19",
                    [
                        ("n", n),
                        ("delta", 2),
                        ("alpha", a),
                        ("beta", b),
                        ("metric", gamma),
                    ],
                    residual,
                )
            )
    for a in (1, 2, 3):
        reports.append(
            _report(
                "25",
                [("n", n), ("delta", 2), ("alpha", a)],
                anticommutator(effs[a - 1], sigma) - tees[a - 1] * 2,
            )
        )
    reports.append(
        _report(
            "26",
            [("n", n), ("delta", 2)],
            anticommutator(sigma, sigma) - MatOp.identity() * 2,
        )
    )
    return reports


def verify_q2_matrix(n: int, mix: MixSpec | None = None):
    """Shadow of the superalgebra table on the restricted matrices.

    The same relations as ``verify_q2``, but checked on the exact
    matrices of the operators acting on the doublet basis.
    """
    if mix is None:
        mix = DEFAULT_MIX
    params = AlgebraParams(n, 2)
    module = params.module
    effs = [restrict(op, module) for op in triplet_F(params, mix)]
    tees = [restrict(op, module) for op in t_triplet(params)]
    sigma = restrict(MatOp.sigma3(), module)
    for r in effs + tees + [sigma]:
        if not r.leakage_free:
            raise ValueError("shadow check needs leakage-free operators")
    reports = []
    nn = Fraction(n * n)
    anti = {
        (a, b): anticommutator(effs[a - 1].matrix, effs[b - 1].matrix)
        for a in (1, 2, 3)
        for b in range(a, 4)
    }
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            gamma = ANTICOMM_METRIC.get((a, b), Fraction(0))
            residual = anti[min(a, b), max(a, b)].scaled_identity_added(
                -nn * gamma
            )
            fields = (("n", n), ("delta", 2), ("alpha", a), ("beta", b))
            reports.append(_report("19SHADOW", fields, residual))
    for a in (1, 2, 3):
        residual = (
            anticommutator(effs[a - 1].matrix, sigma.matrix)
            - tees[a - 1].matrix * 2
        )
        fields = (("n", n), ("delta", 2), ("alpha", a), ("which", "sigma"))
        reports.append(_report("19SHADOW", fields, residual))
    return reports


# ----------------------------------------------------------------------
# gap-4 obstruction scan
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionReport:
    """Residual content of the mixed-quintet anticommutators at one
    sample point; a zero norm would certify a closing combination."""

    c_mix: Fraction
    d_top: Fraction
    d_bottom: Fraction
    residual_quadratic_norm: int
    worst_pair: tuple

    def line(self) -> str:
        return (
            f"point c={self.c_mix} d=diag({self.d_top},{self.d_bottom}) "
            f"residual_quadratic_norm={self.residual_quadratic_norm} "
            f"worst_pair={self.worst_pair[0]}{self.worst_pair[1]}"
        )


def _quadratic_norm(op: MatOp) -> int:
    return sum(
        1
        for row in op.entries
        for entry in row
        for (i, j), coeff in entry.terms.items()
        if i + j >= 2 and coeff
    )


def default_scan_grid():
    return tuple(Fraction(k, 4) for k in range(-12, 13))


def _span_basis(params: AlgebraParams):
    """Independent basis of degree-<=1 words in the even operators,
    graded by the diagonal involution: {1, s3, T_a, s3 T_a}.  The
    charge operator lies in span{1, s3} and is therefore implied."""
    tees = t_triplet(params)
    sigma = MatOp.sigma3()
    basis = [MatOp.identity(), sigma]
    for t in tees:
        basis.append(t)
        basis.append(sigma * t)
    return basis


def _quintet_parts(n: int):
    """Odd towers, even quintet and projection span of the gap-4 scan."""
    params = AlgebraParams(n, 4)
    qbar, pees = odd_multiplets(fermionic_gens(params))
    return qbar, pees, quintet_S(params), Span(_span_basis(params))


def _obstruction_report(residuals, c_mix, d_top, d_bottom):
    """Total quadratic norm and first worst pair of the projection
    residuals, evaluated at c = c_mix where they are symbolic in c."""
    total = 0
    worst = ((1, 1), -1)
    for pair, (_, residual) in residuals.items():
        norm = _quadratic_norm(residual.eval_param(c_mix))
        total += norm
        if norm > worst[1]:
            worst = (pair, norm)
    return ObstructionReport(
        c_mix=c_mix,
        d_top=d_top,
        d_bottom=d_bottom,
        residual_quadratic_norm=total,
        worst_pair=worst[0],
    )


def scan_point(n: int, c_mix, d_top, d_bottom) -> ObstructionReport:
    """Exact residual analysis of one (c, d) sample at gap 4."""
    qbar, pees, quintet, span = _quintet_parts(n)
    c_mix, d_top, d_bottom = map(Fraction, (c_mix, d_top, d_bottom))
    effs = mixed_multiplet(
        qbar, pees, quintet, c_mix, MatOp.diag(d_top, d_bottom)
    )
    return _obstruction_report(
        anticommutator_residuals(effs, span), c_mix, d_top, d_bottom
    )


def delta4_scan(n: int = 6, c_values=None):
    """Grid certificate for the gap-4 obstruction.

    For each sign matrix the mix constant is kept symbolic, the fifteen
    unordered anticommutators are normal-ordered once, projected onto
    the degree-<=1 span with an exact linear solve, and the symbolic
    residuals are then evaluated on the grid.  Every report should have
    a positive residual norm; a zero would be a counterexample to the
    no-closure claim.
    """
    if c_values is None:
        c_values = default_scan_grid()
    qbar, pees, quintet, span = _quintet_parts(n)
    c_sym = ParamPoly.gen("c")
    reports = []
    for d_top, d_bottom in SIGN_MATRICES:
        effs = mixed_multiplet(
            qbar, pees, quintet, c_sym, MatOp.diag(d_top, d_bottom)
        )
        residuals = anticommutator_residuals(effs, span)
        for c_val in map(Fraction, c_values):
            reports.append(
                _obstruction_report(residuals, c_val, d_top, d_bottom)
            )
    return reports


# ----------------------------------------------------------------------
# the default suite
# ----------------------------------------------------------------------

def default_suite(
    n_max: int = 12,
    delta_max: int = 4,
    mix: MixSpec | None = None,
    inject_fault: str | None = None,
):
    """Every relation suite over the (n, gap) box, as one report list."""
    reports = []
    for delta in range(1, delta_max + 1):
        for n in range(delta, n_max + 1):
            reports.extend(verify_sl2(n, delta, inject_fault))
            reports.extend(verify_tensor(n, delta, inject_fault))
            reports.extend(leakage_reports(n, delta, inject_fault))
            if delta == 2:
                reports.extend(verify_triplets(n, inject_fault))
                reports.extend(verify_identities(n))
                reports.extend(verify_q2(n, mix, inject_fault))
                reports.extend(verify_q2_matrix(n, mix))
    return reports


def failures(reports):
    return [r for r in reports if not r.holds]
