"""Operator layer: normal ordering, matrix operators, module restriction."""

import random
from fractions import Fraction

import pytest

from qeslab import exactnum, weyl
from qeslab.exactnum import ExactMatrix, ParamPoly
from qeslab.weyl import (
    DiffOp,
    MatOp,
    ModuleSpec,
    Span,
    anticommutator,
    commutator,
    project_span,
    restrict,
    x_monomial,
)

F = Fraction


def rand_poly(rng, max_degree=6):
    return ParamPoly(
        "x",
        [F(rng.randint(-9, 9), rng.randint(1, 9))
         for _ in range(rng.randint(0, max_degree) + 1)],
    )


def rand_diffop(rng, max_pow=3, terms=4):
    d = {}
    for _ in range(rng.randint(1, terms)):
        key = (rng.randint(0, max_pow), rng.randint(0, max_pow))
        d[key] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return DiffOp(d)


def test_basic_relation_between_generators():
    x = DiffOp.x()
    d = DiffOp.d()
    assert d * x == x * d + DiffOp.one()
    assert commutator(d, x) == DiffOp.one()


def test_normal_ordering_known_expansion():
    # moving two derivatives through x^3
    d2 = DiffOp.d(2)
    x3 = DiffOp.x(3)
    expected = DiffOp({(3, 2): 1, (2, 1): 6, (1, 0): 6})
    assert d2 * x3 == expected


def test_product_is_composition_on_random_polynomials():
    rng = random.Random(20260814)
    for _ in range(30):
        a, b = rand_diffop(rng), rand_diffop(rng)
        p = rand_poly(rng)
        assert (a * b).apply(p) == a.apply(b.apply(p))
        assert (a + b).apply(p) == a.apply(p) + b.apply(p)


def test_euler_operator_grades_monomials():
    euler = DiffOp.euler()
    for k in range(6):
        assert euler.apply(x_monomial(k)) == x_monomial(k, k)
    # scaling commutator: [euler, x^a d^b] = (a - b) x^a d^b
    word = DiffOp({(4, 1): 1})
    assert commutator(euler, word) == word * 3


def test_matrix_operator_shift_algebra():
    down = MatOp.lower_shift(DiffOp.one())
    up = MatOp.raise_shift(DiffOp.one())
    sigma = MatOp.sigma3()
    assert sigma * sigma == MatOp.identity()
    assert anticommutator(down, up) == MatOp.identity()
    assert commutator(up, down) == sigma
    assert down * down == MatOp.zero()


def test_matrix_apply_acts_entrywise():
    rng = random.Random(5)
    op = MatOp(
        (
            (rand_diffop(rng), rand_diffop(rng)),
            (rand_diffop(rng), rand_diffop(rng)),
        )
    )
    top, bottom = rand_poly(rng), rand_poly(rng)
    out_top, out_bottom = op.apply((top, bottom))
    assert out_top == op[0][0].apply(top) + op[0][1].apply(bottom)
    assert out_bottom == op[1][0].apply(top) + op[1][1].apply(bottom)


def test_cancellation_leaves_normal_form():
    k0 = ParamPoly.gen("k0")
    op = DiffOp({(1, 1): k0}) - DiffOp({(1, 1): k0}) + 3
    assert op.terms == {(0, 0): F(3)}
    assert type(op.terms[(0, 0)]) is Fraction
    # a k0 coefficient cancelling to a constant collapses to a Fraction
    op = DiffOp({(0, 1): k0 + 2}) - DiffOp({(0, 1): k0})
    assert op.terms == {(0, 1): F(2)} and type(op.terms[(0, 1)]) is Fraction
    assert (MatOp.diag(op, op) - MatOp.diag(op, op)).is_zero
    # a scalar adds as the operator of degree 0, on either side, and a
    # sum with a zero operand is the other operand
    assert (1 - op).terms == {(0, 0): F(1), (0, 1): F(-2)} == (-(op - 1)).terms
    assert 0 + op == op + DiffOp.zero() == op - 0 == op
    assert DiffOp.zero() - op == -op and -(-op) == op
    mat = MatOp.diag(op, k0)
    assert MatOp.zero() + mat == mat - MatOp.zero() == -(-mat) == mat
    for refused in (lambda: mat + 1, lambda: 1 + mat, lambda: mat - k0, lambda: k0 - mat):
        with pytest.raises(TypeError):
            refused()


def test_module_spec_basis_layout():
    module = ModuleSpec(2, 4)
    assert module.dim == 8
    labels = list(module.basis_labels())
    assert labels[0] == (0, 0)
    assert labels[3] == (1, 0)
    for comp, power in labels:
        idx = module.basis_index(comp, power)
        assert labels[idx] == (comp, power)
    with pytest.raises(ValueError):
        ModuleSpec(-2, 3)
    with pytest.raises(IndexError):
        module.basis_index(0, 3)


def test_restrict_diagonal_operator():
    module = ModuleSpec(3, 1)
    result = restrict(MatOp.diag(DiffOp.euler(), DiffOp.euler()), module)
    assert result.leakage_free
    diag = [0, 1, 2, 3, 0, 1]
    expected = ExactMatrix(
        [[diag[i] if i == j else 0 for j in range(6)] for i in range(6)]
    )
    assert result.matrix == expected
    lam = ParamPoly.gen("lam")
    cp = result.matrix.char_poly("lam")
    assert cp == lam * lam * (lam - 1) ** 2 * (lam - 2) * (lam - 3)


def test_leakage_is_certified_not_raised():
    module = ModuleSpec(2, 0)
    overflow = MatOp.diag(DiffOp.x(), DiffOp.x())
    result = restrict(overflow, module)
    assert not result.leakage_free
    terms = {
        (t.source_component, t.source_power, t.dest_component, t.dest_power)
        for t in result.leakage
    }
    assert (0, 2, 0, 3) in terms
    assert (1, 0, 1, 1) in terms
    for t in result.leakage:
        assert t.coeff == 1


def test_restriction_is_multiplicative_for_invariant_operators():
    module = ModuleSpec(4, 2)
    euler_mat = MatOp.diag(DiffOp.euler(), DiffOp.euler())
    shifted = euler_mat + MatOp.identity()
    lhs = restrict(euler_mat * shifted, module)
    assert lhs.leakage_free
    product = restrict(euler_mat, module).matrix * restrict(shifted, module).matrix
    assert lhs.matrix == product


def test_span_inverts_its_gram_matrix_in_one_solve(monkeypatch):
    rng = random.Random(11)
    basis = [MatOp.identity(), MatOp.sigma3()]
    basis += [MatOp.diag(rand_diffop(rng), rand_diffop(rng)) for _ in range(3)]
    solves = []
    original = weyl.solve_linear

    def counted(rows, rhs):
        solves.append(len(rows))
        return original(rows, rhs)

    monkeypatch.setattr(weyl, "solve_linear", counted)
    # the solve is one elimination of [gram | -I], 5 x 10
    widths = []
    echelon = exactnum._echelon

    def counted_echelon(rows, width):
        widths.append(width)
        return echelon(rows, width)

    monkeypatch.setattr(exactnum, "_echelon", counted_echelon)
    span = Span(basis)
    assert solves == [5]
    assert widths == [10]
    # each basis member projects onto its own unit vector, with no residual
    for k, member in enumerate(basis):
        coeffs, residual = project_span(member, span)
        assert coeffs == [int(i == k) for i in range(5)]
        assert residual.is_zero


def test_matop_product_normalises_once(monkeypatch):
    # the four entries of a product are summed into four numerator dicts
    # over one denominator and brought to normal form in one call
    rng = random.Random(29)
    a, b = (MatOp([[rand_diffop(rng) for _ in range(2)] for _ in range(2)]) for _ in range(2))
    calls = []
    original = weyl.normal_form

    def counted(den, rows):
        calls.append(len(rows))
        return original(den, rows)

    monkeypatch.setattr(weyl, "normal_form", counted)
    product = a * b
    assert calls == [4]
    monkeypatch.undo()
    for r in (0, 1):
        for c in (0, 1):
            assert product[r][c] == a[r][0] * b[0][c] + a[r][1] * b[1][c]
