"""Spectral pipeline: operator forms, exact spectra, nodes, cross-checks."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from qeslab.exactnum import ExactMatrix, ParamPoly, Root
from qeslab.spectral import (
    FD_CONVERGED_ULPS,
    HamiltonianSpec,
    NODE_GUARD,
    NoDegeneracyError,
    SpectralError,
    _band_matvec,
    _block_ldl,
    _block_solve,
    _evaluated,
    _fd_band,
    _parity_blocks,
    algebraic_spectrum,
    block_form,
    build_hamiltonian_gauged,
    eigenvectors,
    eigenvectors_y,
    find_degeneracy,
    format_sig,
    hamiltonian_leakage_reports,
    numeric_crosscheck,
    reflection_check,
    restricted_hamiltonian,
    sweep,
    symbolic_char_poly,
    write_csv,
    y_node_count,
)
from qeslab.weyl import ModuleSpec, restrict

F = Fraction


def test_spec_coupling_conversion():
    spec = HamiltonianSpec.from_c(2, F(1))
    assert spec.k0 == F(-1, 8)
    assert spec.c_spec == F(1)
    assert spec.module == ModuleSpec(2, 0)
    assert HamiltonianSpec(2, F(1)).c_spec == F(-8)
    with pytest.raises(ValueError):
        HamiltonianSpec(1, F(0))


def test_symbolic_spec_is_a_polynomial_coupling():
    c = ParamPoly.gen("c")
    spec = HamiltonianSpec.from_c(3, c)
    assert spec.k0 == c * F(-1, 12)
    assert spec.c_spec == c
    assert HamiltonianSpec(3, ParamPoly("k0", (F(2),))).k0 == F(2)
    with pytest.raises(ValueError, match="'x'"):
        HamiltonianSpec(3, ParamPoly.gen("x"))
    # a symbolic spec has no numeric spectrum
    with pytest.raises(TypeError):
        algebraic_spectrum(HamiltonianSpec(2, ParamPoly.gen("k0")))


def test_restricted_matrix_decoupled_point():
    rm = restricted_hamiltonian(HamiltonianSpec(2, F(0)))
    assert rm.matrix == ExactMatrix(
        [
            [0, -2, 0, 0],
            [-8, 0, -12, 0],
            [0, -4, 0, 0],
            [0, 0, 0, 0],
        ]
    )


def test_symbolic_char_poly_degree_two():
    cp = symbolic_char_poly(2, "c")
    c = ParamPoly.gen("c")
    lam = ParamPoly.gen("lam")
    assert cp == lam**4 + (c * c * (-2) - 64) * lam**2 + (c**4 + c * c * 32)


def test_symbolic_char_poly_degree_three():
    cp = symbolic_char_poly(3, "c")
    c = ParamPoly.gen("c")
    assert cp.coeff(6) == F(1)
    assert cp.coeff(5) == F(0) and cp.coeff(3) == F(0) and cp.coeff(1) == F(0)
    assert cp.coeff(4) == c * c * (-3) - 248
    assert cp.coeff(2) == c**4 * 3 + c * c * 240 + 4800
    assert cp.coeff(0) == c**6 * (-1) + c**4 * 8 + c * c * 1344 - 23040


def test_char_poly_coupling_forms_agree():
    for n in (2, 3):
        cpk = symbolic_char_poly(n, "k0")
        cpc = symbolic_char_poly(n, "c")
        k0v = F(1, 3)
        cv = -4 * n * k0v
        at_k0 = cpk.map_coeffs(
            lambda q: q(k0v) if isinstance(q, ParamPoly) else q
        )
        at_c = cpc.map_coeffs(
            lambda q: q(cv) if isinstance(q, ParamPoly) else q
        )
        assert at_k0 == at_c


def test_decoupled_spectrum_is_exact():
    spectrum = algebraic_spectrum(HamiltonianSpec(2, F(0)))
    assert [(lv.exact, lv.multiplicity) for lv in spectrum.levels] == [
        (F(-8), 1),
        (F(0), 2),
        (F(8), 1),
    ]
    assert spectrum.values == [-8.0, 0.0, 0.0, 8.0]


def test_coupled_spectrum_matches_closed_form():
    spectrum = algebraic_spectrum(HamiltonianSpec.from_c(2, F(1)))
    closed = sorted(
        s * math.sqrt(33 + t * 4 * math.sqrt(66))
        for s in (1, -1)
        for t in (1, -1)
    )
    assert all(
        abs(a - b) < 1e-10 for a, b in zip(spectrum.values, closed)
    )


def test_spectrum_is_symmetric_under_negation():
    for c in (F(0), F(1), F(7, 3)):
        spectrum = algebraic_spectrum(HamiltonianSpec.from_c(3, c))
        values = spectrum.values
        assert len(values) == 6
        assert all(
            abs(a + b) < 1e-10 for a, b in zip(values, reversed(values))
        )


def test_exact_eigenvectors_at_decoupled_point():
    pairs = eigenvectors(algebraic_spectrum(HamiltonianSpec(2, F(0))))
    by_exact = {p.level.exact: p for p in pairs}
    top, bottom = by_exact[F(8)].doublets[0]
    assert top == ParamPoly("x", (F(1, 2), F(-2), F(1)))
    assert bottom.is_zero
    degenerate = by_exact[F(0)]
    assert degenerate.level.multiplicity == 2
    assert len(degenerate.doublets) == 2
    assert not degenerate.defective


def test_float_eigenvectors_match_closed_form():
    pairs = eigenvectors(algebraic_spectrum(HamiltonianSpec.from_c(2, F(1))))
    for pair in pairs:
        e = pair.level.value
        top, _ = pair.doublets[0]
        want = [(e * e - 1 - 48) / 32, -e / 4, 1.0]
        got = [float(v) for v in top.coeffs]
        assert all(abs(a - b) < 1e-8 for a, b in zip(got, want))


def test_operator_reproduces_levels_on_eigenvectors():
    # exact on rational levels, float tolerance 1e-10 otherwise
    inputs = ((2, F(0)), (2, F(1)), (3, F(7, 2)), (4, F(19, 8)), (8, F(17, 8)))
    for n, c in inputs:
        spec = HamiltonianSpec.from_c(n, c) if c else HamiltonianSpec(n, F(0))
        op = build_hamiltonian_gauged(spec)
        for pair in eigenvectors(algebraic_spectrum(spec)):
            level = pair.level
            for top, bottom in pair.doublets:
                img_top, img_bottom = op.apply((top, bottom))
                if level.exact is not None:
                    assert img_top == top * level.exact
                    assert img_bottom == bottom * level.exact
                    continue
                for img, src in ((img_top, top), (img_bottom, bottom)):
                    for k in range(max(img.degree, src.degree) + 1):
                        diff = float(img.coeff(k)) - level.value * float(
                            src.coeff(k)
                        )
                        assert abs(diff) < 1e-10


@pytest.mark.parametrize("n, c", [(4, F(19, 8)), (8, F(17, 8))])
def test_irrational_doublets_match_float_eig_oracle(n, c):
    # test-only oracle: numpy's dense eig of the restricted matrix, each
    # vector scaled like the doublets (leading top coefficient +1)
    import numpy as np

    spec = HamiltonianSpec.from_c(n, c)
    matrix = restricted_hamiltonian(spec).matrix
    evals, evecs = np.linalg.eig(
        np.array([[float(e) for e in row] for row in matrix.entries])
    )
    pairs = eigenvectors(algebraic_spectrum(spec))
    assert all(p.level.exact is None for p in pairs)
    for pair in pairs:
        (top, bottom), = pair.doublets
        pick = int(np.argmin(np.abs(evals - pair.level.value)))
        assert abs(evals[pick] - pair.level.value) < 1e-9
        vec = evecs[:, pick] / evecs[top.degree, pick]
        got = list(top.coeffs) + [0.0] * (n - top.degree) + list(bottom.coeffs)
        got += [0.0] * (2 * n - len(got))
        for mine, ref in zip(got, vec):
            assert abs(mine - ref) <= 1e-9 * max(1.0, abs(ref))


def test_repeated_irrational_level_raises():
    # the adjugate of mu - BC vanishes at a repeated root, so there is no
    # vector to build; no reachable coupling gives one, so the spectrum is
    # hand-built
    doubled = dataclasses.replace(
        algebraic_spectrum(HamiltonianSpec.from_c(2, F(1))),
        levels=(Root(value=math.sqrt(2), multiplicity=2, exact=None),),
    )
    with pytest.raises(SpectralError, match="repeated irrational level"):
        eigenvectors(doubled)


def test_eigenvectors_and_sweep_run_without_numpy(monkeypatch):
    import qeslab.spectral as spectral_mod

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy used outside the cross-check: np.{name}")

    monkeypatch.setattr(spectral_mod, "np", NoNumpy())
    spectrum = algebraic_spectrum(HamiltonianSpec.from_c(4, F(19, 8)))
    funcs = eigenvectors_y(spectrum)
    assert len(funcs) == 8 and all(f.nodes is not None for f in funcs)
    assert len(sweep(3, 0, 1, 3).rows) == 3


def test_one_square_free_certificate_per_node_count(monkeypatch):
    import qeslab.exactnum as exactnum_mod
    import qeslab.spectral as spectral_mod

    spectrum = algebraic_spectrum(HamiltonianSpec.from_c(8, F(17, 8)))
    counted_polys, primes = [], []
    count_real_roots = exactnum_mod.count_real_roots
    gcd_mod = exactnum_mod._gcd_mod

    def counted(poly, ends):
        counted_polys.append(poly)
        return count_real_roots(poly, ends)

    def counted_images(a, b, prime):
        primes.append(prime)
        return gcd_mod(a, b, prime)

    def forbidden(*args):
        raise AssertionError("a node count built a Sturm chain")

    monkeypatch.setattr(spectral_mod, "count_real_roots", counted)
    monkeypatch.setattr(exactnum_mod, "_gcd_mod", counted_images)
    for name in ("sturm_sequence", "_remainders", "sign_variations"):
        monkeypatch.setattr(exactnum_mod, name, forbidden)
    funcs = eigenvectors_y(spectrum)
    # 16 simple levels, two nonzero components each: 32 node counts, each
    # on one square-free part, certified by one gcd image at one prime
    assert len(funcs) == 16 and all(None not in f.nodes for f in funcs)
    assert len(counted_polys) == 32
    assert primes == [exactnum_mod._PRIMES[0]] * 32


def test_eigenvectors_evaluate_one_exact_column_per_mu(monkeypatch):
    import qeslab.spectral as spectral_mod

    spectrum = algebraic_spectrum(HamiltonianSpec.from_c(8, F(17, 8)))
    want = eigenvectors(spectrum)
    exact_columns = []
    adjugate_column = spectral_mod._adjugate_column

    def counted(terms, x, scale, j):
        if type(x) is int:  # the exact column, not the float pre-pass
            exact_columns.append(j)
        return adjugate_column(terms, x, scale, j)

    monkeypatch.setattr(spectral_mod, "_adjugate_column", counted)
    pairs = eigenvectors(spectrum)
    # 16 irrational levels +-E share 8 values of mu = E^2
    assert len(pairs) == 16 and all(p.level.exact is None for p in pairs)
    assert len(exact_columns) == 8
    assert pairs == want
    for low, high in zip(pairs[:8], pairs[::-1]):
        assert low.level.value == -high.level.value


def test_node_count_mapping():
    x = ParamPoly.gen("x")
    assert y_node_count(x * x - 1) == 2  # one positive root -> a symmetric pair
    assert y_node_count(x * (x - 4)) == 3  # origin contributes one zero
    assert y_node_count(x * x + 1) == 0
    assert y_node_count((x - F(1, 10**12)) * (x - 4)) == 3  # guarded origin
    assert y_node_count((x - 1) ** 2 * (x - 4)) == 4  # repeated roots
    assert y_node_count(x ** 2 * (x - 4)) == 3
    guard = NODE_GUARD
    # the window around the origin is (-guard, guard]
    assert y_node_count((x - guard) * (x - 4)) == 3
    assert y_node_count((x + guard) * (x - 4)) == 2
    assert y_node_count((x - guard / 2) * (x + guard / 2) * (x - 4)) == 3
    assert y_node_count((x - guard) * (x - 2 * guard)) == 3
    # a multiple root at 0 is one zero
    assert y_node_count(x ** 3 * (x - 1) ** 2 * (x + 1)) == 3
    # coefficients beyond the double range, exact already
    huge = F(10**400)
    assert y_node_count((x - huge) * (x - 1)) == 4
    assert y_node_count((x - 1 / huge) * (x - 1)) == 3
    assert y_node_count(ParamPoly("x", (-1, 0, huge))) == 1
    assert y_node_count(ParamPoly("x", (1 / huge, -1))) == 1
    # coefficients beyond the double range; the root is 10**400
    assert y_node_count(ParamPoly("x", (-(10**400), 1))) == 2
    assert y_node_count(ParamPoly("x", (F(5),))) == 0
    with pytest.raises(ValueError):
        y_node_count(ParamPoly.zero("x"))


@pytest.mark.parametrize("c", [F(1, 2), F(1), F(4)])
def test_node_table_for_small_couplings(c):
    funcs = eigenvectors_y(algebraic_spectrum(HamiltonianSpec.from_c(2, c)))
    funcs.sort(key=lambda f: f.level.value)
    assert [f.nodes for f in funcs] == [(0, 0), (2, 2), (2, 0), (4, 2)]


def test_ground_state_is_nodeless_in_both_components():
    funcs = eigenvectors_y(algebraic_spectrum(HamiltonianSpec.from_c(2, F(1))))
    ground = min(funcs, key=lambda f: f.level.value)
    assert ground.nodes == (0, 0)


def test_bottom_component_closed_form():
    cf = 1.0
    funcs = eigenvectors_y(algebraic_spectrum(HamiltonianSpec.from_c(2, F(1))))
    for f in funcs:
        e = f.level.value
        want0 = e * (e * e - cf * cf - 64) / (32 * cf)
        assert abs(float(f.bottom_y.coeff(0)) - want0) < 1e-7
        assert abs(float(f.bottom_y.coeff(2)) + cf / 4) < 1e-7
        assert f.bottom_y.coeff(1) == 0


def test_degenerate_levels_marked_and_skipped():
    funcs = eigenvectors_y(algebraic_spectrum(HamiltonianSpec(2, F(0))))
    skipped = [f for f in funcs if f.nodes is None]
    assert len(skipped) == 2
    assert all(f.subspace_dim == 2 for f in skipped)
    counted = sorted(f.nodes for f in funcs if f.nodes is not None)
    assert counted == [(0, None), (4, None)]  # zero bottom channel at c=0


def test_degeneracy_is_lifted_for_positive_coupling():
    spectrum = algebraic_spectrum(HamiltonianSpec.from_c(2, F(1)))
    assert all(lv.multiplicity == 1 for lv in spectrum.levels)


def test_sweep_endpoints_match_closed_form():
    result = sweep(2, F(0), F(2), 3)
    for c, values in result.rows:
        cf = float(c)
        closed = sorted(
            s * math.sqrt(32 + cf * cf + t * 4 * math.sqrt(64 + 2 * cf * cf))
            for s in (1, -1)
            for t in (1, -1)
        )
        assert all(abs(a - b) < 1e-10 for a, b in zip(values, closed))


def test_sweep_csv_golden_content(tmp_path):
    path = tmp_path / "levels.csv"
    with open(path, "w", newline="") as fh:
        write_csv(fh, "E", sweep(3, F(0), F(2), 3).rows)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines == [
        "c,E_1,E_2,E_3,E_4,E_5,E_6",
        "0,-15.0775085117,-3.55931694009,-2.82842712475,"
        "2.82842712475,3.55931694009,15.0775085117",
        "1,-15.1470006765,-3.93058357158,-2.47363766408,"
        "2.47363766408,3.93058357158,15.1470006765",
        "2,-15.3516289857,-4.55235415402,-1.89830428029,"
        "1.89830428029,4.55235415402,15.3516289857",
    ]


def test_magnitude_branches_stay_separated_away_from_collision():
    result = sweep(3, F(0), F(4), 9)
    for _, mags in result.abs_branches():
        assert len(mags) == 3
        assert min(b - a for a, b in zip(mags, mags[1:])) > 1e-6


def test_collision_search_finds_interior_minimum():
    # c^2 = 24: a zero mode doubles at E = 0
    result = find_degeneracy(3, F(0), F(10))
    assert abs(result.c_star - math.sqrt(24)) < 1e-10
    assert result.gap < 1e-9
    assert (result.lower_level, result.upper_level) == (3, 4)


def test_collision_locus_sees_interior_root_next_to_endpoint_collision():
    # c = 0 (an endpoint) is also a collision; c^2 = 40 is the interior
    # one, where levels 3/4 and 5/6 meet at E = -+sqrt(24)
    result = find_degeneracy(4, F(0), F(10))
    assert abs(result.c_star - math.sqrt(40)) < 1e-10
    assert result.gap < 1e-9
    values = result.levels
    assert abs(values[2] + math.sqrt(24)) < 1e-9
    assert abs(values[5] - values[4]) < 1e-9


def test_collision_search_rejects_boundary_minimum():
    with pytest.raises(NoDegeneracyError):
        find_degeneracy(2, F(1, 2), F(10))


def test_collision_at_bracket_endpoint_is_not_interior():
    # c = 0 is a collision at n = 4: not inside as c_min, nor as c_max
    with pytest.raises(NoDegeneracyError):
        find_degeneracy(4, F(0), F(5))
    with pytest.raises(NoDegeneracyError):
        find_degeneracy(4, F(-1), F(0))
    assert abs(find_degeneracy(4, F(-7), F(0)).c_star + math.sqrt(40)) < 1e-12


def test_vanishing_collision_polynomial_raises(monkeypatch):
    import qeslab.spectral as spectral_mod

    mu = ParamPoly.gen("mu")
    monkeypatch.setattr(spectral_mod, "_mu_char_poly", lambda bc: mu * mu)
    with pytest.raises(SpectralError):
        spectral_mod.find_degeneracy(2, F(0), F(1))


def test_nonreal_roots_raise_spectral_error(monkeypatch):
    import qeslab.spectral as spectral_mod

    # q(mu) = mu^2 + 1 gives p(lam) = lam^4 + 1: degree 2n at n = 2, no real root
    mu = ParamPoly.gen("mu")
    monkeypatch.setattr(spectral_mod, "_mu_char_poly", lambda r: mu * mu + 1)
    with pytest.raises(SpectralError, match="nonreal roots"):
        spectral_mod.algebraic_spectrum(HamiltonianSpec(2, F(1, 8)))


def test_negative_mu_root_raises_spectral_error(monkeypatch):
    import qeslab.spectral as spectral_mod

    # q(mu) = (mu + 1)(mu - 4) at n = 2: mu = 4 gives the levels +-2, but
    # mu = -1 gives the imaginary pair +-i
    mu = ParamPoly.gen("mu")
    monkeypatch.setattr(spectral_mod, "_mu_char_poly", lambda r: (mu + 1) * (mu - 4))
    with pytest.raises(SpectralError, match="nonreal roots"):
        spectral_mod.algebraic_spectrum(HamiltonianSpec(2, F(1, 8)))


@pytest.mark.parametrize(
    "n, c_min, c_max, steps", [(3, F(1, 8), F(81, 8), 200), (5, F(3, 8), F(83, 8), 30)]
)
def test_float_filter_agrees_with_exact_evaluation(monkeypatch, n, c_min, c_max, steps):
    import qeslab.exactnum as exactnum_mod

    filtered = sweep(n, c_min, c_max, steps).rows
    # a filter that decides no sign sends every midpoint to exact evaluation
    monkeypatch.setattr(exactnum_mod, "_float_sign", lambda coeffs, x: None)
    exact = sweep(n, c_min, c_max, steps).rows
    assert [[format_sig(v) for v in row] for _, row in exact] == [
        [format_sig(v) for v in row] for _, row in filtered
    ]
    # the filter only decides signs, so the bisection steps are the same
    assert exact == filtered


def _assert_is_char_poly(poly: ParamPoly, matrix: ExactMatrix):
    """poly(lam) = det(lam*I - matrix), a rational matrix, at 2n + 1 values
    of lam by sympy's exact determinant over QQ: enough to fix the monic
    polynomial of degree 2n."""
    assert poly.degree == matrix.rows and poly.leading() == 1
    n = matrix.rows
    entries = [[QQ(e.numerator, e.denominator) for e in row] for row in matrix.entries]
    neg = -DomainMatrix(entries, (n, n), QQ)
    for lam in range(-n, n + 1):
        d = (neg + DomainMatrix.eye(n, QQ) * QQ(lam)).det()
        assert poly(F(lam)) == F(int(d.numerator), int(d.denominator))


def _at(value, k0):
    """A rational or a polynomial in k0, at k0."""
    return value(k0) if isinstance(value, ParamPoly) else value


@pytest.mark.parametrize("n", range(2, 9))
def test_block_char_poly_matches_full_product(n):
    # q(lam^2) from the n x n block product BC is the char poly of the
    # full 2n x 2n matrix M; the reference is sympy's determinant of
    # lam*I - M at sample points, which shares no code with char_poly
    symbolic = restricted_hamiltonian(HamiltonianSpec(n, ParamPoly.gen("k0")))
    cp = symbolic_char_poly(n, "k0")
    assert cp == symbolic.matrix.char_poly("lam")
    k0 = F(-3, 7)
    _assert_is_char_poly(
        ParamPoly("lam", [_at(a, k0) for a in cp.coeffs]),
        symbolic.matrix.map_entries(lambda e: _at(e, k0)),
    )
    for c in (F(1, 8), F(17, 8), F(-7, 3)):
        spec = HamiltonianSpec.from_c(n, c)
        _assert_is_char_poly(
            algebraic_spectrum(spec).char_poly, restricted_hamiltonian(spec).matrix
        )


@pytest.mark.parametrize("n", range(2, 9))
def test_block_form_at_a_coupling_is_the_direct_restriction(n):
    # the symbolic form, evaluated, against restrict at each rational
    # coupling: the matrix, its parity blocks and their product
    forms = {variable: block_form(n, variable) for variable in ("c", "k0")}
    couplings = [F(0), F(1, 8), F(17, 8), F(-7, 3), F(math.sqrt(24))]
    specs = [HamiltonianSpec.from_c(n, c) for c in couplings]
    specs.append(HamiltonianSpec(n, F(-3, 7)))  # a --k0 spec
    for spec in specs:
        direct = restricted_hamiltonian(spec)
        b, c = _parity_blocks(direct)
        for form in forms.values():
            value = form.coupling(spec)
            assert _evaluated(form.restricted.matrix, value) == direct.matrix
            assert _evaluated(form.b, value) == b
            assert _evaluated(form.c, value) == c
            assert _evaluated(form.bc, value) == b * c
    assert forms["c"].coupling(specs[-1]) == F(12 * n, 7)  # c = -4n k0
    assert forms["k0"].coupling(specs[-1]) == F(-3, 7)
    with pytest.raises(ValueError):
        forms["c"].coupling(HamiltonianSpec(n + 1, F(1, 8)))


def test_same_parity_entry_raises_spectral_error(monkeypatch):
    import qeslab.spectral as spectral_mod

    spec = HamiltonianSpec(3, F(1, 5))
    good = restricted_hamiltonian(spec)
    rows = [list(r) for r in good.matrix.entries]
    rows[1][3] = rows[1][3] + 1  # x^1 and x^3 of the top channel: both odd
    broken = dataclasses.replace(good, matrix=ExactMatrix(rows))
    monkeypatch.setattr(
        spectral_mod, "restricted_hamiltonian", lambda s: broken
    )
    with pytest.raises(SpectralError):
        spectral_mod.algebraic_spectrum(spec)


def test_spectral_imports_nothing_from_the_suites():
    import ast

    import qeslab.spectral as spectral_mod

    with open(spectral_mod.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert not imported & {"qeslab.verify", "qeslab.generators"}


def test_reflection_certificates_hold():
    for n in range(2, 7):
        reports = reflection_check(n)
        assert [r.tag for r in reports] == ["33", "33EVEN"]
        assert all(r.holds for r in reports)


def test_quartic_hook_breaks_reflection(add_quartic_hook):
    import qeslab.spectral as spectral_mod

    add_quartic_hook()
    reports = reflection_check(4)
    assert [r.tag for r in reports] == ["33", "33EVEN"]
    assert not any(r.holds for r in reports)
    # the EQ33EVEN residual is the odd part of the full char poly
    odd = reports[1].residual
    assert isinstance(odd, ParamPoly) and odd.var == "lam"
    assert all(c == 0 for c in odd.coeffs[::2])
    # ... and it also breaks the invariant subspace
    spec = HamiltonianSpec(4, ParamPoly.gen("k0"))
    hooked = spectral_mod.build_hamiltonian_gauged(spec)
    assert not restrict(hooked, spec.module).leakage_free


def test_leakage_certificates_symbolic():
    reports = hamiltonian_leakage_reports(12)
    assert len(reports) == 11
    assert all(r.holds for r in reports)


def test_crosscheck_accuracy_and_boundary():
    result = numeric_crosscheck(
        HamiltonianSpec.from_c(2, F(1)), grid_points=400
    )
    assert len(result.rows) == 4
    assert result.max_diff < 5e-3
    assert result.boundary_amplitude < 1e-6
    for row in result.rows:
        assert row.diff == abs(row.algebraic - row.numeric)


def test_crosscheck_second_order_convergence():
    coarse = numeric_crosscheck(
        HamiltonianSpec.from_c(2, F(1)), grid_points=200
    )
    fine = numeric_crosscheck(
        HamiltonianSpec.from_c(2, F(1)), grid_points=400
    )
    ratio = coarse.max_diff / fine.max_diff
    assert 3.0 < ratio < 5.0


def _dense_fd(spec, grid_points, box_half_width=4.5):
    """The crosscheck FD matrix built densely, as a test-only oracle."""
    m = grid_points
    h = box_half_width / m
    ys = h * (np.arange(1, m + 1) - 0.5)
    inv_h2 = 1.0 / (h * h)
    fd = np.zeros((2 * m, 2 * m))
    for ch in (0, 1):
        idx = 2 * np.arange(m) + ch
        fd[idx, idx] = 2.0 * inv_h2 + ys**6 + float(spec.channel_y2_coeff(ch)) * ys**2
        fd[idx[0], idx[0]] -= inv_h2
        fd[idx[:-1], idx[1:]] = -inv_h2
        fd[idx[1:], idx[:-1]] = -inv_h2
    even = 2 * np.arange(m)
    fd[even, even + 1] = float(spec.c_spec)
    fd[even + 1, even] = float(spec.c_spec)
    return fd


@pytest.mark.parametrize("grid", [200, 400])
@pytest.mark.parametrize("c", [F(0), F(1), F(17, 8)])
@pytest.mark.parametrize("n", [2, 3])
def test_crosscheck_matches_dense_eigh_oracle(n, c, grid):
    spec = HamiltonianSpec.from_c(n, c)
    result = numeric_crosscheck(spec, grid_points=grid)
    fd = _dense_fd(spec, grid)
    evals, evecs = np.linalg.eigh(fd)
    picks = []
    for target in algebraic_spectrum(spec).values:
        nearest = np.argsort(np.abs(evals - target))
        picks.append(next(int(i) for i in nearest if int(i) not in picks))
    assert len(result.rows) == len(picks) == 2 * n
    for col, (row, pick) in enumerate(zip(result.rows, picks)):
        # the same dense index, and the same level to 1e-8
        assert int(np.argmin(np.abs(evals - row.numeric))) == pick
        assert abs(row.numeric - evals[pick]) < 1e-8
        vec = result.vectors[:, col]
        assert np.linalg.norm(fd @ vec - row.numeric * vec) < 1e-8
    dense_vecs = evecs[:, picks]
    dense_amp = np.max(np.abs(dense_vecs[-2:]), axis=0) / np.max(np.abs(dense_vecs), axis=0)
    assert dense_amp.max() < 1e-6
    assert result.boundary_amplitude < 1e-6


@pytest.mark.parametrize("grid", [200, 400])
def test_crosscheck_levels_closer_than_the_fd_error(grid):
    # at n = 3, c = 49/10, next to the collision at c* = sqrt(24), the
    # levels +-7.2e-4 are closer together than the FD error, and each must
    # still take its own FD eigenvalue
    test_crosscheck_matches_dense_eigh_oracle(3, F(49, 10), grid)


def test_crosscheck_window_edges_keep_away_from_the_fd_levels(monkeypatch):
    import qeslab.spectral as spectral_mod

    # the block LDL^T count flips back and forth within ~1e-9 of an FD
    # eigenvalue (n = 7, c = 21/4, grid 200), so no window edge may sit
    # just past a matched one
    shifts = []
    block_ldl = spectral_mod._block_ldl

    def recording(band, sigma):
        shifts.append(sigma)
        return block_ldl(band, sigma)

    monkeypatch.setattr(spectral_mod, "_block_ldl", recording)
    spec = HamiltonianSpec.from_c(7, F(21, 4))
    result = numeric_crosscheck(spec, grid_points=200)
    edges = np.array(shifts[-2 * len(algebraic_spectrum(spec).levels) :])
    numeric = np.array([row.numeric for row in result.rows])
    assert np.abs(edges[:, None] - numeric[None, :]).min() > 1e-6


def test_crosscheck_stalled_block_converges_at_its_rayleigh_quotient():
    # on the coarse grid 200 over the wide box 8 at n = 8, c = -17/8, some
    # blocks stall at ~20 u ||A|| after FD_MAX_PASSES passes at their level
    # and only converge at their Rayleigh quotient
    spec = HamiltonianSpec.from_c(8, F(-17, 8))
    result = numeric_crosscheck(spec, grid_points=200, box_half_width=8.0)
    band = _fd_band(spec, 200, 8.0 / 200)
    ulp = np.finfo(float).eps * _band_matvec(np.abs(band), np.ones((400, 1))).max()
    numeric = np.array([row.numeric for row in result.rows])
    vectors = result.vectors
    residual = np.linalg.norm(_band_matvec(band, vectors) - vectors * numeric, axis=0)
    assert residual.max() <= FD_CONVERGED_ULPS * ulp


def test_crosscheck_doublet_vectors_are_orthonormal():
    # at n = 2, c = 0 the algebraic level 0 is double and matches the FD
    # pair -2.77e-5 / -4.31e-4, far closer than any other two levels
    result = numeric_crosscheck(HamiltonianSpec.from_c(2, F(0)), grid_points=400)
    doublet = [i for i, row in enumerate(result.rows) if row.algebraic == 0.0]
    assert len(doublet) == 2
    numeric = sorted(result.rows[i].numeric for i in doublet)
    assert numeric == pytest.approx([-4.31157e-4, -2.76866e-5], rel=1e-5)
    pair = result.vectors[:, doublet]
    assert np.allclose(pair.T @ pair, np.eye(2), rtol=0, atol=1e-12)


def test_crosscheck_unconverged_vectors_raise(monkeypatch):
    import qeslab.spectral as spectral_mod

    # inverse iteration that never moves leaves a random subspace
    monkeypatch.setattr(
        spectral_mod, "_block_solve", lambda band, sigma, pivots, b: b
    )
    with pytest.raises(SpectralError, match="did not converge"):
        numeric_crosscheck(HamiltonianSpec.from_c(2, F(1)), grid_points=200)


def test_crosscheck_inertia_count_mismatch_raises(monkeypatch):
    import qeslab.spectral as spectral_mod

    # an FD eigenvalue left uncomputed at the lowest level: every count
    # from there up is one higher, so only that level's window sees it
    spec = HamiltonianSpec.from_c(2, F(1))
    lowest = algebraic_spectrum(spec).values[0]
    block_ldl = spectral_mod._block_ldl

    def one_more(band, sigma):
        pivots, negatives = block_ldl(band, sigma)
        return pivots, negatives + (sigma >= lowest)

    monkeypatch.setattr(spectral_mod, "_block_ldl", one_more)
    with pytest.raises(SpectralError, match="inertia count 2 .* not the 1 computed"):
        numeric_crosscheck(spec, grid_points=200)


def _midpoints(evals):
    return (evals[1:] + evals[:-1]) / 2


@pytest.mark.parametrize("grid", [200, 400])
@pytest.mark.parametrize("c", [F(0), F(1), F(17, 8)])
@pytest.mark.parametrize("n", [2, 3])
def test_block_ldl_counts_the_dense_eigenvalues_below_the_shift(n, c, grid):
    spec = HamiltonianSpec.from_c(n, c)
    evals = np.linalg.eigvalsh(_dense_fd(spec, grid))
    band = _fd_band(spec, grid, 4.5 / grid)
    levels = [float(v) for v in algebraic_spectrum(spec).values]
    for sigma in levels + list(_midpoints(evals)):
        assert _block_ldl(band, sigma)[1] == int(np.sum(evals < sigma)), sigma


@pytest.mark.parametrize("grid", [200, 400])
@pytest.mark.parametrize("c", [F(0), F(1), F(17, 8)])
@pytest.mark.parametrize("n", [2, 3])
def test_block_solve_matches_dense_solve(n, c, grid):
    spec = HamiltonianSpec.from_c(n, c)
    fd = _dense_fd(spec, grid)
    evals = np.linalg.eigvalsh(fd)
    band = _fd_band(spec, grid, 4.5 / grid)
    rhs = np.random.default_rng(1).standard_normal((2 * grid, 3))
    # the midpoints on either side of each level's nearest FD eigenvalue,
    # and a few across the rest of the spectrum; not the midpoint of the
    # c = 0 doublet, 2e-4 from both, where fd - sigma I is too ill
    # conditioned for two solvers to agree to 1e-10
    mids = _midpoints(evals)
    near = [int(np.argmin(np.abs(evals - v))) for v in algebraic_spectrum(spec).values]
    shifts = [mids[i] for j in near for i in (j - 1, j) if 0 <= i < len(mids)]
    shifts += list(mids[:: len(mids) // 5])
    for sigma in [x for x in shifts if np.abs(evals - x).min() > 0.1]:
        got = _block_solve(band, sigma, _block_ldl(band, sigma)[0], rhs)
        want = np.linalg.solve(fd - sigma * np.eye(2 * grid), rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), sigma


def test_block_solve_is_backward_stable_past_a_tiny_pivot():
    # at n = 6, c = 3, grid 800 the shift 11.5558, 1.2e-5 from an FD
    # eigenvalue, leaves a pivot inverse ~1e5 times the median one near a
    # node of the eigenvector; one substitution alone has a backward error
    # of ~480 u ||A||, the refined solve of about u ||A||
    band = _fd_band(HamiltonianSpec.from_c(6, F(3)), 800, 4.5 / 800)
    sigma = 11.5558
    pivots = _block_ldl(band, sigma)[0]
    size = np.abs(np.array(pivots)).max(axis=0)
    assert size.max() > 1e4 * np.median(size)
    rhs = np.random.default_rng(2).standard_normal((1600, 2))
    x = _block_solve(band, sigma, pivots, rhs)
    norm = _band_matvec(np.abs(band), np.ones((1600, 1))).max()
    backward = np.linalg.norm(_band_matvec(band, x) - sigma * x - rhs) / (
        norm * np.linalg.norm(x) + np.linalg.norm(rhs)
    )
    assert backward < 4 * np.finfo(float).eps


def test_crosscheck_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        numeric_crosscheck(HamiltonianSpec(2, F(0)), grid_points=100)
    with pytest.raises(ValueError):
        numeric_crosscheck(HamiltonianSpec(2, F(0)), box_half_width=2.0)
    for width in (math.nan, math.inf):
        with pytest.raises(ValueError):
            numeric_crosscheck(HamiltonianSpec(2, F(0)), box_half_width=width)


def test_leaky_operator_raises_spectral_error(add_quartic_hook):
    add_quartic_hook()
    with pytest.raises(SpectralError):
        restricted_hamiltonian(HamiltonianSpec(3, F(1, 5)))
