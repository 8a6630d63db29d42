"""Spectral pipeline: operator forms, exact spectra, nodes, cross-checks."""

import dataclasses
import math
from fractions import Fraction

import pytest

from qeslab.exactnum import ExactMatrix, ParamPoly, Root
from qeslab.spectral import (
    HamiltonianSpec,
    NoDegeneracyError,
    SpectralError,
    algebraic_spectrum,
    build_hamiltonian_gauged,
    eigenvectors,
    eigenvectors_y,
    find_degeneracy,
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


def test_one_sturm_chain_per_node_count(monkeypatch):
    import qeslab.exactnum as exactnum_mod
    import qeslab.spectral as spectral_mod

    spectrum = algebraic_spectrum(HamiltonianSpec.from_c(8, F(17, 8)))
    calls = []
    original = exactnum_mod.sturm_sequence

    def counted(poly):
        calls.append(poly)
        return original(poly)

    for module in (exactnum_mod, spectral_mod):
        monkeypatch.setattr(module, "sturm_sequence", counted, raising=False)
    funcs = eigenvectors_y(spectrum)
    # 16 simple levels, two nonzero components each: 32 node counts
    assert len(funcs) == 16 and all(None not in f.nodes for f in funcs)
    assert len(calls) == 32


def test_node_count_mapping():
    x = ParamPoly.gen("x")
    assert y_node_count(x * x - 1) == 2  # one positive root -> a symmetric pair
    assert y_node_count(x * (x - 4)) == 3  # origin contributes one zero
    assert y_node_count(x * x + 1) == 0
    assert y_node_count((x - F(1, 10**12)) * (x - 4)) == 3  # guarded origin
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
    with pytest.raises(NoDegeneracyError):
        find_degeneracy(4, F(0), F(5))


def test_vanishing_collision_polynomial_raises(monkeypatch):
    import qeslab.spectral as spectral_mod

    mu = ParamPoly.gen("mu")
    monkeypatch.setattr(spectral_mod, "_symbolic_mu_poly", lambda n, v: mu * mu)
    with pytest.raises(SpectralError):
        spectral_mod.find_degeneracy(2, F(0), F(1))


def test_nonreal_roots_raise_spectral_error(monkeypatch):
    import qeslab.spectral as spectral_mod

    # q(mu) = mu^2 + 1 gives p(lam) = lam^4 + 1: degree 2n at n = 2, no real root
    mu = ParamPoly.gen("mu")
    monkeypatch.setattr(spectral_mod, "_mu_char_poly", lambda r: mu * mu + 1)
    with pytest.raises(SpectralError, match="nonreal roots"):
        spectral_mod.algebraic_spectrum(HamiltonianSpec(2, F(1, 8)))


@pytest.mark.parametrize("n", range(2, 9))
def test_block_char_poly_matches_full_product(n):
    # reference: Faddeev-LeVerrier on the full 2n x 2n matrix
    symbolic = restricted_hamiltonian(HamiltonianSpec(n, ParamPoly.gen("k0")))
    assert symbolic_char_poly(n, "k0") == symbolic.matrix.char_poly("lam")
    for c in (F(1, 8), F(17, 8), F(-7, 3)):
        spec = HamiltonianSpec.from_c(n, c)
        full = restricted_hamiltonian(spec).matrix.char_poly("lam")
        assert algebraic_spectrum(spec).char_poly == full


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
