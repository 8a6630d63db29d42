"""Command-line surface: parsing, exit codes, output contracts."""

import json
from fractions import Fraction

import pytest

from qeslab.cli import main

F = Fraction


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_text_decoupled(capsys):
    code, out, _ = run(capsys, ["spectrum", "--n", "2", "--c", "0"])
    assert code == 0
    assert "# n=2 c=0 (k0=0; c = -4*n*k0)" in out
    assert "E = -8  multiplicity=1 exact=-8" in out
    assert "E = 0  multiplicity=2 exact=0" in out
    assert "subspace_dim=2 (nodes skipped)" in out


def test_spectrum_json_structure(capsys):
    code, out, _ = run(
        capsys, ["spectrum", "--n", "2", "--c", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["c"] == "1"
    assert payload["k0"] == "-1/8"
    values = [lv["value"] for lv in payload["levels"]]
    assert values == sorted(values)
    assert len(values) == 4
    nodes = [lv["vectors"][0]["nodes"] for lv in payload["levels"]]
    assert nodes == [[0, 0], [2, 2], [2, 0], [4, 2]]


def test_text_and_json_values_agree(capsys):
    code, json_out, _ = run(
        capsys, ["spectrum", "--n", "2", "--c", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(json_out)
    code, text_out, _ = run(capsys, ["spectrum", "--n", "2", "--c", "1"])
    assert code == 0
    for level in payload["levels"]:
        assert ("E = %.12g" % level["value"]) in text_out


def test_float_coupling_rejected_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "2", "--c", "0.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "exact rational" in err


def test_coupling_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "2", "--c", "1", "--k0", "1/8"])
    assert exc.value.code == 2


def test_spectrum_requires_some_coupling(capsys):
    code, _, err = run(capsys, ["spectrum", "--n", "2"])
    assert code == 2
    assert "exactly one of" in err


def test_charpoly_text_and_json_agree(capsys):
    code, text_out, _ = run(capsys, ["charpoly", "--n", "3"])
    assert code == 0
    code, json_out, _ = run(
        capsys, ["charpoly", "--n", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(json_out)
    assert payload["char_poly"]["text"] in text_out
    assert payload["char_poly"]["coefficients"]["6"] == "1"
    assert payload["char_poly"]["coefficients"]["4"] == "-3*c^2 - 248"


def test_spectrum_charpoly_flag_matches_subcommand(capsys):
    code, via_flag, _ = run(capsys, ["spectrum", "--n", "3", "--charpoly"])
    assert code == 0
    code, via_sub, _ = run(capsys, ["charpoly", "--n", "3", "--variable", "c"])
    assert code == 0
    assert via_flag == via_sub


def test_charpoly_alternate_variable(capsys):
    code, out, _ = run(
        capsys, ["charpoly", "--n", "2", "--variable", "k0"]
    )
    assert code == 0
    assert "k0" in out


def test_verify_small_box(capsys):
    code, out, _ = run(
        capsys, ["verify", "--n-max", "4", "--delta-max", "2", "--quiet"]
    )
    assert code == 0
    assert "failures=0" in out


def test_verify_report_stream(capsys):
    code, out, _ = run(capsys, ["verify", "--n-max", "3", "--delta-max", "1"])
    assert code == 0
    assert "EQ4 n=2 delta=1 which=pm status=holds" in out
    assert "EQ33 n=2 delta=2 status=holds" in out
    assert "EQ30 n=2 status=holds" in out


def test_verify_fault_injection_fails(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            "--n-max", "4",
            "--delta-max", "2",
            "--inject-fault", "T+",
            "--quiet",
        ],
    )
    assert code == 1
    assert "status=fails" in out


def test_sweep_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--n", "2", "--c-min", "0", "--c-max", "1", "--steps", "2"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c,E_1,E_2,E_3,E_4"
    assert len(lines) == 3
    path = tmp_path / "out.csv"
    code, _, _ = run(
        capsys,
        [
            "sweep",
            "--n", "2",
            "--c-min", "0",
            "--c-max", "1",
            "--steps", "2",
            "--out", str(path),
        ],
    )
    assert code == 0
    assert path.read_text().splitlines()[0] == "c,E_1,E_2,E_3,E_4"
    assert path.read_text() == out


def test_sweep_branches_output(capsys):
    code, out, _ = run(
        capsys,
        [
            "sweep",
            "--n", "3",
            "--c-min", "0",
            "--c-max", "1",
            "--steps", "2",
            "--branches",
        ],
    )
    assert code == 0
    assert out.splitlines()[0] == "c,absE_1,absE_2,absE_3"


def test_sweep_rejects_single_step(capsys):
    code, _, err = run(
        capsys,
        ["sweep", "--n", "2", "--c-min", "0", "--c-max", "1", "--steps", "1"],
    )
    assert code == 2
    assert "steps" in err


def test_degeneracy_json(capsys):
    code, out, _ = run(
        capsys,
        [
            "degeneracy",
            "--n", "3",
            "--c-min", "0",
            "--c-max", "10",
            "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert 4.0 < payload["c_star"] < 6.0
    assert payload["gap"] < 0.05
    assert payload["lower_level"] == 3 and payload["upper_level"] == 4


def test_degeneracy_boundary_exit(capsys):
    code, _, err = run(
        capsys, ["degeneracy", "--n", "2", "--c-min", "1/2", "--c-max", "10"]
    )
    assert code == 1
    assert "no-degeneracy" in err


def test_crosscheck_json(capsys):
    code, out, _ = run(
        capsys,
        [
            "crosscheck",
            "--n", "2",
            "--c", "1",
            "--grid", "400",
            "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_diff"] < 5e-3
    assert payload["boundary_amplitude"] < 1e-6
    assert len(payload["rows"]) == 4


def test_delta4_scan_summary(capsys):
    code, out, _ = run(capsys, ["delta4-scan", "--n", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "# points=100 counterexamples=0"
    assert all(
        "residual_quadratic_norm=" in line for line in lines[:-1]
    )


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
