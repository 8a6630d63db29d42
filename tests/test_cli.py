"""Command-line surface: parsing, exit codes, output contracts."""

import json
import os
import subprocess
import sys
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
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "one of the arguments --c --k0 is required" in err


@pytest.mark.parametrize(
    "option, value",
    [("--c", "-3/7"), ("--k0", "-1/8"), ("--c", "-2")],
)
def test_negative_rational_coupling_matches_equals_form(capsys, option, value):
    code, spaced, _ = run(capsys, ["spectrum", "--n", "2", option, value])
    assert code == 0
    code, joined, _ = run(capsys, ["spectrum", "--n", "2", f"{option}={value}"])
    assert code == 0
    assert spaced == joined
    assert f"{option[2:]}={value}" in spaced.splitlines()[0]


def test_negative_rational_sweep_bracket(capsys):
    argv = ["sweep", "--n", "3", "--steps", "3"]
    code, spaced, _ = run(capsys, argv + ["--c-min", "-1/2", "--c-max", "-1/4"])
    assert code == 0
    code, joined, _ = run(capsys, argv + ["--c-min=-1/2", "--c-max=-1/4"])
    assert code == 0
    assert spaced == joined
    assert [line.split(",")[0] for line in spaced.splitlines()[1:]] == [
        "-0.5", "-0.375", "-0.25",
    ]


@pytest.mark.parametrize(
    "command, message",
    [
        ("spectrum --n 1 --c 0", "argument --n: must be a finite number >= 2"),
        ("charpoly --n 1", "argument --n: must be a finite number >= 2"),
        (
            "sweep --n 1 --c-min 0 --c-max 1 --steps 3",
            "argument --n: must be a finite number >= 2",
        ),
        ("degeneracy --n 3 --c-min 5 --c-max 1", "empty coupling bracket"),
        (
            "crosscheck --n 2 --c 1 --grid 100",
            "argument --grid: must be a finite number >= 200",
        ),
        (
            "crosscheck --n 2 --c 1 --box 2",
            "argument --box: must be a finite number >= 3.0",
        ),
        (
            "crosscheck --n 2 --c 1 --box nan",
            "argument --box: must be a finite number >= 3.0",
        ),
        ("delta4-scan --n 3", "argument --n: must be a finite number >= 4"),
        (
            "verify --delta-max 0 --quiet",
            "argument --delta-max: must be a finite number >= 1",
        ),
        (
            "verify --n-max 1",
            "--n-max must be at least max(2, --delta-max) = 4, got 1",
        ),
        (
            "verify --n-max 3 --delta-max 4",
            "--n-max must be at least max(2, --delta-max) = 4, got 3",
        ),
        (
            "sweep --n 3 --c-min 1 --c-max 1 --steps 2",
            "empty coupling range: --c-min equals --c-max",
        ),
        (
            "sweep --n 3 --c-min 0 --c-max 1 --steps 3 --out {tmp}/missing/levels.csv",
            "[Errno 2] No such file or directory",
        ),
    ],
)
def test_out_of_range_input_is_usage_error(
    capsys, monkeypatch, tmp_path, command, message
):
    import qeslab.spectral as spectral_mod

    sweeps = []
    monkeypatch.setattr(spectral_mod, "sweep", lambda *args: sweeps.append(args))
    try:
        code = main(command.format(tmp=tmp_path).split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert sweeps == []


def _restrictions(capsys, monkeypatch, argv):
    """The specs that restricted_hamiltonian gets during one CLI run."""
    import qeslab.spectral as spectral_mod

    calls = []
    original = spectral_mod.restricted_hamiltonian

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(spectral_mod, "restricted_hamiltonian", counted)
    code, _, _ = run(capsys, argv)
    assert code == 0
    return calls


def test_spectrum_restricts_the_operator_once(capsys, monkeypatch):
    argv = ["spectrum", "--n", "4", "--c", "19/8"]
    assert len(_restrictions(capsys, monkeypatch, argv)) == 1


def test_sweep_restricts_the_operator_once(capsys, monkeypatch):
    argv = ["sweep", "--n", "3", "--c-min", "1/8", "--c-max", "81/8", "--steps", "50"]
    assert len(_restrictions(capsys, monkeypatch, argv)) == 1


def test_degeneracy_restricts_the_operator_once(capsys, monkeypatch):
    # the symbolic locus and the spectrum at c* = sqrt(24) share one form
    argv = ["degeneracy", "--n", "3", "--c-min", "39/8", "--c-max", "41/8"]
    assert len(_restrictions(capsys, monkeypatch, argv)) == 1


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


def test_verify_names_the_skipped_reflection_range(capsys, monkeypatch):
    from qeslab import cli

    checked = []
    monkeypatch.setattr(cli.verify, "default_suite", lambda **kw: [])
    monkeypatch.setattr(
        cli.spectral, "hamiltonian_leakage_reports", lambda n_max: []
    )
    monkeypatch.setattr(
        cli.spectral, "reflection_check", lambda n: checked.append(n) or []
    )
    code, out, err = run(capsys, ["verify"])
    assert code == 0
    assert out == "# reports=0 failures=0\n"
    assert checked == [2, 3, 4, 5, 6]
    assert err == (
        "# skipped: reflection certificates (EQ33, EQ33EVEN) for n=7..12; "
        "they run up to n=6\n"
    )
    checked.clear()
    code, _, err = run(capsys, ["verify", "--n-max", "5"])
    assert code == 0
    assert checked == [2, 3, 4, 5]
    assert err == ""


def test_verify_unknown_fault_is_usage_error(capsys):
    code, out, err = run(capsys, ["verify", "--inject-fault", "NOPE"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown fault target 'NOPE'; options: T+, ")


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
    # at c = 0 the n = 2 spectrum is -8, 0, 0, 8: the upper half is 0, 8
    code, out, _ = run(
        capsys,
        ["sweep", "--n", "2", "--c-min", "-1", "--c-max", "1", "--steps", "3",
         "--branches"],
    )
    assert code == 0
    lines = out.splitlines()
    assert (lines[0], lines[2]) == ("c,absE_1,absE_2", "0,0,8")


def test_sweep_rejects_single_step(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", "2", "--c-min", "0", "--c-max", "1",
              "--steps", "1"])
    assert exc.value.code == 2
    assert "argument --steps" in capsys.readouterr().err


def test_sweep_descending_range_still_runs(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--n", "2", "--c-min", "1", "--c-max", "0", "--steps", "2"],
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["c", "1", "0"]


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


# c* = sqrt(24) = 4.89897948556635...; this c-min squared exceeds 24
NEAR_SQRT24 = "48989794855664/10000000000000"


@pytest.mark.parametrize(
    "c_min, c_max, want",
    [(NEAR_SQRT24, "10", 1), ("0", NEAR_SQRT24, 0)],
)
def test_degeneracy_bracket_is_decided_exactly(capsys, c_min, c_max, want):
    code, out, _ = run(
        capsys, ["degeneracy", "--n", "3", "--c-min", c_min, "--c-max", c_max]
    )
    assert code == want
    assert out.startswith("c* = 4.89897948557") == (want == 0)


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


def test_exact_paths_do_not_import_scipy():
    # no command needs scipy, the FD cross-check included: with the
    # import blocked, every subcommand still runs and none loads it; and
    # none loads numpy.random, which the start columns of the FD inverse
    # iteration do without
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from qeslab.cli import main\n"
        "for argv in (['spectrum', '--n', '4', '--c', '19/8'],\n"
        "             ['sweep', '--n', '3', '--c-min', '0', '--c-max', '1', '--steps', '3'],\n"
        "             ['charpoly', '--n', '4'],\n"
        "             ['degeneracy', '--n', '3', '--c-min', '4', '--c-max', '5'],\n"
        "             ['verify', '--n-max', '3', '--delta-max', '2', '--quiet'],\n"
        "             ['delta4-scan', '--n', '4'],\n"
        "             ['crosscheck', '--n', '2', '--c', '1', '--grid', '400']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    assert 'numpy.random' not in sys.modules, argv\n"
        "print(sys.modules['scipy'] is not None)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_no_command_builds_a_sturm_chain_or_a_remainder_sequence(monkeypatch, capsys):
    # roots, square-free parts and node counts all run on the integer
    # kernel: no subcommand builds a Sturm chain, the collision locus of
    # n = 8 (repeated factors) and the node counts of spectrum included
    import qeslab.exactnum as exactnum_mod

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called by a command")

        return call

    for name in (
        "sturm_sequence", "sign_variations", "sturm_count",
        "isolate_real_roots", "cauchy_bound",
    ):
        monkeypatch.setattr(exactnum_mod, name, forbidden(name))
    for argv in (
        ["spectrum", "--n", "8", "--c", "17/8"],
        ["spectrum", "--n", "4", "--c", "0"],
        ["sweep", "--n", "3", "--c-min", "0", "--c-max", "10", "--steps", "20"],
        ["charpoly", "--n", "4"],
        ["degeneracy", "--n", "3", "--c-min", "4", "--c-max", "5"],
        ["degeneracy", "--n", "8", "--c-min", "0", "--c-max", "10"],
        ["verify", "--n-max", "4", "--quiet"],
        ["delta4-scan", "--n", "4"],
        ["crosscheck", "--n", "2", "--c", "1", "--grid", "400"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize("given, expected", [(None, "4"), ("20", "20")])
def test_openblas_workers_sleep_when_idle_unless_caller_says(given, expected):
    # numpy loads with qeslab.cli; the default must be in place before it
    # does, and a caller's own setting must win
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if given is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = given
    script = (
        "import os, sys\n"
        "assert 'numpy' not in sys.modules\n"
        "import qeslab.cli\n"
        "assert 'numpy' in sys.modules\n"
        "print(os.environ['OPENBLAS_THREAD_TIMEOUT'])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == expected


def test_closed_stdout_is_not_a_failed_verification():
    # `qeslab verify | head -n 1`: the reader goes away after one line,
    # while verify still has most of its 2679 report lines to write
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qeslab.cli", "verify"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141
    assert first.startswith(b"EQ")
    assert "Traceback" not in err, err


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
