import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unmix import SolverConfig, SolveStatus, UnmixingProblem, unmix
from unmix.cli import main

LIBRARY = np.array([
    [0.9, 0.1, 0.2],
    [0.7, 0.3, 0.1],
    [0.2, 0.8, 0.3],
    [0.1, 0.6, 0.7],
])
PIXELS = np.column_stack([
    0.5 * LIBRARY[:, 0] + 0.5 * LIBRARY[:, 1],
    LIBRARY[:, 2],
])


def _write(path, array):
    np.savetxt(path, np.atleast_2d(array), delimiter=",", fmt="%.17g")


def _console(workspace, *argv, **environment):
    """Run ``python -m unmix.cli`` on the workspace's files, with this
    checkout's ``src`` first on the path and ``environment`` added."""
    src = Path(__file__).resolve().parents[1] / "src"
    environment = {**os.environ, **environment, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "unmix.cli",
         "--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
         "--output", str(workspace["out"]), *argv],
        capture_output=True, text=True, env=environment,
    )


@pytest.fixture
def workspace(tmp_path):
    lib = tmp_path / "library.csv"
    pix = tmp_path / "pixels.csv"
    out = tmp_path / "abundances.csv"
    _write(lib, LIBRARY)
    _write(pix, PIXELS)
    return {"lib": lib, "pix": pix, "out": out, "dir": tmp_path}


def test_basic_run_writes_expected_abundances(workspace):
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--output", str(workspace["out"])])
    assert code == 0
    roundtrip = np.loadtxt(workspace["out"], delimiter=",", ndmin=2)
    assert roundtrip.shape == (3, 2)
    for column in range(2):
        expected = unmix(UnmixingProblem(LIBRARY, PIXELS[:, column])).abundances
        np.testing.assert_array_equal(roundtrip[:, column], expected)


def test_output_reread_is_bit_exact(workspace):
    main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
          "--output", str(workspace["out"])])
    first = np.loadtxt(workspace["out"], delimiter=",", ndmin=2)
    second_path = workspace["dir"] / "rewritten.csv"
    np.savetxt(second_path, first, delimiter=",", fmt="%.17g")
    second = np.loadtxt(second_path, delimiter=",", ndmin=2)
    np.testing.assert_array_equal(first, second)


def test_lower_bounds_file_is_honored(workspace):
    bounds = np.array([0.1, 0.2, 0.05])
    bounds_path = workspace["dir"] / "bounds.csv"
    _write(bounds_path, bounds)
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--lower-bounds", str(bounds_path), "--output", str(workspace["out"])])
    assert code == 0
    abundances = np.loadtxt(workspace["out"], delimiter=",", ndmin=2)
    assert (abundances >= bounds[:, None] - 1e-10).all()


def test_infeasible_bounds_exit_code(workspace, capsys):
    bounds_path = workspace["dir"] / "bounds.csv"
    _write(bounds_path, np.array([0.6, 0.6, 0.2]))
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--lower-bounds", str(bounds_path), "--output", str(workspace["out"])])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exit_code(workspace, capsys):
    code = main(["--library", str(workspace["dir"] / "nope.csv"),
                 "--input", str(workspace["pix"]), "--output", str(workspace["out"])])
    assert code == 2


def test_mismatched_dimensions_exit_code(workspace, capsys):
    short = workspace["dir"] / "short.csv"
    _write(short, PIXELS[:2])
    code = main(["--library", str(workspace["lib"]), "--input", str(short),
                 "--output", str(workspace["out"])])
    assert code == 2


@pytest.mark.parametrize("flag", ["--output", "--diagnostics"])
def test_unwritable_output_exit_code(workspace, capsys, flag):
    # The last --output given wins, so either flag names a path whose directory is missing.
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--output", str(workspace["out"]),
                 flag, str(workspace["dir"] / "missing" / "file")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_required_flags(capsys):
    assert main([]) == 2
    assert "--library" in capsys.readouterr().err


def test_invalid_tie_break(workspace, capsys):
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--output", str(workspace["out"]), "--tie-break", "largest"])
    assert code == 2


@pytest.mark.parametrize("policy", ["random:1.5", "random:"])
@pytest.mark.parametrize("source", ["flag", "environment"])
def test_malformed_tie_seed_names_the_setting(workspace, capsys, monkeypatch, policy, source):
    argv = ["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
            "--output", str(workspace["out"])]
    if source == "flag":
        argv += ["--tie-break", policy]
    else:
        monkeypatch.setenv("UNMIX_TIE_BREAK", policy)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--tie-break" in err and "'random:SEED'" in err and repr(policy) in err
    assert not workspace["out"].exists()


@pytest.mark.parametrize("setting, argv, variable", [
    ("primal_tol", ["--tol", "inf"], None),
    ("dual_tol", ["--dual-tol", "inf"], None),
    ("primal_tol", [], "UNMIX_TOL"),
    ("dual_tol", [], "UNMIX_DUAL_TOL"),
])
def test_infinite_tolerance_is_an_input_error(workspace, capsys, monkeypatch, setting, argv,
                                              variable):
    # An infinite dual tolerance would report every pixel optimal whatever
    # its multipliers; an infinite primal one would accept any bounds.
    if variable is not None:
        monkeypatch.setenv(variable, "inf")
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--output", str(workspace["out"]), *argv])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {setting} must be positive and finite, got inf"]
    assert not workspace["out"].exists()


def test_nan_pixel_fails_numerically(workspace, capsys):
    bad = workspace["dir"] / "bad_pixels.csv"
    pixels = PIXELS.copy()
    pixels[1, 1] = np.nan
    _write(bad, pixels)
    diag = workspace["dir"] / "diag.jsonl"
    code = main(["--library", str(workspace["lib"]), "--input", str(bad),
                 "--output", str(workspace["out"]), "--diagnostics", str(diag)])
    assert code == 3
    abundances = np.loadtxt(workspace["out"], delimiter=",", ndmin=2)
    assert np.isnan(abundances[:, 1]).all()
    assert not np.isnan(abundances[:, 0]).any()
    records = [json.loads(line) for line in diag.read_text().splitlines()]
    assert records[0]["status"] == "optimal"
    assert records[1]["status"] == "failed"
    assert "NonFiniteInput" in records[1]["error"]


def test_overflowing_residual_constant_fails_numerically(workspace):
    # The pixel is finite and so is its linear term, but half its squared
    # norm overflows: the pixel fails, and the diagnostics stay strict JSON.
    pixels = PIXELS.copy()
    pixels[:, 1] *= 1e160
    bad = workspace["dir"] / "huge_pixels.csv"
    _write(bad, pixels)
    diag = workspace["dir"] / "diag.jsonl"
    with np.errstate(over="ignore"):
        code = main(["--library", str(workspace["lib"]), "--input", str(bad),
                     "--output", str(workspace["out"]), "--diagnostics", str(diag)])
    assert code == 3

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    records = [json.loads(line, parse_constant=reject) for line in diag.read_text().splitlines()]
    assert [record["status"] for record in records] == ["optimal", "failed"]
    assert records[1]["error"] == "NonFiniteInput: const_term contains NaN or infinite values"


def test_overflowing_library_fails_every_pixel_when_warnings_are_errors(workspace):
    # Finite entries whose Gram overflows: every pixel fails with
    # NonFiniteInput and exit code 3, with no warning raised or printed.
    _write(workspace["lib"], np.full(LIBRARY.shape, 1e200))
    diag = workspace["dir"] / "diag.jsonl"
    result = _console(workspace, "--diagnostics", str(diag),
                      PYTHONWARNINGS="error::RuntimeWarning")
    assert result.returncode == 3, result.stderr
    assert result.stderr == ""
    assert np.isnan(np.loadtxt(workspace["out"], delimiter=",", ndmin=2)).all()

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    records = [json.loads(line, parse_constant=reject) for line in diag.read_text().splitlines()]
    assert records == [{"pixel": j, "status": "failed",
                        "error": "NonFiniteInput: gram contains NaN or infinite values"}
                       for j in range(PIXELS.shape[1])]


@pytest.mark.parametrize("emptied, header", [
    ("pix", False), ("lib", False), ("bounds", False), ("pix", True)])
def test_a_file_with_no_data_is_an_input_error_when_warnings_are_errors(workspace, emptied,
                                                                        header):
    # Empty, or only a header row under --header: exit 2 with one error line
    # naming the file, and no warning or traceback.
    workspace["bounds"] = workspace["dir"] / "bounds.csv"
    _write(workspace["bounds"], np.zeros(3))
    argv = ["--lower-bounds", str(workspace["bounds"])]
    if header:
        argv.append("--header")
        for name in ("lib", "pix", "bounds"):
            workspace[name].write_text("header\n" + workspace[name].read_text())
    workspace[emptied].write_text("header\n" if header else "")
    result = _console(workspace, *argv, PYTHONWARNINGS="error")
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"error: {workspace[emptied]} holds no data\n"


def test_diagnostics_stream(workspace):
    diag = workspace["dir"] / "diag.jsonl"
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--output", str(workspace["out"]), "--diagnostics", str(diag)])
    assert code == 0
    records = [json.loads(line) for line in diag.read_text().splitlines()]
    assert len(records) == 2
    for record in records:
        assert record["status"] == "optimal"
        assert record["kkt"]["satisfied"] is True
        assert record["iterations"] >= 1
        assert record["free_size"] >= 1
        assert record["objective"] >= -1e-15


def test_capped_solve_carries_no_certificate(workspace):
    # The refined start on {1, 2, 3} is feasible, accepted as iteration 0 and
    # releases 4. The candidates on {1, 2, 3, 4} and then on {1, 2, 4} are
    # infeasible and pin 3 and then 2. A cap of 2 returns that pinned
    # iterate, at which no multipliers were priced.
    library = np.array([[0.1, 0.3, 0.9, 0.5, 1.0], [1.0, 0.2, 1.0, 0.0, 0.1],
                        [0.5, 0.0, 0.3, 0.4, 0.3], [0.9, 0.2, 0.8, 0.6, 0.9],
                        [0.7, 0.8, 1.0, 0.1, 0.5], [1.0, 0.8, 0.3, 0.7, 0.0]])
    pixel = np.array([1.0, 0.0, 0.6, 0.0, 0.9, 0.6])
    problem = UnmixingProblem(library, pixel)
    assert list(unmix(problem, SolverConfig(max_outer_iterations=1)).final_free) == [1, 2, 4]
    capped = unmix(problem, SolverConfig(max_outer_iterations=2))
    assert capped.status is SolveStatus.MAX_ITERATIONS
    assert list(capped.final_free) == [1, 4]
    assert np.isnan(capped.eq_multiplier)
    assert capped.ineq_multipliers.shape == (5,) and np.isnan(capped.ineq_multipliers).all()

    lib, pix = workspace["dir"] / "capped_library.csv", workspace["dir"] / "capped_pixel.csv"
    _write(lib, library)
    _write(pix, pixel[:, None])
    diag = workspace["dir"] / "diag.jsonl"
    code = main(["--library", str(lib), "--input", str(pix), "--output", str(workspace["out"]),
                 "--max-iter", "2", "--diagnostics", str(diag)])
    assert code == 3  # a capped pixel is not optimal
    [record] = [json.loads(line) for line in diag.read_text().splitlines()]
    assert record["status"] == "max_iterations_exceeded"
    assert "kkt" not in record
    assert record["iterations"] == 2 and record["free_size"] == 2
    assert record["message"] == capped.message


def test_header_mode_round_trip(workspace):
    lib_h = workspace["dir"] / "library_h.csv"
    pix_h = workspace["dir"] / "pixels_h.csv"
    lib_h.write_text("a,b,c\n" + workspace["lib"].read_text())
    pix_h.write_text("p1,p2\n" + workspace["pix"].read_text())
    out_h = workspace["dir"] / "out_h.csv"
    code = main(["--library", str(lib_h), "--input", str(pix_h),
                 "--output", str(out_h), "--header"])
    assert code == 0
    lines = out_h.read_text().splitlines()
    assert lines[0] == "pixel_1,pixel_2"
    with_header = np.loadtxt(out_h, delimiter=",", skiprows=1, ndmin=2)
    main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
          "--output", str(workspace["out"])])
    without = np.loadtxt(workspace["out"], delimiter=",", ndmin=2)
    np.testing.assert_array_equal(with_header, without)


def test_environment_variables_supply_defaults(workspace, monkeypatch):
    monkeypatch.setenv("UNMIX_LIBRARY", str(workspace["lib"]))
    monkeypatch.setenv("UNMIX_INPUT", str(workspace["pix"]))
    monkeypatch.setenv("UNMIX_OUTPUT", str(workspace["out"]))
    assert main([]) == 0
    assert workspace["out"].exists()


@pytest.mark.parametrize("name, value", [
    ("UNMIX_TOL", "abc"),
    ("UNMIX_DUAL_TOL", "1e-10x"),
    ("UNMIX_MAX_ITER", "2.5"),
    ("UNMIX_HEADER", "ture"),
    ("UNMIX_HEADER", "2"),
])
def test_malformed_environment_number_is_an_input_error(workspace, monkeypatch, capsys,
                                                        name, value):
    monkeypatch.setenv(name, value)
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--output", str(workspace["out"])])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and name in lines[0]
    assert not workspace["out"].exists()


@pytest.mark.parametrize("value, header", [
    ("1", True), ("TRUE", True), (" yes ", True), ("0", False), ("Off", False),
])
def test_environment_header_flag_words(workspace, monkeypatch, value, header):
    monkeypatch.setenv("UNMIX_HEADER", value)
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--output", str(workspace["out"])])
    # In header mode both inputs lose their first row, which still leaves a
    # solvable job, and the output starts with a header line.
    assert code == 0
    first = workspace["out"].read_text().splitlines()[0]
    assert (first == "pixel_1,pixel_2") == header


@pytest.mark.parametrize("environment, flags", [
    ({"UNMIX_MAX_ITER": "0"}, []),
    ({}, ["--max-iter", "0"]),
])
def test_zero_iteration_cap_is_an_input_error(workspace, monkeypatch, capsys,
                                              environment, flags):
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--output", str(workspace["out"]), *flags])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: max_outer_iterations must be at least 1"]
    assert not workspace["out"].exists()


def test_flag_wins_over_environment(workspace, monkeypatch):
    other = workspace["dir"] / "other.csv"
    monkeypatch.setenv("UNMIX_OUTPUT", str(workspace["dir"] / "env_out.csv"))
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--output", str(other)])
    assert code == 0
    assert other.exists()
    assert not (workspace["dir"] / "env_out.csv").exists()


def test_random_tie_break_flag_parses(workspace):
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--output", str(workspace["out"]), "--tie-break", "random:99"])
    assert code == 0


def test_negative_tie_seed_is_an_input_error(workspace, capsys):
    code = main(["--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
                 "--output", str(workspace["out"]), "--tie-break", "random:-1"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: tie_seed must be nonnegative, got -1"]
    assert not workspace["out"].exists()


@pytest.mark.parametrize("case, code", [("solved", 0), ("missing input", 2),
                                        ("nan pixel", 3)])
def test_exit_codes_reach_the_shell(workspace, case, code):
    pixels = PIXELS.copy()
    if case == "nan pixel":
        pixels[:, 1] = np.nan
    _write(workspace["pix"], pixels)
    if case == "missing input":
        workspace["pix"].unlink()
    result = _console(workspace)
    assert result.returncode == code, result.stderr
    assert workspace["out"].exists() == (code != 2)


def test_module_invocation(workspace):
    result = subprocess.run(
        [sys.executable, "-m", "unmix.cli",
         "--library", str(workspace["lib"]), "--input", str(workspace["pix"]),
         "--output", str(workspace["out"])],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "unmixed 2 pixel(s)" in result.stdout
