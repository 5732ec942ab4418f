"""One solve pipeline: a batch validates its bounds once and each pixel
once, each pixel is shifted once, the Gram matrix and the uniform start's
factor are computed once per library, and the CLI certifies each
diagnostics record against the very problem its solve used."""

import functools
import importlib
import json
import sys

import numpy as np

from unmix import (
    BatchJob,
    ShiftedProblem,
    SolverConfig,
    SpectralLibrary,
    UnmixingProblem,
    active_set_solve,
    precompute_gram,
    shift_problem,
    unmix,
    unmix_batch,
    verify_kkt,
)
from unmix.cli import main
from unmix.model import _nonfinite_rows, validate_lower_bounds
from unmix.shift import _shift_measurements

kkt = importlib.import_module("unmix.kkt")


def _count_calls(monkeypatch, function):
    """Wrap ``function`` under every name an ``unmix`` module binds it to."""
    calls = []

    @functools.wraps(function)
    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "unmix" or name.startswith("unmix.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, attribute, counted)
    return calls


def _scene(rng, n_bands=12, n_endmembers=5, n_pixels=6):
    library = np.abs(rng.standard_normal((n_bands, n_endmembers)))
    fractions = rng.dirichlet(np.ones(n_endmembers), size=n_pixels).T
    pixels = library @ fractions + 0.02 * rng.standard_normal((n_bands, n_pixels))
    bounds = rng.dirichlet(np.ones(n_endmembers)) * 0.3
    return library, pixels, bounds


def _write_csv(path, array):
    np.savetxt(path, np.atleast_2d(array), delimiter=",", fmt="%.17g")
    return str(path)


def test_batch_validates_each_pixel_once(monkeypatch):
    library, pixels, bounds = _scene(np.random.default_rng(71), n_pixels=9)
    finite_checks = _count_calls(monkeypatch, _nonfinite_rows)
    bound_checks = _count_calls(monkeypatch, validate_lower_bounds)
    unmix_batch(BatchJob(library, pixels, bounds))
    # One check per slice, a row per pixel.
    measurements = [values for values, name in finite_checks if name == "measurement"]
    np.testing.assert_array_equal(np.vstack(measurements), pixels.T)
    assert len(bound_checks) == 1


def test_unmix_calls_sharing_a_library_compute_the_gram_once(monkeypatch):
    library, pixels, bounds = _scene(np.random.default_rng(72))
    shared = SpectralLibrary(library)
    calls = _count_calls(monkeypatch, precompute_gram)
    for column in range(2):
        unmix(UnmixingProblem(shared, pixels[:, column], bounds))
    assert len(calls) == 1


def test_cli_with_diagnostics_shifts_each_pixel_once(monkeypatch, tmp_path):
    library, pixels, bounds = _scene(np.random.default_rng(73))
    calls = _count_calls(monkeypatch, _shift_measurements)
    code = main(["--library", _write_csv(tmp_path / "lib.csv", library),
                 "--input", _write_csv(tmp_path / "pix.csv", pixels),
                 "--lower-bounds", _write_csv(tmp_path / "lb.csv", bounds),
                 "--output", str(tmp_path / "out.csv"),
                 "--diagnostics", str(tmp_path / "diag.jsonl")])
    assert code == 0
    assert sum(measurements.shape[1] for _, measurements, *_ in calls) == pixels.shape[1]


def test_diagnostics_match_an_independent_kkt_check(tmp_path):
    library, pixels, bounds = _scene(np.random.default_rng(74), n_pixels=7)
    nan_column = 3
    pixels[:, nan_column] = np.nan
    diag = tmp_path / "diag.jsonl"
    code = main(["--library", _write_csv(tmp_path / "lib.csv", library),
                 "--input", _write_csv(tmp_path / "pix.csv", pixels),
                 "--lower-bounds", _write_csv(tmp_path / "lb.csv", bounds),
                 "--output", str(tmp_path / "out.csv"),
                 "--diagnostics", str(diag)])
    assert code == 3
    records = [json.loads(line) for line in diag.read_text().splitlines()]
    assert [record["pixel"] for record in records] == list(range(pixels.shape[1]))

    failed = records[nan_column]
    assert failed["status"] == "failed"
    assert failed["error"].startswith("NonFiniteInput")
    assert "kkt" not in failed

    for column, record in enumerate(records):
        if column == nan_column:
            continue
        assert record["status"] == "optimal"
        solution = unmix(UnmixingProblem(library, pixels[:, column], bounds))
        # A second problem has its own library, so its Gram is computed anew.
        report = verify_kkt(shift_problem(UnmixingProblem(library, pixels[:, column], bounds)),
                            solution.shifted_abundances, solution.eq_multiplier,
                            solution.ineq_multipliers)
        assert record["kkt"] == {
            "stationarity": report.stationarity_residual,
            "primal_eq": report.primal_eq_residual,
            "primal_ineq": report.primal_ineq_violation,
            "dual": report.dual_violation,
            "complementarity": report.complementarity_residual,
            "satisfied": report.satisfied,
        }
        assert record["iterations"] == solution.outer_iterations
        assert record["objective"] == solution.objective


def _full_factorizations(monkeypatch):
    """The factorizations of every variable, as the uniform start makes them."""
    calls = _count_calls(monkeypatch, kkt.factorize)
    return lambda: sum(1 for gram, free in calls if len(free) == gram.shape[0])


def test_a_library_factorizes_its_uniform_start_once(monkeypatch):
    library, pixels, bounds = _scene(np.random.default_rng(75))
    full = _full_factorizations(monkeypatch)
    shared = SpectralLibrary(library)
    assert full() == 0  # nothing is factorized before the first solve
    for column in range(3):
        unmix(UnmixingProblem(shared, pixels[:, column], bounds))
    unmix_batch(BatchJob(shared, pixels, bounds))
    assert full() == 1
    # Equal entries are another library, with a start of its own.
    unmix(UnmixingProblem(SpectralLibrary(library), pixels[:, 0], bounds))
    assert full() == 2


def test_a_hand_built_problem_never_uses_the_library_start(monkeypatch):
    library, pixels, bounds = _scene(np.random.default_rng(76))
    shared = SpectralLibrary(library)
    shifted = shift_problem(UnmixingProblem(shared, pixels[:, 0], bounds))
    full = _full_factorizations(monkeypatch)
    expected = unmix(UnmixingProblem(shared, pixels[:, 0], bounds))
    assert full() == 1
    hand_built = [
        # no library
        ShiftedProblem(shifted.gram, shifted.linear, shifted.budget),
        # the library and its own Gram, which construction copies
        ShiftedProblem(shared.gram, shifted.linear, shifted.budget,
                       shifted.shifted_target, library=shared),
    ]
    for count, problem in enumerate(hand_built, start=2):
        assert problem.gram is not shared.gram
        solution = active_set_solve(problem)
        assert full() == count
        np.testing.assert_array_equal(solution.shifted_abundances,
                                      expected.shifted_abundances)


def test_diagnostics_of_a_slice_equal_verify_kkt_of_each_pixel(tmp_path):
    # One slice holds an optimal pixel (its probe is feasible and accepted
    # as iteration 1), a capped one (its refined start needs two more
    # iterations, which the library's correlated columns bring about) and a
    # failed one (NaN). The stacked check of the slice must report what
    # verify_kkt reports on each pixel alone.
    rng = np.random.default_rng(77)
    library = rng.random((224, 10)) @ (np.eye(10) + 2.0 * rng.random((10, 10)))
    bounds = np.full(10, 0.02)
    inside = library @ rng.dirichlet(np.full(10, 20.0))
    sparse = library[:, [0, 3, 5, 9]] @ np.full(4, 0.25) + 0.1 * rng.standard_normal(224)
    pixels = np.column_stack([inside, sparse, np.full(224, np.nan), inside + 1e-3])
    diag = tmp_path / "diag.jsonl"
    code = main(["--library", _write_csv(tmp_path / "lib.csv", library),
                 "--input", _write_csv(tmp_path / "pix.csv", pixels),
                 "--lower-bounds", _write_csv(tmp_path / "lb.csv", bounds),
                 "--output", str(tmp_path / "out.csv"),
                 "--diagnostics", str(diag), "--max-iter", "1"])
    assert code == 3
    records = [json.loads(line) for line in diag.read_text().splitlines()]
    assert [record["status"] for record in records] == [
        "optimal", "max_iterations_exceeded", "failed", "optimal"]
    assert "kkt" not in records[1] and "kkt" not in records[2]
    config = SolverConfig(max_outer_iterations=1)
    for column in (0, 3):
        problem = UnmixingProblem(library, pixels[:, column], bounds)
        solution = unmix(problem, config)
        report = verify_kkt(shift_problem(problem), solution.shifted_abundances,
                            solution.eq_multiplier, solution.ineq_multipliers)
        assert report.satisfied
        assert records[column]["kkt"] == {
            "stationarity": report.stationarity_residual,
            "primal_eq": report.primal_eq_residual,
            "primal_ineq": report.primal_ineq_violation,
            "dual": report.dual_violation,
            "complementarity": report.complementarity_residual,
            "satisfied": report.satisfied,
        }
