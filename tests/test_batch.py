import importlib
import itertools
import re
import traceback
from unittest import mock

import numpy as np
import pytest

from unmix import (
    BatchJob,
    DimensionMismatch,
    InfeasibleLowerBounds,
    RankDeficientLibrary,
    SolveStatus,
    SpectralLibrary,
    batch_summary,
    precompute_gram,
    unmix,
    unmix_batch,
)
from unmix.model import UnmixingProblem
from instances import random_problem

batch = importlib.import_module("unmix.batch")
kkt = importlib.import_module("unmix.kkt")


def test_gram_of_identity_library():
    np.testing.assert_array_equal(precompute_gram(np.eye(3)), np.eye(3))


def test_gram_of_duplicated_columns_has_equal_rows():
    column = np.array([1.0, 2.0, 0.5])
    entries = np.column_stack([column, column, np.array([0.0, 1.0, 1.0])])
    gram = precompute_gram(entries)
    np.testing.assert_array_equal(gram[0], gram[1])
    np.testing.assert_array_equal(gram[:, 0], gram[:, 1])


def test_gram_matches_explicit_dot_products():
    rng = np.random.default_rng(51)
    entries = rng.standard_normal((6, 4))
    gram = precompute_gram(entries)
    for i in range(4):
        for j in range(4):
            assert gram[i, j] == pytest.approx(entries[:, i] @ entries[:, j], rel=1e-12)


def test_unmix_interior_point():
    problem = UnmixingProblem(np.eye(2), np.array([0.7, 0.3]))
    solution = unmix(problem)
    np.testing.assert_allclose(solution.abundances, [0.7, 0.3], atol=1e-12)


def test_unmix_respects_lower_bounds():
    problem = UnmixingProblem(np.eye(2), np.array([1.0, 0.0]), np.array([0.0, 0.4]))
    solution = unmix(problem)
    np.testing.assert_allclose(solution.abundances, [0.6, 0.4], atol=1e-12)


def test_unmix_with_saturated_bounds_returns_them():
    problem = UnmixingProblem(np.eye(2), np.array([1.0, 0.0]), np.array([0.4, 0.6]))
    solution = unmix(problem)
    np.testing.assert_array_equal(solution.abundances, [0.4, 0.6])
    assert solution.outer_iterations == 0


def test_unmix_output_satisfies_original_constraints():
    rng = np.random.default_rng(52)
    for _ in range(20):
        problem = random_problem(rng)
        solution = unmix(problem)
        p = problem.library.n_endmembers
        assert (solution.abundances >= problem.lower_bounds - 1e-10).all()
        assert solution.abundances.sum() == pytest.approx(1.0, abs=p * 1e-10)


def test_batch_of_one_equals_single_solve():
    problem = random_problem(np.random.default_rng(53))
    job = BatchJob(problem.library, problem.measurement[:, None],
                   problem.lower_bounds)
    [batched] = unmix_batch(job)
    single = unmix(problem)
    np.testing.assert_array_equal(batched.abundances, single.abundances)


def test_duplicate_pixels_get_identical_solutions():
    problem = random_problem(np.random.default_rng(54))
    pixels = np.column_stack([problem.measurement, problem.measurement])
    job = BatchJob(problem.library, pixels, problem.lower_bounds)
    first, second = unmix_batch(job)
    np.testing.assert_array_equal(first.abundances, second.abundances)


def test_batch_matches_sequential_solves():
    rng = np.random.default_rng(55)
    problem = random_problem(rng, n_endmembers=5, n_bands=20)
    pixels = np.column_stack([
        problem.library.entries @ rng.dirichlet(np.ones(5)) + 0.05 * rng.standard_normal(20)
        for _ in range(50)
    ])
    job = BatchJob(problem.library, pixels, problem.lower_bounds)
    results = unmix_batch(job)
    for column, batched in enumerate(results):
        single = unmix(UnmixingProblem(problem.library, pixels[:, column],
                                       problem.lower_bounds))
        assert np.abs(batched.abundances - single.abundances).max() <= 1e-12


def test_failed_pixel_is_recorded_without_aborting():
    rng = np.random.default_rng(57)
    problem = random_problem(rng, n_endmembers=3, n_bands=8)
    pixels = np.column_stack([problem.measurement,
                              np.full(8, np.nan),
                              problem.measurement])
    job = BatchJob(problem.library, pixels, problem.lower_bounds)
    results = unmix_batch(job)
    assert results[0].status is SolveStatus.OPTIMAL
    assert results[1].status is SolveStatus.FAILED
    assert "NonFiniteInput" in results[1].message
    assert np.isnan(results[1].abundances).all()
    assert results[2].status is SolveStatus.OPTIMAL
    summary = batch_summary(results)
    assert summary == {"pixels": 3, "optimal": 2, "max_iterations": 0, "failed": 1}


def test_a_singular_start_factor_fails_every_pixel_from_one_attempt():
    # P = 31 <= N with one duplicated column: the uniform start's full-Gram
    # factor is singular for every pixel, so the library attempts it once.
    rng = np.random.default_rng(60)
    entries = rng.random((224, 30))
    library = np.column_stack([entries, entries[:, 7]])
    pixels = entries @ rng.dirichlet(np.ones(30), size=500).T
    with pytest.raises(RankDeficientLibrary) as raised:
        unmix(UnmixingProblem(library, pixels[:, 0]))
    message = f"RankDeficientLibrary: {raised.value}"
    with mock.patch.object(kkt, "factorize", wraps=kkt.factorize) as factorize:
        results = unmix_batch(BatchJob(library, pixels))
    assert all(r.status is SolveStatus.FAILED and r.message == message for r in results)
    assert batch._SLICE_FACTOR_BYTES // (8 * 31**2) < 500  # more than one slice
    assert factorize.call_count == 1


def test_a_singular_start_raises_a_fresh_error_on_every_call():
    # The library keeps the singular start's message, not the exception: one
    # instance raised again would grow its traceback by two frames each time.
    rng = np.random.default_rng(60)
    entries = rng.random((224, 30))
    library = SpectralLibrary(np.column_stack([entries, entries[:, 7]]))
    pixel = entries @ rng.dirichlet(np.ones(30))
    with pytest.raises(RankDeficientLibrary) as first:
        unmix(UnmixingProblem(np.array(library.entries), pixel))
    raised = []
    for _ in range(200):
        with pytest.raises(RankDeficientLibrary) as caught:
            unmix(UnmixingProblem(library, pixel))
        raised.append(caught.value)
        assert str(caught.value) == str(first.value)
    assert len({len(traceback.extract_tb(exc.__traceback__)) for exc in raised}) == 1
    assert len({id(exc) for exc in raised}) == 200


@pytest.mark.parametrize("n_endmembers", [10, 60], ids=["stacked", "kept"])
def test_no_two_returned_arrays_share_memory(n_endmembers):
    # A slice's pricing and unshift hand out rows of arrays over the slice.
    # No array field of a pixel's Solution may share memory with another of
    # its fields or with any field of another pixel. In one slice, four
    # noiseless pixels inside the simplex finish at their accepted probe
    # (iteration 1), while some noisy pixels on a library of P + 2 bands
    # release a variable after their first accept and take two or more.
    rng = np.random.default_rng(62)
    n_bands = n_endmembers + 2
    library = SpectralLibrary(rng.random((n_bands, n_endmembers)))
    inside = library.entries @ rng.dirichlet(np.full(n_endmembers, 20.0), size=4).T
    noisy = library.entries @ rng.dirichlet(np.full(n_endmembers, 0.3), size=12).T
    noisy += 0.05 * rng.standard_normal(noisy.shape)
    pixels = np.column_stack([inside, noisy])
    bounds = np.full(n_endmembers, 0.1 / n_endmembers)
    solutions = unmix_batch(BatchJob(library, pixels, bounds))
    assert batch._SLICE_FACTOR_BYTES // (8 * n_endmembers**2) >= 16  # one slice
    assert all(s.status is SolveStatus.OPTIMAL for s in solutions)
    iterations = [s.outer_iterations for s in solutions]
    assert iterations[:4] == [1] * 4 and max(iterations[4:]) >= 2, iterations
    arrays = [(column, name, value) for column, solution in enumerate(solutions)
              for name, value in vars(solution).items() if isinstance(value, np.ndarray)]
    assert len(arrays) == 16 * 4
    for (j, first, a), (k, second, b) in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b), (j, first, k, second)


def test_batch_rejects_mismatched_pixel_rows():
    problem = random_problem(np.random.default_rng(58), n_bands=10)
    with pytest.raises(DimensionMismatch):
        BatchJob(problem.library, np.ones((7, 2)), problem.lower_bounds)


@pytest.mark.parametrize("pixels", [np.ones(10), np.ones((10, 0))])
def test_batch_rejects_pixels_that_are_not_a_matrix_of_columns(pixels):
    problem = random_problem(np.random.default_rng(58), n_bands=10)
    with pytest.raises(DimensionMismatch):
        BatchJob(problem.library, pixels, problem.lower_bounds)


@pytest.mark.parametrize("shape", [(1, 10), (10, 1)], ids=["one-row", "one-column"])
def test_batch_takes_bounds_as_one_row_or_one_column(shape):
    rng = np.random.default_rng(60)
    library = SpectralLibrary(rng.random((12, 10)))
    pixels = library.entries @ rng.dirichlet(np.ones(10), size=3).T
    bounds = np.full(10, 0.01)
    solutions = unmix_batch(BatchJob(library, pixels, bounds.reshape(shape)))
    for column, solution in enumerate(solutions):
        single = unmix(UnmixingProblem(library, pixels[:, column], bounds))
        assert solution.abundances.tobytes() == single.abundances.tobytes()


@pytest.mark.parametrize("shape", [(2, 5), (1, 10, 1), ()], ids=["2x5", "1x10x1", "scalar"])
def test_batch_rejects_bounds_that_are_not_one_row_or_one_column(shape):
    # At P = 10 a 2 x 5 matrix holds ten bounds, but no row or column of
    # it is the bounds vector, so it is not flattened into one.
    library = SpectralLibrary(np.random.default_rng(61).random((12, 10)))
    with pytest.raises(DimensionMismatch, match=f"got shape {re.escape(str(shape))}"):
        BatchJob(library, np.ones((12, 3)), np.full(shape, 0.01))


def test_batch_rejects_infeasible_bounds():
    problem = random_problem(np.random.default_rng(59), n_endmembers=2)
    job = BatchJob(problem.library, problem.measurement[:, None],
                   np.array([0.7, 0.7]))
    with pytest.raises(InfeasibleLowerBounds):
        unmix_batch(job)
