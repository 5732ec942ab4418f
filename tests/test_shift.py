import warnings

import numpy as np
import pytest

from unmix import (
    BatchJob,
    DimensionMismatch,
    NonFiniteInput,
    ShiftedProblem,
    SolveStatus,
    UnmixingProblem,
    objective_value,
    shift_problem,
    unmix,
    unmix_batch,
    unshift_solution,
)
from unmix.cli import main
from instances import random_problem


def test_zero_bounds_reduce_to_plain_fully_constrained_form():
    rng = np.random.default_rng(0)
    entries = np.abs(rng.standard_normal((4, 3)))
    measurement = rng.standard_normal(4)
    shifted = shift_problem(UnmixingProblem(entries, measurement, np.zeros(3)))
    assert np.array_equal(shifted.shifted_target, measurement)
    assert shifted.budget == 1.0


def test_shift_arithmetic_with_two_bounds():
    rng = np.random.default_rng(1)
    entries = np.abs(rng.standard_normal((5, 2)))
    measurement = rng.standard_normal(5)
    bounds = np.array([0.2, 0.3])
    shifted = shift_problem(UnmixingProblem(entries, measurement, bounds))
    assert shifted.budget == pytest.approx(0.5)
    expected = measurement - 0.2 * entries[:, 0] - 0.3 * entries[:, 1]
    np.testing.assert_allclose(shifted.shifted_target, expected, atol=1e-15)


def test_saturated_bounds_give_zero_budget():
    shifted = shift_problem(UnmixingProblem(np.ones((3, 2)), np.ones(3), np.array([0.4, 0.6])))
    assert shifted.budget == 0.0


def test_budget_clamped_against_summation_roundoff():
    # Ten bounds of 0.1 can sum to 1 + eps-level noise; budget must stay >= 0.
    bounds = np.full(10, 0.1)
    shifted = shift_problem(UnmixingProblem(np.ones((12, 10)), np.ones(12), bounds))
    assert shifted.budget >= 0.0


def test_unshift_adds_bounds_componentwise():
    result = unshift_solution(np.array([0.6, 0.0]), np.array([0.0, 0.4]))
    np.testing.assert_array_equal(result, [0.6, 0.4])


def test_unshift_with_zero_bounds_is_identity():
    x = np.array([0.25, 0.75])
    np.testing.assert_array_equal(unshift_solution(x, np.zeros(2)), x)


def test_unshift_restores_unit_sum_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(50):
        problem = random_problem(rng)
        shifted = shift_problem(problem)
        x = rng.dirichlet(np.ones(shifted.size)) * shifted.budget
        total = unshift_solution(x, problem.lower_bounds).sum()
        assert total == pytest.approx(1.0, abs=1e-12)


def test_unshift_rejects_mismatched_lengths():
    with pytest.raises(DimensionMismatch):
        unshift_solution(np.zeros(3), np.zeros(2))


def test_shift_unshift_round_trip_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        problem = random_problem(rng)
        p = problem.library.n_endmembers
        x = problem.lower_bounds + rng.dirichlet(np.ones(p)) * (
            1.0 - problem.lower_bounds.sum()
        )
        np.testing.assert_array_equal(
            unshift_solution(x - problem.lower_bounds, problem.lower_bounds), x
        )


def test_objective_is_preserved_by_the_shift():
    rng = np.random.default_rng(4)
    for _ in range(50):
        problem = random_problem(rng)
        shifted = shift_problem(problem)
        x_shifted = rng.dirichlet(np.ones(shifted.size)) * shifted.budget
        x = unshift_solution(x_shifted, problem.lower_bounds)
        residual = problem.measurement - problem.library.entries @ x
        original = 0.5 * float(residual @ residual)
        assert objective_value(shifted, x_shifted) == pytest.approx(
            original, rel=1e-10, abs=1e-12
        )


def test_precomputed_gram_is_used_verbatim():
    problem = random_problem(np.random.default_rng(5))
    shifted = shift_problem(problem)
    assert np.array_equal(shifted.gram, problem.library.gram)
    assert not problem.library.gram.flags.writeable


def test_shifted_problem_shares_the_library_gram():
    problem = random_problem(np.random.default_rng(6))
    assert shift_problem(problem).gram is problem.library.gram
    # A Gram matrix given by hand is still checked and copied.
    gram = np.array(problem.library.gram)
    shifted = ShiftedProblem(gram=gram, linear=np.zeros(gram.shape[0]), budget=1.0,
                             library=problem.library)
    assert shifted.gram is not gram and np.array_equal(shifted.gram, gram)
    gram[0, -1] += 1.0
    with pytest.raises(ValueError, match="asymmetric"):
        ShiftedProblem(gram=gram, linear=np.zeros(gram.shape[0]), budget=1.0,
                       library=problem.library)


@pytest.mark.parametrize("entry", [1e200, 0.8e154])
def test_library_whose_gram_overflows_is_rejected(entry):
    # Finite entries whose Gram overflows: at 1e200 in the product A^T A; at
    # 0.8e154 the product (1.28e308) is finite and the symmetrizing sum is not.
    # The shared Gram is checked once, after it is symmetrized.
    # The overflow is reported as NonFiniteInput, not as a RuntimeWarning.
    problem = UnmixingProblem(np.full((2, 2), entry), np.ones(2))
    with pytest.raises(NonFiniteInput, match="gram contains NaN or infinite values"):
        shift_problem(problem)
    with pytest.raises(NonFiniteInput, match="gram contains NaN or infinite values"):
        unmix(problem)


def test_hand_built_gram_that_overflows_when_symmetrized_is_rejected():
    gram = np.full((2, 2), 1.5e308)
    with pytest.raises(NonFiniteInput, match="gram contains NaN or infinite values"):
        ShiftedProblem(gram, np.zeros(2), 1.0)


def _overflowing_pixel():
    # A finite pixel whose linear term A^T y is finite but whose residual
    # constant 0.5 * ||y||^2 overflows.
    rng = np.random.default_rng(61)
    library = rng.random((20, 5))
    return library, 1e160 * (library @ rng.dirichlet(np.ones(5)))


def test_a_residual_constant_that_overflows_is_rejected():
    library, pixel = _overflowing_pixel()
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteInput, match="const_term contains NaN or infinite") as raised:
            unmix(UnmixingProblem(library, pixel))
        [failed] = unmix_batch(BatchJob(library, pixel[:, None]))
    assert failed.status is SolveStatus.FAILED
    assert failed.message == f"NonFiniteInput: {raised.value}"


def test_an_overflowing_pixel_fails_alone_when_warnings_are_errors(tmp_path):
    # CI runs with RuntimeWarning raised as an error. The overflow of the
    # middle pixel's residual constant must fail that pixel alone, with
    # NonFiniteInput, instead of raising out of the shift and aborting the
    # job; the CLI then reports the failed pixel with exit code 3.
    library, pixel = _overflowing_pixel()
    fine = library @ np.full(5, 0.2)
    pixels = np.column_stack([fine, pixel, fine])
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("library", "pixels", "out")}
    np.savetxt(paths["library"], library, delimiter=",", fmt="%.17g")
    np.savetxt(paths["pixels"], pixels, delimiter=",", fmt="%.17g")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solutions = unmix_batch(BatchJob(library, pixels))
        code = main(["--library", paths["library"], "--input", paths["pixels"],
                     "--output", paths["out"]])
    assert [s.status for s in solutions] == [SolveStatus.OPTIMAL, SolveStatus.FAILED,
                                             SolveStatus.OPTIMAL]
    assert solutions[1].message == "NonFiniteInput: const_term contains NaN or infinite values"
    assert code == 3


@pytest.mark.parametrize("const_term", [None, np.inf, np.nan])
def test_shifted_problem_rejects_a_non_finite_const_term(const_term):
    library, pixel = _overflowing_pixel()
    target = pixel if const_term is None else None
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteInput, match="const_term contains NaN or infinite"):
        ShiftedProblem(library.T @ library, library.T @ pixel, 1.0,
                       shifted_target=target, const_term=const_term)


def test_shifted_linear_term_and_target_are_read_only():
    shifted = shift_problem(random_problem(np.random.default_rng(7)))
    for array in (shifted.linear, shifted.shifted_target):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
