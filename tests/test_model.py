import numpy as np
import pytest

from unmix import (
    DimensionMismatch,
    InfeasibleLowerBounds,
    NonFiniteInput,
    ShiftedProblem,
    SolverConfig,
    SpectralLibrary,
    UnmixingProblem,
    objective_value,
    shift_problem,
    validate_problem,
)
from instances import random_problem


def test_validate_accepts_zero_bounds():
    problem = UnmixingProblem(np.ones((3, 2)), np.ones(3), np.zeros(2))
    validate_problem(problem)


def test_validate_rejects_oversubscribed_bounds():
    problem = UnmixingProblem(np.ones((3, 2)), np.ones(3), np.array([0.6, 0.6]))
    with pytest.raises(InfeasibleLowerBounds):
        validate_problem(problem)


def test_validate_rejects_short_measurement():
    problem = UnmixingProblem(np.ones((3, 2)), np.ones(2), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        validate_problem(problem)


def test_validate_rejects_negative_bound():
    problem = UnmixingProblem(np.ones((3, 2)), np.ones(3), np.array([-0.1, 0.5]))
    with pytest.raises(InfeasibleLowerBounds):
        validate_problem(problem)


def test_validate_tolerates_rounding_on_the_boundary():
    problem = UnmixingProblem(np.ones((3, 2)), np.ones(3), np.array([0.5, 0.5 + 5e-11]))
    validate_problem(problem)  # within primal_tol of feasible


def test_validate_rejects_nan_measurement():
    problem = UnmixingProblem(np.ones((3, 2)), np.array([1.0, np.nan, 0.0]))
    with pytest.raises(NonFiniteInput):
        validate_problem(problem)


@pytest.mark.parametrize("bounds, error", [
    (np.zeros(3), DimensionMismatch), (np.array([np.nan, 0.5]), NonFiniteInput)])
def test_validate_rejects_bounds_of_the_wrong_length_or_not_finite(bounds, error):
    problem = UnmixingProblem(np.ones((3, 2)), np.ones(3), bounds)
    with pytest.raises(error):
        validate_problem(problem)


@pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
def test_library_rejects_an_empty_dimension(shape):
    with pytest.raises(DimensionMismatch, match="at least 1x1"):
        SpectralLibrary(np.ones(shape))


def test_library_rejects_non_finite_entries():
    with pytest.raises(NonFiniteInput):
        SpectralLibrary(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_library_shape_properties():
    lib = SpectralLibrary(np.ones((5, 3)))
    assert (lib.n_bands, lib.n_endmembers) == (5, 3)
    assert not lib.entries.flags.writeable


def test_objective_at_origin_is_const_term():
    shifted = ShiftedProblem(gram=np.eye(2), linear=np.zeros(2), budget=1.0,
                             const_term=0.75)
    assert objective_value(shifted, np.zeros(2)) == 0.75


def test_objective_exact_fit_vanishes():
    shifted = ShiftedProblem(gram=np.eye(2), linear=np.array([1.0, 0.0]),
                             budget=1.0, const_term=0.5)
    assert objective_value(shifted, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)


def test_objective_matches_direct_residual_norm():
    # Independent route: build the residual from the library itself.
    rng = np.random.default_rng(7)
    entries = rng.standard_normal((4, 3))
    target = rng.standard_normal(4)
    problem = UnmixingProblem(entries, target, np.zeros(3))
    shifted = shift_problem(problem)
    x = rng.dirichlet(np.ones(3))
    residual = target - entries @ x
    assert objective_value(shifted, x) == pytest.approx(0.5 * residual @ residual, rel=1e-12)


def test_objective_two_formulas_agree_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(50):
        problem = random_problem(rng)
        shifted = shift_problem(problem)
        x = rng.dirichlet(np.ones(shifted.size)) * shifted.budget
        direct = shifted.shifted_target - problem.library.entries @ x
        expected = 0.5 * float(direct @ direct)
        assert objective_value(shifted, x) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    for _ in range(10):
        problem = random_problem(rng)
        shifted = shift_problem(problem)
        x = rng.dirichlet(np.ones(shifted.size)) * shifted.budget
        gradient = shifted.gram @ x - shifted.linear
        step = 1e-5
        for i in range(shifted.size):
            bump = np.zeros(shifted.size)
            bump[i] = step
            fd = (objective_value(shifted, x + bump) - objective_value(shifted, x - bump)) / (2 * step)
            assert gradient[i] == pytest.approx(fd, abs=1e-6)


def test_objective_rejects_wrong_length():
    shifted = ShiftedProblem(gram=np.eye(2), linear=np.zeros(2), budget=1.0)
    with pytest.raises(DimensionMismatch):
        objective_value(shifted, np.zeros(3))


def test_shifted_problem_symmetrizes_gram():
    gram = np.array([[2.0, 1.0 + 1e-14], [1.0, 3.0]])
    shifted = ShiftedProblem(gram=gram, linear=np.zeros(2), budget=1.0)
    assert np.array_equal(shifted.gram, shifted.gram.T)


def test_shifted_problem_rejects_asymmetric_gram():
    gram = np.array([[2.0, 1.5], [1.0, 3.0]])
    with pytest.raises(ValueError):
        ShiftedProblem(gram=gram, linear=np.zeros(2), budget=1.0)


@pytest.mark.parametrize("kwargs, error", [
    ({"gram": np.ones((2, 3))}, DimensionMismatch),
    ({"linear": np.zeros(3)}, DimensionMismatch),
    ({"const_term": -0.5}, ValueError),
])
def test_shifted_problem_rejects_malformed_terms(kwargs, error):
    terms = {"gram": np.eye(2), "linear": np.zeros(2), "budget": 1.0, **kwargs}
    with pytest.raises(error):
        ShiftedProblem(**terms)


def test_shifted_problem_rejects_negative_budget():
    with pytest.raises(ValueError):
        ShiftedProblem(gram=np.eye(2), linear=np.zeros(2), budget=-0.5)


def test_shifted_problem_checks_const_term_against_target():
    target = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        ShiftedProblem(gram=np.eye(2), linear=np.zeros(2), budget=1.0,
                       shifted_target=target, const_term=1.0)
    shifted = ShiftedProblem(gram=np.eye(2), linear=np.zeros(2), budget=1.0,
                             shifted_target=target)
    assert shifted.const_term == pytest.approx(2.5)


@pytest.mark.parametrize("kwargs", [
    {"primal_tol": 0.0},
    {"dual_tol": -1e-3},
    {"max_outer_iterations": 0},
    {"tie_break": "alphabetical"},
    {"max_outer_iterations": 2.5},
    {"max_outer_iterations": 3.0},
    {"tie_seed": -1},
    {"tie_seed": 1.5},
    {"max_outer_iterations": True},
    {"tie_seed": True},
    {"primal_tol": np.inf},
    {"dual_tol": np.inf},
    {"dual_tol": np.nan},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_config_iteration_cap_defaults_to_ten_per_endmember():
    assert SolverConfig().iteration_cap(7) == 70
    assert SolverConfig(max_outer_iterations=3).iteration_cap(7) == 3
    assert SolverConfig(max_outer_iterations=np.int64(3)).iteration_cap(7) == 3


def test_config_names_the_setting_it_rejects():
    # The loop stops when its count equals the cap, which a fractional cap
    # never does; an unchecked seed would fail only inside the solve. An
    # infinite primal tolerance accepts bounds that sum past 1, and an
    # infinite dual one certifies any multipliers.
    with pytest.raises(ValueError, match="max_outer_iterations must be an integer, got 2.5"):
        SolverConfig(max_outer_iterations=2.5)
    with pytest.raises(ValueError, match="tie_seed must be an integer, got 1.5"):
        SolverConfig(tie_break="random", tie_seed=1.5)
    # A bool passes operator.index as 0 or 1.
    with pytest.raises(ValueError, match="max_outer_iterations must be an integer, got True"):
        SolverConfig(max_outer_iterations=True)
    with pytest.raises(ValueError, match="tie_seed must be an integer, got True"):
        SolverConfig(tie_break="random", tie_seed=True)
    with pytest.raises(ValueError, match="primal_tol must be positive and finite, got inf"):
        SolverConfig(primal_tol=np.inf)
    with pytest.raises(ValueError, match="dual_tol must be positive and finite, got inf"):
        SolverConfig(dual_tol=np.inf)
