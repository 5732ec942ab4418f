import numpy as np
import pytest

from unmix import (
    DimensionMismatch,
    InstanceTooLarge,
    NoFeasibleCandidate,
    ShiftedProblem,
    SolveStatus,
    active_set_solve,
    brute_force_solve,
    objective_value,
    shift_problem,
    verify_kkt,
)
from unmix.active_set import initialize_state
from instances import random_problem


def test_solver_output_passes_verification():
    rng = np.random.default_rng(41)
    for _ in range(25):
        shifted = shift_problem(random_problem(rng))
        solution = active_set_solve(shifted)
        report = verify_kkt(shifted, solution.shifted_abundances,
                            solution.eq_multiplier, solution.ineq_multipliers)
        assert report.satisfied, report


def test_uniform_start_is_generically_not_stationary():
    shifted = shift_problem(random_problem(np.random.default_rng(42)))
    state = initialize_state(shifted)
    report = verify_kkt(shifted, state.iterate, 0.0, np.zeros(shifted.size))
    assert report.stationarity_residual > 0.0
    assert not report.satisfied


def test_sum_violation_shows_up_as_equality_residual():
    shifted = ShiftedProblem(gram=np.eye(2), linear=np.zeros(2), budget=1.0)
    report = verify_kkt(shifted, np.array([0.6, 0.5]), 0.0, np.zeros(2))
    assert report.primal_eq_residual == pytest.approx(0.1)


def test_negative_entries_show_up_as_violations():
    shifted = ShiftedProblem(gram=np.eye(2), linear=np.zeros(2), budget=0.0)
    report = verify_kkt(shifted, np.array([-0.2, 0.2]), 0.0, np.array([-0.3, 0.0]))
    assert report.primal_ineq_violation == pytest.approx(0.2)
    assert report.dual_violation == pytest.approx(0.3)
    assert report.complementarity_residual == pytest.approx(0.06)


def test_verify_rejects_wrong_lengths():
    shifted = ShiftedProblem(gram=np.eye(2), linear=np.zeros(2), budget=1.0)
    with pytest.raises(DimensionMismatch):
        verify_kkt(shifted, np.zeros(3), 0.0, np.zeros(2))


def test_single_variable_is_forced_to_the_budget():
    shifted = ShiftedProblem(gram=np.array([[2.0]]), linear=np.array([0.3]), budget=0.8)
    oracle = brute_force_solve(shifted)
    np.testing.assert_allclose(oracle.shifted_abundances, [0.8], atol=1e-15)


def test_identity_instance_enumerates_to_the_known_optimum():
    shifted = ShiftedProblem(gram=np.eye(2), linear=np.array([1.5, -0.5]), budget=1.0,
                             const_term=0.5 * (1.5**2 + 0.5**2))
    oracle = brute_force_solve(shifted)
    np.testing.assert_allclose(oracle.shifted_abundances, [1.0, 0.0], atol=1e-12)
    assert oracle.objective == pytest.approx(0.25)
    assert oracle.status is SolveStatus.OPTIMAL


def test_oracle_agrees_with_a_dense_grid_scan():
    # Third, fully independent check: evaluate the objective on a fine grid
    # of the two-variable feasible segment.
    rng = np.random.default_rng(43)
    for _ in range(5):
        problem = random_problem(rng, n_endmembers=2)
        shifted = shift_problem(problem)
        oracle = brute_force_solve(shifted)
        first = np.linspace(0.0, shifted.budget, 4001)
        values = [objective_value(shifted, np.array([a, shifted.budget - a]))
                  for a in first]
        grid_min = min(values)
        assert oracle.objective <= grid_min + 1e-12
        assert grid_min - oracle.objective <= 1e-5


def test_oracle_certificate_passes_verification():
    rng = np.random.default_rng(44)
    for _ in range(10):
        shifted = shift_problem(random_problem(rng, n_endmembers=rng.integers(2, 6)))
        oracle = brute_force_solve(shifted)
        report = verify_kkt(shifted, oracle.shifted_abundances,
                            oracle.eq_multiplier, oracle.ineq_multipliers)
        assert report.satisfied


def test_enumeration_cap():
    with pytest.raises(InstanceTooLarge):
        brute_force_solve(ShiftedProblem(gram=np.eye(16), linear=np.zeros(16), budget=1.0))


def test_all_rank_deficient_subsets_is_reported():
    shifted = ShiftedProblem(gram=np.zeros((3, 3)), linear=np.zeros(3), budget=1.0)
    with pytest.raises(NoFeasibleCandidate):
        brute_force_solve(shifted)


def test_feasible_candidates_without_a_certificate_are_reported():
    # Column 1 is zero, so only the free set [0] can be solved, and its
    # candidate e_0 prices variable 1 at -1: no free set certifies.
    shifted = ShiftedProblem(gram=np.diag([1.0, 0.0]), linear=np.zeros(2), budget=1.0)
    with pytest.raises(RuntimeError, match="none with nonnegative multipliers"):
        brute_force_solve(shifted)


def test_zero_budget_certificate():
    shifted = ShiftedProblem(gram=np.eye(2), linear=np.array([0.4, -0.2]), budget=0.0)
    oracle = brute_force_solve(shifted)
    np.testing.assert_array_equal(oracle.shifted_abundances, np.zeros(2))
    report = verify_kkt(shifted, oracle.shifted_abundances, oracle.eq_multiplier,
                        oracle.ineq_multipliers)
    assert report.satisfied
