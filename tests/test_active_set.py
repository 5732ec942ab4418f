import numpy as np
import pytest

from unmix import (
    RankDeficientLibrary,
    ShiftedProblem,
    SolverConfig,
    SolveStatus,
    SpectralLibrary,
    SubproblemSolution,
    UnmixingProblem,
    active_set_solve,
    brute_force_solve,
    objective_value,
    shift_problem,
    solve_subproblem,
    verify_kkt,
)
from unmix.active_set import (
    ActiveSetState,
    initialize_state,
    lagrange_multipliers,
    max_feasible_step,
    release_from_active,
    transfer_to_active,
)
from unmix.errors import NoBlockingIndex
from instances import random_problem, refined_start


def _state(free, active, iterate):
    return ActiveSetState(
        free=np.asarray(free, dtype=np.intp),
        active=np.asarray(active, dtype=np.intp),
        iterate=np.asarray(iterate, dtype=float),
    )


def _shifted(gram, linear, budget):
    return ShiftedProblem(gram=np.asarray(gram, float), linear=np.asarray(linear, float),
                          budget=budget)


# ---------------------------------------------------------------- start point

def test_uniform_start_splits_the_budget():
    shifted = _shifted(np.eye(4), np.zeros(4), 1.0)
    state = initialize_state(shifted)
    np.testing.assert_array_equal(state.iterate, np.full(4, 0.25))
    np.testing.assert_array_equal(state.free, np.arange(4))
    assert state.active.size == 0


def test_uniform_start_with_partial_budget():
    state = initialize_state(_shifted(np.eye(2), np.zeros(2), 0.5))
    np.testing.assert_array_equal(state.iterate, [0.25, 0.25])


# ------------------------------------------------------------- blocking steps

def test_single_blocking_coordinate():
    state = _state([0, 1], [], [0.5, 0.5])
    candidate = SubproblemSolution(np.array([1.2, -0.2]), 0.0)
    step, blocking = max_feasible_step(state, candidate)
    assert step == pytest.approx(0.5 / 0.7)
    assert blocking == 1


def test_blocking_picks_the_tightest_ratio():
    state = _state([0, 1, 2], [], [0.5, 0.3, 0.2])
    candidate = SubproblemSolution(np.array([0.9, -0.1, 0.2]), 0.0)
    step, blocking = max_feasible_step(state, candidate)
    assert step == pytest.approx(0.75)
    assert blocking == 1


def test_blocking_matches_a_direct_scan():
    # Oracle: minimize -x_i/d_i by explicit enumeration over D^-.
    state = _state([0, 1, 2], [], [0.4, 0.4, 0.2])
    candidate = SubproblemSolution(np.array([1.0, -0.4, -0.4]), 0.0)
    direction = candidate.free_values - state.iterate
    ratios = {i: -state.iterate[i] / direction[i]
              for i in range(3) if direction[i] < 0}
    expected_index = min(ratios, key=ratios.get)
    step, blocking = max_feasible_step(state, candidate)
    assert step == pytest.approx(ratios[expected_index])
    assert step == pytest.approx(1.0 / 3.0)
    assert blocking == expected_index == 2


def test_exact_ties_go_to_the_smallest_index_by_default():
    state = _state([0, 1, 2], [], [0.25, 0.25, 0.5])
    candidate = SubproblemSolution(np.array([1.0, -0.25, -0.5]), 0.0)
    # Ratios for coordinates 1 and 2 are both 0.5.
    step, blocking = max_feasible_step(state, candidate)
    assert step == pytest.approx(0.5)
    assert blocking == 1


def test_exact_ties_with_rng_stay_within_the_tied_set():
    state = _state([0, 1, 2], [], [0.25, 0.25, 0.5])
    candidate = SubproblemSolution(np.array([1.0, -0.25, -0.5]), 0.0)
    seen = set()
    for seed in range(8):
        _, blocking = max_feasible_step(state, candidate, rng=np.random.default_rng(seed))
        seen.add(blocking)
    assert seen <= {1, 2}


def test_no_blocking_index_is_an_internal_error():
    # Misuse guard: a candidate that increases every coordinate never blocks.
    state = _state([0, 1], [], [0.5, 0.5])
    candidate = SubproblemSolution(np.array([0.7, 0.6]), 0.0)
    with pytest.raises(NoBlockingIndex):
        max_feasible_step(state, candidate)


def test_transfer_bookkeeping():
    state = _state([0, 1], [], [0.5, 0.5])
    direction = np.array([0.7, -0.7])
    updated = transfer_to_active(state, 5.0 / 7.0, direction, 1)
    np.testing.assert_array_equal(updated.free, [0])
    np.testing.assert_array_equal(updated.active, [1])
    np.testing.assert_allclose(updated.iterate, [1.0, 0.0], atol=1e-15)
    assert updated.iterate[1] == 0.0


def test_transfer_removes_only_the_blocking_index():
    state = _state([0, 1, 2], [], [0.2, 0.5, 0.3])
    updated = transfer_to_active(state, 0.5, np.array([0.1, -0.2, 0.1]), 1)
    np.testing.assert_array_equal(updated.free, [0, 2])
    np.testing.assert_array_equal(updated.active, [1])


def test_transfer_preserves_the_budget_sum():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = rng.integers(2, 8)
        iterate = rng.dirichlet(np.ones(p))
        direction = rng.standard_normal(p)
        direction -= direction.mean()  # sum-free direction, as in the solver
        down = np.flatnonzero(direction < 0)
        if down.size == 0:
            continue
        ratios = -iterate[down] / direction[down]
        step = ratios.min()
        blocking = down[np.argmin(ratios)]
        state = _state(np.arange(p), [], iterate)
        updated = transfer_to_active(state, step, direction, blocking)
        assert updated.iterate.sum() == pytest.approx(iterate.sum(), abs=1e-12)
        assert updated.iterate.min() >= 0.0


# ------------------------------------------------------------------ multipliers

def test_no_active_constraints_means_no_multipliers():
    shifted = _shifted(np.eye(2), np.zeros(2), 1.0)
    sub = SubproblemSolution(np.array([0.5, 0.5]), 0.0)
    mu = lagrange_multipliers(shifted, sub, np.array([0, 1]), np.array([], dtype=np.intp))
    assert mu.size == 0


def test_multiplier_of_a_pinned_variable():
    # Identity library, target (1.4, -0.4): the optimum pins the second
    # coordinate and its multiplier must be +0.8.
    shifted = _shifted(np.eye(2), np.array([1.4, -0.4]), 1.0)
    sub = solve_subproblem(shifted.gram, shifted.linear, 1.0, [0])
    assert sub.free_values == pytest.approx([1.0])
    assert sub.multiplier == pytest.approx(0.4)
    mu = lagrange_multipliers(shifted, sub, np.array([0]), np.array([1]))
    assert mu == pytest.approx([0.8])
    oracle = brute_force_solve(shifted)
    np.testing.assert_allclose(oracle.shifted_abundances, [1.0, 0.0], atol=1e-12)


def test_release_targets_the_most_negative_multiplier():
    rng = np.random.default_rng(22)
    for _ in range(25):
        p = rng.integers(3, 9)
        active = np.sort(rng.choice(p, size=rng.integers(1, p), replace=False))
        free = np.setdiff1d(np.arange(p), active)
        if free.size == 0:
            continue
        mu = rng.standard_normal(active.size)
        state = _state(free, active, np.zeros(p))
        updated = release_from_active(state, mu, 1e-10)
        if mu.min() >= -1e-10:
            assert updated is None
            continue
        expected = active[np.argmin(mu)]  # direct scan oracle
        assert expected in updated.free
        assert expected not in updated.active


def test_release_examples():
    state = _state([0, 1], [2, 5, 9], np.zeros(10))
    updated = release_from_active(state, np.array([0.3, -0.2, -0.7]), 1e-10)
    np.testing.assert_array_equal(updated.free, [0, 1, 9])
    np.testing.assert_array_equal(updated.active, [2, 5])
    assert release_from_active(state, np.array([0.3, 0.1, 0.0]), 1e-10) is None
    assert release_from_active(state, np.array([-1e-12, 0.1, 0.2]), 1e-10) is None
    assert release_from_active(state, np.zeros(0), 1e-10) is None


def test_release_ties_go_to_the_smallest_index_from_the_vertex_start():
    # Five bands and six endmembers, the identity and (0, 0, 0, 1, 1): the
    # solve starts at the vertex e_0, where mu_a = lam - g_a with lam = 3 - 1
    # for the identity columns. Endmembers 1 and 2 tie exactly at -0.5 and
    # the smaller index is freed first: after one iteration the iterate is
    # (0.75, 0.25, 0, 0, 0, 0).
    library = np.hstack((np.eye(5), [[0.0], [0.0], [0.0], [1.0], [1.0]]))
    shifted = shift_problem(UnmixingProblem(library, np.array([3.0, 2.5, 2.5, 0.0, -1.0])))
    capped = active_set_solve(shifted, SolverConfig(max_outer_iterations=1))
    np.testing.assert_array_equal(capped.shifted_abundances, [0.75, 0.25, 0.0, 0.0, 0.0, 0.0])
    solution = active_set_solve(shifted)
    assert solution.objective_trace[0] == objective_value(shifted, np.eye(6)[0])
    np.testing.assert_array_equal(solution.final_free, [0, 1, 2])


def test_release_ties_go_to_the_smallest_index_from_the_uniform_start():
    # Endmembers 1 and 2 share every band but one of their own, where the
    # pixel is 0: their Gram rows agree off the (1, 2) block and their
    # linear terms agree, so while both are pinned their multipliers are
    # bitwise equal. The probe has 3 of 9 entries negative, 1 and 2 among
    # them, so the solve refines its start on the probe's positive support
    # {0, 3, 4, 5, 7, 8}, then on {0, 4, 7, 8}, whose feasible candidate it
    # accepts as iteration 0 and prices with 1 and 2 at an exact tie.
    entries = np.array([[4, 5, 5, 2, 0, 5, 4, 1, 5], [4, 2, 2, 3, 4, 4, 4, 3, 3],
                        [3, 1, 1, 0, 4, 1, 2, 4, 3], [2, 2, 2, 0, 3, 3, 1, 4, 0],
                        [0, 3, 3, 4, 5, 4, 1, 0, 1], [2, 1, 1, 0, 4, 5, 5, 4, 1],
                        [1, 0, 0, 5, 2, 1, 3, 0, 1], [0, 1, 0, 0, 0, 0, 0, 0, 0],
                        [0, 0, 1, 0, 0, 0, 0, 0, 0]], dtype=float)
    shifted = shift_problem(UnmixingProblem(entries, np.array([2.0, 4, 4, 3, 1, 1, 0, 0, 0])))
    rows = np.delete(shifted.gram[[1, 2]], [1, 2], axis=1)
    np.testing.assert_array_equal(rows[0], rows[1])
    assert shifted.linear[1] == shifted.linear[2]
    supports, x0 = refined_start(shifted)
    assert [free.tolist() for free in supports] == [[0, 3, 4, 5, 7, 8], [0, 4, 7, 8]]
    solution = active_set_solve(shifted)
    assert solution.objective_trace[0] == objective_value(shifted, x0)
    assert x0[1] == x0[2] == 0.0
    sub = solve_subproblem(shifted.gram, shifted.linear, shifted.budget, [0, 4, 7, 8])
    mu = lagrange_multipliers(shifted, sub, np.array([0, 4, 7, 8]), np.array([1, 2, 3, 5, 6]))
    assert mu[0] == mu[1] < min(-1e-3, *mu[2:])
    released = release_from_active(_state([0, 4, 7, 8], [1, 2, 3, 5, 6], x0), mu, 1e-10)
    np.testing.assert_array_equal(released.free, [0, 1, 4, 7, 8])
    # A cap of 1 returns the candidate on the released free set, accepted at
    # iteration 1: it holds 1 and not 2.
    after = active_set_solve(shifted, SolverConfig(max_outer_iterations=1))
    candidate = np.zeros(9)
    candidate[released.free] = solve_subproblem(shifted.gram, shifted.linear, shifted.budget,
                                                released.free).free_values
    np.testing.assert_allclose(after.shifted_abundances, candidate, rtol=0, atol=1e-12)
    assert after.shifted_abundances[1] > 0.0 == after.shifted_abundances[2]
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.shifted_abundances[1] == pytest.approx(solution.shifted_abundances[2])


# ------------------------------------------------------------------ full solves

def test_interior_optimum_in_one_iteration():
    shifted = _shifted(np.eye(2), np.array([0.7, 0.3]), 1.0)
    solution = active_set_solve(shifted)
    np.testing.assert_allclose(solution.shifted_abundances, [0.7, 0.3], atol=1e-12)
    assert solution.eq_multiplier == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(solution.ineq_multipliers, [0.0, 0.0], atol=1e-12)
    assert solution.outer_iterations == 1
    assert solution.status is SolveStatus.OPTIMAL


def test_pinned_optimum_with_known_multipliers():
    shifted = _shifted(np.eye(2), np.array([1.5, -0.5]), 1.0)
    solution = active_set_solve(shifted)
    np.testing.assert_allclose(solution.shifted_abundances, [1.0, 0.0], atol=1e-12)
    assert solution.eq_multiplier == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(solution.ineq_multipliers, [0.0, 1.0], atol=1e-12)


def test_full_pipeline_with_lower_bounds():
    problem = UnmixingProblem(np.eye(2), np.array([1.0, 0.0]), np.array([0.0, 0.4]))
    shifted = shift_problem(problem)
    solution = active_set_solve(shifted)
    np.testing.assert_allclose(solution.shifted_abundances, [0.6, 0.0], atol=1e-12)
    assert solution.eq_multiplier == pytest.approx(0.4, abs=1e-12)
    np.testing.assert_allclose(solution.ineq_multipliers, [0.0, 0.8], atol=1e-12)


def test_zero_budget_short_circuits():
    problem = UnmixingProblem(np.eye(2), np.array([1.0, 0.0]), np.array([0.4, 0.6]))
    shifted = shift_problem(problem)
    solution = active_set_solve(shifted)
    assert solution.outer_iterations == 0
    assert solution.status is SolveStatus.OPTIMAL
    np.testing.assert_array_equal(solution.shifted_abundances, np.zeros(2))
    assert solution.ineq_multipliers.min() >= 0.0


def test_solver_matches_oracle_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(40):
        problem = random_problem(rng, n_endmembers=rng.integers(2, 7))
        shifted = shift_problem(problem)
        solution = active_set_solve(shifted)
        oracle = brute_force_solve(shifted)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(
            oracle.objective, rel=1e-8, abs=1e-12
        )
        np.testing.assert_allclose(
            solution.shifted_abundances, oracle.shifted_abundances, atol=1e-6
        )


def test_every_iterate_update_decreases_the_objective():
    rng = np.random.default_rng(24)
    for _ in range(25):
        shifted = shift_problem(random_problem(rng))
        solution = active_set_solve(shifted)
        trace = np.asarray(solution.objective_trace)
        assert trace.size == solution.outer_iterations + 1
        # Allow ulp-level re-evaluation noise on no-move final acceptances.
        assert (np.diff(trace) <= 1e-14 * max(1.0, trace[0])).all()


def test_final_iterate_is_primal_feasible():
    rng = np.random.default_rng(25)
    for _ in range(25):
        shifted = shift_problem(random_problem(rng))
        solution = active_set_solve(shifted)
        x = solution.shifted_abundances
        assert x.min() >= 0.0
        assert x.sum() == pytest.approx(shifted.budget, abs=shifted.size * 1e-10)
        np.testing.assert_array_equal(x[np.setdiff1d(np.arange(shifted.size),
                                                     solution.final_free)], 0.0)


def test_complementarity_holds_exactly():
    rng = np.random.default_rng(26)
    for _ in range(25):
        shifted = shift_problem(random_problem(rng))
        solution = active_set_solve(shifted)
        np.testing.assert_array_equal(
            solution.ineq_multipliers * solution.shifted_abundances, 0.0
        )


def test_duplicated_columns_raise_rank_deficient():
    column = np.array([0.5, 1.0, 0.25])
    entries = np.column_stack([column, column])
    shifted = shift_problem(UnmixingProblem(entries, np.array([1.0, 1.0, 1.0])))
    with pytest.raises(RankDeficientLibrary):
        active_set_solve(shifted)


def test_wide_library_reports_the_band_deficit():
    # A pixel inside the triangle of 3 spectra in 2 bands: the optimum needs
    # all 3, whose Gram block cannot be full rank.
    entries = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    shifted = shift_problem(UnmixingProblem(entries, np.array([0.7, 0.7])))
    with pytest.raises(RankDeficientLibrary, match="3 free variables exceed the 2 spectral bands"):
        active_set_solve(shifted)


@pytest.mark.parametrize("pixel, support", [
    ([1.5, 1.0], [0, 2]), ([0.5, 0.6], [1, 4]), ([1.0, 0.0], [0, 1]), ([1.2, 1.2], [2]),
])
def test_wide_library_solves_when_the_optimal_support_has_full_rank(pixel, support):
    # 5 endmembers in 2 bands: the solve starts at the best vertex and frees
    # at most as many endmembers as the optimum uses.
    rng = np.random.default_rng(27)
    entries = np.abs(rng.standard_normal((2, 5)))
    shifted = shift_problem(UnmixingProblem(entries, np.array(pixel)))
    solution = active_set_solve(shifted)
    oracle = brute_force_solve(shifted)
    assert solution.status is SolveStatus.OPTIMAL
    assert (np.diff(solution.final_free) > 0).all()  # sorted, unlike the factor's order
    assert list(solution.final_free) == support
    assert solution.objective == pytest.approx(oracle.objective, rel=1e-12, abs=1e-15)
    np.testing.assert_allclose(solution.shifted_abundances, oracle.shifted_abundances,
                               rtol=0, atol=1e-12)


def test_iteration_cap_is_reported_not_raised():
    rng = np.random.default_rng(28)
    problem = random_problem(rng, n_endmembers=6)
    config = SolverConfig(max_outer_iterations=1)
    solution = active_set_solve(shift_problem(problem), config)
    if solution.status is SolveStatus.MAX_ITERATIONS:
        assert "cap" in solution.message
        assert solution.outer_iterations == 1


def test_random_tie_break_is_reproducible():
    rng = np.random.default_rng(29)
    problem = random_problem(rng, n_endmembers=8)
    shifted = shift_problem(problem)
    config = SolverConfig(tie_break="random", tie_seed=1234)
    first = active_set_solve(shifted, config)
    second = active_set_solve(shifted, config)
    np.testing.assert_array_equal(first.shifted_abundances, second.shifted_abundances)
    assert first.outer_iterations == second.outer_iterations


def test_solutions_agree_across_tie_policies_on_generic_data():
    rng = np.random.default_rng(30)
    shifted = shift_problem(random_problem(rng, n_endmembers=5))
    smallest = active_set_solve(shifted, SolverConfig(tie_break="smallest"))
    random_policy = active_set_solve(shifted, SolverConfig(tie_break="random", tie_seed=7))
    np.testing.assert_allclose(
        smallest.shifted_abundances, random_policy.shifted_abundances, atol=1e-9
    )


def test_objective_value_is_reported_at_the_solution():
    rng = np.random.default_rng(31)
    shifted = shift_problem(random_problem(rng))
    solution = active_set_solve(shifted)
    assert solution.objective == pytest.approx(
        objective_value(shifted, solution.shifted_abundances), rel=1e-12, abs=1e-15
    )


# ------------------------------------------------- kept factor vs fresh solves

def _reference_solve(shifted, config):
    # The loop of demos/04_solver_anatomy.py: the public step helpers with a
    # fresh factorization in every solve_subproblem call, and the solver's
    # start. A library wider than its bands starts at the best vertex; else
    # the uniform start's first solve is a probe. An infeasible probe, and
    # while it is infeasible the candidate on its strictly positive support,
    # makes the solve start over on that support with no iteration spent;
    # the first feasible candidate is priced at iteration 0, like the
    # vertex. Returns the iterations, the answer and the number of pins.
    p, s = shifted.size, shifted.budget
    state = initialize_state(shifted)
    iteration = pins = 0
    if p > shifted.shifted_target.size:
        best = int(np.argmin(0.5 * s * s * np.diag(shifted.gram) - s * shifted.linear))
        state = _state([best], np.delete(np.arange(p), best), s * np.eye(p)[best])
        sub = SubproblemSolution(np.array([s]),
                                 shifted.linear[best] - s * shifted.gram[best, best])
    else:
        iteration = 1
        sub = solve_subproblem(shifted.gram, shifted.linear, s, state.free)
        while sub.free_values.min() < -config.primal_tol:
            free = state.free[sub.free_values > 0.0]
            state = _state(free, np.setdiff1d(np.arange(p), free), np.zeros(p))
            sub = solve_subproblem(shifted.gram, shifted.linear, s, free)
            iteration = 0
    while True:
        if sub.free_values.min() >= -config.primal_tol:
            iterate = np.zeros(p)
            iterate[state.free] = np.maximum(sub.free_values, 0.0)
            state = ActiveSetState(free=state.free, active=state.active, iterate=iterate)
            mu = lagrange_multipliers(shifted, sub, state.free, state.active)
            released = release_from_active(state, mu, config.dual_tol)
            if released is None:
                return iteration, state.free, iterate, pins
            state = released
        else:
            step, blocking = max_feasible_step(state, sub)
            direction = np.zeros(p)
            direction[state.free] = sub.free_values - state.iterate[state.free]
            state = transfer_to_active(state, step, direction, blocking)
            pins += 1
        if iteration == config.iteration_cap(p):
            raise AssertionError("reference loop hit the iteration cap")
        iteration += 1
        sub = solve_subproblem(shifted.gram, shifted.linear, s, state.free)


def _assert_same_pivots(shifted, config=None):
    config = config or SolverConfig()
    solution = active_set_solve(shifted, config)
    iterations, free, iterate, pins = _reference_solve(shifted, config)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.outer_iterations == iterations
    np.testing.assert_array_equal(solution.final_free, free)
    np.testing.assert_allclose(solution.shifted_abundances, iterate, rtol=0, atol=1e-10)
    return solution, pins


def test_kept_factor_pivots_like_fresh_solves_on_small_instances():
    # Most refined starts are optimal at once or after one release. Libraries
    # with few more bands than endmembers and noisier pixels walk further.
    rng = np.random.default_rng(32)
    for _ in range(60):
        _assert_same_pivots(shift_problem(random_problem(rng)))
    pins = 0
    for _ in range(60):
        p = int(rng.integers(6, 13))
        problem = random_problem(rng, n_endmembers=p, n_bands=p + int(rng.integers(0, 4)),
                                 noise=0.2)
        pins += _assert_same_pivots(shift_problem(problem))[1]
    assert pins > 0  # the blocking step was taken


def test_kept_factor_pivots_like_fresh_solves_on_224_band_libraries():
    rng = np.random.default_rng(33)
    pins = 0
    for _ in range(12):
        problem = random_problem(rng, n_endmembers=int(rng.integers(50, 151)), n_bands=224)
        pins += _assert_same_pivots(shift_problem(problem))[1]
    assert pins > 0  # the downdate path was taken


def test_kept_factor_pivots_like_fresh_solves_on_wide_libraries():
    # 60 endmembers in 30 bands, 4-sparse pixels: every solve starts at the
    # vertex, and every answer is certified.
    rng = np.random.default_rng(35)
    library = SpectralLibrary(rng.random((30, 60)))
    for _ in range(6):
        abundances = np.zeros(60)
        abundances[rng.choice(60, 4, replace=False)] = rng.dirichlet(np.ones(4))
        pixel = library.entries @ abundances + 0.01 * rng.standard_normal(30)
        bounds = rng.dirichlet(np.ones(60)) * 0.2
        shifted = shift_problem(UnmixingProblem(library, pixel, bounds))
        solution, _ = _assert_same_pivots(shifted)
        assert (np.diff(solution.final_free) > 0).all()
        assert verify_kkt(shifted, solution.shifted_abundances, solution.eq_multiplier,
                          solution.ineq_multipliers).satisfied
