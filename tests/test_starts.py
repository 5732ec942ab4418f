"""Which start a solve takes, and what its objective trace records.

A solve starts at the uniform point ``s / P``, whose first candidate is a
probe. A feasible probe is accepted. Any other refines the start: it frees
the probe's strictly positive support and solves there, and while the
candidate is infeasible it frees that candidate's strictly positive support
and solves again. The first feasible candidate is accepted as iteration 0,
and the trace begins there. A library with more endmembers than bands
starts at the best vertex outright. ``unmix`` and ``unmix_batch`` must
choose alike.
"""

import importlib

import numpy as np
import pytest

from unmix import (
    BatchJob,
    RankDeficientLibrary,
    SolverConfig,
    SolveStatus,
    SpectralLibrary,
    UnmixingProblem,
    active_set_solve,
    brute_force_solve,
    objective_value,
    shift_problem,
    solve_subproblem,
    unmix,
    unmix_batch,
    verify_kkt,
)
from instances import counted_starts, random_problem, refined_start, uniform_probe

active_set = importlib.import_module("unmix.active_set")


def _sparse_scene(rng, n_bands, n_endmembers, support, n_pixels):
    library = rng.random((n_bands, n_endmembers))
    abundances = np.zeros((n_endmembers, n_pixels))
    for column in range(n_pixels):
        chosen = rng.choice(n_endmembers, support, replace=False)
        abundances[chosen, column] = rng.dirichlet(np.ones(support))
    pixels = library @ abundances + 0.01 * rng.standard_normal((n_bands, n_pixels))
    return SpectralLibrary(library), pixels


def _dense_scene(rng, n_endmembers, n_pixels):
    library = rng.random((224, n_endmembers))
    abundances = rng.dirichlet(np.full(n_endmembers, 0.3), size=n_pixels).T
    pixels = library @ abundances + 0.01 * rng.standard_normal((224, n_pixels))
    return SpectralLibrary(library), pixels


@pytest.mark.parametrize("scene, bounded, expected", [
    ("dense P=30", False, {"refined": 40}),
    ("dense P=100", True, {"refined": 12}),
    ("P=60 over 40 bands", False, {"vertex": 12}),
])
def test_each_pixel_takes_the_same_start_on_both_paths(scene, bounded, expected):
    rng = np.random.default_rng(606)
    if scene == "dense P=30":
        library, pixels = _dense_scene(rng, 30, 40)
    elif scene == "dense P=100":
        library, pixels = _dense_scene(rng, 100, 12)
    else:
        library, pixels = _sparse_scene(rng, 40, 60, 4, 12)
    p = library.n_endmembers
    bounds = rng.dirichlet(np.ones(p)) * 0.3 if bounded else None
    single = counted_starts(library, pixels, bounds,
                             [unmix(UnmixingProblem(library, pixels[:, column], bounds))
                              for column in range(pixels.shape[1])])
    batched = counted_starts(library, pixels, bounds,
                              unmix_batch(BatchJob(library, pixels, bounds)))
    assert single == batched == expected


def _assert_trace_describes_every_iterate(shifted):
    solution = active_set_solve(shifted)
    assert solution.status is SolveStatus.OPTIMAL
    trace = np.asarray(solution.objective_trace)
    assert trace.size == solution.outer_iterations + 1
    assert (np.diff(trace) < 0.0).all()
    # A cap of k returns the k-th iterate, whose objective is trace[k].
    for cap in range(1, solution.outer_iterations):
        capped = active_set_solve(shifted, SolverConfig(max_outer_iterations=cap))
        assert capped.status is SolveStatus.MAX_ITERATIONS
        assert capped.objective_trace == solution.objective_trace[:cap + 1]
        assert objective_value(shifted, capped.shifted_abundances) == trace[cap]
        pinned = np.ones(shifted.size, dtype=bool)
        pinned[capped.final_free] = False
        assert not capped.shifted_abundances[pinned].any()  # exactly zero
    assert objective_value(shifted, solution.shifted_abundances) == trace[-1]
    return solution


@pytest.mark.parametrize("wide", [False, True], ids=["uniform start", "vertex start"])
def test_every_solve_strictly_decreases_the_objective(wide):
    # Over 224 bands every probe here is infeasible, so each solve refines
    # its start; over fewer bands than endmembers each starts at the best
    # vertex. P = 50, 30 and 10 solve their rounds in stacked calls, 100 and
    # 150 on kept systems.
    rng = np.random.default_rng(607)
    for p in (50, 100, 150, 30, 10):
        problem = random_problem(rng, n_endmembers=p, n_bands=p // 2 + 2 if wide else 224)
        shifted = shift_problem(problem)
        start = _assert_trace_describes_every_iterate(shifted).objective_trace[0]
        if wide:
            s = shifted.budget
            vertex = np.argmin(0.5 * s * s * shifted.gram.diagonal() - s * shifted.linear)
            assert start == objective_value(shifted, s * np.eye(p)[vertex])
        else:
            assert uniform_probe(shifted).min() < -SolverConfig().primal_tol
            assert start == objective_value(shifted, refined_start(shifted)[1])


def test_a_refined_start_frees_strictly_shrinking_positive_supports(monkeypatch):
    # The solver's own free sets, as its start writes them: each is the
    # strictly positive support of the last candidate, a strict subset of
    # the one before, at most P of them end at a feasible candidate, and
    # the trace begins at that candidate. P = 30 refines in stacked calls,
    # 100 and 150 on kept systems; the batch refines a slice's pixels
    # together, unmix() each alone. A kept row refines alone, within its
    # round, so ``rows`` is then one row.
    refined = []
    refine = active_set._Slice.refine

    def recorded(state, rows, candidates):
        refine(state, rows, candidates)
        refined.extend((state.linear[r].tobytes(), np.flatnonzero(state.free[r]))
                       for r in np.atleast_1d(rows).tolist())

    monkeypatch.setattr(active_set._Slice, "refine", recorded)
    rng = np.random.default_rng(610)
    tol = SolverConfig().primal_tol
    depths = set()
    for p in (30, 100, 150):
        library, pixels = _dense_scene(rng, p, 6)
        for solve in (lambda: unmix_batch(BatchJob(library, pixels)),
                      lambda: [unmix(UnmixingProblem(library, pixel)) for pixel in pixels.T]):
            refined.clear()
            for pixel, solution in zip(pixels.T, solve()):
                shifted = shift_problem(UnmixingProblem(library, pixel))
                key = shifted.linear.tobytes()
                written = [free for linear, free in refined if linear == key]
                supports, x0 = refined_start(shifted)
                assert 1 <= len(written) <= p
                assert [free.tolist() for free in written] == [free.tolist() for free in supports]
                for before, after in zip([np.arange(p), *written], written):
                    assert set(after) < set(before)
                last = solve_subproblem(shifted.gram, shifted.linear, shifted.budget,
                                        written[-1])
                assert last.free_values.min() >= -tol
                assert solution.objective_trace[0] == objective_value(shifted, x0)
                depths.add(len(written))
    assert max(depths) >= 3


def test_a_support_start_frees_only_the_strictly_positive_probe_entries():
    # An identity library makes the probe y - lam with lam = (sum(y) - 1) / 6,
    # here exactly (0.75, 0.5, 0, -0.25, 0, 0). One entry is negative, so
    # the solve refines its start on the support {0, 1}: the probe's exact
    # zeros are pinned like its negative entry. The candidate there,
    # (0.625, 0.375), is feasible, accepted as iteration 0 and optimal.
    library = SpectralLibrary(np.eye(6))
    pixel = np.array([0.75, 0.5, 0.0, -0.25, 0.0, 0.0])
    shifted = shift_problem(UnmixingProblem(library, pixel))
    probe = solve_subproblem(shifted.gram, shifted.linear, shifted.budget, np.arange(6))
    np.testing.assert_array_equal(probe.free_values, pixel)
    supports, x0 = refined_start(shifted)
    assert [free.tolist() for free in supports] == [[0, 1]]
    np.testing.assert_array_equal(x0, [0.625, 0.375, 0, 0, 0, 0])
    for solution in (unmix(UnmixingProblem(library, pixel)),
                     unmix_batch(BatchJob(library, pixel[:, None]))[0]):
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.outer_iterations == 0
        np.testing.assert_array_equal(solution.final_free, [0, 1])
        np.testing.assert_array_equal(solution.abundances, x0)
        assert solution.objective_trace == (objective_value(shifted, x0),)


def test_a_feasible_probe_is_accepted_as_iteration_one():
    # A noiseless pixel well inside the simplex: the probe, the candidate on
    # every variable, is feasible and optimal. The solve keeps the uniform
    # start, so its trace begins at s / P and its one iteration is the probe.
    rng = np.random.default_rng(609)
    library = SpectralLibrary(rng.random((224, 10)))
    pixel = library.entries @ rng.dirichlet(np.full(10, 20.0))
    bounds = np.full(10, 0.02)
    shifted = shift_problem(UnmixingProblem(library, pixel, bounds))
    probe = solve_subproblem(shifted.gram, shifted.linear, shifted.budget, np.arange(10))
    assert probe.free_values.min() > 0.0
    uniform = np.full(10, shifted.budget / 10)
    for solution in (unmix(UnmixingProblem(library, pixel, bounds)),
                     unmix_batch(BatchJob(library, pixel[:, None], bounds))[0]):
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.outer_iterations == 1
        np.testing.assert_array_equal(solution.final_free, np.arange(10))
        assert solution.objective_trace == (objective_value(shifted, uniform),
                                            objective_value(shifted, solution.shifted_abundances))


@pytest.mark.parametrize("seed", [7, 24])
def test_a_support_start_that_blocks_at_once_reaches_the_optimum(seed):
    # The first problem drawn whose refined start x0 is not optimal and
    # whose candidate after the first release is infeasible, so that its
    # first iteration is a blocking step from x0, spelled out here with the
    # step helpers and fresh factorizations.
    rng = np.random.default_rng(seed)
    tol = SolverConfig().primal_tol
    while True:
        problem = random_problem(rng, n_endmembers=12, n_bands=30)
        shifted = shift_problem(problem)
        supports, x0 = refined_start(shifted)
        if not supports:
            continue
        free = supports[-1]
        start = active_set.ActiveSetState(free, np.setdiff1d(np.arange(12), free), x0)
        sub = solve_subproblem(shifted.gram, shifted.linear, shifted.budget, free)
        mu = active_set.lagrange_multipliers(shifted, sub, start.free, start.active)
        state = active_set.release_from_active(start, mu, SolverConfig().dual_tol)
        if state is None:
            continue
        candidate = solve_subproblem(shifted.gram, shifted.linear, shifted.budget, state.free)
        if candidate.free_values.min() < -tol:
            break
    step, blocking = active_set.max_feasible_step(state, candidate)
    direction = np.zeros(12)
    direction[state.free] = candidate.free_values - x0[state.free]
    expected = active_set.transfer_to_active(state, step, direction, blocking)
    capped = SolverConfig(max_outer_iterations=1)
    job = BatchJob(problem.library, problem.measurement[:, None], problem.lower_bounds, capped)
    for solution in (unmix(problem, capped), unmix_batch(job)[0]):
        assert solution.status is SolveStatus.MAX_ITERATIONS
        np.testing.assert_array_equal(solution.final_free, expected.free)
        x = solution.shifted_abundances
        np.testing.assert_allclose(x, expected.iterate, rtol=0, atol=1e-12)
        assert x.min() >= 0.0 and x.sum() == pytest.approx(shifted.budget, abs=1e-12)
        assert solution.objective_trace == (objective_value(shifted, x0),
                                            objective_value(shifted, x))
    solution = _assert_trace_describes_every_iterate(shifted)
    oracle = brute_force_solve(shifted)
    assert abs(solution.objective - oracle.objective) <= 1e-9 * max(1.0, abs(oracle.objective))
    np.testing.assert_allclose(solution.shifted_abundances, oracle.shifted_abundances,
                               rtol=0, atol=1e-7)
    assert verify_kkt(shifted, solution.shifted_abundances, solution.eq_multiplier,
                      solution.ineq_multipliers).satisfied


def test_every_solve_strictly_decreases_the_objective_on_wide_libraries():
    rng = np.random.default_rng(608)
    library, pixels = _sparse_scene(rng, 30, 60, 4, 4)
    for column in range(pixels.shape[1]):
        bounds = rng.dirichlet(np.ones(60)) * 0.2
        shifted = shift_problem(UnmixingProblem(library, pixels[:, column], bounds))
        _assert_trace_describes_every_iterate(shifted)


def test_a_capped_solve_never_pays_for_its_last_release():
    # Column 2 is twice column 0 and P = 3 > N = 2, so the solve starts at the
    # vertex e_1 and frees [1, 2]. Iteration 1 accepts that candidate and
    # releases 0, whose column would fail the rank test; the cap stops the
    # solve before a subproblem on that free set is solved.
    library = SpectralLibrary(np.array([[2.0, 0.5, 4.0], [1.0, 1.5, 2.0]]))
    pixel = np.array([1.0, 1.5])
    capped = SolverConfig(max_outer_iterations=1)
    for solution in (unmix(UnmixingProblem(library, pixel), capped),
                     unmix_batch(BatchJob(library, pixel[:, None], config=capped))[0]):
        assert solution.status is SolveStatus.MAX_ITERATIONS
        np.testing.assert_array_equal(solution.final_free, [0, 1, 2])
        np.testing.assert_allclose(solution.abundances, [0.0, 0.86, 0.14], rtol=0, atol=1e-12)
        np.testing.assert_allclose(solution.objective_trace, (0.125, 0.0025), rtol=0, atol=1e-12)
    suffix = "(3 free variables exceed the 2 spectral bands, so the block cannot be full rank)"
    with pytest.raises(RankDeficientLibrary, match=r"exceed the 2 spectral bands"):
        unmix(UnmixingProblem(library, pixel))
    [failed] = unmix_batch(BatchJob(library, pixel[:, None]))
    assert failed.status is SolveStatus.FAILED and failed.message.endswith(suffix)
