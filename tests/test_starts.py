"""Which start a solve takes, and what its objective trace records.

A solve starts at the uniform point ``s / P`` and keeps going from there,
or starts over at the best vertex when its first candidate shows a sparse
optimum, or starts at that vertex outright when the library has more
endmembers than bands. ``unmix`` and ``unmix_batch`` must choose alike.
"""

import importlib
from collections import Counter
from unittest import mock

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
    objective_value,
    shift_problem,
    unmix,
    unmix_batch,
)
from instances import random_problem

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


def _counted_starts(solve):
    """Run ``solve()`` and count the start each pixel took."""
    counts = Counter()
    start = active_set._Pixel.start

    def counted(px, free, sub, config):
        # A pixel whose probe shows a sparse optimum already holds the
        # uniform start's system; one that starts at the vertex outright
        # holds none yet.
        counts["restart" if px.system is not None else "vertex"] += 1
        return start(px, free, sub, config)

    with mock.patch.object(active_set._Pixel, "start", counted):
        solutions = solve()
    assert all(s.status is SolveStatus.OPTIMAL for s in solutions)
    uniform = len(solutions) - sum(counts.values())
    if uniform:
        counts["uniform"] = uniform
    return counts


@pytest.mark.parametrize("scene, bounded, expected", [
    ("dense P=30", False, {"uniform": 40}),
    ("dense P=100", True, {"restart": 12}),
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
    single = _counted_starts(lambda: [unmix(UnmixingProblem(library, pixels[:, column], bounds))
                                      for column in range(pixels.shape[1])])
    batched = _counted_starts(lambda: unmix_batch(BatchJob(library, pixels, bounds)))
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


@pytest.mark.parametrize("share", [1.0, -1.0], ids=["uniform start", "vertex start"])
def test_every_solve_strictly_decreases_the_objective(share):
    # A share of 1 never restarts the uniform start; -1 always does.
    rng = np.random.default_rng(607)
    with mock.patch.object(active_set, "_VERTEX_START_SHARE", share):
        for p in (50, 100, 150):
            shifted = shift_problem(random_problem(rng, n_endmembers=p, n_bands=224))
            start = _assert_trace_describes_every_iterate(shifted).objective_trace[0]
            uniform = objective_value(shifted, np.full(p, shifted.budget / p))
            assert (start == uniform) == (share > 0)


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
    # solve before the column joins the factor.
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
