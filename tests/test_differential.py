"""A differential fuzz over the two back ends, slice widths, starts and configs.

Each draw is solved four times: on the kept and on the stacked back end,
forced by patching ``_STACKED_BELOW``, each through ``unmix_batch`` at the
drawn slice width and through ``unmix`` one pixel at a time. Libraries lie
on both sides of the crossover at 55 endmembers, some wider than their
bands (the vertex start); pixels are dense, sparse, at a vertex or NaN;
bounds are absent, drawn, or one-hot, which leaves a zero budget (the
origin start); the config is the default, or draws a random tie-break
seed, a small iteration cap or both. On each back end batch == ``unmix``,
field for field. The back ends factorize in different orders, so their
answers agree to a stated tolerance, not bit for bit, and are compared
only under the default config: a tie or a cap can fall on either side of
that roundoff.
"""

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unmix import (
    BatchJob,
    SolveStatus,
    SolverConfig,
    SpectralLibrary,
    UnmixingProblem,
    shift_problem,
    unmix_batch,
    verify_kkt,
)
from instances import assert_matches_unmix

active_set_module = importlib.import_module("unmix.active_set")
batch_module = importlib.import_module("unmix.batch")
# Both back ends solve the same free sets, so their abundances, of sum at
# most 1, differ by roundoff amplified by the conditioning of those sets
# (at most 2.6e-14 over these draws).
_ABUNDANCE_TOL = 1e-10


@st.composite
def draws(draw):
    """A library, pixels, bounds, a slice width of 1, 2 or the default, and a config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([4, 12, 40, 54, 55, 70]))
    n_bands = int(rng.integers(2, p)) if draw(st.booleans()) else p + int(rng.integers(0, 40))
    library = rng.random((n_bands, p))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["dense", "sparse", "vertex", "nan"]),
                              min_size=1, max_size=5)):
        abundances = np.zeros(p)
        if kind == "dense":
            abundances = rng.dirichlet(np.full(p, 0.3))
        elif kind == "sparse":
            support = rng.choice(p, min(p, 3), replace=False)
            abundances[support] = rng.dirichlet(np.ones(support.size))
        else:
            abundances[rng.integers(p)] = 1.0
        pixel = library @ abundances
        if kind in ("dense", "sparse"):
            pixel += 0.01 * rng.standard_normal(n_bands)
        if kind == "nan":
            pixel[rng.integers(n_bands)] = np.nan
        columns.append(pixel)
    bounds = draw(st.sampled_from([None, "drawn", "one-hot"]))
    if bounds == "drawn":
        bounds = rng.dirichlet(np.ones(p)) * 0.3
    elif bounds == "one-hot":
        bounds = np.eye(p)[rng.integers(p)]
    width = draw(st.sampled_from([1, 2, None]))
    kind = draw(st.sampled_from(["default", "random", "capped", "random and capped"]))
    config = SolverConfig(
        max_outer_iterations=draw(st.integers(1, 5)) if "capped" in kind else None,
        tie_break="random" if "random" in kind else "smallest",
        tie_seed=draw(st.integers(0, 2**32 - 1)) if "random" in kind else 0)
    return SpectralLibrary(library), np.column_stack(columns), bounds, width, config


def _solve(library, pixels, bounds, width, config, kept):
    """Solve on the back end asked for, and check that batch == ``unmix`` there."""
    p = library.n_endmembers
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(active_set_module, "_STACKED_BELOW", 0 if kept else p + 1)
        if width is not None:
            patch.setattr(batch_module, "_SLICE_FACTOR_BYTES", width * 8 * p * p)
        solutions = unmix_batch(BatchJob(library, pixels, bounds, config))
        assert_matches_unmix(solutions, library, pixels, bounds, config)
    return solutions


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(draws())
def test_the_back_ends_agree_and_certify_every_answer(draw):
    library, pixels, bounds, width, config = draw
    kept = _solve(library, pixels, bounds, width, config, kept=True)
    stacked = _solve(library, pixels, bounds, width, config, kept=False)
    default = config == SolverConfig()
    for column, (a, b) in enumerate(zip(kept, stacked)):
        if default:
            assert a.status is b.status, (column, a.message, b.message)
            if a.status is not SolveStatus.FAILED:
                np.testing.assert_array_equal(a.final_free, b.final_free)
                np.testing.assert_allclose(a.shifted_abundances, b.shifted_abundances,
                                           rtol=0, atol=_ABUNDANCE_TOL)
            else:
                assert a.message == b.message
        for solution in (a, b):
            if solution.status is SolveStatus.FAILED:
                continue
            trace = np.asarray(solution.objective_trace)
            assert (np.diff(trace) <= 0.0).all(), (column, trace)
            if solution.status is SolveStatus.OPTIMAL:
                shifted = shift_problem(UnmixingProblem(library, pixels[:, column], bounds))
                assert verify_kkt(shifted, solution.shifted_abundances,
                                  solution.eq_multiplier, solution.ineq_multipliers).satisfied
