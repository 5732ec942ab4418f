"""An independent referee for the loop: augmented-``nnls`` FCLS.

The fully constrained least-squares construction of Heinz & Chang (IEEE
TGRS 2001) appends the row ``delta * 1^T`` to the library and ``delta * s``
to the target, so that nonnegative least squares weighs the sum constraint
by ``delta^2``. ``scipy.optimize.nnls`` solves that with code the active-set
loop does not share, and its answer, rescaled onto the budget ``s``, lies
near the optimum. Lower bounds are shifted out first, as ``unmix`` does.
The libraries have 224 bands. P = 100 and 150 refine their starts on kept
systems, the path of the benchmark's one-pixel workload; P = 300 is wider
than the bands, the paper's large-dictionary regime.
"""

import numpy as np
import pytest
from scipy.optimize import nnls

from unmix import (
    BatchJob,
    SolveStatus,
    SpectralLibrary,
    UnmixingProblem,
    objective_value,
    shift_problem,
    unmix_batch,
    verify_kkt,
)

_DELTA = 1e3


def _fcls(shifted):
    """The augmented-``nnls`` answer on the shifted problem, rescaled onto its budget."""
    library, s = shifted.library.entries, shifted.budget
    augmented = np.vstack((library, np.full((1, library.shape[1]), _DELTA)))
    x, _ = nnls(augmented, np.append(shifted.shifted_target, _DELTA * s))
    return x * (s / x.sum())


def _scene(rng, n_endmembers, n_pixels):
    """Dense Dirichlet(0.3) pixels, then as many 5-sparse ones, with 1% noise."""
    library = rng.random((224, n_endmembers))
    dense = rng.dirichlet(np.full(n_endmembers, 0.3), size=n_pixels).T
    sparse = np.zeros((n_endmembers, n_pixels))
    for column in range(n_pixels):
        chosen = rng.choice(n_endmembers, 5, replace=False)
        sparse[chosen, column] = rng.dirichlet(np.ones(5))
    pixels = library @ np.hstack((dense, sparse))
    return SpectralLibrary(library), pixels + 0.01 * rng.standard_normal(pixels.shape)


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("n_endmembers", [20, 60, 100, 150, 300])
def test_the_loop_matches_augmented_nnls(n_endmembers, bounded):
    rng = np.random.default_rng([801, n_endmembers, bounded])
    library, pixels = _scene(rng, n_endmembers, 4)
    bounds = rng.dirichlet(np.ones(n_endmembers)) * 0.3 if bounded else None
    for column, solution in enumerate(unmix_batch(BatchJob(library, pixels, bounds))):
        shifted = shift_problem(UnmixingProblem(library, pixels[:, column], bounds))
        assert solution.status is SolveStatus.OPTIMAL
        x = solution.shifted_abundances
        assert verify_kkt(shifted, x, solution.eq_multiplier,
                          solution.ineq_multipliers).satisfied
        reference = _fcls(shifted)
        referee = objective_value(shifted, reference)
        assert solution.objective <= referee + 1e-12 * max(1.0, abs(referee))
        np.testing.assert_allclose(x, reference, rtol=0, atol=1e-6)
