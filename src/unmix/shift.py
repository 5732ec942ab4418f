"""Variable shift between the lower-bounded and nonnegativity formulations."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .model import ShiftedProblem, UnmixingProblem, _nonfinite_rows, validate_problem


def shift_problem(problem: UnmixingProblem, primal_tol=1e-10) -> ShiftedProblem:
    """Validate a lower-bounded problem and build its nonnegativity form.

    The target becomes ``y - A @ lower_bounds`` and the budget
    ``1 - sum(lower_bounds)``; with zero bounds this is the plain fully
    constrained least-squares setup. The Gram matrix is the library's own
    :attr:`~unmix.model.SpectralLibrary.gram`, computed once per library.
    The linear term and the target are read-only. The shift is that of a
    batch, on a slice of one measurement, so it gives the same bits.
    """
    validate_problem(problem, primal_tol)
    offset, budget = _shift_terms(problem.library, problem.lower_bounds)
    targets, linear, const, failures = _shift_measurements(
        problem.library, problem.measurement[:, None], offset)
    if failures:
        raise failures[0]
    return ShiftedProblem._of_checked(problem.library.gram, linear[0], budget, targets[0],
                                      const.item(0), problem.library)


def _shift_terms(library, lower_bounds) -> tuple[np.ndarray, float]:
    """The target offset ``A @ lower_bounds`` and the budget of valid bounds,
    shared by every measurement solved under them."""
    # A -1e-17 budget from float summation must not fail construction.
    budget = max(0.0, 1.0 - float(lower_bounds.sum()))
    return library.entries @ lower_bounds, budget


def _shift_measurements(library, measurements, offset) -> tuple:
    """The nonnegativity forms of the validated columns of the ``(N, k)``
    block ``measurements`` under the offset of :func:`_shift_terms`: the
    per-pixel part of :func:`shift_problem`.

    Returns the ``(k, N)`` targets, the ``(k, P)`` linear terms
    ``A^T target`` and the ``(k,)`` constants, read-only, and the
    :class:`~unmix.errors.NonFiniteInput` of each column whose linear term
    or constant is not finite, by column. The linear terms take one
    broadcast ``matmul`` and the constants stacked row dot products: each
    row has the bits of ``A.T @ target`` and ``target @ target`` alone, so
    no column's answer depends on the others.
    """
    library.gram  # an overflowing Gram is reported before the linear term
    # A finite measurement can overflow the target, A^T target or the
    # constant; the checks below report it as NonFiniteInput, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        targets = np.subtract(measurements.T, offset, order="C")
        linear = np.matmul(library.entries.T, targets[..., None])[..., 0]
        const = 0.5 * np.matmul(targets[:, None], targets[..., None])[:, 0, 0]
    # A non-finite target entry makes every entry of A^T target NaN or
    # infinite, so the check of the linear term also covers the target; a
    # finite target can still overflow the constant.
    failures = _nonfinite_rows(const[:, None], "const_term")
    failures.update(_nonfinite_rows(linear, "linear"))
    for array in (targets, linear, const):
        array.setflags(write=False)
    return targets, linear, const, failures


def unshift_solution(shifted_abundances, lower_bounds) -> np.ndarray:
    """Map abundances of the shifted problem back to the original variables."""
    shifted_abundances = np.asarray(shifted_abundances, dtype=float)
    lower_bounds = np.asarray(lower_bounds, dtype=float)
    if shifted_abundances.shape != lower_bounds.shape:
        raise DimensionMismatch(
            f"shifted abundances have shape {shifted_abundances.shape}, "
            f"lower_bounds have shape {lower_bounds.shape}"
        )
    return shifted_abundances + lower_bounds
