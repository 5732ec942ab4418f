"""Variable shift between the lower-bounded and nonnegativity formulations."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput
from .model import ShiftedProblem, UnmixingProblem, _require_finite, validate_problem


def shift_problem(problem: UnmixingProblem, primal_tol=1e-10) -> ShiftedProblem:
    """Validate a lower-bounded problem and build its nonnegativity form.

    The target becomes ``y - A @ lower_bounds`` and the budget
    ``1 - sum(lower_bounds)``; with zero bounds this is the plain fully
    constrained least-squares setup. The Gram matrix is the library's own
    :attr:`~unmix.model.SpectralLibrary.gram`, computed once per library.
    The linear term and the target are read-only.
    """
    validate_problem(problem, primal_tol)
    offset, budget = _shift_terms(problem.library, problem.lower_bounds)
    return _shift_measurement(problem.library, problem.measurement, offset, budget)


def _shift_terms(library, lower_bounds) -> tuple[np.ndarray, float]:
    """The target offset ``A @ lower_bounds`` and the budget of valid bounds,
    shared by every measurement solved under them."""
    # A -1e-17 budget from float summation must not fail construction.
    budget = max(0.0, 1.0 - float(lower_bounds.sum()))
    return library.entries @ lower_bounds, budget


def _shift_measurement(library, measurement, offset, budget) -> ShiftedProblem:
    """The nonnegativity form of one validated measurement under the terms
    of :func:`_shift_terms`: the per-pixel part of :func:`shift_problem`."""
    gram = library.gram  # an overflowing Gram is reported before the linear term
    # A finite measurement can overflow the target, A^T target or the
    # constant; the checks below report it as NonFiniteInput, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        shifted_target = measurement - offset
        linear = library.entries.T @ shifted_target
        const = 0.5 * float(shifted_target @ shifted_target)
    # A non-finite target entry makes every entry of A^T target NaN or
    # infinite, so this check also covers the target.
    _require_finite(linear, "linear")
    if not math.isfinite(const):  # a finite target can still overflow it
        raise NonFiniteInput("const_term contains NaN or infinite values")
    linear.setflags(write=False)
    shifted_target.setflags(write=False)
    return ShiftedProblem._of_checked(gram, linear, budget, shifted_target, const, library)


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
