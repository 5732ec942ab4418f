"""Variable shift between the lower-bounded and nonnegativity formulations."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .model import ShiftedProblem, UnmixingProblem, validate_problem


def shift_problem(problem: UnmixingProblem, primal_tol=1e-10) -> ShiftedProblem:
    """Validate a lower-bounded problem and build its nonnegativity form.

    The target becomes ``y - A @ lower_bounds`` and the budget
    ``1 - sum(lower_bounds)``; with zero bounds this is the plain fully
    constrained least-squares setup. The Gram matrix is the library's own
    :attr:`~unmix.model.SpectralLibrary.gram`, computed once per library.
    """
    validate_problem(problem, primal_tol)
    library = problem.library
    shifted_target = problem.measurement - library.entries @ problem.lower_bounds
    # A -1e-17 budget from float summation must not fail construction.
    budget = max(0.0, 1.0 - float(problem.lower_bounds.sum()))
    return ShiftedProblem(
        gram=library.gram,
        linear=library.entries.T @ shifted_target,
        budget=budget,
        shifted_target=shifted_target,
        library=library,
    )


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
