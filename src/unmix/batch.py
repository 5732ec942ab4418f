"""One per-pixel solve path (shift, solve, unshift) for the API and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .active_set import Solution, SolveStatus, active_set_solve
from .errors import DimensionMismatch, UnmixError
from .model import SolverConfig, SpectralLibrary, UnmixingProblem, validate_lower_bounds
from .model import precompute_gram  # noqa: F401  (re-exported)
from .shift import shift_problem, unshift_solution


@dataclass(frozen=True)
class BatchJob:
    """A library, an N x M matrix of measured spectra (one per column),
    shared lower bounds, and the solver configuration."""

    library: SpectralLibrary
    pixels: np.ndarray
    lower_bounds: np.ndarray | None = None
    config: SolverConfig | None = None

    def __post_init__(self):
        lib = self.library
        if not isinstance(lib, SpectralLibrary):
            lib = SpectralLibrary(lib)
            object.__setattr__(self, "library", lib)
        pixels = np.array(self.pixels, dtype=float, order="C")
        if pixels.ndim != 2:
            raise DimensionMismatch(f"pixels must be an N x M matrix, got shape {pixels.shape}")
        if pixels.shape[0] != lib.n_bands:
            raise DimensionMismatch(
                f"pixels have {pixels.shape[0]} rows but the library has "
                f"{lib.n_bands} bands"
            )
        if pixels.shape[1] < 1:
            raise DimensionMismatch("pixel matrix must contain at least one column")
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)
        bounds = self.lower_bounds
        if bounds is None:
            bounds = np.zeros(lib.n_endmembers)
        bounds = np.array(bounds, dtype=float).ravel()
        bounds.setflags(write=False)
        object.__setattr__(self, "lower_bounds", bounds)
        if self.config is None:
            object.__setattr__(self, "config", SolverConfig())


def _solve(problem: UnmixingProblem, config: SolverConfig):
    """Shift, solve and unshift one problem; returns ``(shifted, solution)``."""
    shifted = shift_problem(problem, primal_tol=config.primal_tol)
    solution = active_set_solve(shifted, config)
    abundances = unshift_solution(solution.shifted_abundances, problem.lower_bounds)
    return shifted, replace(solution, abundances=abundances)


def unmix(problem: UnmixingProblem, config: SolverConfig | None = None) -> Solution:
    """Solve one unmixing problem end to end.

    Validates, shifts out the lower bounds, runs the active-set solver, and
    shifts the abundances back so they satisfy the original constraints.
    """
    return _solve(problem, config or SolverConfig())[1]


def _failed_pixel(n_endmembers, error) -> Solution:
    nan = np.full(n_endmembers, np.nan)
    return Solution(
        abundances=nan,
        shifted_abundances=nan.copy(),
        eq_multiplier=float("nan"),
        ineq_multipliers=nan.copy(),
        objective=float("nan"),
        outer_iterations=0,
        final_free=np.empty(0, dtype=np.intp),
        status=SolveStatus.FAILED,
        message=f"{type(error).__name__}: {error}",
    )


def _solve_pixels(job: BatchJob):
    """Yield ``(shifted, solution)`` per pixel column, in input order.

    ``shifted`` is None for a failed pixel. Each one holds its own copy of
    the Gram matrix, so a consumer should not keep it past its pixel.
    """
    config = job.config
    lib = job.library
    validate_lower_bounds(job.lower_bounds, lib.n_endmembers, config.primal_tol)
    for column in range(job.pixels.shape[1]):
        try:
            result = _solve(UnmixingProblem(lib, job.pixels[:, column], job.lower_bounds), config)
        except UnmixError as exc:
            result = None, _failed_pixel(lib.n_endmembers, exc)
        yield result


def unmix_batch(job: BatchJob) -> list[Solution]:
    """Unmix every pixel column of a batch job.

    Pixels share the library's Gram matrix and are solved in input order.
    A numerical failure is recorded in that pixel's slot (``status ==
    FAILED`` with the message set) without aborting the rest; invalid
    bounds raise before any pixel is solved.
    """
    return [solution for _, solution in _solve_pixels(job)]


def batch_summary(solutions: list[Solution]) -> dict:
    """Count solve outcomes for a batch."""
    counts = {status: 0 for status in SolveStatus}
    for solution in solutions:
        counts[solution.status] += 1
    return {
        "pixels": len(solutions),
        "optimal": counts[SolveStatus.OPTIMAL],
        "max_iterations": counts[SolveStatus.MAX_ITERATIONS],
        "failed": counts[SolveStatus.FAILED],
    }
