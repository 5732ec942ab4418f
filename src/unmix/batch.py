"""Shift, solve and unshift: one pixel at a time for :func:`unmix`, and in
slices of pixels solved in lockstep for :func:`unmix_batch` and the CLI.
Both shift through one core, which runs over a slice of one pixel for
:func:`unmix`, and run the one active-set loop, so a pixel gets the same
answer either way. A batch validates its bounds and computes their offset
and budget once; per slice it checks the measurements and forms their
targets, linear terms and constants in calls over the slice, and unshifts
the solved pixels in one add, as :func:`unmix` does its one pixel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .active_set import _DEFAULT_CONFIG, Solution, SolveStatus, _solve_lockstep
from .active_set import active_set_solve
from .errors import DimensionMismatch, UnmixError
from .model import ShiftedRows, SolverConfig, SpectralLibrary, UnmixingProblem, _nonfinite_rows
from .model import validate_lower_bounds
from .model import precompute_gram  # noqa: F401  (re-exported)
from .shift import _shift_measurements, _shift_terms, shift_problem, unshift_solution

# A slice bounds what its pixels own at once: their stacked shifted rows
# (linear terms and constants), and P x P blocks of 8 P^2 bytes
# each. Below active_set._STACKED_BELOW endmembers these are the stacked
# (k, P, P) arrays of a round: the padded Grams, which LAPACK overwrites
# with their factors; at and above it, the factors the pixels make
# themselves, of the supports their starts refine on and the free sets
# grown from there. The probes of the whole slice are solved in two dtrsm
# calls on the library's uniform start factor, shared by every pixel. A
# slice holds as many pixels as fit in this many bytes of blocks: 2 MiB,
# half of a 4 MiB per-core L2 cache, holds 291 pixels at P = 30 (a 250-pixel
# chunk in one slice), 89 at P = 54, 26 at P = 100 and 1 from P = 363 on.
# Each round's numpy calls are paid once per slice, so wider slices make
# fewer of them for the same LAPACK work.
_SLICE_FACTOR_BYTES = 1 << 21


@dataclass(frozen=True)
class BatchJob:
    """A library, an N x M matrix of measured spectra (one per column),
    shared lower bounds of shape ``(P,)``, ``(1, P)`` or ``(P, 1)``, and the
    solver configuration."""

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
        bounds = np.array(bounds, dtype=float)
        if bounds.ndim == 2 and 1 in bounds.shape:
            bounds = bounds.ravel()
        if bounds.ndim != 1:
            raise DimensionMismatch(f"lower_bounds must be a vector, or a matrix of one row "
                                    f"or one column, got shape {bounds.shape}")
        bounds.setflags(write=False)
        object.__setattr__(self, "lower_bounds", bounds)
        if self.config is None:
            object.__setattr__(self, "config", SolverConfig())


def _unshift(solutions: list, lower_bounds) -> None:
    """Set the abundances of ``solutions`` to their shifted abundances plus
    the bounds, in one add over their stacked rows."""
    # The loop made each solution for its pixel alone, so its abundances are
    # set in place rather than copied with every other field by ``replace``.
    if solutions:
        rows = unshift_solution([s.shifted_abundances for s in solutions], lower_bounds)
        for solution, abundances in zip(solutions, rows):
            object.__setattr__(solution, "abundances", abundances)


def unmix(problem: UnmixingProblem, config: SolverConfig | None = None) -> Solution:
    """Solve one unmixing problem end to end.

    Validates, shifts out the lower bounds, runs the active-set solver, and
    shifts the abundances back so they satisfy the original constraints.
    """
    config = config or _DEFAULT_CONFIG
    shifted = shift_problem(problem, primal_tol=config.primal_tol)
    solution = active_set_solve(shifted, config)
    _unshift([solution], problem.lower_bounds)
    return solution


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
    """Yield ``(shifted, solutions)`` per slice of pixel columns, in input order.

    ``shifted`` is the :class:`~unmix.model.ShiftedRows` of the slice's
    columns, or None when the library's Gram overflows, row ``j`` that of
    the slice's ``j``-th column, and ``solutions[j]`` its :class:`Solution`.
    A column that fails its checks keeps a row that the solve passes over.
    Pixels are shifted and solved in lockstep one slice at a time, so only
    one slice's shifted rows and Cholesky factors are alive at once.
    """
    config = job.config
    lib = job.library
    validate_lower_bounds(job.lower_bounds, lib.n_endmembers, config.primal_tol)
    offset, budget = _shift_terms(lib, job.lower_bounds)
    width = max(1, _SLICE_FACTOR_BYTES // (8 * lib.n_endmembers**2))
    for begin in range(0, job.pixels.shape[1], width):
        measurements = job.pixels[:, begin:begin + width]
        k = measurements.shape[1]
        # A measurement's length is the job's; a non-finite one reports that first.
        failures = _nonfinite_rows(measurements.T, "measurement")
        try:
            linear, const, shift_failures = _shift_measurements(lib, measurements, offset)[1:]
        except UnmixError as exc:  # the library's Gram overflows: every pixel fails
            shifted, solved = None, [failures.get(j, exc) for j in range(k)]
        else:
            shifted = ShiftedRows(lib.gram, linear, budget, lib.n_bands, const, lib)
            solved = _solve_lockstep(shifted, config, shift_failures | failures)
        _unshift([r for r in solved if not isinstance(r, UnmixError)], job.lower_bounds)
        yield shifted, [_failed_pixel(lib.n_endmembers, r) if isinstance(r, UnmixError) else r
                        for r in solved]


def unmix_batch(job: BatchJob) -> list[Solution]:
    """Unmix every pixel column of a batch job.

    Pixels share the library's Gram matrix and are solved in lockstep a
    slice at a time; each answer equals :func:`unmix` of its column, field
    for field, and the list keeps the input order. A numerical failure is
    recorded in that pixel's slot (``status == FAILED`` with the message
    set) without aborting the rest; invalid bounds raise before any pixel
    is solved.
    """
    return [solution for _, solutions in _solve_pixels(job) for solution in solutions]


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
