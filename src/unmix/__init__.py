"""Active-set solver for linear spectral unmixing.

Solves ``min 0.5 * ||y - A x||^2`` subject to per-endmember lower bounds and
the sum-to-one constraint, by shifting the bounds out and pivoting on the
nonnegativity constraints of the reduced problem. The package also ships the
verification tools (KKT residual checker, exhaustive oracle) used to certify
the solver and a batch CSV command-line front end (``unmix``).
"""

from .active_set import Solution, SolveStatus, active_set_solve
from .batch import BatchJob, batch_summary, precompute_gram, unmix, unmix_batch
from .errors import (
    DimensionMismatch,
    EmptyFreeSet,
    InfeasibleLowerBounds,
    InstanceTooLarge,
    NoBlockingIndex,
    NoFeasibleCandidate,
    NonFiniteInput,
    RankDeficientLibrary,
    UnmixError,
)
from .kkt import SubproblemSolution, factorize, solve_subproblem
from .model import (
    ShiftedProblem,
    SolverConfig,
    SpectralLibrary,
    UnmixingProblem,
    objective_value,
    validate_problem,
)
from .shift import shift_problem, unshift_solution
from .verify import KktReport, brute_force_solve, verify_kkt

__version__ = "0.1.0"

__all__ = [
    "BatchJob",
    "DimensionMismatch",
    "EmptyFreeSet",
    "InfeasibleLowerBounds",
    "InstanceTooLarge",
    "KktReport",
    "NoBlockingIndex",
    "NoFeasibleCandidate",
    "NonFiniteInput",
    "RankDeficientLibrary",
    "ShiftedProblem",
    "Solution",
    "SolveStatus",
    "SolverConfig",
    "SpectralLibrary",
    "SubproblemSolution",
    "UnmixError",
    "UnmixingProblem",
    "active_set_solve",
    "batch_summary",
    "brute_force_solve",
    "factorize",
    "objective_value",
    "precompute_gram",
    "shift_problem",
    "solve_subproblem",
    "unmix",
    "unmix_batch",
    "unshift_solution",
    "validate_problem",
    "verify_kkt",
]
