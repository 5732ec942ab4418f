"""Problem containers, input validation, and objective evaluation.

The original task is
    minimize 0.5 * ||y - A x||^2   subject to   x >= lower_bounds,  sum(x) = 1
over abundance vectors x of length P, where A is an N x P spectral library.
Substituting the slack variable (x - lower_bounds) turns it into a
nonnegativity-constrained problem whose quadratic data (Gram matrix, linear
term, budget) is held by :class:`ShiftedProblem`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleLowerBounds, NonFiniteInput
from .kkt import uniform_start

_GRAM_SYMMETRY_RTOL = 1e-12


def _frozen_array(values, ndim, name):
    arr = np.array(values, dtype=float, order="C")
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _require_finite(values, name):
    if not np.isfinite(values).all():
        raise NonFiniteInput(f"{name} contains NaN or infinite values")


def _nonfinite_rows(values, name) -> dict:
    """The error :func:`_require_finite` raises on each row of ``values``
    that holds NaN or an infinity, by row, from one check of every row."""
    finite = np.isfinite(values)
    if finite.all():
        return {}
    return {row: NonFiniteInput(f"{name} contains NaN or infinite values")
            for row in np.flatnonzero(~finite.all(axis=1)).tolist()}


@dataclass(frozen=True)
class SpectralLibrary:
    """Dense endmember library: one spectrum of length ``n_bands`` per column.

    All entries must be finite and both dimensions nonzero. The stored array
    is read-only. The Gram matrix and the uniform start's factor are each
    computed on first use and kept with the library, so every solve that
    shares an instance shares them.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.entries, 2, "library entries")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch(f"library must be at least 1x1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteInput("library entries contain NaN or infinite values")
        object.__setattr__(self, "entries", arr)

    @property
    def n_bands(self) -> int:
        return self.entries.shape[0]

    @property
    def n_endmembers(self) -> int:
        return self.entries.shape[1]

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """Read-only symmetrized ``A^T A``, computed on first use."""
        return precompute_gram(self)

    @functools.cached_property
    def _uniform_start(self):
        """The uniform start's factor of :attr:`gram`, or the message of its
        rank failure; see :func:`unmix.kkt.uniform_start`."""
        return uniform_start(self.gram)


def precompute_gram(library: SpectralLibrary) -> np.ndarray:
    """Read-only symmetrized ``A^T A`` of a library (or of a raw N x P array)."""
    if not isinstance(library, SpectralLibrary):
        library = SpectralLibrary(library)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _symmetrized
        gram = library.entries.T @ library.entries
    return _symmetrized(gram)


def _symmetrized(gram) -> np.ndarray:
    """Read-only ``0.5 * (G + G^T)``, which must be finite.

    Finite entries can still overflow, in ``A^T A`` or in the sum here; the
    check reports it as NonFiniteInput, not a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _frozen_array(0.5 * (gram + gram.T), 2, "gram")
    _require_finite(gram, "gram")
    return gram


@dataclass(frozen=True)
class UnmixingProblem:
    """One measured spectrum plus the library and per-endmember lower bounds.

    Construction only coerces the arrays; call :func:`validate_problem` (done
    automatically by the high-level drivers) to enforce the feasibility and
    dimension contracts.
    """

    library: SpectralLibrary
    measurement: np.ndarray
    lower_bounds: np.ndarray | None = None

    def __post_init__(self):
        lib = self.library
        if not isinstance(lib, SpectralLibrary):
            lib = SpectralLibrary(lib)
            object.__setattr__(self, "library", lib)
        object.__setattr__(self, "measurement", _frozen_array(self.measurement, 1, "measurement"))
        bounds = self.lower_bounds
        if bounds is None:
            bounds = np.zeros(lib.n_endmembers)
        object.__setattr__(self, "lower_bounds", _frozen_array(bounds, 1, "lower_bounds"))


def validate_lower_bounds(lower_bounds, n_endmembers, primal_tol=1e-10):
    """Check that the bounds leave the sum-to-one constraint satisfiable."""
    bounds = np.asarray(lower_bounds, dtype=float)
    if bounds.shape != (n_endmembers,):
        raise DimensionMismatch(
            f"lower_bounds has length {bounds.size}, expected {n_endmembers}"
        )
    if not np.isfinite(bounds).all():
        raise NonFiniteInput("lower_bounds contain NaN or infinite values")
    if bounds.min(initial=0.0) < 0.0:
        raise InfeasibleLowerBounds(f"lower_bounds must be nonnegative, min is {bounds.min()}")
    total = float(bounds.sum())
    if total > 1.0 + primal_tol:
        raise InfeasibleLowerBounds(f"sum of lower_bounds is {total}, which exceeds 1")


def validate_problem(problem: UnmixingProblem, primal_tol=1e-10) -> None:
    """Raise unless the problem satisfies all structural invariants.

    Feasibility of the bounds is tested with slack ``primal_tol`` so inputs
    produced in floating point are not rejected at the boundary.
    """
    lib = problem.library
    if problem.measurement.size != lib.n_bands:
        raise DimensionMismatch(
            f"measurement has length {problem.measurement.size}, "
            f"expected {lib.n_bands} (library rows)"
        )
    _require_finite(problem.measurement, "measurement")
    validate_lower_bounds(problem.lower_bounds, lib.n_endmembers, primal_tol)


def _checked_gram(values) -> np.ndarray:
    """A read-only symmetrized copy of a finite, square, symmetric matrix."""
    gram = _frozen_array(values, 2, "gram")
    p = gram.shape[0]
    if gram.shape != (p, p) or p < 1:
        raise DimensionMismatch(f"gram must be square and nonempty, got shape {gram.shape}")
    _require_finite(gram, "gram")
    scale = max(1.0, float(np.abs(gram).max()))
    if np.abs(gram - gram.T).max() > _GRAM_SYMMETRY_RTOL * scale:
        raise ValueError("gram matrix is asymmetric beyond the 1e-12 relative tolerance")
    return _symmetrized(gram)


@dataclass(frozen=True)
class ShiftedProblem:
    """Quadratic form of the nonnegativity-constrained problem.

    Holds the Gram matrix ``A^T A``, the linear term ``A^T target``, and the
    remaining simplex ``budget`` (one minus the sum of the lower bounds).
    Construction checks the Gram matrix and symmetrizes it into a copy.
    Positive semidefiniteness is not checked eagerly and surfaces as a
    factorization error instead.

    ``shifted_target`` and ``library`` are optional: they are filled in by
    :func:`unmix.shift.shift_problem` and let the test oracle evaluate
    objectives directly from residual norms, but a problem stated purely as
    (gram, linear, budget) is accepted as well. The shift builds its
    problems without construction's checks and copies, from the library's
    own :attr:`SpectralLibrary.gram` and arrays it has just made and
    checked; only such a problem uses the uniform start the library keeps.
    """

    gram: np.ndarray
    linear: np.ndarray
    budget: float
    shifted_target: np.ndarray | None = None
    const_term: float | None = None
    library: SpectralLibrary | None = None

    def __post_init__(self):
        if self.library is not None and not isinstance(self.library, SpectralLibrary):
            object.__setattr__(self, "library", SpectralLibrary(self.library))
        gram = _checked_gram(self.gram)
        object.__setattr__(self, "gram", gram)
        p = gram.shape[0]

        linear = _frozen_array(self.linear, 1, "linear")
        if linear.size != p:
            raise DimensionMismatch(f"linear has length {linear.size}, expected {p}")
        _require_finite(linear, "linear")
        object.__setattr__(self, "linear", linear)

        budget = float(self.budget)
        if not np.isfinite(budget) or budget < 0.0:
            raise ValueError(f"budget must be finite and nonnegative, got {budget}")
        object.__setattr__(self, "budget", budget)

        target = self.shifted_target
        if target is not None:
            target = _frozen_array(target, 1, "shifted_target")
            _require_finite(target, "shifted_target")
            object.__setattr__(self, "shifted_target", target)

        const = self.const_term
        if const is None:
            const = 0.5 * float(target @ target) if target is not None else 0.0
        else:
            const = float(const)
            if const < 0.0:
                raise ValueError(f"const_term must be nonnegative, got {const}")
        _require_finite(const, "const_term")  # a finite target can overflow it
        if self.const_term is not None and target is not None:
            expected = 0.5 * float(target @ target)
            if abs(const - expected) > 1e-10 * max(1.0, expected):
                raise ValueError(
                    f"const_term {const} does not match half the squared "
                    f"norm of shifted_target ({expected})"
                )
        object.__setattr__(self, "const_term", const)

    @classmethod
    def _of_checked(cls, gram, linear, budget, shifted_target, const_term, library):
        """A problem from fields that already hold what construction would
        make of them: the library's own Gram, read-only finite arrays of
        matching sizes, a float budget and the target's ``const_term``."""
        problem = object.__new__(cls)
        vars(problem).update(gram=gram, linear=linear, budget=budget,
                             shifted_target=shifted_target, const_term=const_term,
                             library=library)
        return problem

    @property
    def size(self) -> int:
        """Number of endmembers P."""
        return self.linear.size


@dataclass(frozen=True)
class ShiftedRows:
    """The shifted problems of a slice of measurements, stacked: row ``r``
    holds the terms of the ``r``-th problem, as a :class:`ShiftedProblem`
    would, and every row shares ``gram``, the float ``budget`` and
    ``library``, as all measurements under one set of lower bounds do.

    ``linear`` is ``(k, P)``, ``const_term`` is ``(k,)`` and ``n_bands``
    is the length N of the targets, or None for problems stated without
    one. Nothing is checked: :func:`unmix.shift._shift_measurements`
    reports the rows that are not finite, and only the others are solved.
    """

    gram: np.ndarray
    linear: np.ndarray
    budget: float
    n_bands: int | None
    const_term: np.ndarray
    library: SpectralLibrary | None

    @classmethod
    def of(cls, shifted: ShiftedProblem) -> ShiftedRows:
        """The one row of ``shifted``, whose fields construction has checked."""
        target = shifted.shifted_target
        rows = object.__new__(cls)
        vars(rows).update(gram=shifted.gram, linear=shifted.linear[None], budget=shifted.budget,
                          n_bands=None if target is None else target.size,
                          const_term=np.array([shifted.const_term]), library=shifted.library)
        return rows

    def __len__(self) -> int:
        return self.linear.shape[0]

    def uniform_start(self) -> tuple | str:
        """:func:`unmix.kkt.uniform_start` of this Gram: the library's own,
        made once, when the shift built these rows on the library's Gram."""
        library = self.library
        if library is not None and self.gram is vars(library).get("gram"):
            return library._uniform_start
        return uniform_start(self.gram)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and policies for the active-set solver.

    ``max_outer_iterations=None`` resolves to ``10 * P`` at solve time.
    ``tie_break`` selects how a tied blocking index is chosen: ``"smallest"``
    keeps runs reproducible, ``"random"`` draws uniformly among the tied
    minimizers using ``tie_seed``. A tie among the most negative multipliers
    when a variable is released always goes to the smallest index, under
    either policy.
    """

    primal_tol: float = 1e-10
    dual_tol: float = 1e-10
    max_outer_iterations: int | None = None
    tie_break: str = "smallest"
    tie_seed: int = 0

    def __post_init__(self):
        for name in ("primal_tol", "dual_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_outer_iterations is not None:
            _require_integer("max_outer_iterations", self.max_outer_iterations)
            if self.max_outer_iterations < 1:
                raise ValueError("max_outer_iterations must be at least 1")
        if self.tie_break not in ("smallest", "random"):
            raise ValueError(f"tie_break must be 'smallest' or 'random', got {self.tie_break!r}")
        _require_integer("tie_seed", self.tie_seed)
        if self.tie_seed < 0:
            raise ValueError(f"tie_seed must be nonnegative, got {self.tie_seed}")

    def iteration_cap(self, n_endmembers: int) -> int:
        if self.max_outer_iterations is not None:
            return self.max_outer_iterations
        return 10 * n_endmembers


def _require_integer(name, value):
    try:
        if isinstance(value, bool):  # operator.index takes it, but it is no count or seed
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def objective_value(shifted: ShiftedProblem, x) -> float:
    """Evaluate ``0.5 x^T G x - g^T x + const`` at the shifted abundances.

    Equals half the squared residual norm of the shifted fit, so the result
    is nonnegative up to rounding.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (shifted.size,):
        raise DimensionMismatch(f"abundance vector has shape {x.shape}, expected ({shifted.size},)")
    return objective_from_product(x, shifted.gram @ x, shifted.linear, shifted.const_term)


def objective_from_product(x, gx, linear, const) -> float:
    """The objective at ``x`` from ``gx = G x`` already at hand, the linear
    term ``linear`` and the constant ``const``, unchecked."""
    return 0.5 * float(x @ gx) - float(linear @ x) + const


def objective_rows(x, gx, linear, const) -> np.ndarray:
    """Row ``k`` is the objective at ``x[k]`` from ``gx[k] = G x[k]``, the
    linear term ``linear[k]`` and the constant ``const[k]``, unchecked.

    A stacked ``matmul`` of a row and a column makes the dot product that
    ``x @ y`` makes, so each row is :func:`objective_from_product`, bit for
    bit.
    """
    return (0.5 * np.matmul(x[:, None], gx[..., None])[:, 0, 0]
            - np.matmul(linear[:, None], x[..., None])[:, 0, 0] + const)
