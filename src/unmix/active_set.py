"""Active-set loop for the nonnegative, budget-constrained quadratic program.

The solver repeats three moves until optimality:

1. solve the equality-constrained subproblem on the current free set;
2. if the candidate violates a nonnegativity bound, walk from the current
   iterate towards the candidate up to the largest feasible step and pin the
   blocking variable at zero;
3. once the candidate is feasible, price the pinned variables; a negative
   multiplier frees the most negative one, otherwise the candidate is a
   global minimizer and the solve stops.

Every iterate stays primal feasible, pinned variables are exactly zero, and
the objective never increases, so the loop terminates on nondegenerate data
long before the ``10 * P`` default iteration cap.

The loop keeps one Cholesky factor of ``G_FF`` per solve. It factorizes at
the uniform start, downdates the factor when step 2 pins a variable (an
``O(|F|^2)`` column deletion instead of an ``O(|F|^3)`` refactorization),
and factorizes afresh only after a release in step 3, or on every iteration
when ridge regularization is on, because its jitter depends on ``|F|``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoBlockingIndex, RankDeficientLibrary
from .kkt import SubproblemSolution, downdate, factorize, solve_subproblem
from .model import ShiftedProblem, SolverConfig, objective_value


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations_exceeded"
    FAILED = "failed"


@dataclass(frozen=True)
class ActiveSetState:
    """Partition of the variables plus the current feasible iterate.

    ``free`` and ``active`` are disjoint sorted index arrays covering all
    variables; entries of ``iterate`` indexed by ``active`` are exactly zero.
    """

    free: np.ndarray
    active: np.ndarray
    iterate: np.ndarray


@dataclass(frozen=True)
class Solution:
    """Solver output: abundances, multipliers, and iteration diagnostics.

    ``shifted_abundances`` lives in the nonnegativity-form variables;
    ``abundances`` additionally has the lower bounds added back (the two are
    equal until :func:`unmix.batch.unmix` performs the unshift).
    ``objective_trace`` records the objective at the initial iterate and
    after every iterate update, in order.
    """

    abundances: np.ndarray
    shifted_abundances: np.ndarray
    eq_multiplier: float
    ineq_multipliers: np.ndarray
    objective: float
    outer_iterations: int
    final_free: np.ndarray
    status: SolveStatus
    objective_trace: tuple[float, ...] = ()
    message: str = ""


def initialize_state(shifted: ShiftedProblem) -> ActiveSetState:
    """Starting partition: everything free at a uniform strictly feasible point.

    A zero budget leaves the origin as the only feasible point, so all
    variables start (and stay) pinned.
    """
    p = shifted.size
    if shifted.budget == 0.0:
        return ActiveSetState(
            free=np.empty(0, dtype=np.intp),
            active=np.arange(p, dtype=np.intp),
            iterate=np.zeros(p),
        )
    return ActiveSetState(
        free=np.arange(p, dtype=np.intp),
        active=np.empty(0, dtype=np.intp),
        iterate=np.full(p, shifted.budget / p),
    )


def max_feasible_step(state: ActiveSetState, candidate: SubproblemSolution, rng=None):
    """Largest step towards the candidate that keeps the iterate nonnegative.

    Returns ``(step, blocking)`` where ``step`` is the minimum of
    ``-x_i / d_i`` over free coordinates moving towards zero and ``blocking``
    is the coordinate attaining it. Ties go to the smallest index, or to a
    uniform draw from ``rng`` when one is supplied.
    """
    x_free = state.iterate[state.free]
    direction = candidate.free_values - x_free
    moving_down = direction < 0.0
    if not moving_down.any():
        raise NoBlockingIndex(
            "candidate has a negative entry but no free coordinate decreases"
        )
    ratios = -x_free[moving_down] / direction[moving_down]
    step = ratios.min()
    tied = np.flatnonzero(ratios == step)
    choice = tied[0] if rng is None else rng.choice(tied)
    blocking = state.free[np.flatnonzero(moving_down)[choice]]
    return float(step), int(blocking)


def transfer_to_active(state: ActiveSetState, step, direction, blocking) -> ActiveSetState:
    """Advance the iterate and pin the blocking coordinate at exactly zero."""
    iterate = state.iterate + step * np.asarray(direction, dtype=float)
    iterate[blocking] = 0.0
    # Coordinates tied with the blocking one can land at -1e-17 level.
    np.maximum(iterate, 0.0, out=iterate)
    return ActiveSetState(
        free=state.free[state.free != blocking],
        active=np.sort(np.append(state.active, blocking)),
        iterate=iterate,
    )


def lagrange_multipliers(shifted, candidate, free, active) -> np.ndarray:
    """Multipliers of the pinned bounds, priced at the subproblem solution."""
    active = np.asarray(active, dtype=np.intp)
    if active.size == 0:
        return np.empty(0)
    cross = shifted.gram[np.ix_(active, np.asarray(free, dtype=np.intp))]
    return cross @ candidate.free_values - shifted.linear[active] + candidate.multiplier


def release_from_active(state: ActiveSetState, multipliers, dual_tol) -> ActiveSetState | None:
    """Free the most negative multiplier's variable; ``None`` means optimal."""
    multipliers = np.asarray(multipliers, dtype=float)
    if multipliers.size == 0 or multipliers.min() >= -dual_tol:
        return None
    released = state.active[int(np.argmin(multipliers))]
    return ActiveSetState(
        free=np.sort(np.append(state.free, released)),
        active=state.active[state.active != released],
        iterate=state.iterate,
    )


def _pinned_solution(shifted: ShiftedProblem) -> Solution:
    # Zero budget: the origin is the only feasible point. Any multiplier
    # lam >= max(linear) certifies it; the smallest choice leaves min(mu) = 0.
    p = shifted.size
    lam = float(shifted.linear.max()) if p else 0.0
    mu = lam - shifted.linear
    x = np.zeros(p)
    return Solution(
        abundances=x,
        shifted_abundances=x.copy(),
        eq_multiplier=lam,
        ineq_multipliers=np.maximum(mu, 0.0),
        objective=objective_value(shifted, x),
        outer_iterations=0,
        final_free=np.empty(0, dtype=np.intp),
        status=SolveStatus.OPTIMAL,
        objective_trace=(objective_value(shifted, x),),
    )


def active_set_solve(shifted: ShiftedProblem, config: SolverConfig | None = None) -> Solution:
    """Minimize the shifted quadratic over the scaled simplex.

    Runs the three-step loop from a uniform starting point until the KKT
    conditions hold within ``config`` tolerances. Returns a
    :class:`Solution` whose status is ``OPTIMAL``, or ``MAX_ITERATIONS`` if
    the iteration cap was reached (degenerate or numerically broken data).

    Raises
    ------
    RankDeficientLibrary
        If a restricted Gram block cannot be factorized, e.g. duplicated
        library columns inside the free set or more free variables than
        spectral bands.
    """
    config = config or SolverConfig()
    p = shifted.size
    if shifted.budget == 0.0:
        return _pinned_solution(shifted)

    rng = np.random.default_rng(config.tie_seed) if config.tie_break == "random" else None
    n_bands = shifted.shifted_target.size if shifted.shifted_target is not None else None
    state = initialize_state(shifted)
    trace = [objective_value(shifted, state.iterate)]
    cap = config.iteration_cap(p)
    last = None
    factor = None  # factor of the block on state.free; None after a release

    for iteration in range(1, cap + 1):
        try:
            if factor is None or config.ridge_regularization:
                factor = factorize(shifted.gram, state.free, ridge=config.ridge_regularization)
            sub = solve_subproblem(
                shifted.gram, shifted.linear, shifted.budget, state.free, factor=factor
            )
        except RankDeficientLibrary as exc:
            if n_bands is not None and state.free.size > n_bands:
                raise RankDeficientLibrary(
                    f"{exc} ({state.free.size} free variables exceed the "
                    f"{n_bands} spectral bands, so the block cannot be full rank)"
                ) from None
            raise

        if sub.free_values.min() >= -config.primal_tol:
            # Feasible candidate: accept it (zeroing boundary roundoff) and
            # price the pinned variables.
            iterate = np.zeros(p)
            iterate[state.free] = np.maximum(sub.free_values, 0.0)
            state = replace(state, iterate=iterate)
            trace.append(objective_value(shifted, iterate))
            mu_active = lagrange_multipliers(shifted, sub, state.free, state.active)
            last = (sub, mu_active, state.active)
            released = release_from_active(state, mu_active, config.dual_tol)
            if released is None:
                mu = np.zeros(p)
                mu[state.active] = mu_active
                return Solution(
                    abundances=iterate.copy(),
                    shifted_abundances=iterate,
                    eq_multiplier=sub.multiplier,
                    ineq_multipliers=mu,
                    objective=trace[-1],
                    outer_iterations=iteration,
                    final_free=state.free.copy(),
                    status=SolveStatus.OPTIMAL,
                    objective_trace=tuple(trace),
                )
            state = released
            factor = None
        else:
            step, blocking = max_feasible_step(state, sub, rng=rng)
            direction = np.zeros(p)
            direction[state.free] = sub.free_values - state.iterate[state.free]
            if not config.ridge_regularization:
                factor = downdate(factor, np.searchsorted(state.free, blocking))
            state = transfer_to_active(state, step, direction, blocking)
            trace.append(objective_value(shifted, state.iterate))

    mu = np.zeros(p)
    lam = 0.0
    if last is not None:
        sub, mu_active, active = last
        mu[active] = mu_active
        lam = sub.multiplier
    return Solution(
        abundances=state.iterate.copy(),
        shifted_abundances=state.iterate.copy(),
        eq_multiplier=lam,
        ineq_multipliers=mu,
        objective=trace[-1],
        outer_iterations=cap,
        final_free=state.free.copy(),
        status=SolveStatus.MAX_ITERATIONS,
        objective_trace=tuple(trace),
        message=f"iteration cap {cap} reached without dual feasibility",
    )
