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

The loop has two starting points. The uniform start frees every variable at
``s / P``, and its first solve doubles as a probe: when more than a third of
that candidate's entries are negative, the optimum is likely sparse, and the
solve starts over at the best vertex ``s e_i``, the primal order of Lawson &
Hanson (1974) and FNNLS (Bro & De Jong 1997) applied on the simplex. The
vertex is priced without a solve and grows its free set one release at a
time. A library with more endmembers than bands always starts at the vertex,
because the uniform start's block cannot be full rank there.

The loop keeps one Cholesky factor of ``G_FF`` per solve. It factorizes at
the uniform start, downdates the factor when step 2 pins a variable (an
``O(|F|^2)`` column deletion instead of an ``O(|F|^3)`` refactorization),
and factorizes afresh only after a release in step 3, or on every iteration
when ridge regularization is on, because its jitter depends on ``|F|``.

:func:`active_set_solve` runs the loop for one problem. Batches of problems
that share a Gram matrix go through :func:`_solve_lockstep`, which takes
every problem through the same steps together, one round at a time, and
returns for each exactly what :func:`active_set_solve` returns or raises.
Both choose the start and build their results with the same helpers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoBlockingIndex, RankDeficientLibrary, UnmixError
from .kkt import SubproblemSolution, downdate, factorize, solve_subproblem
from .model import ShiftedProblem, SolverConfig, objective_value


_NO_BLOCKING = "candidate has a negative entry but no free coordinate decreases"
# A uniform start whose first candidate has more than this share of its P
# entries below -primal_tol starts over at the best vertex. Timed per pixel
# against the uniform path on 224-band scenes with 1..P-sparse abundances,
# the vertex ran at 1.54x / 0.96x / 0.82x of its time for shares 0.25-0.30 /
# 0.30-0.35 / 0.35-0.40 at P=30, 1.35x / 0.96x / 0.73x at P=100, and 1.01x
# at 0.3 and 0.75x at 0.4 at P=10: the two break even near a third.
_VERTEX_START_SHARE = 1 / 3


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
    ``objective_trace`` records the objective at the start the solve used
    and after every iterate update, in order, so it holds
    ``outer_iterations + 1`` entries. A solve that starts over at the best
    vertex does not count the uniform start's probe solve, and pricing the
    vertex is not an iteration: a vertex that is already optimal returns
    after 0 iterations.
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
    """Uniform start: everything free at ``budget / P`` each."""
    p = shifted.size
    return ActiveSetState(
        free=np.arange(p, dtype=np.intp),
        active=np.empty(0, dtype=np.intp),
        iterate=np.full(p, shifted.budget / p),
    )


def max_feasible_step(state: ActiveSetState, candidate: SubproblemSolution, rng=None):
    """Largest step towards the candidate that keeps the iterate nonnegative.

    Returns ``(step, blocking)`` where ``step`` is the minimum of
    ``x_i / -d_i`` over free coordinates moving towards zero and ``blocking``
    is the coordinate attaining it. Ties go to the smallest index, or to a
    uniform draw from ``rng`` when one is supplied.
    """
    x_free = state.iterate[state.free]
    direction = candidate.free_values - x_free
    moving_down = direction < 0.0
    if not moving_down.any():
        raise NoBlockingIndex(_NO_BLOCKING)
    ratios = np.divide(x_free, -direction, out=np.full(direction.size, np.inf),
                       where=moving_down)
    step = ratios.min()
    tied = moving_down & (ratios == step)
    choice = tied.argmax() if rng is None else rng.choice(np.flatnonzero(tied))
    return float(step), int(state.free[choice])


def transfer_to_active(state: ActiveSetState, step, direction, blocking) -> ActiveSetState:
    """Advance the iterate and pin the blocking coordinate at exactly zero."""
    iterate = state.iterate + step * np.asarray(direction, dtype=float)
    iterate[blocking] = 0.0
    # Coordinates tied with the blocking one can land at -1e-17 level.
    np.maximum(iterate, 0.0, out=iterate)
    position = np.searchsorted(state.active, blocking)
    return ActiveSetState(
        free=state.free[state.free != blocking],
        active=np.concatenate((state.active[:position], [blocking], state.active[position:])),
        iterate=iterate,
    )


def lagrange_multipliers(shifted, candidate, free, active) -> np.ndarray:
    """Multipliers of the pinned bounds, priced at the subproblem solution."""
    active = np.asarray(active, dtype=np.intp)
    if active.size == 0:
        return np.empty(0)
    cross = shifted.gram.take(active, axis=0).take(free, axis=1)
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


def _optimal_solution(iterate, sub, mu_active, active, free, iteration, trace) -> Solution:
    mu = np.zeros(iterate.size)
    mu[active] = mu_active
    return Solution(
        abundances=iterate.copy(),
        shifted_abundances=iterate,
        eq_multiplier=sub.multiplier,
        ineq_multipliers=mu,
        objective=trace[-1],
        outer_iterations=iteration,
        final_free=free.copy(),
        status=SolveStatus.OPTIMAL,
        objective_trace=tuple(trace),
    )


def _capped_solution(iterate, last, free, cap, trace) -> Solution:
    # ``last`` holds (candidate, mu_active, active) of the last feasible
    # candidate priced, or None when no candidate was feasible.
    mu = np.zeros(iterate.size)
    lam = 0.0
    if last is not None:
        sub, mu_active, active = last
        mu[active] = mu_active
        lam = sub.multiplier
    return Solution(
        abundances=iterate.copy(),
        shifted_abundances=iterate.copy(),
        eq_multiplier=lam,
        ineq_multipliers=mu,
        objective=trace[-1],
        outer_iterations=cap,
        final_free=free.copy(),
        status=SolveStatus.MAX_ITERATIONS,
        objective_trace=tuple(trace),
        message=f"iteration cap {cap} reached without dual feasibility",
    )


def _band_deficit(exc: UnmixError, shifted: ShiftedProblem, n_free: int) -> UnmixError:
    """``exc``, or a rank failure restated with the band count that explains it."""
    target = shifted.shifted_target
    if not isinstance(exc, RankDeficientLibrary) or target is None or n_free <= target.size:
        return exc
    return RankDeficientLibrary(
        f"{exc} ({n_free} free variables exceed the {target.size} spectral "
        "bands, so the block cannot be full rank)"
    )


def _vertex_start(shifted: ShiftedProblem, config: SolverConfig, probe=None):
    """The best vertex as the start of a solve, or None to keep the uniform start.

    Without ``probe`` the vertex is taken when the library has more
    endmembers than bands, where the uniform start's block is singular.
    ``probe`` is the uniform start's first candidate, and the vertex is taken
    when more than ``_VERTEX_START_SHARE`` of the P entries fall below
    ``-primal_tol``.

    The vertex is ``s e_i``, with ``i`` the argmin of
    ``0.5 s^2 G_ii - s g_i`` (ties to the smallest index), and is priced
    without a solve: ``lam = g_i - s G_ii``. Returns the :class:`Solution`
    when it is optimal, else ``(state, trace, last)``: the state with the
    most negative multiplier released, the trace at the vertex, and the
    pricing for :func:`_capped_solution`.
    """
    p = shifted.size
    if probe is None:
        target = shifted.shifted_target
        if target is None or p <= target.size:
            return None
    elif np.count_nonzero(probe.free_values < -config.primal_tol) <= _VERTEX_START_SHARE * p:
        return None
    s = shifted.budget
    diagonal = shifted.gram.diagonal()
    i = int(np.argmin(0.5 * s * s * diagonal - s * shifted.linear))
    free = np.array([i], dtype=np.intp)
    active = np.delete(np.arange(p, dtype=np.intp), i)
    iterate = np.zeros(p)
    iterate[i] = s
    sub = SubproblemSolution(free_values=np.array([s]),
                             multiplier=float(shifted.linear[i] - s * diagonal[i]))
    mu_active = lagrange_multipliers(shifted, sub, free, active)
    trace = [objective_value(shifted, iterate)]
    state = ActiveSetState(free=free, active=active, iterate=iterate)
    released = release_from_active(state, mu_active, config.dual_tol)
    if released is None:
        return _optimal_solution(iterate, sub, mu_active, active, free, 0, trace)
    return released, trace, (sub, mu_active, active)


def active_set_solve(shifted: ShiftedProblem, config: SolverConfig | None = None) -> Solution:
    """Minimize the shifted quadratic over the scaled simplex.

    Runs the three-step loop from the uniform start, or from the best vertex
    when the library has more endmembers than bands or the first solve
    shows a sparse optimum, until the KKT conditions hold within ``config``
    tolerances. Returns a :class:`Solution` whose status is ``OPTIMAL``, or
    ``MAX_ITERATIONS`` if the iteration cap was reached (degenerate or
    numerically broken data).

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
    cap = config.iteration_cap(p)
    start = _vertex_start(shifted, config)
    probing = start is None  # the uniform start's first solve may restart at the vertex
    if probing:
        state = initialize_state(shifted)
        start = state, [objective_value(shifted, state.iterate)], None
    iteration = 0

    while iteration < cap:
        if start is not None:
            if isinstance(start, Solution):
                return start
            (state, trace, last), start = start, None
            factor = None  # factor of the block on state.free; None after a release
        iteration += 1
        try:
            if factor is None or config.ridge_regularization:
                factor = factorize(shifted.gram, state.free, ridge=config.ridge_regularization)
            sub = solve_subproblem(
                shifted.gram, shifted.linear, shifted.budget, state.free, factor=factor
            )
        except RankDeficientLibrary as exc:
            raise _band_deficit(exc, shifted, state.free.size) from None
        if probing:
            probing = False
            start = _vertex_start(shifted, config, sub)
            if start is not None:
                iteration = 0
                continue

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
                return _optimal_solution(iterate, sub, mu_active, state.active, state.free,
                                         iteration, trace)
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

    return _capped_solution(state.iterate, last, state.free, cap, trace)


def _solve_lockstep(problems: list[ShiftedProblem], config: SolverConfig) -> list:
    """Solve problems that share one library together, one round at a time.

    Every pixel takes the steps of :func:`active_set_solve` in the same
    order and with the same arithmetic, so each result equals that
    function's, field for field; the ``i``-th entry is the
    :class:`Solution` for ``problems[i]``, or the :class:`UnmixError` that
    :func:`active_set_solve` would raise on it. Work on a pixel's own
    Cholesky factor (factorize, downdate, subproblem solve), the objective
    trace, the pricing and the choice of start stay per pixel. The
    feasibility test, the ratio test, the tie-break, the iterate update and
    the free-set bookkeeping are numpy calls over all live pixels. From the
    uniform start, the full-Gram start factor is computed once for all of
    them, and the first round is every pixel's probe.
    """
    results = [None] * len(problems)
    rows = []  # problem index of each live pixel, in order
    for index, shifted in enumerate(problems):
        if shifted.budget == 0.0:
            results[index] = _pinned_solution(shifted)
        else:
            rows.append(index)
    if not rows:
        return results

    gram = problems[rows[0]].gram
    p = gram.shape[0]
    ridge = config.ridge_regularization
    rngs = None
    if config.tie_break == "random":
        rngs = {index: np.random.default_rng(config.tie_seed) for index in rows}
    cap = config.iteration_cap(p)
    iterate = np.repeat(np.array([problems[i].budget for i in rows])[:, None] / p, p, axis=1)
    free_mask = np.ones_like(iterate, dtype=bool)
    iterations = np.zeros(len(rows), dtype=np.intp)
    # By row, the start a pixel takes before its next solve: the vertex of a
    # library wider than its bands, or the restart its probe asked for.
    starts = {j: _vertex_start(problems[i], config) for j, i in enumerate(rows)}
    starts = {j: start for j, start in starts.items() if start is not None}
    probing = not starts
    if probing:
        traces = {i: [objective_value(problems[i], iterate[j])] for j, i in enumerate(rows)}
        last = dict.fromkeys(rows)
        try:
            start_factor = factorize(gram, np.arange(p), ridge=ridge)
        except RankDeficientLibrary as exc:
            for i in rows:
                results[i] = _band_deficit(exc, problems[i], p)
            return results
        factors = [start_factor] * len(rows)  # None after a release, or after a pin under ridge
    else:
        traces, last, factors = {}, {}, [None] * len(rows)
    alive = np.ones(len(rows), dtype=bool)

    while True:
        for j, start in starts.items():
            i = rows[j]
            if isinstance(start, Solution):
                results[i] = start
                alive[j] = False
                continue
            state, traces[i], last[i] = start
            iterate[j] = state.iterate
            free_mask[j] = False
            free_mask[j, state.free] = True
            iterations[j] = 0
            factors[j] = None
        starts = {}
        for j in np.flatnonzero(alive & (iterations == cap)).tolist():
            i = rows[j]
            results[i] = _capped_solution(iterate[j], last[i], np.flatnonzero(free_mask[j]), cap,
                                          traces[i])
            alive[j] = False
        if not alive.all():
            rows = [i for j, i in enumerate(rows) if alive[j]]
            if not rows:
                return results
            factors = [f for j, f in enumerate(factors) if alive[j]]
            iterate = iterate[alive]
            free_mask = free_mask[alive]
            iterations = iterations[alive]
        iterations += 1

        # Per pixel: the subproblem on its own factor.
        _, free_columns = np.nonzero(free_mask)
        ends = np.cumsum(np.count_nonzero(free_mask, axis=1)).tolist()
        frees, subs = [], []
        candidates = np.zeros_like(iterate)
        alive = np.ones(len(rows), dtype=bool)
        solved = np.ones(len(rows), dtype=bool)
        begin = 0
        for j, i in enumerate(rows):
            free = free_columns[begin:ends[j]]
            begin = ends[j]
            frees.append(free)
            subs.append(None)
            shifted = problems[i]
            try:
                if factors[j] is None:
                    factors[j] = factorize(gram, free, ridge=ridge)
                sub = solve_subproblem(gram, shifted.linear, shifted.budget, free,
                                       factor=factors[j])
            except UnmixError as exc:
                results[i] = _band_deficit(exc, shifted, free.size)
                alive[j] = solved[j] = False
                continue
            if probing:
                start = _vertex_start(shifted, config, sub)
                if start is not None:
                    starts[j] = start
                    solved[j] = False
                    continue
            subs[j] = sub
            candidates[j, free] = sub.free_values
        probing = False

        # Inactive coordinates hold 0 in ``candidates``, which leaves both
        # tests below as they are on the free coordinates alone.
        feasible = solved & (candidates.min(axis=1) >= -config.primal_tol)
        iterate[feasible] = np.maximum(candidates[feasible], 0.0)
        for j in np.flatnonzero(feasible).tolist():
            i, sub, free = rows[j], subs[j], frees[j]
            shifted = problems[i]
            traces[i].append(objective_value(shifted, iterate[j]))
            active = np.flatnonzero(~free_mask[j])
            mu_active = lagrange_multipliers(shifted, sub, free, active)
            last[i] = (sub, mu_active, active)
            state = ActiveSetState(free=free, active=active, iterate=iterate[j])
            released = release_from_active(state, mu_active, config.dual_tol)
            if released is None:
                results[i] = _optimal_solution(iterate[j].copy(), sub, mu_active, active, free,
                                               int(iterations[j]), traces[i])
                alive[j] = False
            else:
                free_mask[j, released.free] = True
                factors[j] = None

        blocked = np.flatnonzero(solved & ~feasible)
        if blocked.size:
            direction = candidates[blocked] - iterate[blocked]
            moving_down = direction < 0.0
            ratios = np.divide(iterate[blocked], -direction,
                               out=np.full(direction.shape, np.inf), where=moving_down)
            step = ratios.min(axis=1)
            tied = moving_down & (ratios == step[:, None])
            blocking = tied.argmax(axis=1)
            # Position of the blocking coordinate within its pixel's free set.
            positions = np.cumsum(free_mask[blocked], axis=1)[np.arange(blocked.size), blocking]
            positions -= 1
            pinned = np.ones(blocked.size, dtype=bool)
            for k, j in enumerate(blocked.tolist()):
                i = rows[j]
                try:
                    if not moving_down[k].any():
                        raise NoBlockingIndex(_NO_BLOCKING)
                    if rngs is not None:
                        blocking[k] = rngs[i].choice(np.flatnonzero(tied[k]))
                        positions[k] = np.count_nonzero(free_mask[j, :blocking[k]])
                    factors[j] = None if ridge else downdate(factors[j], positions[k])
                except UnmixError as exc:
                    results[i] = exc
                    alive[j] = False
                    pinned[k] = False
            moved = blocked[pinned]
            blocking = blocking[pinned]
            advanced = iterate[moved] + step[pinned, None] * direction[pinned]
            advanced[np.arange(moved.size), blocking] = 0.0
            # Coordinates tied with the blocking one can land at -1e-17 level.
            np.maximum(advanced, 0.0, out=advanced)
            iterate[moved] = advanced
            free_mask[moved, blocking] = False
            for j in moved.tolist():
                i = rows[j]
                traces[i].append(objective_value(problems[i], iterate[j]))
