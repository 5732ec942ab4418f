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

The uniform start frees every variable at ``s / P``, and its first solve
doubles as a probe, which decides where the solve goes on:

- a feasible probe is accepted by step 3;
- when more than a third of its entries are negative, the optimum is likely
  sparse, and the solve starts over at the best vertex ``s e_i``, the primal
  order of Lawson & Hanson (1974) and FNNLS (Bro & De Jong 1997) applied on
  the simplex. The vertex is a feasible candidate on the free set ``[i]``,
  accepted and priced by step 3 as iteration 0, and the free set grows from
  it one release at a time;
- otherwise the solve starts over at the feasible point
  ``max(probe, 0) * s / sum(max(probe, 0))``, free on the probe's strictly
  positive support and zero elsewhere, as iteration 0, and the loop runs
  from there as from any feasible iterate.

A library with more endmembers than bands always starts at the vertex,
because the uniform start's block cannot be full rank there, and a solve
there whose free set outgrows the bands fails before its next subproblem
on either back end: that block is singular, though roundoff can let the
rank test pass it. A zero budget starts at the origin, the empty candidate
with ``lam = max(g)``, which the same step certifies.

The uniform start forks the system of the full Gram matrix, which the
library factorizes once, at the first solve that needs it; a problem stated
without its library's Gram gets one of its own. After the start, the number
of endmembers P selects one of two linear-algebra back ends for the rounds:

- at ``P >= _STACKED_BELOW`` the loop keeps one
  :class:`unmix.kkt.KeptSystem` per solve, which owns the free set in its
  factor's column order and makes every factor event: the Cholesky factor
  of ``G_FF`` with the forward solves ``L^{-1} [g_F, 1]``, so that each
  subproblem costs two dot products and one back-substitution. The system
  of a start over factorizes its free set at its first solve: the probe's
  support, or the vertex's two-column block after its first release. After
  that it is only modified: step 2 removes the pinned variable's column
  where it sits and step 3 adds the released one last, each ``O(|F|^2)``
  instead of the ``O(|F|^3)`` of a refactorization;
- below it a solve keeps only a :class:`unmix.kkt.FreeMask`, and a round
  solves the subproblems of all its problems with
  :func:`unmix.kkt.solve_stacked`: one LAPACK call per padded ``P x P``
  block over a stack, and single numpy calls over the stack for the rest.
  At small P the kept back end is bound by its per-problem Python calls,
  which the stacked one shares across a slice; at large P the stacked one
  pays for whole blocks where the kept one updates in ``O(|F|^2)``. The
  crossover comes from the sweep quoted at :data:`_STACKED_BELOW`.

:attr:`Solution.final_free` is sorted.

Step 3, the one accept step of every feasible candidate and every start,
forms ``G x`` once at the accepted, clipped iterate ``x``, and takes
both the objective trace and the prices of the pinned variables from it:
``mu = G x - g + lam``, zero on the free set. That is the certificate the
returned iterate carries. Ties go to the smallest index, both in the
blocking step and in the release; ``tie_break="random"`` draws among tied
blocking coordinates only.

There is one loop, :func:`_solve_lockstep`. It takes problems that share a
Gram matrix through the moves together, one round at a time:
:func:`active_set_solve` runs it on one problem and :mod:`unmix.batch` on
slices of pixels, so a pixel gets the same answer either way. Every
problem takes its start, probe included, before the first round, and the
rounds only solve, then accept or block. The ratio test, the tie-break and
the iterate update of the problems whose candidate is infeasible are numpy
calls over all of them on both back ends; the stacked back end also
solves and prices in such calls. A problem's bits do not depend on the
others: every stacked call runs LAPACK or BLAS once per problem, a
broadcast ``matmul`` computes each row as ``gram @ x`` does, a stacked row
dot product as ``x @ y`` does, and every reduction runs along one
problem's row.
The step helpers (:func:`initialize_state`, :func:`max_feasible_step`,
:func:`transfer_to_active`, :func:`lagrange_multipliers`,
:func:`release_from_active`) spell the moves out for one problem with
sorted index sets and fresh factorizations; the tests check the loop
against them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NoBlockingIndex, RankDeficientLibrary, UnmixError
from .kkt import FreeMask, KeptSystem, SubproblemSolution, solve_stacked, solve_subproblem
from .model import ShiftedProblem, SolverConfig, objective_from_product, objective_rows
from .model import objective_value


_NO_BLOCKING = "candidate has a negative entry but no free coordinate decreases"
# A uniform start whose probe has more than this share of its P entries
# below -primal_tol starts over at the best vertex, one with fewer, but some,
# on the probe's positive support. The vertex takes more iterations, but
# cheaper ones: at a share of 1, where every such probe takes the support
# start, api-p100 (seed 101, 300 spectra) fell from 39.2 to 21.8 iterations
# per pixel but ran at 2.49 against 2.22 ms per pixel in-process. It traded
# 37.5 column appends for 19.7 deletes per pixel, and a delete at |F| about
# 50 costs about twice an append.
_VERTEX_START_SHARE = 1 / 3
# Below this many endmembers a round solves the subproblems of all its
# problems in stacked calls (kkt.solve_stacked), at and above it each on its
# own KeptSystem. Measured on the batch-p30 recipe (224 bands, seed 2024,
# 1,000 pixels, slices of _SLICE_FACTOR_BYTES), unmix_batch ran 1.03, 1.27,
# 1.62, 1.49, 1.36, 1.03, 0.93 and 0.72 times as fast stacked as kept at
# P = 10, 20, 30, 40, 50, 60, 70 and 100, and one-pixel unmix() 0.84, 0.89,
# 0.85, 0.80, 0.83, 0.68, 0.84 and 0.54 times: the batch gain ends near 60,
# and the one-pixel loss grows past 50.
_STACKED_BELOW = 55


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
    ``outer_iterations + 1`` entries. A solve that starts over, on the
    uniform start's probe's positive support or at the best vertex, does not
    count the probe solve, and its trace begins at the point it starts over
    from. It accepts and prices the vertex as iteration 0: a vertex that is
    already optimal, like the origin of a zero budget, returns after 0
    iterations.
    ``final_free`` is sorted, although the solve keeps its free set in the
    order of its factor's columns. An ``OPTIMAL`` solution's
    ``ineq_multipliers`` are ``G x - g + eq_multiplier`` at the returned
    ``shifted_abundances`` ``x``, zero on ``final_free``. A
    ``MAX_ITERATIONS`` solution carries no certificate: its
    ``eq_multiplier`` and ``ineq_multipliers`` are NaN.
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
    """Free the most negative multiplier's variable; ``None`` means optimal.

    Ties go to the smallest index, as in the solver's loop.
    """
    multipliers = np.asarray(multipliers, dtype=float)
    if multipliers.size == 0 or multipliers.min() >= -dual_tol:
        return None
    k = int(multipliers.argmin())
    released = state.active[k]
    position = state.free.searchsorted(released)
    return ActiveSetState(
        free=np.concatenate((state.free[:position], state.active[k:k + 1],
                             state.free[position:])),
        active=state.active[state.active != released],
        iterate=state.iterate,
    )


def _capped_solution(iterate, free, cap, trace) -> Solution:
    # No multipliers were computed at the returned iterate: when the last
    # move was a pin, the last priced candidate is not the iterate.
    return Solution(
        abundances=iterate.copy(),
        shifted_abundances=iterate.copy(),
        eq_multiplier=float("nan"),
        ineq_multipliers=np.full(iterate.size, np.nan),
        objective=trace[-1],
        outer_iterations=cap,
        final_free=np.sort(free),
        status=SolveStatus.MAX_ITERATIONS,
        objective_trace=tuple(trace),
        message=f"iteration cap {cap} reached without dual feasibility",
    )


def _band_deficit(n_free: int, bands: int) -> RankDeficientLibrary:
    """The failure of a free set of ``n_free`` variables over ``bands < n_free`` bands."""
    return RankDeficientLibrary(
        f"restricted Gram block of size {n_free} is singular ({n_free} free variables "
        f"exceed the {bands} spectral bands, so the block cannot be full rank)"
    )


def active_set_solve(shifted: ShiftedProblem, config: SolverConfig | None = None) -> Solution:
    """Minimize the shifted quadratic over the scaled simplex.

    Runs the three-step loop from the uniform start, from the best vertex
    when the library has more endmembers than bands or the first solve
    shows a sparse optimum, or from the first solve's positive support when
    a few of its entries are negative, until the KKT conditions hold within
    ``config`` tolerances. Returns a :class:`Solution` whose status is
    ``OPTIMAL``, or ``MAX_ITERATIONS`` if the iteration cap was reached
    (degenerate or numerically broken data).

    Raises
    ------
    RankDeficientLibrary
        If a restricted Gram block cannot be factorized, e.g. duplicated
        library columns inside the free set or more free variables than
        spectral bands.
    """
    result = _solve_lockstep([shifted], config or SolverConfig())[0]
    if isinstance(result, UnmixError):
        raise result
    return result


class _Pixel:
    """Where one problem of :func:`_solve_lockstep` stands between rounds.

    ``system`` owns the problem's free set: a :class:`KeptSystem`, or below
    :data:`_STACKED_BELOW` endmembers a :class:`FreeMask`, except on the
    uniform start's fork, which is a :class:`KeptSystem` either way.
    ``iterate`` is the current feasible point, ``trace`` its objective trace
    and ``iteration`` the number of subproblems solved since the start.
    ``bands`` is the number of spectral bands when it is below P, the most
    free variables a full-rank block can have, and None otherwise.
    :meth:`start` chooses the start once, before the first round, and puts
    the pixel there through :meth:`begin`.
    """

    __slots__ = ("index", "shifted", "rng", "bands", "system", "iterate", "trace", "iteration")

    def __init__(self, index, shifted, rng):
        self.index = index
        self.shifted = shifted
        self.rng = rng
        target = shifted.shifted_target
        self.bands = target.size if target is not None and target.size < shifted.size else None

    def begin(self, system, iterate) -> None:
        """Start the solve (over) at ``iterate``, feasible and zero off
        ``system.free``, with an empty trace and no iteration made."""
        self.system = system
        self.iterate = iterate
        self.trace = []
        self.iteration = 0

    def start(self, config: SolverConfig) -> tuple | None:
        """Choose the start and take it: the whole start policy of the loop.

        Unless the budget is zero or the library is wider than its bands,
        the probe is solved as iteration 1 on a fork of the uniform start's
        system. Returns the feasible candidate of the start, the accepted
        probe, the vertex or the origin, as ``(x, sub)``: ``x`` zero off the
        free set and ``sub`` its :class:`SubproblemSolution`; or None after
        a start over on the probe's support, whose candidate the first round
        solves. Raises the :class:`RankDeficientLibrary` of a singular full
        Gram.
        """
        shifted = self.shifted
        s, p = shifted.budget, shifted.size
        target = shifted.shifted_target
        candidate = np.zeros(p)
        if s == 0.0:
            # The origin is the only feasible point; lam = max(g) is the
            # smallest multiplier that certifies it.
            free, sub = [], SubproblemSolution(np.empty(0), float(shifted.linear.max()))
        else:
            if target is None or p <= target.size:  # else the uniform block is rank deficient
                self.begin(shifted._start_system().fork(shifted.linear), np.full(p, s / p))
                self.iteration = 1
                probe = solve_subproblem(shifted.gram, shifted.linear, s, self.system.free,
                                         factor=self.system)
                negative = np.count_nonzero(probe.free_values < -config.primal_tol)
                if not negative:
                    self.trace.append(objective_value(shifted, self.iterate))
                    return probe.free_values, probe
                if negative <= _VERTEX_START_SHARE * p:
                    # Start over at the probe clipped to its strictly positive
                    # support and scaled back onto the budget.
                    clipped = np.maximum(probe.free_values, 0.0)
                    clipped *= s / clipped.sum()
                    self.begin(self._system(np.flatnonzero(clipped)), clipped)
                    self.trace.append(objective_value(shifted, clipped))
                    return None
            # The best vertex s e_i minimizes 0.5 s^2 G_ii - s g_i (ties to the
            # smallest index); lam = g_i - s G_ii solves the subproblem on [i].
            diagonal = shifted.gram.diagonal()
            i = int(np.argmin(0.5 * s * s * diagonal - s * shifted.linear))
            free, sub = [i], SubproblemSolution(np.array([s]),
                                                float(shifted.linear[i] - s * diagonal[i]))
            candidate[i] = s
        self.begin(self._system(free), np.zeros(p))
        return candidate, sub

    def _system(self, free):
        """The system of a start over on ``free``, for the back end of P."""
        shifted = self.shifted
        if shifted.size < _STACKED_BELOW:
            return FreeMask(shifted.size, free)
        return KeptSystem(shifted.gram, shifted.linear, free)

    def price(self, x, mu, objective, sub: SubproblemSolution,
              config: SolverConfig) -> Solution | None:
        """Accept the feasible iterate ``x``, the candidate ``sub`` clipped at
        zero, whose objective is ``objective``, and price the pinned
        variables from ``mu = G x - g + lam``, with ``lam = sub.multiplier``.

        Returns the ``OPTIMAL`` :class:`Solution` when no multiplier is below
        ``-dual_tol``; otherwise frees the most negative one's variable (ties
        to the smallest index) and returns None.
        """
        self.iterate = x
        self.trace.append(objective)
        # On the free set mu is the stationarity residual, not a multiplier,
        # so it is set to zero there.
        free = self.system.free
        mu[free] = 0.0
        released = int(mu.argmin())
        if mu[released] >= -config.dual_tol:
            return Solution(
                abundances=x.copy(),
                shifted_abundances=x.copy(),
                eq_multiplier=sub.multiplier,
                ineq_multipliers=mu,
                objective=objective,
                outer_iterations=self.iteration,
                final_free=np.sort(free),
                status=SolveStatus.OPTIMAL,
                objective_trace=tuple(self.trace),
            )
        self.system.add(released)
        return None


def _traced(pixels: list[_Pixel], iterates):
    """``G x`` and the objective at row ``k`` of ``iterates``, the iterate of
    ``pixels[k]``, and the pixels' linear terms as rows.

    The stacked calls compute every row as ``gram @ x`` and
    :func:`~unmix.model.objective_value` do, bit for bit, so one row takes
    those calls themselves, which are fewer.
    """
    gram = pixels[0].shifted.gram
    if len(pixels) == 1:
        shifted, x = pixels[0].shifted, iterates[0]
        gx = gram @ x
        return gx[None], [objective_from_product(shifted, x, gx)], shifted.linear[None]
    linear = np.array([px.shifted.linear for px in pixels])
    products = np.matmul(gram, iterates[..., None])[..., 0]
    objectives = objective_rows(iterates, products, linear,
                                np.array([px.shifted.const_term for px in pixels]))
    return products, objectives.tolist(), linear


def _accept(pixels: list[_Pixel], candidates, subs: list, config: SolverConfig,
            results: list) -> None:
    """:meth:`_Pixel.price` each pixel at its feasible candidate, row ``k``
    of ``candidates`` and ``subs[k]``, with boundary roundoff zeroed; an
    ``OPTIMAL`` :class:`Solution` goes to ``results``."""
    iterates = np.maximum(candidates, 0.0)
    products, objectives, linear = _traced(pixels, iterates)
    prices = products - linear
    prices += np.array([sub.multiplier for sub in subs])[:, None]
    for k, sub in enumerate(subs):
        px = pixels[k]
        results[px.index] = px.price(iterates[k], prices[k], objectives[k], sub, config)


def _block(pixels: list[_Pixel], candidates, results: list) -> None:
    """Take the blocking step of each pixel whose candidate is infeasible.

    The ratio test, the tie-break and the iterate update are stacked over
    the pixels; row ``k`` of ``candidates`` belongs to ``pixels[k]`` and is
    zero off its free set. Pinned coordinates hold 0 in both the candidate
    and the iterate, so they never move or block. A pixel that cannot take
    the step gets its error in ``results``.
    """
    current = np.array([px.iterate for px in pixels])
    # ``gap`` is the iterate minus the candidate, positive where a coordinate
    # falls; it is exactly the negated step direction.
    gap = current - candidates
    falling = gap > 0.0
    ratios = np.divide(current, gap, out=np.full(gap.shape, np.inf), where=falling)
    step = ratios.min(axis=1, keepdims=True)
    tied = falling & (ratios == step)
    blocking = tied.argmax(axis=1).tolist()
    can_block = falling.any(axis=1)
    advanced = current - step * gap
    # Coordinates tied with the blocking one can land at -1e-17 level; the
    # blocking one itself is pinned at exactly zero.
    np.maximum(advanced, 0.0, out=advanced)
    moved = []
    for k, px in enumerate(pixels):
        try:
            if not can_block[k]:
                raise NoBlockingIndex(_NO_BLOCKING)
            if px.rng is not None:
                blocking[k] = int(px.rng.choice(np.flatnonzero(tied[k])))
            px.system.remove(blocking[k])
        except UnmixError as exc:
            results[px.index] = exc
            continue
        advanced[k, blocking[k]] = 0.0
        moved.append(k)
    if moved:
        pixels, advanced = [pixels[k] for k in moved], advanced[moved]
        _, objectives, _ = _traced(pixels, advanced)
        for px, x, objective in zip(pixels, advanced, objectives):
            px.iterate = x
            px.trace.append(objective)


def _solve_kept(pixels: list[_Pixel], config: SolverConfig, results: list) -> None:
    """A round on the kept back end: each pixel solves its subproblem on its
    own :class:`KeptSystem` and prices a feasible candidate at once; the
    pixels whose candidate is infeasible take the blocking step together."""
    blocked, candidates = [], []
    for px in pixels:
        shifted, system = px.shifted, px.system
        try:
            sub = solve_subproblem(shifted.gram, shifted.linear, shifted.budget, system.free,
                                   factor=system)
        except UnmixError as exc:
            results[px.index] = exc
            continue
        x = np.zeros(shifted.size)
        if sub.free_values.min() >= -config.primal_tol:
            x[system.free] = np.maximum(sub.free_values, 0.0)
            gx = shifted.gram @ x
            mu = gx - shifted.linear
            mu += sub.multiplier
            results[px.index] = px.price(x, mu, objective_from_product(shifted, x, gx), sub,
                                         config)
        else:
            x[system.free] = sub.free_values
            blocked.append(px)
            candidates.append(x)
    if blocked:
        _block(blocked, np.array(candidates), results)


def _solve_masked(pixels: list[_Pixel], config: SolverConfig, results: list) -> None:
    """A round on the stacked back end: the subproblems of all the pixels,
    on their :class:`FreeMask`, in the stacked calls of
    :func:`unmix.kkt.solve_stacked`, then the pricing of the feasible
    candidates and the blocking step towards the others, each stacked."""
    candidates, multipliers, failures = solve_stacked(
        pixels[0].shifted.gram,
        np.array([px.system.mask for px in pixels]),
        np.array([px.shifted.linear for px in pixels]),
        np.array([px.shifted.budget for px in pixels]),
    )
    if failures:
        for item, exc in failures.items():
            results[pixels[item].index] = exc
        pixels = [px for item, px in enumerate(pixels) if item not in failures]
    feasible = (candidates.min(axis=1) >= -config.primal_tol).tolist()
    accepted = [k for k, ok in enumerate(feasible) if ok]
    if accepted:
        rows = candidates[accepted] if len(accepted) < len(pixels) else candidates
        lams = multipliers.tolist()
        subs = [SubproblemSolution(None, lams[k]) for k in accepted]
        _accept([pixels[k] for k in accepted], rows, subs, config, results)
    if len(accepted) < len(pixels):
        blocked = [k for k, ok in enumerate(feasible) if not ok]
        _block([pixels[k] for k in blocked], candidates[blocked], results)


def _solve_lockstep(problems: list[ShiftedProblem], config: SolverConfig) -> list:
    """Solve problems that share one Gram matrix together, one round at a time.

    The ``i``-th entry is the :class:`Solution` for ``problems[i]``, or the
    :class:`UnmixError` the solve of that problem raised; no problem's
    answer depends on the others. Every problem takes its start, probe
    included, before the first round, and the feasible candidates of the
    starts are priced together. In a round every live problem that is below
    the iteration cap solves its subproblem, then either prices a feasible
    candidate or takes the blocking step. Below :data:`_STACKED_BELOW`
    endmembers a round solves and prices in stacked calls, at and above it
    each problem solves on its own kept system and prices its own
    candidate. The ratio test, the tie-break and the iterate update are
    stacked either way. Every stacked call keeps each row's arithmetic.
    """
    results = [None] * len(problems)
    live, started, candidates, subs = [], [], [], []
    for index, shifted in enumerate(problems):
        rng = np.random.default_rng(config.tie_seed) if config.tie_break == "random" else None
        px = _Pixel(index, shifted, rng)
        try:
            start = px.start(config)
        except UnmixError as exc:
            results[index] = exc
            continue
        live.append(px)
        if start is not None:
            started.append(px)
            candidates.append(start[0])
            subs.append(start[1])
    if started:  # every start's candidate is feasible
        _accept(started, np.array(candidates), subs, config, results)

    while True:
        live = [px for px in live if results[px.index] is None]
        if not live:
            return results
        solving = []
        for px in live:
            if px.iteration == config.iteration_cap(px.shifted.size):
                results[px.index] = _capped_solution(px.iterate, px.system.free, px.iteration,
                                                     px.trace)
            elif px.bands is not None and px.system.free.size > px.bands:
                results[px.index] = _band_deficit(px.system.free.size, px.bands)
            else:
                px.iteration += 1
                solving.append(px)
        if solving:
            stacked = solving[0].shifted.size < _STACKED_BELOW
            (_solve_masked if stacked else _solve_kept)(solving, config, results)
