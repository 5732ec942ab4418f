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
no move raises the objective by more than the roundoff of evaluating it, so
the loop terminates on nondegenerate data long before the ``10 * P``
default iteration cap. (On libraries with near-collinear columns, a release
can lower the objective by less than that roundoff, and the recorded trace
then rises by up to about 1e-15; the acceptance tests allow 1e-12.)

The uniform start frees every variable at ``s / P``, and its first solve
doubles as a probe, which decides where the solve goes on:

- a feasible probe is accepted by step 3;
- any other refines the start, as the classical FCLS loop of Heinz & Chang
  (2001) does: it frees the probe's strictly positive support and solves
  there, and while the candidate is infeasible it frees that candidate's
  strictly positive support and solves again. Each free set is a strict
  subset of the last and never empty, so at most P such solves reach a
  feasible candidate, which step 3 accepts and prices as iteration 0. The
  exact loop then runs from it, as Lawson & Hanson (1974) and FNNLS (Bro &
  De Jong 1997) do, and needs few moves: the refined support is most of the
  optimal one. The refinement solves are neither counted nor capped.

A library with more endmembers than bands starts at the best vertex
``s e_i``, because the uniform start's block cannot be full rank there. The
vertex is a feasible candidate on the free set ``[i]``, accepted and priced
by step 3 as iteration 0, and the free set grows from it one release at a
time; a solve whose free set outgrows the bands fails before its next
subproblem on either back end: that block is singular, though roundoff can
let the rank test pass it. A zero budget starts at the origin, the empty
candidate with ``lam = max(g)``, which the same step certifies.

The probes of all the problems in a call are solved together, on either
back end, by two ``dtrsm`` calls (:func:`unmix.kkt.solve_uniform`) with
the factor of the full Gram matrix, which the library factorizes once, at
the first solve that needs it; a problem stated without its library's Gram
gets one of its own. The multipliers, the choice of start and the
vertices are array operations over the problems. After the start, the
number of endmembers P selects one of two linear-algebra back ends for the
rounds, which also run the refinement solves:

- at ``P >= _STACKED_BELOW`` a solve keeps a
  :class:`unmix.kkt.KeptSystem`, a cache of the factor of its row of the
  mask, which makes every factor event: the Cholesky factor of ``G_FF``
  with the forward solves ``L^{-1} [g_F, 1]``, so that each subproblem
  costs two dot products and one back-substitution. Only growth is an
  update: step 3 adds the released variable last, and the next solve
  appends its column in ``O(|F|^2)`` instead of the ``O(|F|^3)`` of a
  refactorization. A pin in step 2 drops the system, and a solve that has
  none builds one on its mask, sorted, which factorizes at that solve, as
  the vertex's does after its first release. A row refining its start
  shrinks its mask and solves again within the same round, on a system
  built on the shrunken mask, until its candidate is feasible. A failed
  append drops the system too, and the solve is made again on the sorted
  mask: the block the stacked back end judges;
- below it a solve keeps no factor, and a round solves the subproblems of
  all its problems with :func:`unmix.kkt.solve_stacked` on the rows of the
  free mask: one LAPACK call per padded ``P x P`` block over a stack, and
  single numpy calls over the stack for the rest. At small P the kept back
  end is bound by its per-problem Python calls, which the stacked one
  shares; at large P the stacked one pays for whole blocks where the kept
  one updates in ``O(|F|^2)``. The crossover comes from the sweep quoted at
  :data:`_STACKED_BELOW`.

Step 3, the one accept step of every feasible candidate and every start,
forms ``G x`` once at the accepted, clipped iterate ``x``, and takes
both the objective trace and the prices of the pinned variables from it:
``mu = G x - g + lam``, zero on the free set. That is the certificate the
returned iterate carries. Ties go to the smallest index, both in the
blocking step and in the release; ``tie_break="random"`` draws among tied
blocking coordinates only.

There is one loop, :func:`_solve_lockstep`. It takes problems that share a
Gram matrix and a budget through the moves together, one round at a time:
:func:`active_set_solve` runs it on one problem and :mod:`unmix.batch` on
slices of pixels, so a pixel gets the same answer either way. A
:class:`_Slice` holds their state in rows: a ``(k, P)`` free mask and
iterate, and the problems' linear terms and constants, as the shift
stacked them (:class:`unmix.model.ShiftedRows`); a row that failed its
checks keeps its place and is not solved. Every problem chooses its start
before the first round, and the rounds only solve, then accept, refine or
block. The ratio test, the tie-break and the iterate update of the
problems whose candidate is infeasible are numpy calls over their rows on
both back ends. The starts and the stacked back end's rounds price in such
calls too (:meth:`_Slice.accept`), which decide the rows that finish, the
variable each other row frees and their new iterates and masks; only a
finished row builds its :class:`Solution` alone. The kept back end prices
each row as it solves it (:meth:`_Slice.price`): stacked, one kept row's
pricing slowed a one-pixel solve. :meth:`_Slice.finish` builds every
``OPTIMAL`` answer of either back end.
A problem's bits do not depend on the others: every stacked LAPACK call
runs once per row, a ``dtrsm`` column is solved as a one-column ``dtrsm``
solves it, a broadcast ``matmul`` computes each row as ``gram @ x`` does,
a stacked row dot product as ``x @ y`` does, and every reduction runs
along one row.
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
from .kkt import KeptSystem, SubproblemSolution, solve_stacked, solve_subproblem, solve_uniform
from .model import ShiftedProblem, ShiftedRows, SolverConfig, objective_from_product
from .model import objective_rows


_NO_BLOCKING = "candidate has a negative entry but no free coordinate decreases"
# Below this many endmembers a round solves the subproblems of all its
# problems in stacked calls (kkt.solve_stacked), at and above it each on its
# own KeptSystem. Measured on the batch-p30 recipe (224 bands, seed 2024,
# 1,000 pixels, slices of _SLICE_FACTOR_BYTES = 2 MiB, best of 5), unmix_batch
# ran 2.81, 3.46, 2.78, 2.31, 1.83, 1.51, 1.21, 1.16, 0.99 and 0.85 times as
# fast stacked as kept at P = 10, 20, ..., 100, and one-pixel unmix() (200
# pixels) 0.92, 0.95, 0.93, 0.85, 0.88, 0.85, 0.81, 0.71, 0.66 and 0.58 times:
# the batch gain reaches about 80, but from 40 on a one-pixel solve loses up
# to 42%, and no benchmark workload lies between, so the crossover stays.
_STACKED_BELOW = 55
_DEFAULT_CONFIG = SolverConfig()  # frozen, so every call without a config can share it


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
    ``outer_iterations + 1`` entries. A solve whose probe is infeasible
    counts neither the probe nor the solves that refine its start, and its
    trace begins at the feasible candidate it accepts and prices as
    iteration 0, as a solve does at the best vertex or at the origin of a
    zero budget: a start that is already optimal returns after 0
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


def active_set_solve(shifted: ShiftedProblem, config: SolverConfig | None = None) -> Solution:
    """Minimize the shifted quadratic over the scaled simplex.

    Runs the three-step loop from the uniform start, from the best vertex
    when the library has more endmembers than bands, or from the start that
    an infeasible first solve refines on its positive supports, until the
    KKT conditions hold within ``config`` tolerances. Returns a :class:`Solution` whose status is
    ``OPTIMAL``, or ``MAX_ITERATIONS`` if the iteration cap was reached
    (degenerate or numerically broken data).

    Raises
    ------
    RankDeficientLibrary
        If a restricted Gram block cannot be factorized, e.g. duplicated
        library columns inside the free set or more free variables than
        spectral bands.
    """
    result = _solve_lockstep(ShiftedRows.of(shifted), config or _DEFAULT_CONFIG, {})[0]
    if isinstance(result, UnmixError):
        raise result
    return result


class _Slice:
    """The state of one :func:`_solve_lockstep` call, row ``r`` that of row
    ``r`` of its :class:`~unmix.model.ShiftedRows`.

    ``free`` is the ``(k, P)`` mask of the free sets and ``iterate`` the
    current feasible points, zero off them; ``linear`` and ``const`` are the
    rows' terms, and ``budget`` the one float they share. Per row the slice
    keeps the number of subproblems solved since the start (``iteration``),
    the objective ``trace``, empty while the row refines its start, the
    tie-break ``rngs`` and, at and above :data:`_STACKED_BELOW` endmembers,
    the :class:`KeptSystem` in ``systems`` that caches the factor of its row
    of ``free``, or None before the row's first kept solve and where a pin
    dropped it. ``bands`` is the rows' number of spectral bands when it is
    below P, the most free variables a full-rank block can have, and None
    otherwise. ``results`` receives each row's :class:`Solution` or error;
    a row in ``failures`` holds its error from the start and is not solved.
    """

    def __init__(self, rows: ShiftedRows, config: SolverConfig, failures: dict):
        k, p = rows.linear.shape
        self.rows, self.config, self.gram = rows, config, rows.gram
        self.kept = p >= _STACKED_BELOW
        self.free = np.zeros((k, p), dtype=bool)
        self.iterate = np.zeros((k, p))
        self.linear, self.budget, self.const = rows.linear, rows.budget, rows.const_term
        self.iteration = [0] * k
        self.trace = [[] for _ in range(k)]
        n = rows.n_bands
        self.bands = n if n is not None and n < p else None
        self.rngs = ([np.random.default_rng(config.tie_seed) for _ in range(k)]
                     if config.tie_break == "random" else [None] * k)
        self.systems = [None] * k
        self.results = [failures.get(r) for r in range(k)] if failures else [None] * k

    def start(self) -> None:
        """Choose the start of every row without an error and write it: the
        whole start policy, in calls over the rows.

        The rows share one budget, and so one kind of start: a zero budget
        starts every row at the origin, and a library wider than its bands
        at its best vertex. Otherwise every row solves its probe, all in the
        stacked calls of :func:`unmix.kkt.solve_uniform` on the library's
        start factor: a feasible probe is accepted as iteration 1, and any
        other refines its start from the probe's strictly positive support
        (:meth:`refine`). The origins, the vertices or the accepted probes
        are priced in one accept step. A singular start factor fails every
        probing row with a fresh :class:`RankDeficientLibrary`.
        """
        rows = [r for r, result in enumerate(self.results) if result is None]
        if not rows:
            return
        if not self.budget:
            # The origin is the only feasible point of a zero budget; lam =
            # max(g) is the smallest multiplier that certifies it.
            self.accept(rows, np.zeros((len(rows), self.free.shape[1])),
                        self.linear.take(rows, axis=0).max(axis=1))
        elif self.bands is None:
            self._probe(rows)
        else:  # a library wider than its bands has no full-rank uniform block
            self._vertex(rows)

    def _probe(self, rows: list) -> None:
        """Solve the probes of ``rows`` and write the starts they choose."""
        start = self.rows.uniform_start()
        if isinstance(start, str):
            for r in rows:
                self.results[r] = RankDeficientLibrary(start)
            return
        probes, multipliers = solve_uniform(start, self.linear.take(rows, axis=0), self.budget)
        infeasible = (probes < -self.config.primal_tol).any(axis=1).tolist()
        refining = [k for k, n in enumerate(infeasible) if n]
        accepted = [k for k, n in enumerate(infeasible) if not n]
        if refining:
            self.refine([rows[k] for k in refining], probes.take(refining, axis=0))
        if accepted:  # all free at s / P, where the trace begins
            taken = [rows[k] for k in accepted]
            self.free[taken] = True
            self.iterate[taken] = self.budget / probes.shape[1]
            _, objectives = self._traced(taken, self.iterate.take(taken, axis=0))
            for r, objective in zip(taken, objectives):
                self.iteration[r] = 1
                self.trace[r].append(objective)
            self.accept(taken, probes.take(accepted, axis=0), multipliers.take(accepted))

    def refine(self, rows, candidates) -> None:
        """Free, for each row ``rows[k]``, only the strictly positive entries
        of its infeasible probe or candidate, row ``k`` of ``candidates``; or,
        for one row ``rows``, those of its candidate ``candidates``.

        Each such free set is a strict subset of the last, and never empty,
        since the candidate sums to the positive budget, so a row refines at
        most P times before its candidate is feasible and accepted as
        iteration 0. Until then its trace is empty. A refining row keeps no
        :class:`KeptSystem`: the kept back end refines within its round
        (:meth:`solve_kept`), which builds the next system at once."""
        self.free[rows] = candidates > 0.0

    def _vertex(self, rows: list) -> None:
        """Start ``rows`` at their best vertices ``s e_i``, which minimize
        ``0.5 s^2 G_ii - s g_i`` (ties to the smallest index), and price
        them: ``lam = g_i - s G_ii`` solves the subproblem on ``[i]``."""
        s, diagonal = self.budget, self.gram.diagonal()
        best = np.argmin(0.5 * s * s * diagonal - s * self.linear.take(rows, axis=0), axis=1)
        self.free[rows, best] = True
        candidates = np.zeros((len(rows), diagonal.size))
        candidates[np.arange(len(rows)), best] = s
        self.accept(rows, candidates, self.linear[rows, best] - s * diagonal[best])

    def capped(self, r: int, cap: int) -> Solution:
        """The ``MAX_ITERATIONS`` answer of row ``r``."""
        # No multipliers were computed at the returned iterate: when the last
        # move was a pin, the last priced candidate is not the iterate.
        x, trace = self.iterate[r], self.trace[r]
        return Solution(
            abundances=x.copy(),
            shifted_abundances=x.copy(),
            eq_multiplier=float("nan"),
            ineq_multipliers=np.full(x.size, np.nan),
            objective=trace[-1],
            outer_iterations=cap,
            final_free=self.free[r].nonzero()[0],
            status=SolveStatus.MAX_ITERATIONS,
            objective_trace=tuple(trace),
            message=f"iteration cap {cap} reached without dual feasibility",
        )

    def _traced(self, rows: list, iterates):
        """``G x`` and the objective at row ``k`` of ``iterates``, the
        iterate of row ``rows[k]``, in stacked calls that give every row,
        one alone included, the bits of ``gram @ x`` and
        :func:`~unmix.model.objective_value`."""
        products = np.matmul(self.gram, iterates[..., None])[..., 0]
        objectives = objective_rows(iterates, products, self.linear.take(rows, axis=0),
                                    self.const.take(rows))
        return products, objectives.tolist()

    def accept(self, rows: list, candidates, multipliers) -> None:
        """Accept each row ``rows[k]`` at its feasible candidate, row ``k`` of
        ``candidates`` clipped at zero, and price its pinned variables from
        ``mu = G x - g + lam``, ``lam = multipliers[k]``, zeroed on its mask,
        where it is the stationarity residual, all in calls over the rows: a
        row whose smallest price is at least ``-dual_tol`` is finished
        (:meth:`finish`), the others free their most negative price's
        variable (ties to the smallest index). The starts and the stacked
        back end accept here, on rows that keep no :class:`KeptSystem`."""
        iterates = np.maximum(candidates, 0.0)
        products, objectives = self._traced(rows, iterates)
        prices = products - self.linear.take(rows, axis=0)
        prices += multipliers[:, None]
        prices[self.free.take(rows, axis=0)] = 0.0
        finished = prices.min(axis=1) >= -self.config.dual_tol
        for r, objective in zip(rows, objectives):
            self.trace[r].append(objective)
        done, lams = finished.nonzero()[0].tolist(), multipliers.tolist()
        for k in done:
            self.finish(rows[k], iterates[k], prices[k], objectives[k],
                        SubproblemSolution._of(None, lams[k]))
        if len(done) < len(rows):
            walking = (~finished).nonzero()[0]
            moved = [rows[k] for k in walking.tolist()]
            self.iterate[moved] = iterates[walking]
            self.free[moved, prices[walking].argmin(axis=1)] = True

    def finish(self, r: int, x, mu, objective, sub: SubproblemSolution) -> None:
        """Write the ``OPTIMAL`` :class:`Solution` of row ``r`` at its
        accepted iterate ``x``, whose objective is ``objective``, with the
        prices ``mu`` and the multiplier of ``sub``."""
        # benchmarks/tests mutates this call: every OPTIMAL answer of both back ends must pass here.
        # Every field is made here, so the frozen dataclass's per-field set-up is skipped.
        self.results[r] = solution = object.__new__(Solution)
        vars(solution).update(
            abundances=x.copy(),
            shifted_abundances=x,
            eq_multiplier=sub.multiplier,
            ineq_multipliers=mu,
            objective=objective,
            outer_iterations=self.iteration[r],
            final_free=self.free[r].nonzero()[0],
            status=SolveStatus.OPTIMAL,
            objective_trace=tuple(self.trace[r]),
            message="",
        )

    def price(self, r: int, x, mu, objective, sub: SubproblemSolution) -> None:
        """The kept back end's pricing of one row: accept the feasible iterate
        ``x`` of row ``r``, the candidate ``sub`` clipped at zero, whose
        objective is ``objective``, and price the pinned variables from
        ``mu = G x - g + lam``, ``lam`` that of ``sub``, which the caller
        zeroed on the free set: :meth:`finish` the row when no price is below
        ``-dual_tol``, else free the most negative one's variable (ties to
        the smallest index) and append it to the row's :class:`KeptSystem`."""
        self.trace[r].append(objective)
        released = int(mu.argmin())
        if mu[released] >= -self.config.dual_tol:
            self.finish(r, x, mu, objective, sub)
            return
        self.iterate[r] = x
        self.free[r, released] = True
        self.systems[r].add(released)

    def block(self, rows: list, candidates) -> None:
        """Take the blocking step of each row ``rows[k]`` towards its
        infeasible candidate, row ``k`` of ``candidates``, zero off its free
        set, with the ratio test, the tie-break and the iterate update
        stacked. Pinned coordinates hold 0 in both the candidate and the
        iterate, so they never move or block. A row that cannot take the
        step gets its error; one that takes it drops its :class:`KeptSystem`,
        if any. A row still refining its start, which only the stacked back
        end passes here, has no iterate to step from, and :meth:`refine`
        shrinks its free set instead."""
        refining = [k for k, r in enumerate(rows) if not self.trace[r]]
        if refining:
            self.refine([rows[k] for k in refining], candidates.take(refining, axis=0))
            walking = [k for k, r in enumerate(rows) if self.trace[r]]
            if not walking:
                return
            rows, candidates = [rows[k] for k in walking], candidates.take(walking, axis=0)
        current = self.iterate.take(rows, axis=0)
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
        for k, r in enumerate(rows):
            if not can_block[k]:
                self.results[r] = NoBlockingIndex(_NO_BLOCKING)
                continue
            if self.rngs[r] is not None:
                blocking[k] = int(self.rngs[r].choice(np.flatnonzero(tied[k])))
            self.free[r, blocking[k]] = False
            self.systems[r] = None
            advanced[k, blocking[k]] = 0.0
            moved.append(k)
        if moved:
            rows, advanced = [rows[k] for k in moved], advanced.take(moved, axis=0)
            _, objectives = self._traced(rows, advanced)
            for r, x, objective in zip(rows, advanced, objectives):
                self.iterate[r] = x
                self.trace[r].append(objective)

    def solve_kept(self, rows: list) -> None:
        """A round on the kept back end: each row solves its subproblem on
        its own :class:`KeptSystem`, built on its mask if it has none, and
        prices a feasible candidate at once; the rows whose candidate is
        infeasible take the blocking step together. A row still refining its
        start refines on its infeasible candidate and solves again within the
        round, and so does a row whose append fails, on its sorted mask; only
        a fresh system's failure is the row's error."""
        blocked, candidates = [], []
        tol, gram, budget = self.config.primal_tol, self.gram, self.budget
        for r in rows:
            system, linear = self.systems[r], self.linear[r]
            while True:
                fresh = system is None
                if fresh:
                    system = self.systems[r] = KeptSystem(gram, linear, self.free[r].nonzero()[0])
                try:
                    sub = solve_subproblem(gram, linear, budget, system.free, factor=system)
                except UnmixError as exc:
                    if fresh:
                        self.results[r] = exc
                        break
                    system = None
                    continue
                x, values = np.zeros(linear.size), sub.free_values
                if values[values.argmin()] >= -tol:  # min(), at a third of its cost
                    x[system.free] = np.maximum(values, 0.0)
                    gx = gram @ x
                    mu = gx - linear
                    mu += sub.multiplier
                    mu[system.free] = 0.0
                    self.price(r, x, mu, objective_from_product(x, gx, linear, self.const.item(r)),
                               sub)
                    break
                x[system.free] = values
                if self.trace[r]:
                    blocked.append(r)
                    candidates.append(x)
                    break
                self.refine(r, x)
                system = None
        if blocked:
            self.block(blocked, np.array(candidates))

    def solve_stacked(self, rows: list) -> None:
        """A round on the stacked back end: the subproblems of all the rows
        in the stacked calls of :func:`unmix.kkt.solve_stacked`, then the
        pricing of the feasible candidates and the blocking step towards the
        others, each stacked."""
        candidates, multipliers, failures = solve_stacked(
            self.gram, self.free.take(rows, axis=0), self.linear.take(rows, axis=0), self.budget)
        if failures:
            for item, exc in failures.items():
                self.results[rows[item]] = exc
            rows = [r for item, r in enumerate(rows) if item not in failures]
        feasible = candidates.min(axis=1) >= -self.config.primal_tol
        accepted, blocked = feasible.nonzero()[0].tolist(), (~feasible).nonzero()[0].tolist()
        if accepted:
            self.accept([rows[k] for k in accepted],
                        candidates.take(accepted, axis=0) if blocked else candidates,
                        multipliers.take(accepted))
        if blocked:
            self.block([rows[k] for k in blocked], candidates.take(blocked, axis=0))


def _solve_lockstep(problems: ShiftedRows, config: SolverConfig, failures: dict) -> list:
    """Solve the rows of ``problems`` together, one round at a time.

    The ``i``-th entry is the :class:`Solution` for row ``i``, or the
    :class:`UnmixError` its solve raised, or ``failures[i]``, unsolved, for
    a row that failed its checks; no row's answer depends on the others.
    Every row chooses its start before the first round, in calls over the
    rows. In a round every live row below the iteration cap, and
    every row refining its start, solves its subproblem, then prices a
    feasible candidate, refines its start or takes the blocking step: on
    the back end that P selects, with each row's arithmetic kept.
    """
    state = _Slice(problems, config, failures)
    state.start()
    results = state.results
    cap = config.iteration_cap(state.free.shape[1])
    live = range(len(problems))
    while True:
        live = [r for r in live if results[r] is None]
        if not live:
            return results
        solving = []
        for r in live:
            if not state.trace[r]:  # refining its start: neither counted nor capped
                solving.append(r)
            elif state.iteration[r] == cap:
                results[r] = state.capped(r, cap)
            elif state.bands is not None and (n := np.count_nonzero(state.free[r])) > state.bands:
                results[r] = RankDeficientLibrary(
                    f"restricted Gram block of size {n} is singular ({n} free variables "
                    f"exceed the {state.bands} spectral bands, so the block cannot be full rank)")
            else:
                state.iteration[r] += 1
                solving.append(r)
        if solving:
            (state.solve_kept if state.kept else state.solve_stacked)(solving)
