"""Equality-constrained subproblem: SPD factorization plus Schur elimination.

For a free index set F the subproblem couples the restricted stationarity
equations with the sum constraint:

    [ G_FF  1 ] [ x_F ]   [ g_F ]
    [ 1^T   0 ] [ lam ] = [  s  ]

Rather than factorizing this indefinite bordered matrix, the solver runs a
Cholesky factorization ``G_FF = L L^T`` and eliminates the border through
the scalar Schur complement ``-1^T G_FF^{-1} 1``, which is strictly negative
whenever ``G_FF`` is positive definite, so the system has exactly one
solution. With the forward solves ``Z = [z_g, z_1] = L^{-1} [g_F, 1]`` at
hand, ``1^T G_FF^{-1} 1`` is the sum of squares ``z_1 . z_1``, the
multiplier is ``lam = (z_1 . z_g - s) / (z_1 . z_1)``, and ``x_F`` takes one
back-substitution, ``L^T x_F = z_g - lam z_1``.

The active-set loop keeps one such system per solve, a :class:`KeptSystem`
that owns the free set and holds ``L`` and ``Z``, and modifies both in
place of refactorizing (Gill, Golub, Murray & Saunders, *Methods for
modifying matrix factorizations*, Math. Comp. 1974). Every factor event of
a solve happens here. The system's first solve factorizes its free set,
unless it adopted a factor or was forked from the one system of the full
Gram matrix that :func:`uniform_start` factorizes for every uniform start.
When a variable is pinned, :meth:`KeptSystem.remove` deletes its column by
Givens re-triangularization of the trailing block and rotates
``Z`` with the same rotations; when one is released, :meth:`KeptSystem.add`
puts it last, and the next solve appends its column with one triangular
solve, which also gives the new row of ``Z``. Each costs ``O(|F|^2)``
instead of the ``O(|F|^3)`` of a fresh :func:`factorize`. The factor's
columns therefore follow the order of the moves, not the sorted free set.
All three routes apply the same rank test.

The loop's other back end keeps no factor, only the free sets of a slice
of solves as the rows of a ``(k, P)`` boolean mask. :func:`solve_stacked`
solves their subproblems over a stack of padded ``P x P`` blocks: the free
block in place and the identity elsewhere. One LAPACK ``dposv`` per block
factorizes it and solves for ``[g_F, 1]``, the factor's pivots take the
same rank test, and everything else is one numpy call over the stack, each
keeping every block's arithmetic: a block's bits do not depend on the
others. Below about 55 endmembers that costs less than the kept system's
updates, which are bound by per-problem Python calls there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr_delete
from scipy.linalg.blas import daxpy, ddot, dtrsv
from scipy.linalg.lapack import dposv, dpotrf

from .errors import EmptyFreeSet, RankDeficientLibrary

# Recent scipy wraps qr_delete to broadcast over stacked matrices, which
# doubles its cost on one small matrix; the factor is always a single one.
_qr_delete = getattr(qr_delete, "__wrapped__", qr_delete)
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SubproblemSolution:
    """Free-set abundances and the sum-constraint multiplier of one solve.

    The active-set loop's stacked rounds keep each candidate as a full row
    and leave ``free_values`` None, since they read only the multiplier.
    """

    free_values: np.ndarray
    multiplier: float


def _integer_indices(free) -> np.ndarray:
    """``free`` as an index array: integers, not floats or a boolean mask, unless empty."""
    free = np.asarray(free)
    if free.size and free.dtype.kind not in "iu":
        raise IndexError(f"free indices must be integers, got dtype {free.dtype}")
    return free.astype(np.intp, copy=False)


def _checked_indices(free, n):
    free = _integer_indices(free).ravel()
    if free.size == 0:
        raise EmptyFreeSet("subproblem requested on an empty free set")
    if free.min() < 0 or free.max() >= n:
        raise IndexError(f"free indices must lie in [0, {n}), got {free}")
    return free

def factorize(gram, free) -> np.ndarray:
    """Cholesky-factorize the Gram matrix restricted to the free columns.

    Parameters
    ----------
    gram : array_like, shape (P, P)
        Symmetric positive semidefinite Gram matrix of the full library.
    free : array_like of int
        Indices of the free columns; must be nonempty.

    Returns
    -------
    numpy.ndarray
        Lower-triangular factor ``L`` with ``L @ L.T`` equal to the
        restricted block, its columns in the order of ``free``.

    Raises
    ------
    RankDeficientLibrary
        If a pivot is nonpositive or falls at or below
        ``P * eps * max(diag)``, meaning the free columns of the library are
        not linearly independent. A block with more columns than the library
        has bands is singular, but roundoff can let it pass this test, so
        the active-set loop fails such a free set on its size first.
    EmptyFreeSet
        If ``free`` is empty.
    """
    gram = np.asarray(gram, dtype=float)
    n = gram.shape[0]
    free = _checked_indices(free, n)
    block = gram.take(free, axis=0).take(free, axis=1)
    lower, info = dpotrf(block, lower=1, clean=1)
    if info < 0:
        raise ValueError(f"LAPACK dpotrf rejected argument {-info}")
    if info > 0:
        raise RankDeficientLibrary(
            f"restricted Gram block of size {free.size} is not positive definite "
            f"(leading minor of order {info} is not positive); the free columns "
            f"of the library are linearly dependent"
        )
    _check_rank(lower, block.diagonal().max(), n)
    return lower


def _check_rank(lower, top, order):
    pivot_floor = order * _EPS * max(top, 0.0)
    pivot = (lower.diagonal() ** 2).min()
    if pivot <= pivot_floor:
        raise _rank_error(lower.shape[0], pivot, pivot_floor)


def _rank_error(size, pivot, pivot_floor) -> RankDeficientLibrary:
    return RankDeficientLibrary(
        f"restricted Gram block of size {size} has pivot {pivot:.3e} "
        f"at or below the rank threshold {pivot_floor:.3e}; the free columns "
        f"of the library are numerically linearly dependent"
    )


class KeptSystem:
    """One solve's free set ``F``, the factor ``L`` of ``G_FF`` and its forward solves.

    ``free`` lists the free variables in the column order of ``L``: it is
    the order given, then :meth:`add` puts a variable last and
    :meth:`remove` takes one out where it sits. Without ``lower`` the
    first :meth:`solve` factorizes ``free``; a given ``lower``, the factor
    of the block on ``free``, is adopted without a copy. A column added
    since the last solve joins ``L`` and ``Z`` at the next one, so a solve
    that is never made never pays for it.

    ``lower`` is replaced on each modification and never written in place,
    so systems built on one factor share it. ``forward`` is
    ``Z = L^{-1} [g_F, 1]``, of shape ``(|F|, 2)``. ``diagonal`` lists the
    diagonal of the factorized block and ``top`` is its maximum, which sets
    the pivot floor ``P * eps * top`` of the rank test.
    """

    __slots__ = ("gram", "linear", "order", "free", "lower", "forward", "diagonal", "top")

    def __init__(self, gram, linear, free, lower=None):
        self.gram = np.asarray(gram, dtype=float)
        self.linear = np.asarray(linear, dtype=float)
        self.order = self.gram.shape[0]
        self.free = _integer_indices(free)
        self.lower = None
        if lower is not None:
            self._adopt(lower)

    def _adopt(self, lower) -> None:
        self.lower = lower
        self.diagonal = self.gram.diagonal().take(self.free).tolist()
        self.top = max(self.diagonal)
        self.forward = np.empty((self.free.size, 2), order="F")
        self.forward[:, 0] = dtrsv(lower, self.linear.take(self.free), lower=1)
        self.forward[:, 1] = dtrsv(lower, np.ones(self.free.size), lower=1)

    def fork(self, linear) -> KeptSystem:
        """A system on this one's free set and factor, for the linear term ``linear``.

        The factor, its diagonal and ``L^{-1} 1`` are shared, not
        recomputed; only ``L^{-1} g_F`` is solved. This system must be
        factorized, with no column added since.
        """
        system = object.__new__(KeptSystem)
        system.gram, system.order, system.free = self.gram, self.order, self.free
        system.lower, system.top = self.lower, self.top
        system.linear = linear
        system.diagonal = list(self.diagonal)  # an append extends it in place
        system.forward = np.empty_like(self.forward)
        system.forward[:, 0] = dtrsv(self.lower, linear.take(self.free), lower=1)
        system.forward[:, 1] = self.forward[:, 1]
        return system

    def _catch_up(self) -> None:
        """Factorize ``free`` on first use, then append the columns added since."""
        if self.lower is None:
            self._adopt(factorize(self.gram, self.free))
        while self.lower.shape[0] < self.free.size:
            self._append(self.free[self.lower.shape[0]])

    def add(self, index) -> None:
        """Free variable ``index``: it becomes the last column at the next solve."""
        self.free = np.concatenate((self.free, [index]))

    def remove(self, index) -> None:
        """Pin variable ``index``: delete its column wherever it sits.

        Raises
        ------
        RankDeficientLibrary
            If the reduced factor fails the rank test, as :func:`factorize`
            would report, or a column added since the last solve does. The
            system then keeps ``index``.
        EmptyFreeSet
            If ``index`` is the only free variable.
        IndexError
            If ``index`` is not free.
        """
        kept = self.free != index
        position = int(kept.argmin())
        if kept[position]:
            raise IndexError(f"variable {index} is not free")
        if kept.size == 1:
            raise EmptyFreeSet("removing the only free variable would leave an empty free set")
        self._catch_up()
        self._delete(position)
        self.free = self.free[kept]

    def _append(self, new) -> None:
        """Add the column of variable ``new`` last, without refactorizing.

        The old rows of ``L`` and ``Z`` stay; the new row of ``L`` is
        ``l = L^{-1} G[F, new]`` with pivot ``sqrt(G[new, new] - l.l)``, and
        the new row of ``Z`` is ``([g_new, 1] - l Z) / pivot``. The rank test
        fails when the new pivot is nonpositive or falls at or below the
        pivot floor of the grown block, or a larger ``G[new, new]`` raises
        that floor above an old pivot, exactly as :func:`factorize` would
        report; the factor is then left as it was.
        """
        size = self.lower.shape[0]
        row = self.gram[new]
        cross = dtrsv(self.lower, row.take(self.free[:size]), lower=1, overwrite_x=1)
        corner = row.item(new)
        pivot = corner - ddot(cross, cross)
        pivot_floor = self.order * _EPS * max(self.top, corner, 0.0)
        # The old pivots passed the old floor; only a larger corner raises it.
        smallest = pivot
        if corner > self.top:
            smallest = min(pivot, float((self.lower.diagonal() ** 2).min()))
        if smallest <= pivot_floor:
            raise _rank_error(size + 1, smallest, pivot_floor)
        root = math.sqrt(pivot)
        lower = np.zeros((size + 1, size + 1), order="F")
        lower[:size, :size] = self.lower
        lower[size, :size] = cross
        lower[size, size] = root
        forward = np.empty((size + 1, 2), order="F")
        forward[:size] = self.forward
        forward[size, 0] = (self.linear.item(new) - ddot(cross, self.forward[:, 0])) / root
        forward[size, 1] = (1.0 - ddot(cross, self.forward[:, 1])) / root
        self.lower, self.forward = lower, forward
        self.diagonal.append(corner)
        self.top = max(self.top, corner)

    def _delete(self, k) -> None:
        """Remove the column at position ``k`` of the factor.

        Columns before ``k`` keep their rows of ``L``; the trailing block is
        re-triangularized by Givens rotations, ``L_{-k}^T = Q R``, and with
        ``D`` the signs that make the new diagonal positive,
        ``L' = (D R)^T`` and ``Z' = D (Q^T Z)`` without the last row. The
        new factor passes the rank test of the reduced block, or the factor
        is left as it was.
        """
        size = self.lower.shape[0]
        # The upper factor L^T minus its column k is upper Hessenberg from row k
        # on; its QR factor, less the zero last row, is the new upper factor.
        rotation, upper = _qr_delete(np.eye(size), self.lower.T, k, which="col",
                                     check_finite=False)
        signs = np.copysign(1.0, upper.diagonal())[:, None]
        lower = (upper[:-1] * signs).T
        diagonal = self.diagonal[:k] + self.diagonal[k + 1:]
        top = self.top if self.diagonal[k] < self.top else max(diagonal)
        _check_rank(lower, top, self.order)
        self.lower = lower
        self.forward = (self.forward.T @ rotation).T[:-1] * signs  # in column order
        self.diagonal, self.top = diagonal, top

    def solve(self, budget) -> SubproblemSolution:
        """The subproblem on this free set with sum ``budget``.

        ``1^T G_FF^{-1} 1`` is the sum of squares ``z_1 . z_1``, positive
        for any factor that passed the rank test.

        Raises
        ------
        RankDeficientLibrary
            If factorizing ``free``, or appending a column added since the
            last solve, fails the rank test.
        """
        self._catch_up()
        forward_linear, forward_ones = self.forward[:, 0], self.forward[:, 1]
        lam = ((ddot(forward_ones, forward_linear) - float(budget))
               / ddot(forward_ones, forward_ones))
        rhs = daxpy(forward_ones, forward_linear.copy(), a=-lam)
        free_values = dtrsv(self.lower, rhs, lower=1, trans=1, overwrite_x=1)
        return SubproblemSolution(free_values=free_values, multiplier=lam)


def solve_stacked(gram, free, linear, budget):
    """The subproblems of ``k`` free sets on one Gram matrix, over stacked arrays.

    Item ``i`` is the padded Gram ``G * outer(m, m) + diag(1 - m)`` of the
    mask ``m = free[i]``: the free block in place and the identity on the
    pinned variables. One LAPACK ``dposv`` per item factorizes it in place,
    ``L L^T``, and solves it for ``[g * m, m]``, which gives
    ``u = G_FF^{-1} g_F`` and ``v = G_FF^{-1} 1``, zero off the free set.
    The rank test is that of :func:`factorize`: a pivot squared at or below
    ``P * eps * max(diag)`` of the free block fails. The multiplier is
    ``lam = (sum(u) - budget) / sum(v)`` and the candidate
    ``x = u - lam v``. Every other step is one numpy call over the stack
    that keeps each item's arithmetic, so an item's bits do not depend on
    the others.

    Parameters
    ----------
    gram : ndarray, shape (P, P)
    free : ndarray of bool, shape (k, P)
    linear : ndarray, shape (k, P)
    budget : ndarray, shape (k,)

    Returns
    -------
    candidates, multipliers, failures
        ``candidates`` holds ``x`` of every item that passed the rank test,
        exactly zero off its free set, in order, and ``multipliers`` its
        ``lam``; ``failures`` maps each failed item to the
        :class:`RankDeficientLibrary` that :func:`factorize` raises on its
        free block.
    """
    k, p = free.shape
    padded = np.where(free[:, :, None] & free[:, None, :], gram, _identity(p))
    solved = np.zeros((k, 2, p))  # rows g * m and m, which dposv overwrites with u and v
    np.copyto(solved[:, 0], linear, where=free)
    solved[:, 1] = free
    # A padded item is symmetric, so its transpose is itself in Fortran
    # order, and dposv overwrites it with L.
    info = [dposv(a.T, b.T, 1, 1, 1)[2] for a, b in zip(padded, solved)]  # lower, overwrite
    pivots = padded.diagonal(axis1=1, axis2=2)
    failures = {}
    # Every item passes when the smallest pivot of the stack, pinned ones
    # (1) included, passes the floor of the largest diagonal entry of G,
    # which bounds the floor of every item.
    if any(info) or not pivots.min() ** 2 > p * _EPS * gram.diagonal().max():
        failures = _rank_failures(gram, free, pivots, info)
        if failures:
            kept = np.ones(k, dtype=bool)
            kept[list(failures)] = False
            solved, free, budget = solved[kept], free[kept], budget[kept]
    sums = solved.sum(axis=2)
    multipliers = (sums[:, 0] - budget) / sums[:, 1]
    candidates = np.where(free, solved[:, 0] - multipliers[:, None] * solved[:, 1], 0.0)
    return candidates, multipliers, failures


def _rank_failures(gram, free, pivots, info) -> dict:
    """The items of :func:`solve_stacked` that fail the rank test, each
    mapped to the error :func:`factorize` raises on its free block; or, should
    that block pass where the padded one failed, to the padded test's."""
    squared = np.where(free, pivots, np.inf).min(axis=1) ** 2
    squared[np.greater(info, 0)] = np.nan  # not positive definite: no pivot to report
    floors = free.shape[1] * _EPS * np.where(free, gram.diagonal(), 0.0).max(axis=1, initial=0.0)
    failures = {}
    for item in np.flatnonzero(~(squared > floors)).tolist():
        indices = np.flatnonzero(free[item])
        try:
            factorize(gram, indices)
        except RankDeficientLibrary as exc:
            failures[item] = exc
        else:
            failures[item] = _rank_error(indices.size, squared[item], floors[item])
    return failures


@functools.cache
def _identity(order) -> np.ndarray:
    identity = np.eye(order)
    identity.setflags(write=False)
    return identity


def uniform_start(gram) -> KeptSystem | str:
    """The factorized system, every variable free, that uniform starts on
    ``gram`` fork; or, when it fails the rank test, the error's message, so
    that each solve raises its own (one instance re-raised would lengthen
    its traceback every time)."""
    free = np.arange(gram.shape[0], dtype=np.intp)
    try:
        lower = factorize(gram, free)
    except RankDeficientLibrary as exc:
        return str(exc)
    return KeptSystem(gram, np.zeros(free.size), free, lower)


def solve_subproblem(gram, linear, budget, free, *, factor=None) -> SubproblemSolution:
    """Solve the equality-constrained subproblem on the free set.

    Parameters
    ----------
    gram : array_like, shape (P, P)
        Symmetric Gram matrix of the full library.
    linear : array_like, shape (P,)
        Linear term of the quadratic objective.
    budget : float
        Required sum of the free abundances.
    free : array_like of int
        Indices of the free variables; the remaining variables are pinned
        at zero and do not enter the system.
    factor : KeptSystem, optional
        The kept system of ``free``, such as the one the active-set loop
        keeps, in which case ``gram``, ``linear`` and ``free`` are not read.
        Without it a fresh system factorizes ``free``. Either way the solve
        runs through :meth:`KeptSystem.solve`.

    Returns
    -------
    SubproblemSolution
        Values on the free set and the multiplier of the sum constraint,
        satisfying ``G_FF x_F - g_F + lam = 0`` and ``sum(x_F) = budget`` up
        to factorization roundoff.

    Notes
    -----
    With ``u = G_FF^{-1} g_F`` and ``v = G_FF^{-1} 1``, the multiplier is
    ``lam = (sum(u) - budget) / sum(v)`` and ``x_F = u - lam * v``. The
    denominator ``sum(v)`` is positive for any positive definite block, which
    is what makes the bordered system uniquely solvable.
    """
    if factor is None:
        factor = KeptSystem(gram, linear, free)
    return factor.solve(budget)
