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

The active-set loop keeps at most one such system per solve, a
:class:`KeptSystem` that holds the free set in its factor's column order,
``L`` and ``Z``: a cache of the factor, since the loop's mask holds the
free set. Every factor event of a solve happens here. Only growth is an
update (Gill, Golub, Murray & Saunders, *Methods for modifying matrix
factorizations*, Math. Comp. 1974): a system is factorized when it is
built, and when a variable is released :meth:`KeptSystem.add` appends its
column last at once, with one triangular solve, which also gives the new
row of ``Z``, in ``O(|F|^2)`` instead of the ``O(|F|^3)`` of a fresh
:func:`factorize`. The factor's columns therefore follow the order of the
moves. A pin, like a refinement step of the start, drops the system, and so
does an append that fails the rank test, which leaves the system as it was;
the next solve builds a fresh one on the sorted free set. Both routes apply
the same rank test. The uniform start needs no system: every
probe of a library, the candidate on every variable, is solved with
:func:`solve_uniform` from the one factor of the full Gram matrix that
:func:`uniform_start` makes.

The loop's other back end keeps no factor, only the free sets of a slice
of solves as the rows of a ``(k, P)`` boolean mask. :func:`solve_stacked`
solves their subproblems over a stack of padded ``P x P`` blocks: the free
block in place and the identity elsewhere. One LAPACK ``dposv`` per block
factorizes it and solves for ``[g_F, 1]``, the factor's pivots take the
same rank test, and everything else is one numpy call over the stack, each
keeping every block's arithmetic: a block's bits do not depend on the
others. Below about 55 endmembers that costs less than the kept system's
updates, which are bound by per-problem Python calls there.

The six BLAS and LAPACK routines are bound from scipy's two compiled f2py
modules, ``scipy.linalg._fblas`` and ``_flapack``, loaded by
:func:`_linalg_extension` without running ``scipy.linalg``'s package
``__init__``. That init costs about 0.17 s and 20 MB, mostly in numpy
modules the solver never uses, against a few milliseconds for the two
modules. The routines are the very objects ``scipy.linalg.blas`` and
``scipy.linalg.lapack`` export, so every answer is the same either way.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import EmptyFreeSet, RankDeficientLibrary


def _linalg_extension(name: str):
    """The compiled module ``scipy.linalg.<name>``, without importing ``scipy.linalg``.

    Once ``scipy.linalg`` is imported its own module is reused. Otherwise the
    module is loaded from scipy's ``linalg`` directory and its entry is
    taken out of ``sys.modules`` again, so that a later ``import
    scipy.linalg`` still binds it on the package.
    """
    qualified = f"scipy.linalg.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec(qualified, [directory])
    if spec is None:
        raise ImportError(f"no module {qualified} in {directory}", name=qualified)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.modules.pop(qualified, None)


_fblas = _linalg_extension("_fblas")
_flapack = _linalg_extension("_flapack")
daxpy, ddot, dtrsm, dtrsv = _fblas.daxpy, _fblas.ddot, _fblas.dtrsm, _fblas.dtrsv
dposv, dpotrf = _flapack.dposv, _flapack.dpotrf

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SubproblemSolution:
    """Free-set abundances and the sum-constraint multiplier of one solve.

    The active-set loop's accept step builds these for the full-row
    candidates it prices, with ``free_values`` None: it reads only ``lam``.
    """

    free_values: np.ndarray
    multiplier: float

    @classmethod
    def _of(cls, free_values, multiplier) -> SubproblemSolution:
        """The solution of these fields, without the frozen dataclass's
        per-field set-up: the loop makes every field itself."""
        solution = object.__new__(cls)
        vars(solution).update(free_values=free_values, multiplier=multiplier)
        return solution


def _integer_indices(free) -> np.ndarray:
    """``free`` as an index array: integers, not floats or a boolean mask, unless empty."""
    if type(free) is np.ndarray and free.dtype == np.intp:
        return free
    free = np.asarray(free)
    if free.size and free.dtype.kind not in "iu":
        raise IndexError(f"free indices must be integers, got dtype {free.dtype}")
    return free.astype(np.intp, copy=False)


def _checked_indices(free, n):
    free = _integer_indices(free)
    if free.ndim != 1:
        free = free.ravel()
    if free.size == 0:
        raise EmptyFreeSet("subproblem requested on an empty free set")
    # A negative index reads as a huge unsigned one, so the largest checks both ends.
    unsigned = free.view(np.uintp)
    if unsigned[unsigned.argmax()] >= n:
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
    # An entry found by argmax or argmin is that of max() or min(), NaN included,
    # at a fraction of their cost on arrays this small.
    diagonal = block.diagonal()
    pivot_floor = n * _EPS * max(diagonal[diagonal.argmax()], 0.0)
    diagonal = lower.diagonal()
    pivot = diagonal[diagonal.argmin()] ** 2  # rounding keeps the order of positive squares
    if pivot <= pivot_floor:
        raise _rank_error(free.size, pivot, pivot_floor)
    return lower


def _rank_error(size, pivot, pivot_floor) -> RankDeficientLibrary:
    return RankDeficientLibrary(
        f"restricted Gram block of size {size} has pivot {pivot:.3e} "
        f"at or below the rank threshold {pivot_floor:.3e}; the free columns "
        f"of the library are numerically linearly dependent"
    )


class KeptSystem:
    """One solve's free set ``F``, the factor ``L`` of ``G_FF`` and its forward solves.

    ``free`` lists the free variables in the column order of ``L``: it is
    the order given, then :meth:`add` puts a variable last. Building a
    system factorizes ``free``, raising as :func:`factorize` does, and
    :meth:`add` appends a column at once, so a system is always whole and
    :meth:`solve` only solves. Nothing takes a variable out: the active-set
    loop drops the system on a pin, or when an append fails, and builds a
    fresh one on the sorted free set.

    ``lower`` is replaced on each append, never written in place.
    ``forward`` is ``Z = L^{-1} [g_F, 1]``, one ``(|F|, 2)`` Fortran-order
    array whose columns the forward solves write in place. ``top`` is the
    largest diagonal entry of the factorized block, which sets the pivot
    floor ``P * eps * top`` of the rank test; it is None until the first
    append, since only an append reads it.
    """

    __slots__ = ("gram", "linear", "order", "free", "lower", "forward", "top")

    def __init__(self, gram, linear, free):
        self.gram = gram = np.asarray(gram, dtype=float)
        self.linear = np.asarray(linear, dtype=float)
        self.order = gram.shape[0]
        self.free = free = _integer_indices(free)
        self.lower = lower = factorize(gram, free)
        self.forward = forward = np.empty((free.size, 2), order="F")
        self.linear.take(free, out=forward[:, 0])
        forward[:, 1] = 1.0
        dtrsv(lower, forward[:, 0], lower=1, overwrite_x=1)
        dtrsv(lower, forward[:, 1], lower=1, overwrite_x=1)
        self.top = None

    def add(self, index) -> None:
        """Free variable ``index``: append its column last, without refactorizing.

        The old rows of ``L`` and ``Z`` stay; the new row of ``L`` is
        ``l = L^{-1} G[F, new]`` with pivot ``sqrt(G[new, new] - l.l)``, and
        the new row of ``Z`` is ``([g_new, 1] - l Z) / pivot``. The rank
        test fails when the new pivot is nonpositive or falls at or below the
        pivot floor of the grown block, or a larger ``G[new, new]`` raises
        that floor above an old pivot, exactly as :func:`factorize` would
        report; the system is then left as it was. An ``index`` that is no
        integer in ``[0, P)`` raises the :class:`IndexError` of
        :func:`factorize`.
        """
        new = index
        if type(new) is not int or not 0 <= new < self.order:  # the loop's own ints pass here
            new = _checked_indices([new], self.order).item()
        free, size, top = self.free, self.free.size, self.top
        if top is None:
            top = self.gram.diagonal().take(free).max()
        row = self.gram[new]
        cross = dtrsv(self.lower, row.take(free), lower=1, overwrite_x=1)
        corner = row.item(new)
        pivot = corner - ddot(cross, cross)
        pivot_floor = self.order * _EPS * max(top, corner, 0.0)
        # The old pivots passed the old floor; only a larger corner raises it.
        smallest = pivot
        if corner > top:
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
        self.free = np.concatenate((free, [new]))
        self.lower, self.forward, self.top = lower, forward, max(top, corner)

    def solve(self, budget) -> SubproblemSolution:
        """The subproblem on this free set with sum ``budget``.

        ``1^T G_FF^{-1} 1`` is the sum of squares ``z_1 . z_1``, positive
        for any factor that passed the rank test.
        """
        forward_linear, forward_ones = self.forward[:, 0], self.forward[:, 1]
        lam = ((ddot(forward_ones, forward_linear) - float(budget))
               / ddot(forward_ones, forward_ones))
        rhs = daxpy(forward_ones, forward_linear.copy(), a=-lam)
        return SubproblemSolution._of(dtrsv(self.lower, rhs, lower=1, trans=1, overwrite_x=1), lam)


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
    budget : float

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
    padded = np.where(free[:, :, None] & free[:, None, :], gram, 0.0)
    padded.reshape(k, p * p)[:, ::p + 1] += ~free
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
            solved, free = solved[kept], free[kept]
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


def uniform_start(gram) -> tuple | str:
    """The factor ``L`` of the full Gram matrix, every variable free,
    ``z_1 = L^{-1} 1`` and ``z_1 . z_1``, which every uniform start on
    ``gram`` shares; or, when it fails the rank test, the error's message,
    so that each solve raises its own (one instance re-raised would
    lengthen its traceback every time)."""
    free = np.arange(gram.shape[0], dtype=np.intp)
    try:
        lower = factorize(gram, free)
    except RankDeficientLibrary as exc:
        return str(exc)
    forward_ones = dtrsv(lower, np.ones(free.size), lower=1)
    return lower, forward_ones, ddot(forward_ones, forward_ones)


def solve_uniform(start, linear, budget):
    """The subproblems on every variable of ``k`` linear terms, over stacked arrays.

    ``start`` is what :func:`uniform_start` returns: ``L``,
    ``z_1 = L^{-1} 1`` and ``z_1 . z_1``. One ``dtrsm`` gives the forward
    solves ``Z_g = L^{-1} [g_1 ... g_k]``, the multipliers are
    ``lam = (z_1 . z_g - s) / (z_1 . z_1)``, and a second ``dtrsm`` gives
    ``L^T x = z_g - lam z_1``. A ``dtrsm`` column, a stacked row dot product
    and every other step keep each row's arithmetic, so a row's bits do not
    depend on the others.

    Parameters
    ----------
    start : tuple
    linear : ndarray, shape (k, P), C-contiguous; overwritten
    budget : float

    Returns
    -------
    candidates, multipliers
        ``x`` of every row, shape ``(k, P)``, and its ``lam``.
    """
    lower, forward_ones, squares = start
    # A C-contiguous (k, P) array is the (P, k) right-hand side dtrsm takes
    # in Fortran order, so both solves run in place.
    forward = dtrsm(1.0, lower, linear.T, lower=1, overwrite_b=1).T
    dots = np.matmul(forward[:, None], forward_ones[:, None])[:, 0, 0]
    multipliers = (dots - budget) / squares
    forward -= multipliers[:, None] * forward_ones
    return dtrsm(1.0, lower, forward.T, lower=1, trans_a=1, overwrite_b=1).T, multipliers


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
