"""Equality-constrained subproblem: SPD factorization plus Schur elimination.

For a free index set F the subproblem couples the restricted stationarity
equations with the sum constraint:

    [ G_FF  1 ] [ x_F ]   [ g_F ]
    [ 1^T   0 ] [ lam ] = [  s  ]

Rather than factorizing this indefinite bordered matrix, the solver runs a
Cholesky factorization of ``G_FF`` and eliminates the border through the
scalar Schur complement ``-1^T G_FF^{-1} 1``, which is strictly negative
whenever ``G_FF`` is positive definite, so the system has exactly one
solution.

The active-set loop keeps one factor per solve and modifies it in place of
refactorizing (Gill, Golub, Murray & Saunders, *Methods for modifying
matrix factorizations*, Math. Comp. 1974). When a variable is pinned,
:func:`downdate` deletes its column by Givens re-triangularization of the
trailing block; when one is released, :func:`append` adds its column last
with one triangular solve. Each costs ``O(|F|^2)`` instead of the
``O(|F|^3)`` of a fresh :func:`factorize`, which the loop calls only for
the uniform start and for the first block of a solve that starts at a
vertex. The factor's columns therefore follow the loop's own order, not
the sorted free set. All three routes apply the same rank test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr_delete
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import EmptyFreeSet, RankDeficientLibrary

# Recent scipy wraps qr_delete to broadcast over stacked matrices, which
# doubles its cost on one small matrix; the factor is always a single one.
_qr_delete = getattr(qr_delete, "__wrapped__", qr_delete)
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SubproblemSolution:
    """Free-set abundances and the sum-constraint multiplier of one solve."""

    free_values: np.ndarray
    multiplier: float


@dataclass(frozen=True)
class SpdFactorization:
    """Lower-triangular Cholesky factor of a restricted Gram block.

    Its columns follow the order of the free set it was built for, which in
    the active-set loop is the loop's own order: a downdate keeps the order
    of the remaining columns and an append puts the new one last.
    ``diagonal`` is the diagonal of the factorized block and ``order`` the
    size P of the full Gram matrix; together they set the rank test's pivot
    floor ``P * eps * max(diagonal)``, which a downdate or an append applies
    again.
    """

    lower: np.ndarray
    diagonal: np.ndarray
    order: int

    @property
    def size(self) -> int:
        return self.lower.shape[0]

    def solve(self, rhs):
        """Solve ``G_FF z = rhs`` using the stored factor."""
        solved, info = dpotrs(self.lower, rhs, lower=1)
        if info != 0:
            raise ValueError(f"LAPACK dpotrs rejected argument {-info}")
        return solved


def _checked_indices(free, n):
    free = np.asarray(free, dtype=np.intp).ravel()
    if free.size == 0:
        raise EmptyFreeSet("subproblem requested on an empty free set")
    if free.min() < 0 or free.max() >= n:
        raise IndexError(f"free indices must lie in [0, {n}), got {free}")
    return free

def factorize(gram, free) -> SpdFactorization:
    """Cholesky-factorize the Gram matrix restricted to the free columns.

    Parameters
    ----------
    gram : array_like, shape (P, P)
        Symmetric positive semidefinite Gram matrix of the full library.
    free : array_like of int
        Indices of the free columns; must be nonempty.

    Returns
    -------
    SpdFactorization
        Factor ``L`` with ``L @ L.T`` equal to the restricted block.

    Raises
    ------
    RankDeficientLibrary
        If a pivot is nonpositive or falls at or below
        ``P * eps * max(diag)``, meaning the free columns of the library are
        not linearly independent (in particular whenever ``|F|`` exceeds the
        number of bands).
    EmptyFreeSet
        If ``free`` is empty.
    """
    gram = np.asarray(gram, dtype=float)
    n = gram.shape[0]
    free = _checked_indices(free, n)
    block = gram.take(free, axis=0).take(free, axis=1)
    diagonal = block.diagonal().copy()
    lower, info = dpotrf(block, lower=1, clean=1)
    if info < 0:
        raise ValueError(f"LAPACK dpotrf rejected argument {-info}")
    if info > 0:
        raise RankDeficientLibrary(
            f"restricted Gram block of size {free.size} is not positive definite "
            f"(leading minor of order {info} is not positive); the free columns "
            f"of the library are linearly dependent"
        )
    return _rank_checked(lower, diagonal, n)


def downdate(factor: SpdFactorization, position) -> SpdFactorization:
    """Delete one free column from a factorization without refactorizing.

    Parameters
    ----------
    factor : SpdFactorization
        Factor of the Gram block restricted to a free set F.
    position : int
        Position within F (not the variable index) of the column to delete.

    Returns
    -------
    SpdFactorization
        Factor of the block restricted to F without that column, with a
        positive diagonal. Columns before ``position`` keep their factor
        rows; the trailing block is re-triangularized by Givens rotations.

    Raises
    ------
    RankDeficientLibrary
        If a pivot of the new factor falls at or below the pivot floor of the
        reduced block, exactly as :func:`factorize` would report.
    EmptyFreeSet
        If the factor has a single column.
    """
    size = factor.size
    k = int(position)
    if size == 1:
        raise EmptyFreeSet("downdate would leave an empty free set")
    if not 0 <= k < size:
        raise IndexError(f"position must lie in [0, {size}), got {k}")
    # The upper factor L^T minus its column k is upper Hessenberg from row k
    # on; its QR factor, less the zero last row, is the new upper factor.
    _, upper = _qr_delete(np.eye(size), factor.lower.T, k, which="col", check_finite=False)
    upper = upper[:-1]
    lower = (upper * np.copysign(1.0, upper.diagonal())[:, None]).T
    diagonal = np.concatenate((factor.diagonal[:k], factor.diagonal[k + 1:]))
    return _rank_checked(lower, diagonal, factor.order)


def append(factor: SpdFactorization, gram, free, new) -> SpdFactorization:
    """Add one column to a factorization without refactorizing.

    Parameters
    ----------
    factor : SpdFactorization
        Factor of the Gram block restricted to ``free``, in that order.
    gram : ndarray, shape (P, P)
        Symmetric Gram matrix of the full library.
    free : array_like of int
        The free set ``factor`` was built for, in its column order.
    new : int
        Index of the variable to add; it must not be in ``free``.

    Returns
    -------
    SpdFactorization
        Factor of the block restricted to ``free`` followed by ``new``. The
        old columns keep their factor rows; the new last row is
        ``l = L^{-1} G[free, new]`` with pivot ``sqrt(G[new, new] - l.l)``.

    Raises
    ------
    RankDeficientLibrary
        If the new pivot is nonpositive or falls at or below the pivot floor
        of the grown block, or a larger ``G[new, new]`` raises that floor
        above an old pivot, exactly as :func:`factorize` would report.
    """
    size = factor.size
    row = gram[new]
    cross, info = dtrtrs(factor.lower, row.take(free), lower=1)
    if info != 0:
        raise ValueError(f"LAPACK dtrtrs rejected argument {-info}")
    corner = float(row[new])
    pivot = corner - float(cross @ cross)
    old_top = float(factor.diagonal.max())
    pivot_floor = factor.order * _EPS * max(old_top, corner, 0.0)
    # The old pivots passed the old floor; only a larger corner raises it.
    smallest = pivot
    if corner > old_top:
        smallest = min(pivot, float((factor.lower.diagonal() ** 2).min()))
    if smallest <= pivot_floor:
        raise _rank_error(size + 1, smallest, pivot_floor)
    lower = np.zeros((size + 1, size + 1), order="F")
    lower[:size, :size] = factor.lower
    lower[size, :size] = cross
    lower[size, size] = math.sqrt(pivot)
    return SpdFactorization(lower=lower, diagonal=np.concatenate((factor.diagonal, [corner])),
                            order=factor.order)


def _rank_checked(lower, diagonal, order) -> SpdFactorization:
    pivot_floor = order * _EPS * max(diagonal.max(), 0.0)
    pivot = (lower.diagonal() ** 2).min()
    if pivot <= pivot_floor:
        raise _rank_error(lower.shape[0], pivot, pivot_floor)
    return SpdFactorization(lower=lower, diagonal=diagonal, order=order)


def _rank_error(size, pivot, pivot_floor) -> RankDeficientLibrary:
    return RankDeficientLibrary(
        f"restricted Gram block of size {size} has pivot {pivot:.3e} "
        f"at or below the rank threshold {pivot_floor:.3e}; the free columns "
        f"of the library are numerically linearly dependent"
    )


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
    factor : SpdFactorization, optional
        A factor of the block restricted to ``free``, in the order of
        ``free``, such as the one the active-set loop keeps and downdates.
        When given, no factorization is made and ``gram`` is not read.

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
        factor = factorize(gram, free)
    linear = np.asarray(linear, dtype=float)
    free = np.asarray(free, dtype=np.intp).ravel()
    rhs = np.empty((factor.size, 2))
    rhs[:, 0] = linear[free]
    rhs[:, 1] = 1.0
    solved = factor.solve(rhs)
    schur = float(solved[:, 1].sum())
    if schur <= 0.0:
        raise RankDeficientLibrary(
            f"Schur complement {schur:.3e} is not positive; the restricted "
            "Gram block is numerically indefinite"
        )
    lam = (float(solved[:, 0].sum()) - float(budget)) / schur
    return SubproblemSolution(free_values=solved[:, 0] - lam * solved[:, 1], multiplier=lam)
