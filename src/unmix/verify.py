"""Independent correctness instruments: KKT residuals and exhaustive search.

Neither function is needed to solve anything; they exist so the solver can be
checked against first principles. :func:`verify_kkt` measures how far a
proposed primal-dual triple is from satisfying each optimality condition.
:func:`brute_force_solve` enumerates every nonempty free set on small
problems and certifies the global optimum two independent ways: by the KKT
conditions and by direct objective comparison of all feasible candidates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .active_set import Solution, SolveStatus, lagrange_multipliers
from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    NoFeasibleCandidate,
    RankDeficientLibrary,
)
from .kkt import solve_subproblem
from .model import ShiftedProblem, SolverConfig, objective_value

ENUMERATION_LIMIT = 15


@dataclass(frozen=True)
class KktReport:
    """Per-condition residuals of a primal-dual triple.

    ``satisfied`` is true when every residual is at most
    ``tol * max(1, max(abs(linear)))`` for the tolerance the report was
    built with.
    """

    stationarity_residual: float
    primal_eq_residual: float
    primal_ineq_violation: float
    dual_violation: float
    complementarity_residual: float
    satisfied: bool


def verify_kkt(shifted: ShiftedProblem, shifted_abundances, eq_multiplier,
               ineq_multipliers, tol=1e-8) -> KktReport:
    """Measure all four optimality conditions at a primal-dual triple.

    Residuals are compared against ``tol`` scaled by ``max(1, |linear|_inf)``
    so that verification is invariant to the overall magnitude of the data.
    """
    x = np.asarray(shifted_abundances, dtype=float)
    mu = np.asarray(ineq_multipliers, dtype=float)
    p = shifted.size
    if x.shape != (p,) or mu.shape != (p,):
        raise DimensionMismatch(
            f"expected abundance and multiplier vectors of length {p}, "
            f"got shapes {x.shape} and {mu.shape}"
        )
    return _verify_kkt_rows(shifted.gram, shifted.linear[None], shifted.budget,
                            x[None], np.array([float(eq_multiplier)]), mu[None], tol)[0]


def _verify_kkt_rows(gram, linear, budget, x, eq_multiplier, mu, tol=1e-8) -> list[KktReport]:
    """:func:`verify_kkt` of the rows of stacked problems and triples, in one check.

    Row ``k`` of ``linear``, ``x`` and ``mu``, all ``(m, P)``, entry ``k``
    of ``eq_multiplier`` and the one ``budget`` of every row make up the
    ``k``-th. The check forms its own ``G x`` with a broadcast ``matmul``,
    which gives each row the bits of ``gram @ x``, and reduces along rows,
    so a row's report does not depend on the others.
    """
    grad = np.matmul(gram, x[..., None])[..., 0] - linear + eq_multiplier[:, None] - mu
    residuals = np.column_stack((
        np.abs(grad).max(axis=1),
        np.abs(x.sum(axis=1) - budget),
        0.0 - np.minimum(x.min(axis=1), 0.0),  # never -0.0
        0.0 - np.minimum(mu.min(axis=1), 0.0),
        np.abs(mu * x).max(axis=1),
    ))
    threshold = tol * np.maximum(1.0, np.abs(linear).max(axis=1))
    satisfied = (residuals <= threshold[:, None]).all(axis=1)
    return [KktReport(*values, satisfied=ok)
            for values, ok in zip(residuals.tolist(), satisfied.tolist())]


def _direct_objective(shifted, x):
    # Residual-norm route, independent of the (gram, linear) code path.
    if shifted.library is not None and shifted.shifted_target is not None:
        residual = shifted.shifted_target - shifted.library.entries @ x
        return 0.5 * float(residual @ residual)
    return objective_value(shifted, x)


def brute_force_solve(shifted: ShiftedProblem, config: SolverConfig | None = None) -> Solution:
    """Global optimum of a small instance by enumerating every free set.

    For each nonempty subset of variables the equality-constrained
    subproblem is solved (subsets with a rank-deficient block are skipped).
    A candidate that is primal feasible and has nonnegative bound
    multipliers satisfies all optimality conditions of the convex problem
    and is the optimum; as a cross-check it must agree, to 1e-9 in
    objective, with the feasible candidate of smallest directly-evaluated
    objective. When the source library is attached to the problem, objective
    values come from residual norms rather than the quadratic form.

    Only instances with at most 15 variables are accepted.
    """
    config = config or SolverConfig()
    p = shifted.size
    if p > ENUMERATION_LIMIT:
        raise InstanceTooLarge(
            f"brute-force enumeration caps at {ENUMERATION_LIMIT} endmembers, got {p}"
        )
    if shifted.budget == 0.0:
        # Single feasible point; certify it with the smallest valid multiplier.
        x = np.zeros(p)
        lam = float(shifted.linear.max())
        return Solution(
            abundances=x,
            shifted_abundances=x.copy(),
            eq_multiplier=lam,
            ineq_multipliers=np.maximum(lam - shifted.linear, 0.0),
            objective=_direct_objective(shifted, x),
            outer_iterations=0,
            final_free=np.empty(0, dtype=np.intp),
            status=SolveStatus.OPTIMAL,
            message="brute-force enumeration (zero budget)",
        )

    best = None
    certified = None
    for size in range(1, p + 1):
        for free in itertools.combinations(range(p), size):
            idx = np.asarray(free, dtype=np.intp)
            try:
                sub = solve_subproblem(shifted.gram, shifted.linear, shifted.budget, idx)
            except RankDeficientLibrary:
                continue
            if sub.free_values.min() < -config.primal_tol:
                continue
            x = np.zeros(p)
            x[idx] = np.maximum(sub.free_values, 0.0)
            objective = _direct_objective(shifted, x)
            if best is None or objective < best[0] or (objective == best[0] and free < best[1]):
                best = (objective, free, x)
            if certified is None:
                mu_active = lagrange_multipliers(
                    shifted, sub, idx, np.setdiff1d(np.arange(p), idx)
                )
                if mu_active.size == 0 or mu_active.min() >= -config.dual_tol:
                    mu = np.zeros(p)
                    mu[np.setdiff1d(np.arange(p), idx)] = mu_active
                    certified = (objective, free, x, sub.multiplier, mu)

    if best is None:
        raise NoFeasibleCandidate(
            "no free set produced a primal-feasible subproblem solution"
        )
    if certified is None:
        raise RuntimeError(
            "enumeration found feasible candidates but none with nonnegative "
            "multipliers; tolerances are inconsistent with the data"
        )
    gap = abs(certified[0] - best[0])
    if gap > 1e-9 * max(1.0, abs(best[0])):
        raise RuntimeError(
            f"optimality certificates disagree: KKT candidate objective {certified[0]} "
            f"vs best enumerated objective {best[0]}"
        )
    objective, free, x, lam, mu = certified
    return Solution(
        abundances=x.copy(),
        shifted_abundances=x,
        eq_multiplier=lam,
        ineq_multipliers=mu,
        objective=objective,
        outer_iterations=0,
        final_free=np.asarray(free, dtype=np.intp),
        status=SolveStatus.OPTIMAL,
        message="brute-force enumeration",
    )
