"""Seeded random instance generators and reference points shared by the test modules.

The recipe matches the randomized acceptance suite: nonnegative library
entries, a ground-truth abundance vector on the simplex, additive Gaussian
noise, and lower bounds with a controlled total. The number of bands is
always at least the number of endmembers so that every restricted Gram
block the solver can visit is positive definite.
"""

from collections import Counter

import numpy as np

from unmix import (
    SolverConfig,
    SolveStatus,
    SpectralLibrary,
    UnmixingProblem,
    objective_value,
    shift_problem,
    solve_subproblem,
)
from unmix.active_set import _STACKED_BELOW
from unmix.kkt import solve_stacked, solve_uniform, uniform_start


def random_problem(rng, n_endmembers=None, n_bands=None, bounds_total=None,
                   noise=0.05):
    p = int(n_endmembers) if n_endmembers is not None else int(rng.integers(2, 11))
    n = int(n_bands) if n_bands is not None else int(rng.integers(max(5, p), 31))
    entries = np.abs(rng.standard_normal((n, p)))
    x_true = rng.dirichlet(np.ones(p))
    measurement = entries @ x_true + noise * rng.standard_normal(n)
    if bounds_total is None:
        bounds_total = rng.uniform(0.0, 0.9)
    lower_bounds = rng.dirichlet(np.ones(p)) * bounds_total
    return UnmixingProblem(SpectralLibrary(entries), measurement, lower_bounds)


def random_spd_system(rng, size=None):
    """Random (gram, linear, budget) triple with a positive definite gram."""
    k = int(size) if size is not None else int(rng.integers(1, 13))
    basis = rng.standard_normal((k + 3, k))
    gram = basis.T @ basis
    gram = 0.5 * (gram + gram.T)
    linear = rng.standard_normal(k)
    budget = float(rng.uniform(0.1, 1.5))
    return gram, linear, budget


def uniform_probe(shifted):
    """The uniform start's probe, the candidate on every variable, solved
    as the solver solves it: from the factor of the full Gram matrix."""
    values, _ = solve_uniform(uniform_start(shifted.gram), shifted.linear[None].copy(),
                              np.array([shifted.budget]))
    return values[0]


def refined_start(shifted, primal_tol=SolverConfig().primal_tol):
    """Where a solve starts when its probe is infeasible.

    Returns the free sets the start refines on, in order, and the feasible
    candidate it accepts, clipped at zero. The first free set is the
    probe's strictly positive support, and each later one the strictly
    positive support of the last candidate, while that candidate has an
    entry below ``-primal_tol``. Each candidate is solved as the solver
    solves it on its back end: in a one-row :func:`unmix.kkt.solve_stacked`
    below the crossover, else by a fresh factorization of the free set.
    A feasible probe refines on no free set and is returned as it is.
    """
    candidate = uniform_probe(shifted)
    supports = []
    while candidate.min() < -primal_tol:
        free = candidate > 0.0
        supports.append(np.flatnonzero(free))
        if shifted.size < _STACKED_BELOW:
            candidate = solve_stacked(shifted.gram, free[None], shifted.linear[None],
                                      np.array([shifted.budget]))[0][0]
        else:
            candidate = np.zeros(shifted.size)
            candidate[free] = solve_subproblem(shifted.gram, shifted.linear, shifted.budget,
                                               supports[-1]).free_values
    return supports, np.maximum(candidate, 0.0)


def start_taken(shifted, solution):
    """The start a solve took, read from the first entry of its trace.

    That entry is the objective at the uniform point ``s / P`` when the
    probe was accepted (``"uniform"``), at the best vertex when the library
    is wider than its bands (``"vertex"``), and otherwise at the refined
    start's accepted candidate (``"refined"``).
    """
    s, p = shifted.budget, shifted.size
    first = solution.objective_trace[0]
    if first == objective_value(shifted, np.full(p, s / p)):
        return "uniform"
    if p > shifted.shifted_target.size:
        vertex = np.zeros(p)
        vertex[np.argmin(0.5 * s * s * shifted.gram.diagonal() - s * shifted.linear)] = s
        assert first == objective_value(shifted, vertex)
        return "vertex"
    assert first == objective_value(shifted, refined_start(shifted)[1])
    return "refined"


def counted_starts(library, pixels, bounds, solutions):
    """Count the start each pixel's solution took."""
    assert all(s.status is SolveStatus.OPTIMAL for s in solutions)
    return Counter(
        start_taken(shift_problem(UnmixingProblem(library, pixels[:, column], bounds)), solution)
        for column, solution in enumerate(solutions))
