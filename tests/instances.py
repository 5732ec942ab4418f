"""Seeded random instance generators and reference points shared by the test modules.

The recipe matches the randomized acceptance suite: nonnegative library
entries, a ground-truth abundance vector on the simplex, additive Gaussian
noise, and lower bounds with a controlled total. The number of bands is
always at least the number of endmembers so that every restricted Gram
block the solver can visit is positive definite.
"""

from collections import Counter

import numpy as np

from unmix import SolveStatus, SpectralLibrary, UnmixingProblem, objective_value, shift_problem
from unmix.kkt import solve_uniform, uniform_start


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


def support_start(shifted, probe):
    """Where a solve restarts when its probe has a few negative entries.

    Returns the strictly positive support of ``probe`` and the point that
    is ``probe`` clipped at zero and scaled back onto the budget.
    """
    positive = probe > 0.0
    iterate = np.where(positive, probe, 0.0)
    iterate *= shifted.budget / iterate.sum()
    return np.flatnonzero(positive), iterate


def uniform_probe(shifted):
    """The uniform start's probe, the candidate on every variable, solved
    as the solver solves it: from the factor of the full Gram matrix."""
    values, _ = solve_uniform(uniform_start(shifted.gram), shifted.linear[None].copy(),
                              np.array([shifted.budget]))
    return values[0]


def start_taken(shifted, solution):
    """The start a solve took, read from the first entry of its trace.

    That entry is the objective at the uniform point ``s / P`` when the
    probe was accepted, at the best vertex when the solve started there,
    and otherwise at the probe's clipped support. A vertex is taken after a
    probe (``"restart"``) unless the library is wider than its bands, when
    it is taken outright.
    """
    s, p = shifted.budget, shifted.size
    first = solution.objective_trace[0]
    if first == objective_value(shifted, np.full(p, s / p)):
        return "uniform"
    vertex = np.zeros(p)
    vertex[np.argmin(0.5 * s * s * shifted.gram.diagonal() - s * shifted.linear)] = s
    if first == objective_value(shifted, vertex):
        return "restart" if p <= shifted.shifted_target.size else "vertex"
    assert first == objective_value(shifted, support_start(shifted, uniform_probe(shifted))[1])
    return "support"


def counted_starts(library, pixels, bounds, solutions):
    """Count the start each pixel's solution took."""
    assert all(s.status is SolveStatus.OPTIMAL for s in solutions)
    return Counter(
        start_taken(shift_problem(UnmixingProblem(library, pixels[:, column], bounds)), solution)
        for column, solution in enumerate(solutions))
