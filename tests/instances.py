"""Seeded random instance generators and reference points shared by the test modules.

The recipe matches the randomized acceptance suite: nonnegative library
entries, a ground-truth abundance vector on the simplex, additive Gaussian
noise, and lower bounds with a controlled total. The number of bands is
always at least the number of endmembers so that every restricted Gram
block the solver can visit is positive definite.
"""

import numpy as np

from unmix import SpectralLibrary, UnmixingProblem


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
