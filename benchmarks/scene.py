"""Seeded reference scenes and the three benchmark workloads.

The recipe follows the reference scene of the project roadmap: a uniform
[0, 1) library with 224 bands, Dirichlet(0.3) abundances and Gaussian noise
of standard deviation 0.01 (1% of the library's full scale), which
reproduces the roadmap's baseline iteration counts. Bounded workloads share
one lower-bound vector drawn as Dirichlet(1) * 0.3. Everything is drawn
from ``numpy.random.default_rng`` keyed by (seed, workload, stream), so the
same seed always gives the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

N_BANDS = 224
ABUNDANCE_ALPHA = 0.3
NOISE_STD = 0.01
BOUNDS_TOTAL = 0.3


@dataclass(frozen=True)
class Workload:
    """One workload: scene shape, how calls are made, and run sizes.

    A *call* is what the benchmark times: one ``cli.main`` run over one CSV
    chunk, one ``unmix_batch`` over one chunk, or one ``unmix`` of one
    spectrum. Runs cycle over ``chunks`` distinct input chunks of
    ``chunk_pixels`` pixels until ``--seconds`` of calls were timed and at
    least ``min_calls`` calls were made. The traced run makes exactly
    ``trace_calls`` calls, so its counts repeat exactly for a seed.
    """

    name: str
    kind: str  # "cli", "batch" or "api"
    n_endmembers: int
    bounded: bool
    chunk_pixels: int
    chunks: int
    min_calls: int
    trace_calls: int
    why: str

    def scaled(self, scale: float) -> "Workload":
        """The same workload with its input sizes multiplied by ``scale``."""

        def size(value):
            return max(1, round(value * scale))

        if self.kind == "api":  # one pixel per call: scale the number of calls
            return replace(self, chunks=size(self.chunks), min_calls=size(self.min_calls),
                           trace_calls=size(self.trace_calls))
        return replace(self, chunk_pixels=size(self.chunk_pixels))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cli-p10",
            kind="cli",
            n_endmembers=10,
            bounded=True,
            chunk_pixels=250,
            chunks=12,
            min_calls=36,
            trace_calls=6,
            why="unmix CLI with lower bounds and diagnostics at P=10: parse, "
            "shift, validation and KKT diagnostics weigh as much as the solver",
        ),
        Workload(
            name="batch-p30",
            kind="batch",
            n_endmembers=30,
            bounded=False,
            chunk_pixels=250,
            chunks=12,
            min_calls=36,
            trace_calls=12,
            why="in-process unmix_batch at P=30 with zero bounds (pure FCLS): many "
            "short pivots bound by per-iteration Python overhead; no CLI or diagnostics",
        ),
        Workload(
            name="api-p100",
            kind="api",
            n_endmembers=100,
            bounded=True,
            chunk_pixels=1,
            chunks=400,
            min_calls=1200,
            trace_calls=300,
            why="one unmix() call per spectrum with bounds at P=100: bound by "
            "Cholesky arithmetic on large, mostly distinct free sets",
        ),
    )
}


def _rng(seed: int, workload: Workload, stream: int) -> np.random.Generator:
    key = [int(seed), workload.n_endmembers, int(workload.bounded), stream]
    return np.random.default_rng(key)


def library(seed: int, workload: Workload) -> np.ndarray:
    """N x P library with uniform [0, 1) entries."""
    return _rng(seed, workload, 0).random((N_BANDS, workload.n_endmembers))


def lower_bounds(seed: int, workload: Workload) -> np.ndarray | None:
    """Shared lower bounds summing to 0.3, or ``None`` for pure FCLS."""
    if not workload.bounded:
        return None
    alpha = np.ones(workload.n_endmembers)
    return _rng(seed, workload, 1).dirichlet(alpha) * BOUNDS_TOTAL


def pixels(seed: int, workload: Workload, lib: np.ndarray, chunk: int) -> np.ndarray:
    """N x M measured spectra of one chunk: A x plus Gaussian noise."""
    rng = _rng(seed, workload, 2 + chunk)
    p = lib.shape[1]
    m = workload.chunk_pixels
    abundances = rng.dirichlet(np.full(p, ABUNDANCE_ALPHA), size=m).T
    clean = lib @ abundances
    return clean + NOISE_STD * rng.standard_normal(clean.shape)
