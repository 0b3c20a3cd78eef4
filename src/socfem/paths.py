"""Reproducible Brownian increment ensembles.

Every path draws from its own substream, seeded by (master seed, path
index).  Path p is therefore bit-identical no matter how many paths are
requested.  Consumers that stream paths work in blocks of ``BLOCK`` paths
and merge the block results in path order, so estimates never depend on
how an ensemble is split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .grid import TimeGrid

BLOCK = 512


@dataclass(frozen=True)
class BrownianEnsemble:
    """P independent paths of N Gaussian increments with variance tau."""

    paths: int
    steps: int
    tau: float
    seed: int
    increments: np.ndarray  # (paths, steps), increment n covers (t_n, t_{n+1}]
    brownian: np.ndarray | None = None  # (paths, steps + 1) prefix sums

    def __post_init__(self):
        if self.brownian is None:
            w = np.zeros((self.paths, self.steps + 1))
            np.cumsum(self.increments, axis=1, out=w[:, 1:])
            w.flags.writeable = False
            object.__setattr__(self, "brownian", w)

    def brownian_at(self, level: int) -> np.ndarray:
        """W_{t_n} for every path, n = 0..N."""
        return self.brownian[:, level]

    def subset(self, start: int, stop: int) -> "BrownianEnsemble":
        """Paths start..stop-1 as their own ensemble (same substreams).

        Views the parent's rows: a row's prefix sums do not depend on the
        other rows, so nothing is re-summed.
        """
        return BrownianEnsemble(
            paths=stop - start,
            steps=self.steps,
            tau=self.tau,
            seed=self.seed,
            increments=self.increments[start:stop],
            brownian=self.brownian[start:stop],
        )


def sample(P: int, grid: TimeGrid, seed: int) -> BrownianEnsemble:
    """Draw P paths of N increments, each ~ Normal(0, tau).

    The increments of path p come from ``SeedSequence(seed, spawn_key=(p,))``
    regardless of P, so enlarging the ensemble extends it without changing
    existing paths.
    """
    if P < 1:
        raise ValueError(f"path count must be >= 1, got {P}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    scale = np.sqrt(grid.tau)
    inc = np.empty((P, grid.N))
    for p in range(P):
        rng = default_rng(SeedSequence(seed, spawn_key=(p,)))
        inc[p] = rng.normal(0.0, scale, grid.N)
    inc.flags.writeable = False
    return BrownianEnsemble(paths=P, steps=grid.N, tau=grid.tau, seed=seed, increments=inc)
