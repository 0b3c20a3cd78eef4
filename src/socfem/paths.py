"""Reproducible Brownian increment ensembles.

Every path draws from its own substream, seeded by (master seed, path
index): the increments of path p are those of
``default_rng(SeedSequence(seed, spawn_key=(p,))).normal(0, sqrt(tau), N)``.
Path p is therefore bit-identical no matter how many paths are
requested.  Consumers that stream paths work in blocks of ``BLOCK`` paths
and merge the block results in path order, so estimates never depend on
how an ensemble is split.

``sample`` does not build one ``SeedSequence`` per path: their set-up
costs several times the draws.  It runs numpy's documented
``SeedSequence`` hashing (the ``_SS_`` constants below: 32-bit hashmix and
mix into a pool of four words) once for all paths.  The entropy of path p
is the seed's 32-bit words, zero-padded to the pool size, then p; the hash
constant advances by a fixed multiplication per word, whatever its value.
So everything before the last word depends on the seed only and is mixed
once in Python ints; the path word and ``generate_state(4, uint64)``, the
state that ``PCG64`` asks its seed sequence for, run on (P,) uint64 arrays
masked to 32 bits.  Each path's state reaches ``PCG64`` through
``_PathState``, a minimal ``ISeedSequence``, and ``standard_normal`` fills
the path's row.  The block is scaled once: ``z * sqrt(tau) + 0.0`` equals
``normal(0, sqrt(tau))``'s ``0.0 + sqrt(tau) * z`` bit for bit, signed
zeros included.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .grid import TimeGrid

BLOCK = 512
MAX_PATHS = 2**32  # the most paths one ensemble draws: every path index is one word
DEFAULT_PATHS = 2000  # the ensemble size of a study, a table or a run that samples
DEFAULT_SEED = 7  # the master seed of every seeded run, the verifier's too

# numpy.random.SeedSequence: pool size, hash and mix constants
_SS_POOL = 4
_SS_MASK = 0xFFFFFFFF
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class BrownianEnsemble:
    """P independent paths of N Gaussian increments with variance tau.

    ``paths`` and ``steps`` are derived from the shape of ``increments``; a
    given ``brownian`` that is not (paths, steps + 1) raises ``ValueError``.
    """

    tau: float
    seed: int
    increments: np.ndarray  # (paths, steps), increment n covers (t_n, t_{n+1}]
    brownian: np.ndarray | None = None  # (paths, steps + 1) prefix sums
    paths: int = field(init=False)
    steps: int = field(init=False)

    def __post_init__(self):
        paths, steps = self.increments.shape
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "steps", steps)
        if self.brownian is None:
            w = np.zeros((paths, steps + 1))
            np.cumsum(self.increments, axis=1, out=w[:, 1:])
            w.flags.writeable = False
            object.__setattr__(self, "brownian", w)
        elif self.brownian.shape != (paths, steps + 1):
            raise ValueError(
                f"brownian shape {self.brownian.shape} does not match {steps} increments "
                f"of {paths} paths: need {(paths, steps + 1)}"
            )

    def brownian_at(self, level: int) -> np.ndarray:
        """W_{t_n} for every path, n = 0..N."""
        return self.brownian[:, level]

    def subset(self, start: int, stop: int) -> "BrownianEnsemble":
        """Paths start..stop-1 as their own ensemble (same substreams).

        Views the parent's rows: a row's prefix sums do not depend on the
        other rows, so nothing is re-summed.
        """
        return BrownianEnsemble(
            tau=self.tau,
            seed=self.seed,
            increments=self.increments[start:stop],
            brownian=self.brownian[start:stop],
        )


def sample(P: int, grid: TimeGrid, seed: int) -> BrownianEnsemble:
    """Draw P paths of N increments, each ~ Normal(0, tau).

    The increments of path p come from ``SeedSequence(seed, spawn_key=(p,))``
    regardless of P, so enlarging the ensemble extends it without changing
    existing paths.  P is at most ``MAX_PATHS``.
    """
    if not 1 <= P <= MAX_PATHS:
        raise ValueError(f"path count must be in 1..2**32, got {P}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    inc = np.empty((P, grid.N))
    for state, row in zip(_path_states(seed, P), inc):
        Generator(PCG64(_PathState(state))).standard_normal(out=row)
    inc *= np.sqrt(grid.tau)
    inc += 0.0
    inc.flags.writeable = False
    return BrownianEnsemble(tau=grid.tau, seed=seed, increments=inc)


class _PathState(ISeedSequence):
    """One path's precomputed ``generate_state(4, uint64)``, handed to ``PCG64``.

    ``PCG64`` asks its seed sequence for that one state, so every request
    is answered with it; ``tests/test_paths.py`` checks the draws against
    real ``SeedSequence`` objects bit for bit.
    """

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _path_states(seed: int, P: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(p,)).generate_state(4, np.uint64)``
    for p < P, as a (P, 4) uint64 table."""
    entropy = [(seed >> shift) & _SS_MASK for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (_SS_POOL - len(entropy))
    const = _SS_INIT_A
    pool = []
    for word in entropy[:_SS_POOL]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_SS_POOL:] + [np.arange(P, dtype=np.uint64)]:
        for dst in range(_SS_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    words = np.empty((P, 2 * _SS_POOL), dtype=np.uint64)
    const = _SS_INIT_B
    for i in range(2 * _SS_POOL):
        words[:, i], const = _hashmix(pool[i % _SS_POOL], const, _SS_MULT_B)
    # little-endian pairs of 32-bit words, as SeedSequence assembles uint64
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))


def _hashmix(value, const: int, mult: int = _SS_MULT_A):
    """SeedSequence's hashmix on a Python int or a uint64 array of 32-bit
    values; returns the hash and the hash constant advanced by ``mult``
    (``_SS_MULT_B`` when generating the state)."""
    value = value ^ const
    const = (const * mult) & _SS_MASK
    value = (value * const) & _SS_MASK
    return value ^ (value >> 16), const


def _mix(x, y):
    """SeedSequence's mix of two 32-bit values (Python ints or uint64 arrays)."""
    value = (_SS_MIX_L * x - _SS_MIX_R * y) & _SS_MASK
    return value ^ (value >> 16)
