"""Stochastic gradient oracles: unbiased feedback with controllable tails.

Every oracle owns its random stream (single consumer).  Independent trials
should derive their streams from ``child_rng(master_seed, *keys)`` so runs
are reproducible bit-for-bit.  An oracle's ``replications`` is None when it
serves one run, or M when it serves a batch of M replications, one stream
each; ``conversion.run`` takes the batch size from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError

_FAMILIES = ("gaussian", "student-t", "pareto")

# Steps of noise drawn at a time from each stream of a SyntheticOracle.
NOISE_BLOCK = 128


def child_rng(master_seed, *keys):
    """Deterministic generator derived from a master seed and integer keys."""
    entropy = [int(master_seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFF for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class NoiseSpec:
    """Per-coordinate i.i.d. additive noise family with a certified bound.

    family: 'gaussian', 'student-t' (param = degrees of freedom > 2), or
    'pareto' (symmetrized Pareto, param = shape > 2).  `scale` multiplies
    every draw.  Parameters with an infinite second moment are rejected here,
    so every oracle built from a spec has a certified bound.
    """

    family: str = "gaussian"
    scale: float = 1.0
    param: float = 3.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}; use one of {_FAMILIES}")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if self.family == "student-t" and not self.param > 2:
            raise ValueError("student-t needs dof > 2 for a finite second moment")
        if self.family == "pareto" and not self.param > 2:
            raise ValueError("pareto needs shape > 2 for a finite second moment")


def certified_sigma(noise, dim):
    """Closed-form bound s with E||noise||_2^2 <= s^2 (exact for these families)."""
    d = int(dim)
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if noise.family == "gaussian":
        return noise.scale * math.sqrt(d)
    # Student-t with dof a and the symmetric Pareto with shape a share E X^2 = a/(a-2).
    return noise.scale * math.sqrt(d * noise.param / (noise.param - 2.0))


def _draw_block(rng, noise, steps, dim):
    """The next `steps` per-step noise vectors of one stream, shape (steps, dim).

    Row k holds exactly what the k-th of `steps` successive draws of `dim`
    values would give.
    """
    if noise.scale == 0.0:
        return np.zeros((steps, dim))
    if noise.family == "gaussian":
        raw = rng.standard_normal((steps, dim))
    elif noise.family == "student-t":
        raw = rng.standard_t(noise.param, size=(steps, dim))
    else:
        # Symmetric classical Pareto: |X| >= 1, E X = 0, E X^2 = a/(a-2).  Each
        # step draws its magnitudes and then its signs, so rows are filled one
        # at a time to keep that interleaving.
        raw = np.empty((steps, dim))
        for row in raw:
            row[:] = (1.0 + rng.pareto(noise.param, size=dim)) * rng.choice((-1.0, 1.0), size=dim)
    return noise.scale * raw


class SyntheticOracle:
    """Returns grad R(h) plus i.i.d. per-coordinate noise from a NoiseSpec.

    `seed` is one seed, for one run queried at vectors (d,), or a 1-d
    sequence of M seeds, for a batch of M replications queried at (M, d)
    points; row i of every answer then carries the noise a one-seed oracle
    with seed[i] would return.  Noise is drawn NOISE_BLOCK steps at a time
    per stream and served one step per query, which gives the same values as
    drawing at every step.  An oracle serves a single dimension.
    """

    def __init__(self, noise, seed=0):
        self.noise = noise
        seeds = np.asarray(seed)
        if seeds.ndim == 0:
            self.seed = int(seed)
            self.replications = None
        elif seeds.ndim == 1 and seeds.size >= 1:
            self.seed = tuple(int(s) for s in seeds)
            self.replications = len(self.seed)
        else:
            raise ValueError("seed must be an integer or a nonempty 1-d sequence of integers")
        self._rngs = [child_rng(s) for s in np.atleast_1d(self.seed)]
        self._block = None
        self._next = 0

    def sigma(self, dim):
        return certified_sigma(self.noise, dim)

    def _noise(self, dim):
        if self._block is not None and self._block.shape[-1] != dim:
            raise GeometryError(f"oracle serves dimension {self._block.shape[-1]}, not {dim}")
        if self._block is None or self._next == len(self._block):
            draws = [_draw_block(rng, self.noise, NOISE_BLOCK, dim) for rng in self._rngs]
            self._block = draws[0] if self.replications is None else np.stack(draws, axis=1)
            self._next = 0
        self._next += 1
        return self._block[self._next - 1]

    def query(self, obj, h_bar, t=None):
        return obj.gradient(h_bar) + self._noise(obj.dim)


class EpochExhaustedError(RuntimeError):
    """A non-shuffling mini-batch oracle ran out of batches."""


class MiniBatchOracle:
    """Averages per-example gradients over consecutive batches of a permutation.

    Each epoch visits every example exactly once.  With shuffle=True a fresh
    permutation is drawn at every epoch boundary; with shuffle=False the
    initial order is used for a single epoch and further queries raise.
    """

    def __init__(self, batch_size, seed=0, shuffle=True):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = int(batch_size)
        self.replications = None
        self.shuffle = bool(shuffle)
        self._rng = child_rng(seed)
        self._order = None
        self._pos = 0

    def steps_per_epoch(self, n):
        return -(-n // self.batch_size)

    def _refresh(self, n):
        if self.shuffle:
            self._order = self._rng.permutation(n)
        else:
            if self._order is not None:
                raise EpochExhaustedError(
                    "mini-batch oracle exhausted its epoch with shuffle disabled"
                )
            self._order = np.arange(n)
        self._pos = 0

    def query(self, obj, h_bar, t=None):
        n = obj.n_examples
        if self._order is None or self._pos >= n:
            self._refresh(n)
        idx = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return obj.gradient(h_bar, indices=idx)
