"""Norm-truncated gradient feedback: anchors, thresholds, and the truncation step.

Anchors and thresholds act on the last axis, so one anchor (d,) or a batch of
per-replication anchors (M, d) serve the driver alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_batch, as_vector, norm_rows
from .objectives import risk_gradient


@dataclass(frozen=True)
class Anchor:
    """Fixed primal/dual anchor pair with its accuracy budget.

    `eps_sigma` bounds the dual distance from g_tilde to the true gradient at
    h_tilde (holds with probability >= 1 - delta); it is exactly 0 for anchors
    built from the exact gradient.
    """

    h_tilde: np.ndarray
    g_tilde: np.ndarray
    eps_sigma: float = 0.0
    delta: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "h_tilde", as_batch(self.h_tilde))
        object.__setattr__(self, "g_tilde", as_batch(self.g_tilde))
        if self.g_tilde.shape != self.h_tilde.shape:
            raise ValueError(
                f"anchor shapes differ: h_tilde {self.h_tilde.shape}, g_tilde {self.g_tilde.shape}"
            )
        if self.eps_sigma < 0:
            raise ValueError("eps_sigma must be nonnegative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


def truncate(g, g_tilde, threshold, norm_kind="l2"):
    """Row-wise truncation: each row farther than its threshold from g_tilde becomes g_tilde.

    `g` is (d,) or (M, d), `threshold` a number or one per row.  Returns a new
    array, never `g_tilde` itself, and the truncated flags (one per row).  No
    validation: the driver checks inputs on entry and outputs on exit.
    """
    flags = norm_rows(g - g_tilde, norm_kind) > threshold
    return np.where(flags[..., None], g_tilde, g), flags


def process(g, anchor, threshold, norm_kind="l2"):
    """Replace one gradient vector g by the dual anchor when it strays more than `threshold` away.

    Returns (clipped gradient, truncated flag); the gradient is a new array
    and always satisfies ||output - g_tilde||_* <= threshold.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    g = as_vector(g, dim=anchor.g_tilde.shape[-1])
    out, flag = truncate(g, anchor.g_tilde, threshold, norm_kind)
    return out, bool(flag)


@dataclass(frozen=True)
class SmoothTheoryThreshold:
    """c_t = eps_sigma + smoothness * ||h_tilde - h_bar|| + c0 (primal norm)."""

    smoothness: float
    c0: float
    eps_sigma: float = 0.0
    norm_kind: str = "l2"

    def __post_init__(self):
        if not self.c0 > 0:
            raise ValueError("c0 must be positive")
        if self.smoothness < 0 or self.eps_sigma < 0:
            raise ValueError("smoothness and eps_sigma must be nonnegative")

    def threshold_at(self, h_bar, anchor):
        dist = norm_rows(anchor.h_tilde - np.asarray(h_bar, dtype=np.float64), self.norm_kind)
        return (self.eps_sigma + self.c0) + self.smoothness * dist


@dataclass(frozen=True)
class HeuristicThreshold:
    """Constant threshold, e.g. sqrt(n_train / log(1/delta)) in benchmarks."""

    constant: float

    def __post_init__(self):
        if not self.constant > 0:
            raise ValueError("threshold constant must be positive")

    def threshold_at(self, h_bar, anchor):
        return self.constant

    @classmethod
    def for_benchmark(cls, n_train, delta=0.05):
        return cls(math.sqrt(n_train / math.log(1.0 / delta)))


def certified_c0(smoothness, diameter, sigma, horizon, delta, eps_sigma=0.0):
    """Truncation-bias offset max{lam*D, sigma*sqrt(T/log(1/delta))} + eps_sigma.

    Requires T >= log(1/delta) * ceil(eps_sigma)^2; the error message names the
    smallest admissible horizon.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if min(smoothness, diameter, sigma) < 0 or eps_sigma < 0:
        raise ValueError("scale parameters must be nonnegative")
    log_inv = math.log(1.0 / delta)
    min_horizon = log_inv * math.ceil(eps_sigma) ** 2
    if horizon < min_horizon:
        raise ValueError(
            f"horizon {horizon} too small: need T >= {math.ceil(min_horizon)} "
            f"(log(1/delta) * ceil(eps_sigma)^2)"
        )
    return max(smoothness * diameter, sigma * math.sqrt(horizon / log_inv)) + eps_sigma


def exact_anchor(obj, h_tilde, delta=0.05):
    """Anchor with g_tilde = grad R(h_tilde); eps_sigma = 0 holds surely.

    `h_tilde` may be one point (d,) or one per replication (M, d).
    """
    h_tilde = as_batch(h_tilde, dim=obj.dim)
    return Anchor(h_tilde=h_tilde, g_tilde=risk_gradient(obj, h_tilde), delta=delta)


def empirical_anchor(obj, h_tilde, delta=0.05, indices=None):
    """Benchmark anchor: empirical mean of per-example gradients at h_tilde.

    The mean over all (or the given) examples equals the batch gradient; the
    accuracy budget is left at 0 because the benchmark path never consumes it.
    """
    h_tilde = as_vector(h_tilde, dim=obj.dim)
    if obj.n_examples == 0:
        raise ValueError("cannot build an anchor from an empty dataset")
    g_tilde = obj.gradient(h_tilde, indices=indices)
    return Anchor(h_tilde=h_tilde, g_tilde=g_tilde, delta=delta)


def build_anchor(strategy, obj, h_tilde, delta=0.05):
    if strategy == "exact":
        return exact_anchor(obj, h_tilde, delta=delta)
    if strategy == "experiment-default":
        return empirical_anchor(obj, h_tilde, delta=delta)
    raise ValueError(f"unknown anchor strategy {strategy!r}")


@dataclass
class TruncationStats:
    """Per-run tally of truncation events (single-owner mutable state)."""

    flags: list = field(default_factory=list)

    def record(self, truncated):
        self.flags.append(bool(truncated))

    @property
    def total_queries(self):
        return len(self.flags)

    @property
    def truncated_count(self):
        return sum(self.flags)

    @property
    def rate(self):
        if not self.flags:
            return 0.0
        return self.truncated_count / len(self.flags)
