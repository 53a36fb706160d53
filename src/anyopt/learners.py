"""Online learners driving the ancillary sequence: FTRL, mirror descent, AO-FTRL.

All shipped regularizers are quadratic, psi_t(h) = (s_t/2) ||h||^2 with a
positive nondecreasing strength sequence (s_t), so every argmin has the closed
form of a Euclidean projection.  Learner state is single-owner mutable.

Learners step a single iterate (d,) or a batch of M independent iterates
(M, d) with one shared schedule: iterates and gradients are updated row by
row, and a state that starts as one vector broadcasts against the first batch
of gradients.  Steps do not re-validate their input; the driver checks shapes
and finiteness once, on entry and on exit.
"""

from __future__ import annotations

import numpy as np

from .geometry import as_batch, as_vector, clamp_simplex


class QuadraticRegularizer:
    """psi_t(h) = (s_t/2) ||h||^2; increments phi_t = ((s_{t+1}-s_t)/2) ||h||^2.

    `strengths` maps t >= 1 to s_t (callable) or is a constant.  Validated to
    be positive and nondecreasing as it is consumed.
    """

    def __init__(self, strengths=1.0):
        self._fn = strengths if callable(strengths) else (lambda t: float(strengths))
        self._last = (0, 0.0)

    def strength(self, t):
        s = float(self._fn(t))
        last_t, last_s = self._last
        if s <= 0:
            raise ValueError(f"regularizer strength s_{t} = {s} must be positive")
        if t > last_t and s < last_s - 1e-15:
            raise ValueError("regularizer strengths must be nondecreasing")
        if t >= last_t:
            self._last = (t, s)
        return s

    def value(self, t, h):
        h = as_vector(h)
        return 0.5 * self.strength(t) * float(h @ h)

    def increment(self, t, h):
        """phi_t(h) with the s_0 = 0 convention, so phi_0 = psi_1."""
        h = as_vector(h)
        prev = 0.0 if t == 0 else self.strength(t)
        return 0.5 * (self.strength(t + 1) - prev) * float(h @ h)

    @classmethod
    def sqrt_schedule(cls, scale=1.0):
        return cls(lambda t: scale * np.sqrt(t))


def ftrl_step(feasible, strength_next, dual_sum):
    """argmin_{h in H} (s/2)||h||^2 + <z, h>  ==  P_H(-z / s)."""
    if not strength_next > 0:
        raise ValueError("regularizer strength must be positive")
    return feasible.project(-np.asarray(dual_sum, dtype=np.float64) / strength_next)


def aoftrl_step(feasible, strength_next, dual_sum, alpha_next, hint):
    """FTRL step with the optimistic hint folded into the accumulated duals."""
    return ftrl_step(feasible, strength_next, dual_sum + alpha_next * np.asarray(hint))


def mirror_dual_step(mirror_map, h, beta, g_bar):
    """Dual-side step: the point h' with grad Phi(h') = grad Phi(h) - beta * g."""
    if not beta > 0:
        raise ValueError("step size must be positive")
    return mirror_map.grad_inverse(mirror_map.grad(h) - beta * np.asarray(g_bar))


def smd_step(mirror_map, feasible, h, beta, g_bar):
    """Mirror-descent proximal update: dual step then Bregman projection.

    With the Euclidean map this is exactly projected gradient descent,
    P_H(h - beta * g).
    """
    return feasible.bregman_project(mirror_dual_step(mirror_map, h, beta, g_bar), mirror_map)


def constant_weights(horizon):
    return np.ones(int(horizon))


def aoftrl_weights(horizon, smoothness, regularizer):
    """Largest weights with alpha_t^2 <= (s_t / smoothness) * alpha_{1:(t-1)}.

    alpha_1 = 1; the sequence is deterministic (predictable) by construction.
    """
    if not smoothness > 0:
        raise ValueError("smoothness must be positive")
    alphas = np.empty(int(horizon))
    alphas[0] = 1.0
    running = 1.0
    for t in range(2, int(horizon) + 1):
        alphas[t - 1] = np.sqrt(regularizer.strength(t) / smoothness * running)
        running += alphas[t - 1]
    return alphas


def weight_preset(kind, horizon, smoothness=None, regularizer=None):
    if kind == "constant-one":
        return constant_weights(horizon)
    if kind == "aoftrl-compatible":
        if smoothness is None or regularizer is None:
            raise ValueError("aoftrl-compatible weights need smoothness and a regularizer")
        return aoftrl_weights(horizon, smoothness, regularizer)
    raise ValueError(f"unknown weight preset {kind!r}")


def validate_mirror_schedule(weights, steps, strong_convexity, smoothness):
    """Check alpha_t/alpha_{t-1} >= beta_t/beta_{t-1} and beta_t <= s/smoothness."""
    weights = np.asarray(weights, dtype=np.float64)
    steps = np.asarray(steps, dtype=np.float64)
    if weights.shape != steps.shape:
        raise ValueError("weights and steps must have equal length")
    if np.any(steps > strong_convexity / smoothness + 1e-12):
        raise ValueError(
            f"step sizes must satisfy beta_t <= {strong_convexity / smoothness:g} "
            "(strong convexity / smoothness)"
        )
    ratio_ok = weights[1:] * steps[:-1] >= steps[1:] * weights[:-1] - 1e-12
    if not np.all(ratio_ok):
        bad = int(np.nonzero(~ratio_ok)[0][0]) + 2
        raise ValueError(f"weight/step ratio condition fails at t = {bad}")


class FtrlLearner:
    """Follow-the-regularized-leader over the accumulated weighted duals."""

    name = "ftrl"

    def __init__(self, feasible, regularizer):
        self.feasible = feasible
        self.regularizer = regularizer
        self.dual_sum = np.zeros(feasible.dim)
        self.h = None

    def start(self):
        # h_1 minimizes psi_1 over the feasible set.
        self.dual_sum = np.zeros(self.feasible.dim)
        self.h = ftrl_step(self.feasible, self.regularizer.strength(1), self.dual_sum)
        return self.h

    def step(self, t, alpha_t, alpha_next, g_bar):
        self.dual_sum = self.dual_sum + alpha_t * np.asarray(g_bar, dtype=np.float64)
        self.h = ftrl_step(self.feasible, self.regularizer.strength(t + 1), self.dual_sum)
        return self.h

    def beta_at(self, t):
        return float("nan")


class AoftrlLearner:
    """Optimistic FTRL; the hint for the next step is the last processed gradient."""

    name = "aoftrl"

    def __init__(self, feasible, regularizer):
        self.feasible = feasible
        self.regularizer = regularizer
        self.dual_sum = np.zeros(feasible.dim)
        self.hint = np.zeros(feasible.dim)
        self.h = None

    def start(self):
        self.dual_sum = np.zeros(self.feasible.dim)
        self.hint = np.zeros(self.feasible.dim)
        self.h = ftrl_step(self.feasible, self.regularizer.strength(1), self.dual_sum)
        return self.h

    def step(self, t, alpha_t, alpha_next, g_bar):
        g_bar = np.asarray(g_bar, dtype=np.float64)
        self.dual_sum = self.dual_sum + alpha_t * g_bar
        self.h = aoftrl_step(
            self.feasible,
            self.regularizer.strength(t + 1),
            self.dual_sum,
            alpha_next,
            self.hint,
        )
        self.hint = g_bar
        return self.h

    def beta_at(self, t):
        return float("nan")


class MirrorDescentLearner:
    """Stochastic mirror descent; Euclidean map makes it projected SGD.

    `h_start` is one start point (d,) or one per replication (M, d).
    """

    name = "smd"

    def __init__(self, mirror_map, feasible, steps, h_start=None):
        self.mirror_map = mirror_map
        self.feasible = feasible
        self._steps = steps if callable(steps) else (lambda t: float(steps))
        if h_start is None:
            if mirror_map.name == "euclidean":
                h_start = feasible.project(np.zeros(feasible.dim))
            else:
                h_start = np.full(feasible.dim, 1.0 / feasible.dim)
        self._h_start = as_batch(h_start, dim=feasible.dim)
        self.h = None

    def start(self):
        self.h = self._h_start
        return self.h

    def beta_at(self, t):
        return float(self._steps(t))

    def step(self, t, alpha_t, alpha_next, g_bar):
        nxt = smd_step(self.mirror_map, self.feasible, self.h, self.beta_at(t), g_bar)
        if self.mirror_map.name == "negative-entropy":
            nxt = clamp_simplex(nxt)
        self.h = nxt
        return self.h
