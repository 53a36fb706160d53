"""Convex smooth objectives with exact gradients and reference minimizers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, as_vector


class ConvergenceError(RuntimeError):
    """Reference solver failed to reach the requested residual."""

    def __init__(self, message, best_residual):
        super().__init__(message)
        self.best_residual = best_residual


class Quadratic:
    """R(h) = <h, A h>/2 - <b, h> with A symmetric positive semi-definite.

    Smoothness (l2) is the largest eigenvalue of A.  For the entropy/simplex
    geometry the l1->linf smoothness constant is max_ij |A_ij|.
    """

    def __init__(self, matrix, offset, feasible_set=None):
        a = np.asarray(matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GeometryError("matrix must be square")
        if not np.allclose(a, a.T, atol=1e-12):
            raise GeometryError("matrix must be symmetric")
        self.matrix = a
        self.offset = as_vector(offset, dim=a.shape[0])
        self.feasible_set = feasible_set
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] < -1e-10:
            raise GeometryError("matrix must be positive semi-definite")
        self.smoothness = float(max(eigs[-1], 0.0))

    @property
    def dim(self):
        return self.offset.size

    def value(self, h):
        h = as_vector(h, dim=self.dim)
        return float(0.5 * (h @ self.matrix @ h) - self.offset @ h)

    def gradient(self, h):
        """A h - b for one point (d,), or per row of a batch (..., d); unvalidated."""
        # one matrix-vector product per row, so a row of a batch gets the same
        # bits as the same point alone
        h = np.asarray(h, dtype=np.float64)
        return (self.matrix @ h[..., None])[..., 0] - self.offset

    def bregman(self, u, v):
        """B_R(u; v) = R(u) - R(v) - <grad R(v), u - v>; exact curvature gap."""
        u = as_vector(u, dim=self.dim)
        v = as_vector(v, dim=self.dim)
        return self.value(u) - self.value(v) - float(self.gradient(v) @ (u - v))

    def linf_smoothness(self):
        """Smoothness w.r.t. the l1 primal norm (dual norm linf)."""
        return float(np.abs(self.matrix).max())


class MulticlassLogistic:
    """Mean softmax cross-entropy of a linear model over a fixed dataset.

    Weights live in R^{k * d_in}, laid out row-major as a (k, d_in) matrix.
    Values use the log-sum-exp stabilization; gradients are exact.
    """

    def __init__(self, features, labels, class_count, feasible_set=None):
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise GeometryError("features must be (n, d_in) with matching labels")
        if x.shape[0] == 0:
            raise GeometryError("empty dataset")
        if not np.all(np.isfinite(x)):
            raise GeometryError("features contain non-finite values")
        k = int(class_count)
        if k < 2 or y.min() < 0 or y.max() >= k:
            raise GeometryError("labels must lie in [0, class_count)")
        self.features = x
        self.labels = y
        self.class_count = k
        self.feasible_set = feasible_set
        # 1/4 max ||x||^2: safe bound used only to size step rules.
        self.smoothness = float(0.25 * np.max(np.einsum("ij,ij->i", x, x)))

    @property
    def n_examples(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def dim(self):
        return self.class_count * self.n_features

    def _scores(self, h, rows):
        w = as_vector(h, dim=self.dim).reshape(self.class_count, self.n_features)
        return rows @ w.T

    def value(self, h, indices=None):
        rows = self.features if indices is None else self.features[indices]
        labels = self.labels if indices is None else self.labels[indices]
        scores = self._scores(h, rows)
        peak = scores.max(axis=1, keepdims=True)
        lse = peak[:, 0] + np.log(np.exp(scores - peak).sum(axis=1))
        picked = scores[np.arange(rows.shape[0]), labels]
        return float(np.mean(lse - picked))

    def gradient(self, h, indices=None):
        rows = self.features if indices is None else self.features[indices]
        labels = self.labels if indices is None else self.labels[indices]
        scores = self._scores(h, rows)
        scores -= scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(rows.shape[0]), labels] -= 1.0
        grad_w = probs.T @ rows / rows.shape[0]
        return grad_w.reshape(-1)

    def bregman(self, u, v):
        u = as_vector(u, dim=self.dim)
        v = as_vector(v, dim=self.dim)
        return self.value(u) - self.value(v) - float(self.gradient(v) @ (u - v))


@dataclass(frozen=True)
class ReferencePoint:
    h_star: np.ndarray
    value: float
    stationarity_residual: float


def _residual(obj, feasible_set, h, grad):
    # Norm of the projected-gradient mapping; equals ||grad|| at interior points.
    lam = max(obj.smoothness, 1e-12)
    if feasible_set is None:
        return float(np.linalg.norm(grad))
    moved = feasible_set.project(h - grad / lam)
    return float(lam * np.linalg.norm(h - moved))


def solve_reference(obj, tol=1e-8, max_iters=200_000):
    """Deterministic accelerated projected descent to the given residual.

    Raises ConvergenceError (carrying the best residual seen) if the cap is
    reached first.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    feasible = obj.feasible_set
    lam = max(obj.smoothness, 1e-12)
    step = 1.0 / lam

    if feasible is None:
        h = np.zeros(obj.dim)
    else:
        h = feasible.project(np.zeros(obj.dim))
    momentum = h.copy()
    t_acc = 1.0
    best = np.inf
    for _ in range(max_iters):
        grad = obj.gradient(momentum)
        nxt = momentum - step * grad
        if feasible is not None:
            nxt = feasible.project(nxt)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        momentum = nxt + ((t_acc - 1.0) / t_next) * (nxt - h)
        if feasible is not None:
            momentum = feasible.project(momentum)
        h, t_acc = nxt, t_next
        res = _residual(obj, feasible, h, obj.gradient(h))
        best = min(best, res)
        if res <= tol:
            return ReferencePoint(h_star=h, value=obj.value(h), stationarity_residual=res)
    raise ConvergenceError(
        f"no point with residual <= {tol:g} within {max_iters} iterations "
        f"(best {best:.3e})",
        best_residual=best,
    )


def risk_value(obj, h):
    return obj.value(h)


def risk_gradient(obj, h):
    return obj.gradient(h)
