"""Finite-dimensional primal/dual vector primitives, feasible sets, and mirror maps.

Vectors and dual vectors (gradients) are plain float64 numpy arrays of equal
dimension.  Two geometries are shipped: the self-dual Euclidean setup (l2/l2)
and the entropy setup on the probability simplex (l1 primal, linf dual).

The operations the driver applies at every step (projections, mirror-map
gradients, ``norm_rows``) act on the last axis, so they take one vector (d,)
or a batch of row vectors (M, d) alike, and they do not re-validate their
input: ``as_vector`` / ``as_batch`` check input once where it enters.
"""

from __future__ import annotations

import numpy as np

# Floor applied to simplex iterates before they are fed back into the entropy
# map; keeps log() finite while staying far below every test tolerance.
SIMPLEX_FLOOR = 1e-12

_PRIMAL_KINDS = ("l2", "l1")
_DUAL_KINDS = ("l2", "linf")


class GeometryError(ValueError):
    """Dimension mismatch, non-finite input, or domain violation."""


def as_vector(x, dim=None):
    """Validate and return a finite 1-d float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise GeometryError(f"expected a 1-d vector, got shape {v.shape}")
    return as_batch(v, dim)


def as_batch(x, dim=None):
    """Validate and return a finite float64 vector (d,) or batch of row vectors (M, d)."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim not in (1, 2) or v.size < 1:
        raise GeometryError(f"expected a vector (d,) or a batch (M, d), got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise GeometryError("vector has non-finite entries")
    if dim is not None and v.shape[-1] != dim:
        raise GeometryError(f"dimension mismatch: expected {dim}, got {v.shape[-1]}")
    return v


def norm_rows(x, kind="l2"):
    """Norm along the last axis: a number for a vector, one per row for a batch."""
    if kind == "l2":
        return np.sqrt(np.add.reduce(x * x, axis=-1))
    if kind == "l1":
        return np.abs(x).sum(axis=-1)
    if kind == "linf":
        return np.abs(x).max(axis=-1)
    raise GeometryError(f"unknown norm kind {kind!r}")


def pairing(g, h):
    """Dual pairing <g, h> = sum_i g_i h_i (dimension-checked)."""
    g = as_vector(g)
    h = as_vector(h, dim=g.size)
    return float(g @ h)


def primal_norm(h, kind="l2"):
    if kind not in _PRIMAL_KINDS:
        raise GeometryError(f"unknown primal norm kind {kind!r}; use one of {_PRIMAL_KINDS}")
    return float(norm_rows(as_vector(h), kind))


def dual_norm(g, kind="l2"):
    """Norm on the dual side: 'l2' is self-dual, 'linf' is the dual of l1."""
    if kind not in _DUAL_KINDS:
        raise GeometryError(f"unknown dual norm kind {kind!r}; use one of {_DUAL_KINDS}")
    return float(norm_rows(as_vector(g), kind))


def clamp_simplex(h, floor=SIMPLEX_FLOOR):
    """Push simplex coordinates up to `floor` and renormalize each row to unit sum."""
    h = np.maximum(h, floor)
    return h / h.sum(axis=-1, keepdims=True)


class EuclideanMap:
    """Phi(u) = ||u||^2 / 2; 1-strongly convex w.r.t. l2."""

    strong_convexity = 1.0
    primal_norm_kind = "l2"
    dual_norm_kind = "l2"
    name = "euclidean"

    def value(self, u):
        u = as_vector(u)
        return float(0.5 * (u @ u))

    def grad(self, u):
        return u

    def grad_inverse(self, y):
        return y

    def bregman(self, u, v):
        u = as_vector(u)
        v = as_vector(v, dim=u.size)
        diff = u - v
        return float(0.5 * (diff @ diff))


class NegativeEntropyMap:
    """Phi(u) = sum_i u_i log u_i on the positive orthant.

    1-strongly convex w.r.t. l1 when restricted to the simplex; the induced
    divergence is the generalized KL divergence.
    """

    strong_convexity = 1.0
    primal_norm_kind = "l1"
    dual_norm_kind = "linf"
    name = "negative-entropy"

    def value(self, u):
        u = as_vector(u)
        if np.any(u < 0):
            raise GeometryError("entropy map requires nonnegative coordinates")
        return float(np.sum(np.where(u > 0, u * np.log(np.where(u > 0, u, 1.0)), 0.0)))

    def grad(self, u):
        u = np.asarray(u, dtype=np.float64)
        if np.any(u <= 0):
            raise GeometryError("entropy gradient requires strictly positive coordinates")
        return 1.0 + np.log(u)

    def grad_inverse(self, y):
        return np.exp(np.asarray(y, dtype=np.float64) - 1.0)

    def bregman(self, u, v):
        u = as_vector(u)
        v = as_vector(v, dim=u.size)
        if np.any(u < 0):
            raise GeometryError("first argument outside the entropy domain")
        if np.any(v <= 0):
            raise GeometryError("second argument on the entropy-domain boundary")
        terms = np.where(u > 0, u * (np.log(np.where(u > 0, u, 1.0)) - np.log(v)), 0.0)
        return float(terms.sum() - u.sum() + v.sum())


def bregman(mirror_map, u, v):
    """B_Phi(u; v) = Phi(u) - Phi(v) - <grad Phi(v), u - v> >= 0."""
    return mirror_map.bregman(u, v)


def _project_simplex_l2(v):
    # Euclidean projection of each row onto the unit simplex: subtract the
    # threshold max_j (u_1 + ... + u_j - 1) / j over the sorted row u (descending).
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    theta = np.max((np.cumsum(u, axis=-1) - 1.0) / np.arange(1, v.shape[-1] + 1), axis=-1)
    return np.maximum(v - theta[..., None], 0.0)


def _last_axis(g, dim):
    g = np.asarray(g, dtype=np.float64)
    if g.shape[-1:] != (dim,):
        raise GeometryError(f"dimension mismatch: expected {dim}, got shape {g.shape}")
    return g


class L2Ball:
    """Euclidean ball {h : ||h - center|| <= radius}; l2 diameter 2*radius."""

    def __init__(self, center, radius):
        self.center = as_vector(center)
        if not radius > 0:
            raise GeometryError("radius must be positive")
        self.radius = float(radius)

    @property
    def dim(self):
        return self.center.size

    @property
    def diameter(self):
        return 2.0 * self.radius

    def contains(self, h, tol=1e-12):
        """True when the point, or every row of a batch, lies in the ball."""
        h = as_batch(h, dim=self.dim)
        return bool(np.all(norm_rows(h - self.center) <= self.radius + tol))

    def project(self, h):
        """Nearest point of the ball to h, row by row for a batch.

        Rows inside the ball come back unchanged: their shrink factor is 1
        and h + off * 0 is exactly h.
        """
        h = np.asarray(h, dtype=np.float64)
        off = h - self.center
        shrink = self.radius / np.maximum(norm_rows(off), self.radius)
        return h + off * (shrink - 1.0)[..., None]

    def bregman_project(self, h, mirror_map):
        if mirror_map.name != "euclidean":
            raise GeometryError("L2Ball only supports the Euclidean mirror map")
        return self.project(h)

    def support_gap(self, g):
        """sup_{h, h' in set} <g, h - h'> = diameter * ||g||_2, per row of g."""
        return self.diameter * norm_rows(_last_axis(g, self.dim))

    def __repr__(self):
        return f"L2Ball(dim={self.dim}, radius={self.radius})"


class Simplex:
    """Unit probability simplex in R^d; l2 diameter sqrt(2)."""

    def __init__(self, dim):
        if dim < 2:
            raise GeometryError("simplex needs dimension >= 2")
        self._dim = int(dim)

    @property
    def dim(self):
        return self._dim

    @property
    def diameter(self):
        return float(np.sqrt(2.0))

    def contains(self, h, tol=1e-12):
        """True when the point, or every row of a batch, lies in the simplex."""
        h = as_batch(h, dim=self.dim)
        return bool(np.all(h >= -tol) and np.all(np.abs(h.sum(axis=-1) - 1.0) <= tol))

    def project(self, h):
        """Euclidean projection, row by row; points already in the simplex are kept."""
        h = np.asarray(h, dtype=np.float64)
        inside = np.all(h >= 0.0, axis=-1) & (h.sum(axis=-1) == 1.0)
        if inside.all():
            return h
        return np.where(inside[..., None], h, _project_simplex_l2(h))

    def bregman_project(self, h, mirror_map):
        if mirror_map.name == "euclidean":
            return self.project(h)
        h = np.asarray(h, dtype=np.float64)
        if np.any(h <= 0):
            raise GeometryError("entropy projection requires positive input")
        return h / h.sum(axis=-1, keepdims=True)

    def support_gap(self, g):
        """sup over pairs of simplex points: max_i g_i - min_i g_i, per row of g."""
        g = _last_axis(g, self.dim)
        return g.max(axis=-1) - g.min(axis=-1)

    def __repr__(self):
        return f"Simplex(dim={self.dim})"


def project(feasible_set, h):
    """Euclidean projection onto the set (module-level convenience)."""
    return feasible_set.project(h)
