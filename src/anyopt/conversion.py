"""Anytime weighting, the robust online-to-batch driver, and its audits.

The driver keeps two sequences: ancillary iterates h_t produced by the online
learner and main iterates h_bar_t, their weighted running average.  Gradients
are queried at the main iterates, clipped toward the dual anchor, and only
then fed to the learner.  A completed trace is immutable and carries enough
to recompute every identity and regret quantity after the fact.

One ``run`` call drives one run or a batch of M independent replications that
share the objective, threshold schedule, learner schedule and weights.  The
batch is a leading replication axis on every per-replication state (iterates,
anchor, clip, learner state): each step applies one row-wise numpy operation
per phase to all M rows.  Because the averaging identity holds for any
ancillary sequence, stepping replications together only regroups the same
per-row arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, as_batch, as_vector
from .robust import TruncationStats, truncate


@dataclass
class AnytimeState:
    """Rolling state of the weighted averaging scheme (one row per replication)."""

    h: np.ndarray
    h_bar: np.ndarray
    weight_sum: float
    t: int

    @classmethod
    def initial(cls, h_start, alpha_first):
        h_start = as_batch(h_start)
        if not alpha_first > 0:
            raise ValueError("weights must be positive")
        return cls(h=h_start, h_bar=h_start, weight_sum=float(alpha_first), t=1)


def weighting_update(state, h_next, alpha_next):
    """Advance the weighted running average by one iterate; returns h_bar.

    Incremental form of sum_i alpha_i h_i / alpha_{1:t}; agrees with the
    direct weighted average to rounding error.  Row-wise for a batch.
    """
    if not alpha_next > 0:
        raise ValueError("weights must be positive")
    new_sum = state.weight_sum + alpha_next
    state.h_bar = state.h_bar + (alpha_next / new_sum) * (h_next - state.h_bar)
    state.h = h_next
    state.weight_sum = new_sum
    state.t += 1
    return state.h_bar


TRACE_SCHEMA_VERSION = "run-trace/1"

# Fields holding one dual or primal vector per step (and per replication).
_VECTOR_FIELDS = ("ancillary", "main", "grads_raw", "grads_processed")


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one driver call: a single run or a batch of M replications.

    Arrays hold one row per step t = 1..T: the iterate pair before the t-th
    query, the raw and processed gradients of that query, the threshold, the
    truncation flag, and the learner step size (NaN when the learner has
    none).  The final query is taken at h_bar_T but never fed to the learner,
    so processed gradients exist at every step while ancillary updates stop
    at h_T.

    Layout: a single run stores the vector fields as (T, d) and thresholds
    and flags as (T,).  A batch stores them as (T, M, d) and (T, M), so
    ``horizon`` is T either way and row i of axis 1 is replication i.
    ``weights`` and ``step_sizes`` are shared by the batch and stay (T,).
    ``run`` checked at exit that the vector fields are finite and the
    thresholds positive; ``from_dict`` checks every shape.
    """

    ancillary: np.ndarray
    main: np.ndarray
    weights: np.ndarray
    grads_raw: np.ndarray
    grads_processed: np.ndarray
    thresholds: np.ndarray
    truncated: np.ndarray
    step_sizes: np.ndarray

    @property
    def horizon(self):
        return self.ancillary.shape[0]

    @property
    def dim(self):
        return self.ancillary.shape[-1]

    @property
    def replications(self):
        """M for a batched trace, None for a single run."""
        return self.ancillary.shape[1] if self.ancillary.ndim == 3 else None

    @property
    def final_main(self):
        return self.main[-1]

    @property
    def weight_sums(self):
        return np.cumsum(self.weights)

    def truncation_stats(self):
        stats = TruncationStats()
        for flag in self.truncated.ravel():
            stats.record(bool(flag))
        return stats

    def to_dict(self):
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "horizon": int(self.horizon),
            "dim": int(self.dim),
            "replications": self.replications,
            "ancillary": self.ancillary.tolist(),
            "main": self.main.tolist(),
            "weights": self.weights.tolist(),
            "grads_raw": self.grads_raw.tolist(),
            "grads_processed": self.grads_processed.tolist(),
            "thresholds": self.thresholds.tolist(),
            "truncated": self.truncated.tolist(),
            # learners without a step size record null, keeping the JSON strict
            "step_sizes": [None if np.isnan(b) else float(b) for b in self.step_sizes],
        }

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a trace, checking every array against horizon, replications and dim."""
        if payload.get("schema") != TRACE_SCHEMA_VERSION:
            raise ValueError(f"unsupported trace schema {payload.get('schema')!r}")
        horizon, dim, m = payload["horizon"], payload["dim"], payload.get("replications")
        per_step = (horizon,) if m is None else (horizon, m)
        step_sizes = [np.nan if b is None else b for b in payload["step_sizes"]]
        arrays = {}
        for name, shape, values, dtype in (
            *((f, per_step + (dim,), payload[f], np.float64) for f in _VECTOR_FIELDS),
            ("weights", (horizon,), payload["weights"], np.float64),
            ("thresholds", per_step, payload["thresholds"], np.float64),
            ("truncated", per_step, payload["truncated"], bool),
            ("step_sizes", (horizon,), step_sizes, np.float64),
        ):
            try:
                arrays[name] = np.asarray(values, dtype=dtype)
            except (TypeError, ValueError) as err:
                raise ValueError(f"trace field {name!r} is malformed: {err}") from None
            if arrays[name].shape != shape:
                raise ValueError(
                    f"trace field {name!r} has shape {arrays[name].shape}, expected {shape} "
                    f"(horizon {horizon}, replications {m}, dim {dim})"
                )
        return cls(**arrays)


def run(obj, oracle, anchor, schedule, learner, weights, horizon, norm_kind="l2"):
    """Drive the full query -> clip -> learner -> average loop for T steps.

    The learner is updated T-1 times (the T-th processed gradient is recorded
    for audits but produces no ancillary update).  Deterministic given the
    oracle seed.

    The oracle sets the batch: ``oracle.replications`` None means one run and
    a (T, d) trace; M means M replications stepped together and a (T, M, d)
    trace, one row per oracle stream.  The learner's start point and the
    anchor are then either shared, (d,), or per replication, (M, d).

    Inputs are validated once here (shapes, finiteness, positive weights, a
    feasible start), and the trace once at exit (finite iterates and
    gradients, positive thresholds); the steps in between run unchecked.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (horizon,):
        raise ValueError(f"need {horizon} weights, got shape {weights.shape}")
    if not np.all((weights > 0) & np.isfinite(weights)):
        raise ValueError("weights must be positive")

    dim = obj.dim
    lead = () if oracle.replications is None else (oracle.replications,)
    h = as_batch(learner.start(), dim=dim)
    for name, value in (("start point", h), ("anchor", anchor.g_tilde)):
        if value.shape not in ((dim,), lead + (dim,)):
            raise ValueError(f"{name} has shape {value.shape}; expected ({dim},) or {lead + (dim,)}")
    if obj.feasible_set is not None and not obj.feasible_set.contains(h, tol=1e-9):
        raise ValueError("initial point lies outside the feasible set")
    state = AnytimeState.initial(np.broadcast_to(h, lead + (dim,)), weights[0])

    ancillary = np.empty((horizon,) + lead + (dim,))
    main = np.empty_like(ancillary)
    grads_raw = np.empty_like(ancillary)
    grads_proc = np.empty_like(ancillary)
    thresholds = np.empty((horizon,) + lead)
    truncated = np.zeros((horizon,) + lead, dtype=bool)
    step_sizes = np.full(horizon, np.nan)

    for t in range(1, horizon + 1):
        i = t - 1
        ancillary[i] = state.h
        main[i] = state.h_bar

        g_raw = oracle.query(obj, state.h_bar, t)
        c_t = schedule.threshold_at(state.h_bar, anchor)
        g_bar, flags = truncate(g_raw, anchor.g_tilde, c_t, norm_kind)
        grads_raw[i] = g_raw
        grads_proc[i] = g_bar
        thresholds[i] = c_t
        truncated[i] = flags
        step_sizes[i] = learner.beta_at(t)

        if t == horizon:
            break
        weighting_update(state, learner.step(t, weights[i], weights[i + 1], g_bar), weights[i + 1])

    for name, values in zip(_VECTOR_FIELDS, (ancillary, main, grads_raw, grads_proc)):
        if not np.all(np.isfinite(values)):
            raise GeometryError(f"run produced non-finite {name}")
    if not np.all(thresholds > 0):
        raise ValueError("threshold must be positive")

    return RunTrace(
        ancillary=ancillary,
        main=main,
        weights=weights.copy(),
        grads_raw=grads_raw,
        grads_processed=grads_proc,
        thresholds=thresholds,
        truncated=truncated,
        step_sizes=step_sizes,
    )


def regret(trace, h_star):
    """Weighted linear regret sum_t alpha_t <g_bar_t, h_t - h_star>."""
    h_star = as_vector(h_star, dim=trace.dim)
    gaps = trace.ancillary - h_star
    return float(np.sum(trace.weights * np.einsum("td,td->t", trace.grads_processed, gaps)))


@dataclass(frozen=True)
class AnytimeAudit:
    """Both sides of the averaging identity plus its regret decomposition."""

    lhs: float
    rhs: float
    regret: float
    gradient_error_sum: float
    bregman_sum: float
    weight_total: float

    @property
    def identity_gap(self):
        return abs(self.lhs - self.rhs)

    @property
    def decomposition_gap(self):
        recomposed = (self.regret + self.gradient_error_sum - self.bregman_sum) / self.weight_total
        return abs(self.lhs - recomposed)


def anytime_identity_audit(trace, obj, h_star):
    """Evaluate the excess-error identity at the trace horizon.

    LHS is R(h_bar_T) - R(h_star); RHS re-derives it from per-step pairings
    and curvature gaps.  Holds for arbitrary ancillary sequences.
    """
    h_star = as_vector(h_star, dim=trace.dim)
    horizon = trace.horizon
    weights = trace.weights
    weight_total = float(weights.sum())

    lhs = obj.value(trace.final_main) - obj.value(h_star)

    paired = 0.0
    bregman_to_star = 0.0
    for t in range(horizon):
        grad_main = obj.gradient(trace.main[t])
        paired += weights[t] * float(grad_main @ (trace.ancillary[t] - h_star))
        bregman_to_star += weights[t] * obj.bregman(h_star, trace.main[t])
    chain = 0.0
    weight_sums = trace.weight_sums
    for t in range(horizon - 1):
        chain += weight_sums[t] * obj.bregman(trace.main[t], trace.main[t + 1])
    rhs = (paired - bregman_to_star - chain) / weight_total

    reg = regret(trace, h_star)
    error_sum = 0.0
    for t in range(horizon):
        err = trace.grads_processed[t] - obj.gradient(trace.main[t])
        error_sum += weights[t] * float(err @ (h_star - trace.ancillary[t]))

    return AnytimeAudit(
        lhs=lhs,
        rhs=rhs,
        regret=reg,
        gradient_error_sum=error_sum,
        bregman_sum=bregman_to_star + chain,
        weight_total=weight_total,
    )
