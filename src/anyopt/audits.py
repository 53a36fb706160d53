"""Seeded Monte Carlo audit campaigns for the library's quantitative claims.

Each campaign runs M independent replications and reports how often a claimed
envelope or identity was violated, together with a binomial confidence
interval.  Identity/inequality audits expect zero violations; coverage audits
compare the violation frequency against their stated probability budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BernsteinParams,
    BoundInputs,
    bernstein_deviation,
    q_delta,
    r_delta,
    sgd_excess_bound,
)
from .conversion import anytime_identity_audit, run
from .geometry import EuclideanMap, L2Ball, NegativeEntropyMap, Simplex, dual_norm
from .learners import FtrlLearner, MirrorDescentLearner, QuadraticRegularizer
from .objectives import Quadratic
from .oracles import NoiseSpec, SyntheticOracle, certified_sigma, child_rng
from .robust import HeuristicThreshold, SmoothTheoryThreshold, certified_c0, exact_anchor

IDENTITY_RTOL = 1e-9
INEQUALITY_SLACK = -1e-9


@dataclass(frozen=True)
class AuditReport:
    kind: str
    replications: int
    violations: int
    frequency: float
    standard_error: float
    limit: float
    passed: bool
    details: dict

    def lines(self):
        yield f"audit kind:        {self.kind}"
        yield f"replications:      {self.replications}"
        yield f"violations:        {self.violations}"
        yield (
            f"frequency:         {self.frequency:.6f} "
            f"(95% CI [{self.details['ci_low']:.6f}, {self.details['ci_high']:.6f}])"
        )
        yield f"allowed frequency: {self.limit:.6f}"
        for key, value in self.details.items():
            if key in ("ci_low", "ci_high"):
                continue
            yield f"{key + ':':<19}{value}"
        yield f"result:            {'PASS' if self.passed else 'FAIL'}"


def _report(kind, m, violations, limit, details):
    violations = int(violations)  # campaigns may count in numpy integers
    freq = violations / m
    se = math.sqrt(max(freq * (1.0 - freq), 1.0 / m) / m)
    details = dict(details)
    details.setdefault("ci_low", max(freq - 1.96 * se, 0.0))
    details.setdefault("ci_high", min(freq + 1.96 * se, 1.0))
    return AuditReport(
        kind=kind,
        replications=m,
        violations=violations,
        frequency=freq,
        standard_error=se,
        limit=limit,
        passed=freq <= limit,
        details=details,
    )


def _ball_point(rng, dim, radius):
    direction = rng.standard_normal(dim)
    direction /= max(np.linalg.norm(direction), 1e-12)
    return direction * radius * rng.random() ** (1.0 / dim)


# ---------------------------------------------------------------------------
# Robust anytime SGD on a quadratic: excess-risk coverage and the weighted
# gradient-error envelope.
# ---------------------------------------------------------------------------

SGD_AUDIT_DEFAULTS = dict(horizon=500, dim=5, noise_scale=0.02, noise_dof=2.5, delta=0.05)

# Replications stepped together in one batched run; bounds the trace memory
# (about 80 kB per replication at T = 500, d = 5) at any campaign size.
REPLICATION_CHUNK = 100


def _robust_sgd_runs(replications, seed, horizon, dim, noise_scale, noise_dof, delta):
    """Final excess risk and weighted sup-pairing error sum of every replication.

    Replications draw their oracle seed and start point from the campaign
    stream in turn, then run REPLICATION_CHUNK at a time as one batch.
    """
    ball = L2Ball(np.zeros(dim), 1.0)
    obj = Quadratic(np.eye(dim), np.zeros(dim), feasible_set=ball)
    noise = NoiseSpec("student-t", noise_scale, noise_dof)
    sigma = certified_sigma(noise, dim)
    c0 = certified_c0(obj.smoothness, ball.diameter, sigma, horizon, delta)
    schedule = SmoothTheoryThreshold(smoothness=obj.smoothness, c0=c0)
    beta = 1.0 / obj.smoothness
    rng = child_rng(seed, 0xC0)

    excess, error_sums = [], []
    for done in range(0, replications, REPLICATION_CHUNK):
        seeds, h1 = [], []
        for _ in range(min(REPLICATION_CHUNK, replications - done)):
            seeds.append(rng.integers(2**63))
            h1.append(_ball_point(rng, dim, ball.radius))
        h1 = np.array(h1)
        anchor = exact_anchor(obj, h1, delta=delta)
        learner = MirrorDescentLearner(EuclideanMap(), ball, steps=beta, h_start=h1)
        trace = run(obj, SyntheticOracle(noise, seed=seeds), anchor, schedule, learner,
                    np.ones(horizon), horizon)

        excess += [obj.value(h) for h in trace.final_main]  # R(h_star) = 0 at the origin
        errors = trace.grads_processed - obj.gradient(trace.main)
        error_sums.append(trace.weights @ ball.support_gap(errors))

    inputs = BoundInputs.constant(
        ball.diameter, sigma, obj.smoothness, delta, horizon, beta=beta
    )
    return np.array(excess), np.concatenate(error_sums), inputs


def _coverage_limit(delta, m):
    return 2.0 * delta + 3.0 * math.sqrt(2.0 * delta * (1.0 - 2.0 * delta) / m)


def sgd_coverage_campaign(replications, seed, **overrides):
    """Coverage of the closed-form SGD excess-risk envelope at level 1 - 2*delta."""
    params = {**SGD_AUDIT_DEFAULTS, **overrides}
    m = int(replications)
    excess, _, inputs = _robust_sgd_runs(m, seed, **params)
    bound = sgd_excess_bound(inputs)
    return _report(
        "corollary-sgd",
        m,
        np.sum(excess > bound),
        _coverage_limit(params["delta"], m),
        {"bound": bound, "worst_excess": float(excess.max()), **params},
    )


def gradient_error_campaign(replications, seed, **overrides):
    """Coverage of max{q_delta, r_delta} over the weighted sup-pairing error sum."""
    params = {**SGD_AUDIT_DEFAULTS, **overrides}
    m = int(replications)
    # same stream layout as the excess-risk audit
    _, error_sums, inputs = _robust_sgd_runs(m, seed, **params)
    envelope = max(q_delta(inputs), r_delta(inputs))
    return _report(
        "lemma2",
        m,
        np.sum(error_sums > envelope),
        _coverage_limit(params["delta"], m),
        {"envelope": envelope, "worst_error_sum": float(error_sums.max()), **params},
    )


# ---------------------------------------------------------------------------
# Martingale deviation radius on bounded i.i.d. differences.
# ---------------------------------------------------------------------------


def bernstein_campaign(replications, seed, horizon=100, gamma1=3.0, bound=1.0):
    """Exceedance of the deviation radius by the maximal partial sum."""
    m = int(replications)
    rng = child_rng(seed, 0xBE)
    # Uniform(-bound, bound) differences: conditional variance is constant,
    # so gamma2 equals the variance sum and that side of the event is sure.
    gamma2 = horizon * bound**2 / 3.0
    radius = bernstein_deviation(BernsteinParams(gamma1, gamma2, bound))
    violations = 0
    chunk = 20_000
    done = 0
    while done < m:
        take = min(chunk, m - done)
        draws = rng.uniform(-bound, bound, size=(take, horizon))
        peaks = np.cumsum(draws, axis=1).max(axis=1)
        violations += int(np.sum(peaks > radius))
        done += take
    p_claim = math.exp(-gamma1)
    limit = p_claim + 3.0 * math.sqrt(p_claim * (1.0 - p_claim) / m)
    return _report(
        "bernstein",
        m,
        violations,
        limit,
        {"radius": radius, "claimed_probability": p_claim, "horizon": horizon,
         "gamma1": gamma1, "gamma2": gamma2},
    )


# ---------------------------------------------------------------------------
# Pathwise identity and regret-inequality audits (zero violations expected).
# ---------------------------------------------------------------------------


def identity_campaign(replications, seed, horizon=50, dim=5, noise_scale=0.1):
    """Averaging identity under random positive weights; relative gap <= 1e-9."""
    rng = child_rng(seed, 0x1D)
    ball = L2Ball(np.zeros(dim), 1.0)
    violations = 0
    worst = 0.0
    for _ in range(int(replications)):
        spectrum = rng.uniform(0.5, 2.0, size=dim)
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        obj = Quadratic(basis @ np.diag(spectrum) @ basis.T, rng.standard_normal(dim) * 0.3,
                        feasible_set=ball)
        oracle = SyntheticOracle(NoiseSpec("student-t", noise_scale, 2.5),
                                 seed=rng.integers(2**63))
        h1 = _ball_point(rng, dim, ball.radius)
        anchor = exact_anchor(obj, h1)
        schedule = HeuristicThreshold(50.0)
        learner = MirrorDescentLearner(EuclideanMap(), ball, steps=0.3, h_start=h1)
        weights = 2.0 * (1.0 - rng.random(horizon))  # in (0, 2]

        trace = run(obj, oracle, anchor, schedule, learner, weights, horizon)
        h_star = _ball_point(rng, dim, ball.radius)
        audit = anytime_identity_audit(trace, obj, h_star)
        scale = 1.0 + abs(audit.lhs)
        gap = max(audit.identity_gap, audit.decomposition_gap) / scale
        worst = max(worst, gap)
        violations += gap > IDENTITY_RTOL
    return _report(
        "anytime-identity",
        int(replications),
        violations,
        0.0,
        {"worst_relative_gap": worst, "horizon": horizon, "dim": dim},
    )


def _interior_simplex_point(rng, dim):
    w = rng.random(dim) + 0.5
    return w / w.sum()


def smd_regret_campaign(replications, seed, horizon=101, dim=5, noise_scale=0.05):
    """Per-step mirror-descent inequality, Euclidean and entropy geometries."""
    rng = child_rng(seed, 0x5D)
    violations = 0
    min_slack = math.inf
    steps_checked = 0
    for rep in range(int(replications)):
        for geometry in ("euclidean", "entropy"):
            if geometry == "euclidean":
                mirror = EuclideanMap()
                feasible = L2Ball(np.zeros(dim), 1.0)
                h_star = _ball_point(rng, dim, 0.5)
                h1 = _ball_point(rng, dim, 1.0)
                beta = 0.4
            else:
                mirror = NegativeEntropyMap()
                feasible = Simplex(dim)
                h_star = _interior_simplex_point(rng, dim)
                h1 = _interior_simplex_point(rng, dim)
                beta = 0.2
            obj = Quadratic(np.eye(dim), h_star, feasible_set=feasible)
            oracle = SyntheticOracle(NoiseSpec("student-t", noise_scale, 2.5),
                                     seed=rng.integers(2**63))
            anchor = exact_anchor(obj, h1)
            schedule = HeuristicThreshold(5.0)
            learner = MirrorDescentLearner(mirror, feasible, steps=beta, h_start=h1)
            trace = run(obj, oracle, anchor, schedule, learner, np.ones(horizon), horizon,
                        norm_kind=mirror.dual_norm_kind)

            for t in range(horizon - 1):
                h_t, h_next = trace.ancillary[t], trace.ancillary[t + 1]
                g_bar = trace.grads_processed[t]
                grad_main = obj.gradient(trace.main[t])
                lhs = float(g_bar @ (h_t - h_star))
                rhs = (
                    (mirror.bregman(h_star, h_t) - mirror.bregman(h_star, h_next)) / beta
                    + beta / (2.0 * mirror.strong_convexity)
                    * dual_norm(grad_main, mirror.dual_norm_kind) ** 2
                    + float((grad_main - g_bar) @ (h_next - h_t))
                )
                slack = rhs - lhs
                min_slack = min(min_slack, slack)
                steps_checked += 1
                violations += slack < INEQUALITY_SLACK
    return _report(
        "regret-smd",
        steps_checked,
        violations,
        0.0,
        {"min_slack": min_slack, "runs": int(replications), "horizon": horizon},
    )


def ftrl_regret_campaign(replications, seed, horizon=101, dim=5, noise_scale=0.05,
                         delta=0.05):
    """Cumulative FTRL regret inequality at every horizon of every run.

    FTRL plays h_1 = argmin_H psi_1 and h_{t+1} = argmin_H F_{t+1}, where
    F_t = psi_t + sum_{i<t} <g_i, .> and psi_t = (s_t/2)||.||^2.  With
    grad_t = grad R(h_bar_t) and g_t the processed gradient fed to the
    learner, the bound checked at every horizon T < horizon is

        sum_{t<=T} <g_t, h_t - u>  <=  psi_{T+1}(u) - psi_1(h_1)
            + sum_{t<=T} [ (s_t - s_{t+1})/2 ||h_{t+1}||^2
                           + ||grad_t||^2 / (2 s_t) + <grad_t - g_t, h_{t+1} - h_t> ].

    Derivation: the FTRL equality (Orabona, "A Modern Introduction to Online
    Learning", Lemma 7.1) writes the regret as psi_{T+1}(u) - psi_1(h_1)
    + sum_{t<=T} [F_t(h_t) - F_{t+1}(h_{t+1}) + <g_t, h_t>]
    + F_{T+1}(h_{T+1}) - F_{T+1}(u); the last pair is <= 0 since h_{T+1}
    minimizes F_{T+1}.  With G_t = F_t + <g_t, .>, each summand is
    G_t(h_t) - G_t(h_{t+1}) + psi_t(h_{t+1}) - psi_{t+1}(h_{t+1}).  F_t is
    s_t-strongly convex with minimizer h_t over H, so
    G_t(h_t) - G_t(h_{t+1}) <= <g_t, h_t - h_{t+1}> - (s_t/2)||h_{t+1} - h_t||^2;
    splitting g_t = grad_t + (g_t - grad_t) and bounding
    <grad_t, h_t - h_{t+1}> - (s_t/2)||h_{t+1} - h_t||^2 by ||grad_t||^2/(2 s_t)
    gives the bracket.  The comparator term is psi_{T+1}(u), not psi_T(u):
    h_{T+1} is built with s_{T+1}.
    """
    rng = child_rng(seed, 0xF7)
    violations = 0
    min_slack = math.inf
    horizons_checked = 0
    for _ in range(int(replications)):
        ball = L2Ball(np.zeros(dim), 1.0)
        h_star = _ball_point(rng, dim, 0.3)
        obj = Quadratic(np.eye(dim), h_star, feasible_set=ball)
        noise = NoiseSpec("student-t", noise_scale, 2.5)
        sigma = certified_sigma(noise, dim)
        oracle = SyntheticOracle(noise, seed=rng.integers(2**63))
        regs = QuadraticRegularizer.sqrt_schedule(1.0)
        learner = FtrlLearner(ball, regs)
        h1 = learner.start()
        anchor = exact_anchor(obj, h1, delta=delta)
        c0 = certified_c0(obj.smoothness, ball.diameter, sigma, horizon, delta)
        schedule = SmoothTheoryThreshold(smoothness=obj.smoothness, c0=c0)
        trace = run(obj, oracle, anchor, schedule, learner, np.ones(horizon), horizon)

        strengths = np.array([regs.strength(t) for t in range(1, horizon + 1)])
        u_sq = float(h_star @ h_star)
        psi_h1 = 0.5 * strengths[0] * float(h1 @ h1)

        lhs = 0.0
        bracket_sum = 0.0
        for t in range(horizon - 1):  # horizon T = t + 1; s_T = strengths[t]
            h_t, h_next = trace.ancillary[t], trace.ancillary[t + 1]
            g_bar = trace.grads_processed[t]
            grad_main = obj.gradient(trace.main[t])
            lhs += float(g_bar @ (h_t - h_star))
            bracket_sum += (
                0.5 * (strengths[t] - strengths[t + 1]) * float(h_next @ h_next)
                + float(grad_main @ grad_main) / (2.0 * strengths[t])
                + float((grad_main - g_bar) @ (h_next - h_t))
            )
            rhs = 0.5 * strengths[t + 1] * u_sq - psi_h1 + bracket_sum
            slack = rhs - lhs
            min_slack = min(min_slack, slack)
            horizons_checked += 1
            violations += slack < INEQUALITY_SLACK
    return _report(
        "regret-ftrl",
        horizons_checked,
        violations,
        0.0,
        {"min_slack": min_slack, "runs": int(replications), "horizon": horizon},
    )


AUDIT_KINDS = {
    "corollary-sgd": sgd_coverage_campaign,
    "lemma2": gradient_error_campaign,
    "bernstein": bernstein_campaign,
    "anytime-identity": identity_campaign,
    "regret-smd": smd_regret_campaign,
    "regret-ftrl": ftrl_regret_campaign,
}


def run_audit_campaign(kind, replications, seed, **params):
    try:
        campaign = AUDIT_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown audit kind {kind!r}; choose from {sorted(AUDIT_KINDS)}")
    return campaign(replications, seed, **params)
