import math

import numpy as np
import pytest

from anyopt.conversion import run
from anyopt.geometry import EuclideanMap, L2Ball, dual_norm
from anyopt.learners import MirrorDescentLearner
from anyopt.objectives import MulticlassLogistic, Quadratic
from anyopt.oracles import NoiseSpec, SyntheticOracle
from anyopt.robust import (
    Anchor,
    HeuristicThreshold,
    SmoothTheoryThreshold,
    TruncationStats,
    build_anchor,
    certified_c0,
    empirical_anchor,
    exact_anchor,
    process,
)

ZERO2 = np.zeros(2)


class TestProcess:
    def test_boundary_kept(self):
        anchor = Anchor(ZERO2, ZERO2)
        out, truncated = process(np.array([0.6, 0.8]), anchor, 1.0)
        np.testing.assert_array_equal(out, [0.6, 0.8])
        assert not truncated

    def test_outlier_replaced_by_anchor(self):
        anchor = Anchor(ZERO2, ZERO2)
        out, truncated = process(np.array([3.0, 4.0]), anchor, 1.0)
        np.testing.assert_array_equal(out, ZERO2)
        assert truncated

    def test_anchor_itself_never_truncated(self):
        g_tilde = np.array([1.0, -2.0])
        anchor = Anchor(ZERO2, g_tilde)
        out, truncated = process(g_tilde, anchor, 1e-6)
        np.testing.assert_array_equal(out, g_tilde)
        assert not truncated

    def test_output_always_within_threshold(self):
        rng = np.random.default_rng(1)
        anchor = Anchor(ZERO2, np.array([0.5, -0.5]))
        for _ in range(300):
            c = rng.uniform(0.1, 2.0)
            out, _ = process(rng.standard_t(2.5, 2) * 3, anchor, c)
            assert dual_norm(out - anchor.g_tilde, "l2") <= c + 1e-12

    def test_infinite_threshold_is_identity(self):
        rng = np.random.default_rng(2)
        anchor = Anchor(ZERO2, ZERO2)
        for _ in range(100):
            g = rng.standard_normal(2) * 50
            out, truncated = process(g, anchor, math.inf)
            np.testing.assert_array_equal(out, g)
            assert not truncated

    def test_linf_geometry(self):
        anchor = Anchor(ZERO2, ZERO2)
        _, truncated = process(np.array([0.9, 0.9]), anchor, 1.0, norm_kind="linf")
        assert not truncated  # linf norm 0.9, though l2 would exceed 1

    def test_clipped_output_does_not_alias_the_anchor(self):
        anchor = Anchor(ZERO2, np.array([1.0, -2.0]))
        out, truncated = process(np.array([30.0, 40.0]), anchor, 1.0)
        assert truncated
        out[0] = 99.0
        np.testing.assert_array_equal(anchor.g_tilde, [1.0, -2.0])

    def test_optimistic_hint_does_not_alias_the_anchor(self):
        from anyopt.learners import AoftrlLearner, QuadraticRegularizer

        ball = L2Ball(np.zeros(2), 1.0)
        obj = Quadratic(np.eye(2), np.zeros(2), feasible_set=ball)
        learner = AoftrlLearner(ball, QuadraticRegularizer(1.0))
        anchor = exact_anchor(obj, np.array([0.5, 0.5]))
        trace = run(obj, SyntheticOracle(NoiseSpec("gaussian", 5.0), seed=3), anchor,
                    HeuristicThreshold(0.5), learner, np.ones(6), 6)
        assert trace.truncated[:-1].any()
        learner.hint[:] = 99.0
        np.testing.assert_array_equal(anchor.g_tilde, [0.5, 0.5])

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            process(ZERO2, Anchor(ZERO2, ZERO2), 0.0)


class TestThresholdSchedules:
    def test_smooth_theory_formula(self):
        sched = SmoothTheoryThreshold(smoothness=2.0, c0=1.0, eps_sigma=0.5)
        anchor = Anchor(np.array([1.5, 0.0]), ZERO2)
        assert sched.threshold_at(ZERO2, anchor) == pytest.approx(0.5 + 2.0 * 1.5 + 1.0)

    def test_smooth_theory_zero_distance(self):
        sched = SmoothTheoryThreshold(smoothness=2.0, c0=1.0, eps_sigma=0.5)
        anchor = Anchor(np.array([0.7, -0.1]), ZERO2)
        assert sched.threshold_at([0.7, -0.1], anchor) == pytest.approx(1.5)

    def test_smooth_theory_lipschitz_in_query_point(self):
        sched = SmoothTheoryThreshold(smoothness=3.0, c0=0.5)
        anchor = Anchor(np.zeros(4), np.zeros(4))
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v = rng.standard_normal((2, 4))
            gap = abs(sched.threshold_at(u, anchor) - sched.threshold_at(v, anchor))
            assert gap <= 3.0 * np.linalg.norm(u - v) + 1e-12

    def test_benchmark_heuristic_value(self):
        sched = HeuristicThreshold.for_benchmark(10_000, delta=0.05)
        assert sched.constant == pytest.approx(57.77613700268772, rel=1e-10)
        assert sched.threshold_at(ZERO2, Anchor(ZERO2, ZERO2)) == sched.constant


class TestCertifiedC0:
    def test_direct_formula(self):
        value = certified_c0(1.0, 1.0, 1.0, 100, math.exp(-1.0), eps_sigma=0.5)
        assert value == pytest.approx(10.5)

    def test_noiseless_degenerates_to_smooth_branch(self):
        assert certified_c0(2.0, 1.5, 0.0, 50, 0.1, eps_sigma=0.25) == pytest.approx(3.25)

    def test_smooth_branch_active(self):
        assert certified_c0(10.0, 1.0, 1.0, 4, math.exp(-1.0)) == pytest.approx(10.0)

    def test_horizon_precondition_names_minimum(self):
        with pytest.raises(ValueError, match="T >= 9"):
            certified_c0(1.0, 1.0, 1.0, 5, math.exp(-1.0), eps_sigma=3.0)


class TestAnchors:
    def test_exact_anchor_on_quadratic(self):
        obj = Quadratic(np.eye(2), np.zeros(2))
        anchor = exact_anchor(obj, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(anchor.g_tilde, [1.0, 0.0])
        assert anchor.eps_sigma == 0.0

    def test_empirical_anchor_matches_full_gradient(self):
        rng = np.random.default_rng(4)
        obj = MulticlassLogistic(rng.random((9, 3)), rng.integers(0, 2, 9), 2)
        h1 = rng.uniform(-0.05, 0.05, obj.dim)
        anchor = empirical_anchor(obj, h1)
        np.testing.assert_allclose(anchor.g_tilde, obj.gradient(h1), atol=1e-15)

    def test_empirical_anchor_matches_mean_of_per_example_gradients(self):
        rng = np.random.default_rng(5)
        obj = MulticlassLogistic(rng.random((3, 4)), np.array([0, 1, 2]), 3)
        h1 = rng.uniform(-0.05, 0.05, obj.dim)
        per_example = [obj.gradient(h1, indices=[i]) for i in range(3)]
        anchor = build_anchor("experiment-default", obj, h1)
        np.testing.assert_allclose(anchor.g_tilde, np.mean(per_example, axis=0), atol=1e-12)

    def test_unknown_strategy(self):
        obj = Quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            build_anchor("oracle", obj, ZERO2)

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            Anchor(ZERO2, ZERO2, eps_sigma=-1.0)
        with pytest.raises(ValueError):
            Anchor(ZERO2, ZERO2, delta=1.5)


class TestTruncationStats:
    def test_counts(self):
        stats = TruncationStats()
        for flag in (True, False, True, False, False):
            stats.record(flag)
        assert stats.total_queries == 5
        assert stats.truncated_count == 2
        assert stats.rate == pytest.approx(0.4)

    def test_empty(self):
        assert TruncationStats().rate == 0.0


class TestRunEnvelopes:
    """Deviation guarantees measured on real driver runs with an exact anchor."""

    def _trace(self, seed, noise_scale=0.3):
        ball = L2Ball(np.zeros(3), 1.0)
        obj = Quadratic(np.eye(3), np.zeros(3), feasible_set=ball)
        oracle = SyntheticOracle(NoiseSpec("student-t", noise_scale, 2.5), seed=seed)
        h1 = np.array([0.5, -0.2, 0.1])
        anchor = exact_anchor(obj, h1)
        sched = SmoothTheoryThreshold(smoothness=obj.smoothness, c0=1.0)
        learner = MirrorDescentLearner(EuclideanMap(), ball, steps=0.5, h_start=h1)
        trace = run(obj, oracle, anchor, sched, learner, np.ones(120), 120)
        return obj, anchor, trace

    def test_post_truncation_deviation_bound(self):
        obj, anchor, trace = self._trace(seed=11)
        assert trace.truncated.sum() > 0  # the clipping actually fires here
        for t in range(trace.horizon):
            gap = dual_norm(trace.grads_processed[t] - anchor.g_tilde, "l2")
            assert gap <= trace.thresholds[t] + 1e-12

    def test_gradient_error_envelope_exact_anchor(self):
        obj, anchor, trace = self._trace(seed=12)
        lam = obj.smoothness
        for t in range(trace.horizon):
            err = dual_norm(trace.grads_processed[t] - obj.gradient(trace.main[t]), "l2")
            dist = np.linalg.norm(anchor.h_tilde - trace.main[t])
            assert err <= trace.thresholds[t] + lam * dist + 1e-10
