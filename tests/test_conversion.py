import numpy as np
import pytest

from anyopt.conversion import (
    AnytimeState,
    RunTrace,
    anytime_identity_audit,
    regret,
    run,
    weighting_update,
)
from anyopt.geometry import EuclideanMap, GeometryError, L2Ball
from anyopt.learners import MirrorDescentLearner
from anyopt.objectives import Quadratic
from anyopt.oracles import NoiseSpec, SyntheticOracle
from anyopt.robust import Anchor, HeuristicThreshold, exact_anchor


def make_setup(dim=3, noise=0.2, seed=0, radius=1.0, beta=0.4):
    ball = L2Ball(np.zeros(dim), radius)
    obj = Quadratic(np.eye(dim), np.zeros(dim), feasible_set=ball)
    oracle = SyntheticOracle(NoiseSpec("student-t", noise, 2.5), seed=seed)
    h1 = np.full(dim, 0.3)
    anchor = exact_anchor(obj, h1)
    sched = HeuristicThreshold(25.0)
    learner = MirrorDescentLearner(EuclideanMap(), ball, steps=beta, h_start=h1)
    return obj, oracle, anchor, sched, learner


class TestWeightingUpdate:
    def test_uniform_mean(self):
        state = AnytimeState.initial(np.array([0.0]), 1.0)
        weighting_update(state, np.array([3.0]), 1.0)
        out = weighting_update(state, np.array([6.0]), 1.0)
        np.testing.assert_allclose(out, [3.0])

    def test_weighted_average(self):
        state = AnytimeState.initial(np.array([0.0]), 1.0)
        out = weighting_update(state, np.array([3.0]), 2.0)
        np.testing.assert_allclose(out, [2.0])

    def test_dominant_weight_limit(self):
        state = AnytimeState.initial(np.array([0.0, 0.0]), 1.0)
        target = np.array([1.0, -2.0])
        out = weighting_update(state, target, 1e12)
        np.testing.assert_allclose(out, target, atol=1e-10)

    def test_nonpositive_weight_rejected(self):
        state = AnytimeState.initial(np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            weighting_update(state, np.array([1.0]), 0.0)

    def test_incremental_identity(self):
        # alpha_{1:t} h_bar_t == alpha_t h_t + alpha_{1:t-1} h_bar_{t-1}
        rng = np.random.default_rng(1)
        weights = rng.uniform(0.1, 2.0, 60)
        state = AnytimeState.initial(rng.standard_normal(4), weights[0])
        for t in range(1, 60):
            prev_bar = state.h_bar.copy()
            prev_sum = state.weight_sum
            h_next = rng.standard_normal(4)
            weighting_update(state, h_next, weights[t])
            lhs = state.weight_sum * state.h_bar
            rhs = weights[t] * h_next + prev_sum * prev_bar
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matches_direct_weighted_average(self):
        rng = np.random.default_rng(2)
        weights = rng.uniform(0.1, 2.0, 40)
        points = rng.standard_normal((40, 3))
        state = AnytimeState.initial(points[0], weights[0])
        for t in range(1, 40):
            weighting_update(state, points[t], weights[t])
        direct = (weights[:, None] * points).sum(axis=0) / weights.sum()
        np.testing.assert_allclose(state.h_bar, direct, atol=1e-12)


class TestRun:
    def test_horizon_one_has_no_updates(self):
        trace = run(*make_setup(), weights=np.ones(1), horizon=1)
        assert trace.horizon == 1
        np.testing.assert_array_equal(trace.ancillary[0], trace.main[0])

    def test_zero_noise_matches_straight_line_reimplementation(self):
        dim, beta, horizon = 3, 0.4, 50
        ball = L2Ball(np.zeros(dim), 1.0)
        obj = Quadratic(np.diag([1.0, 2.0, 0.5]), np.array([0.2, -0.1, 0.0]),
                        feasible_set=ball)
        oracle = SyntheticOracle(NoiseSpec("gaussian", 0.0), seed=3)
        h1 = np.full(dim, 0.3)
        anchor = exact_anchor(obj, h1)
        learner = MirrorDescentLearner(EuclideanMap(), ball, steps=beta, h_start=h1)
        trace = run(obj, oracle, anchor, HeuristicThreshold(1e9), learner,
                    np.ones(horizon), horizon)

        # independent deterministic anytime gradient descent
        h = h1.copy()
        h_bar = h1.copy()
        mains = [h_bar.copy()]
        for t in range(1, horizon):
            g = obj.gradient(h_bar)
            h = ball.project(h - beta * g)
            h_bar = h_bar + (1.0 / (t + 1)) * (h - h_bar)
            mains.append(h_bar.copy())
        np.testing.assert_allclose(trace.main, mains, atol=1e-13)
        assert trace.truncated.sum() == 0

    def test_constant_weights_final_average_is_arithmetic_mean(self):
        trace = run(*make_setup(seed=5), weights=np.ones(80), horizon=80)
        np.testing.assert_allclose(
            trace.final_main, trace.ancillary.mean(axis=0), atol=1e-12
        )

    def test_main_iterates_stay_feasible(self):
        obj, *rest = make_setup(seed=6)
        trace = run(obj, *rest, weights=np.ones(100), horizon=100)
        for t in range(trace.horizon):
            assert obj.feasible_set.contains(trace.main[t], tol=1e-10)

    def test_deterministic_replay(self):
        traces = [run(*make_setup(seed=7), weights=np.ones(40), horizon=40)
                  for _ in range(2)]
        np.testing.assert_array_equal(traces[0].ancillary, traces[1].ancillary)
        np.testing.assert_array_equal(traces[0].grads_raw, traces[1].grads_raw)
        np.testing.assert_array_equal(traces[0].truncated, traces[1].truncated)

    def test_trace_prefix_property(self):
        # running longer only appends to the trajectory
        short = run(*make_setup(seed=8), weights=np.ones(30), horizon=30)
        long = run(*make_setup(seed=8), weights=np.ones(50), horizon=50)
        np.testing.assert_array_equal(long.ancillary[:30], short.ancillary)
        np.testing.assert_array_equal(long.grads_processed[:29], short.grads_processed[:29])

    def test_weight_validation(self):
        setup = make_setup()
        with pytest.raises(ValueError):
            run(*setup, weights=np.ones(5), horizon=6)
        with pytest.raises(ValueError):
            run(*setup, weights=np.zeros(6), horizon=6)

    def test_trace_roundtrip(self):
        trace = run(*make_setup(seed=9), weights=np.ones(20), horizon=20)
        clone = RunTrace.from_dict(trace.to_dict())
        np.testing.assert_array_equal(clone.ancillary, trace.ancillary)
        np.testing.assert_array_equal(clone.grads_processed, trace.grads_processed)
        np.testing.assert_array_equal(clone.truncated, trace.truncated)
        np.testing.assert_array_equal(clone.step_sizes, trace.step_sizes)

    def test_replaying_recorded_gradients_reproduces_the_trace(self):
        # push the recorded processed gradients back through the update rules
        obj, oracle, anchor, sched, learner = make_setup(seed=19)
        trace = run(obj, oracle, anchor, sched, learner, np.ones(40), 40)

        replay = MirrorDescentLearner(EuclideanMap(), obj.feasible_set, steps=0.4,
                                      h_start=trace.ancillary[0])
        state = AnytimeState.initial(replay.start(), trace.weights[0])
        for t in range(1, trace.horizon):
            np.testing.assert_array_equal(state.h, trace.ancillary[t - 1])
            np.testing.assert_array_equal(state.h_bar, trace.main[t - 1])
            h_next = replay.step(t, trace.weights[t - 1], trace.weights[t],
                                 trace.grads_processed[t - 1])
            weighting_update(state, h_next, trace.weights[t])
        np.testing.assert_array_equal(state.h, trace.ancillary[-1])
        np.testing.assert_array_equal(state.h_bar, trace.main[-1])


class TestDriverLearnerContract:
    @pytest.mark.parametrize("kind", ["ftrl", "aoftrl", "smd"])
    def test_every_learner_drives_end_to_end(self, kind):
        from anyopt.learners import AoftrlLearner, FtrlLearner, QuadraticRegularizer
        from anyopt.learners import aoftrl_weights

        ball = L2Ball(np.zeros(3), 1.0)
        obj = Quadratic(np.eye(3), np.full(3, 0.2), feasible_set=ball)
        oracle = SyntheticOracle(NoiseSpec("student-t", 0.1, 2.5), seed=21)
        horizon = 40
        if kind == "ftrl":
            learner = FtrlLearner(ball, QuadraticRegularizer.sqrt_schedule())
            weights = np.ones(horizon)
        elif kind == "aoftrl":
            regs = QuadraticRegularizer.sqrt_schedule()
            learner = AoftrlLearner(ball, regs)
            weights = aoftrl_weights(horizon, obj.smoothness,
                                     QuadraticRegularizer.sqrt_schedule())
        else:
            learner = MirrorDescentLearner(EuclideanMap(), ball, steps=0.5)
            weights = np.ones(horizon)
        anchor = exact_anchor(obj, learner.start())
        trace = run(obj, oracle, anchor, HeuristicThreshold(20.0), learner,
                    weights, horizon)
        assert trace.horizon == horizon
        for t in range(horizon):
            assert ball.contains(trace.ancillary[t], tol=1e-9)
        audit = anytime_identity_audit(trace, obj, np.zeros(3))
        assert audit.identity_gap <= 1e-9 * (1.0 + abs(audit.lhs))


class TestRegret:
    def test_zero_when_iterates_equal_reference(self):
        h_star = np.array([0.4, -0.1])
        trace = _manual_trace(
            ancillary=np.tile(h_star, (10, 1)),
            weights=np.ones(10),
            grads=np.random.default_rng(11).standard_normal((10, 2)),
        )
        assert regret(trace, h_star) == 0.0

    def test_orthogonal_pairings_example(self):
        trace = _manual_trace(
            ancillary=np.array([[0.0, 0.0], [1.0, 0.0]]),
            weights=np.array([1.0, 1.0]),
            grads=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        assert regret(trace, np.zeros(2)) == 0.0

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(12)
        trace = run(*make_setup(seed=12), weights=rng.uniform(0.5, 1.5, 10), horizon=10)
        h_star = np.array([0.1, -0.2, 0.05])
        by_hand = sum(
            trace.weights[t] * float(trace.grads_processed[t] @ (trace.ancillary[t] - h_star))
            for t in range(10)
        )
        assert regret(trace, h_star) == pytest.approx(by_hand, rel=1e-12)


def _manual_trace(ancillary, weights, grads):
    """Trace with main iterates derived from the weighting rule; for audits of
    arbitrary (even adversarial) ancillary sequences."""
    horizon, dim = ancillary.shape
    sums = np.cumsum(weights)
    main = np.cumsum(weights[:, None] * ancillary, axis=0) / sums[:, None]
    return RunTrace(
        ancillary=ancillary,
        main=main,
        weights=weights,
        grads_raw=grads,
        grads_processed=grads,
        thresholds=np.full(horizon, np.inf),
        truncated=np.zeros(horizon, dtype=bool),
        step_sizes=np.full(horizon, np.nan),
    )


class TestAnytimeIdentity:
    def test_horizon_one_reduces_to_bregman_definition(self):
        obj = Quadratic(np.diag([1.0, 3.0]), np.array([0.5, -0.5]))
        trace = _manual_trace(
            ancillary=np.array([[0.2, 0.4]]),
            weights=np.array([1.3]),
            grads=np.array([[0.0, 0.0]]),
        )
        audit = anytime_identity_audit(trace, obj, np.array([-0.1, 0.9]))
        assert audit.lhs == pytest.approx(audit.rhs, rel=1e-12)

    def test_identity_on_driver_runs(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            weights = 2.0 * (1.0 - rng.random(20))
            trace = run(*make_setup(seed=seed), weights=weights, horizon=20)
            obj = make_setup(seed=seed)[0]
            h_star = rng.standard_normal(3) * 0.4
            audit = anytime_identity_audit(trace, obj, h_star)
            assert audit.identity_gap <= 1e-9 * (1.0 + abs(audit.lhs))
            assert audit.decomposition_gap <= 1e-9 * (1.0 + abs(audit.lhs))
            assert audit.bregman_sum >= -1e-12

    def test_identity_on_adversarial_sequences(self):
        # no learner at all: arbitrary iterates, arbitrary recorded gradients
        rng = np.random.default_rng(14)
        obj = Quadratic(np.diag([0.5, 2.0, 1.0]), rng.standard_normal(3))
        trace = _manual_trace(
            ancillary=rng.standard_normal((30, 3)) * 2.0,
            weights=rng.uniform(0.05, 2.0, 30),
            grads=rng.standard_normal((30, 3)) * 5.0,
        )
        audit = anytime_identity_audit(trace, obj, rng.standard_normal(3))
        assert audit.identity_gap <= 1e-9 * (1.0 + abs(audit.lhs))
        assert audit.decomposition_gap <= 1e-9 * (1.0 + abs(audit.lhs))

    def test_linear_objective_collapses_curvature_terms(self):
        obj = Quadratic(np.zeros((2, 2)), np.array([1.0, -2.0]))
        rng = np.random.default_rng(15)
        trace = _manual_trace(
            ancillary=rng.standard_normal((10, 2)),
            weights=np.ones(10),
            grads=rng.standard_normal((10, 2)),
        )
        h_star = np.array([0.3, 0.3])
        audit = anytime_identity_audit(trace, obj, h_star)
        # all curvature gaps vanish: rhs is the weighted mean of pairings
        grad = obj.gradient(h_star)  # constant -b for the linear objective
        expected = sum(
            trace.weights[t] * float(grad @ (trace.ancillary[t] - h_star))
            for t in range(10)
        ) / trace.weights.sum()
        assert audit.rhs == pytest.approx(expected, rel=1e-12)
        assert audit.lhs == pytest.approx(expected, rel=1e-9)


def _batch_setup(kind, seeds, dim=4):
    """Objective, anchor(s), schedule, learner factory and norm kind for one geometry.

    Start points and anchors are per replication for mirror descent and shared
    for FTRL, so both layouts are driven.
    """
    from anyopt.geometry import NegativeEntropyMap, Simplex
    from anyopt.learners import FtrlLearner, QuadraticRegularizer
    from anyopt.robust import SmoothTheoryThreshold

    rng = np.random.default_rng(len(seeds))
    if kind == "entropy-smd":
        feasible = Simplex(dim)
        starts = rng.uniform(0.5, 1.5, (len(seeds), dim))
        starts /= starts.sum(axis=1, keepdims=True)
        target = np.full(dim, 1.0 / dim)
    else:
        feasible = L2Ball(np.zeros(dim), 1.0)
        starts = rng.uniform(-0.4, 0.4, (len(seeds), dim))
        target = np.full(dim, 0.2)
    obj = Quadratic(np.diag(np.linspace(0.5, 2.0, dim)), target, feasible_set=feasible)
    schedule = SmoothTheoryThreshold(smoothness=obj.smoothness, c0=0.3)

    def learner(start):
        if kind == "ftrl":
            return FtrlLearner(feasible, QuadraticRegularizer.sqrt_schedule(2.0))
        if kind == "entropy-smd":
            return MirrorDescentLearner(NegativeEntropyMap(), feasible, steps=0.2, h_start=start)
        return MirrorDescentLearner(EuclideanMap(), feasible, steps=0.4, h_start=start)

    if kind == "ftrl":
        starts = learner(None).start()
    norm_kind = "linf" if kind == "entropy-smd" else "l2"
    return obj, exact_anchor(obj, starts), schedule, learner, starts, norm_kind


class TestBatchedRun:
    """A batch of M replications equals M separate runs, row for row."""

    FIELDS = ("ancillary", "main", "grads_raw", "grads_processed", "thresholds", "truncated")

    @pytest.mark.parametrize("family,param", [("gaussian", 3.0), ("student-t", 2.5),
                                              ("pareto", 3.0)])
    @pytest.mark.parametrize("kind", ["euclidean-smd", "entropy-smd", "ftrl"])
    def test_batch_equals_separate_runs(self, kind, family, param):
        seeds, horizon = [11, 12, 13], 150  # crosses a noise block boundary
        noise = NoiseSpec(family, 0.4, param)
        obj, anchor, schedule, learner, starts, norm_kind = _batch_setup(kind, seeds)
        weights = np.random.default_rng(3).uniform(0.5, 1.5, horizon)
        batch = run(obj, SyntheticOracle(noise, seed=seeds), anchor, schedule,
                    learner(starts), weights, horizon, norm_kind=norm_kind)
        assert batch.horizon == horizon and batch.replications == len(seeds)
        assert batch.ancillary.shape == (horizon, len(seeds), obj.dim)
        assert batch.truncated.any()  # the clip acts on some rows
        for i, seed in enumerate(seeds):
            row = lambda a: a if a.ndim == 1 else a[i]  # shared (d,) or per replication
            single = run(obj, SyntheticOracle(noise, seed=seed),
                         Anchor(row(anchor.h_tilde), row(anchor.g_tilde)), schedule,
                         learner(row(starts)), weights, horizon, norm_kind=norm_kind)
            assert single.replications is None
            for name in self.FIELDS:
                np.testing.assert_allclose(getattr(batch, name)[:, i], getattr(single, name),
                                           rtol=1e-12, atol=1e-12, err_msg=name)
            np.testing.assert_array_equal(batch.step_sizes, single.step_sizes)

    def test_batch_of_one_keeps_the_replication_axis(self):
        obj, oracle, anchor, sched, learner = make_setup(seed=4)
        batch = run(obj, SyntheticOracle(oracle.noise, seed=[4]), anchor, sched, learner,
                    np.ones(10), 10)
        single = run(*make_setup(seed=4), weights=np.ones(10), horizon=10)
        assert batch.ancillary.shape == (10, 1, 3) and batch.thresholds.shape == (10, 1)
        np.testing.assert_array_equal(batch.main[:, 0], single.main)

    def test_entry_shapes_checked(self):
        obj, _, anchor, sched, _ = make_setup()
        noise = NoiseSpec("gaussian", 0.1)
        ball = obj.feasible_set
        two_starts = MirrorDescentLearner(EuclideanMap(), ball, steps=0.4,
                                          h_start=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="start point"):
            run(obj, SyntheticOracle(noise, seed=[1, 2, 3]), anchor, sched, two_starts,
                np.ones(5), 5)
        with pytest.raises(ValueError, match="start point"):  # one stream, two start points
            run(obj, SyntheticOracle(noise, seed=1), anchor, sched, two_starts, np.ones(5), 5)
        three_anchors = exact_anchor(obj, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="anchor"):
            run(obj, SyntheticOracle(noise, seed=[1, 2]), three_anchors, sched, two_starts,
                np.ones(5), 5)
        outside = MirrorDescentLearner(EuclideanMap(), ball, steps=0.4, h_start=[[0.0] * 3,
                                                                                 [2.0] * 3])
        with pytest.raises(ValueError, match="feasible"):
            run(obj, SyntheticOracle(noise, seed=[1, 2]), anchor, sched, outside, np.ones(5), 5)
        with pytest.raises(ValueError, match="positive"):
            run(*make_setup(), weights=np.array([1.0, np.nan, 1.0]), horizon=3)

    def test_non_finite_trace_rejected_at_exit(self):
        class Exploding:
            replications = None

            def query(self, obj, h_bar, t=None):
                return obj.gradient(h_bar) * (np.inf if t == 3 else 1.0)

        obj, _, anchor, sched, learner = make_setup()
        with pytest.raises(GeometryError, match="non-finite"):
            run(obj, Exploding(), anchor, HeuristicThreshold(1e300), learner, np.ones(6), 6)
