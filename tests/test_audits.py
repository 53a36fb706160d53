import numpy as np
import pytest

from anyopt import audits
from anyopt.audits import AUDIT_KINDS, run_audit_campaign


class TestCampaignPlumbing:
    def test_registry_kinds(self):
        assert set(AUDIT_KINDS) == {
            "corollary-sgd", "lemma2", "bernstein",
            "anytime-identity", "regret-smd", "regret-ftrl",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown audit kind"):
            run_audit_campaign("fancy", 10, seed=0)

    def test_report_fields(self):
        report = run_audit_campaign("bernstein", 5000, seed=0)
        assert report.replications == 5000
        assert 0.0 <= report.frequency <= 1.0
        assert report.details["ci_low"] <= report.frequency <= report.details["ci_high"]
        assert any("result:" in line for line in report.lines())

    def test_reports_are_seed_deterministic(self):
        a = run_audit_campaign("anytime-identity", 5, seed=42)
        b = run_audit_campaign("anytime-identity", 5, seed=42)
        assert a.details["worst_relative_gap"] == b.details["worst_relative_gap"]


class TestSmallCampaigns:
    """Scaled-down versions of every campaign; full sizes run in acceptance."""

    def test_identity(self):
        report = run_audit_campaign("anytime-identity", 10, seed=1)
        assert report.passed and report.violations == 0

    def test_regret_smd(self):
        report = run_audit_campaign("regret-smd", 3, seed=1)
        assert report.passed
        assert report.details["min_slack"] >= -1e-9

    def test_regret_ftrl(self):
        report = run_audit_campaign("regret-ftrl", 3, seed=1)
        assert report.passed
        assert report.details["min_slack"] >= -1e-9

    def test_corollary_sgd(self):
        report = run_audit_campaign("corollary-sgd", 20, seed=1)
        assert report.passed
        assert report.details["worst_excess"] <= report.details["bound"]

    def test_lemma2(self):
        report = run_audit_campaign("lemma2", 20, seed=1)
        assert report.passed
        assert report.details["worst_error_sum"] <= report.details["envelope"]

    def test_bernstein(self):
        report = run_audit_campaign("bernstein", 20_000, seed=1)
        assert report.passed
        assert report.frequency <= report.limit

    def test_noiseless_coverage_is_exact(self):
        # sigma = 0: the run is deterministic descent, never above the bound
        report = run_audit_campaign("corollary-sgd", 5, seed=2, noise_scale=0.0)
        assert report.violations == 0
        assert report.details["worst_excess"] < report.details["bound"]
        report = run_audit_campaign("lemma2", 5, seed=2, noise_scale=0.0)
        assert report.violations == 0
        assert report.details["worst_error_sum"] == 0.0

    def test_parameter_overrides_reach_the_engine(self):
        report = run_audit_campaign("corollary-sgd", 3, seed=2, horizon=50, dim=3)
        assert report.details["horizon"] == 50 and report.details["dim"] == 3


class TestBatchedCampaigns:
    @pytest.mark.parametrize("kind,worst", [("corollary-sgd", "worst_excess"),
                                            ("lemma2", "worst_error_sum")])
    def test_results_do_not_depend_on_chunk_size(self, monkeypatch, kind, worst):
        reports = []
        for chunk in (100, 3, 1):
            monkeypatch.setattr(audits, "REPLICATION_CHUNK", chunk)
            reports.append(run_audit_campaign(kind, 10, seed=7, horizon=120))
        for report in reports[1:]:
            assert report.violations == reports[0].violations
            assert report.details[worst] == pytest.approx(reports[0].details[worst], rel=1e-12)

    def test_sums_match_one_replication_at_a_time(self, monkeypatch):
        # the loop form of the weighted sup-pairing error sum, one run per replication
        from anyopt.conversion import run
        from anyopt.geometry import EuclideanMap, L2Ball
        from anyopt.learners import MirrorDescentLearner
        from anyopt.objectives import Quadratic
        from anyopt.oracles import NoiseSpec, SyntheticOracle, certified_sigma, child_rng
        from anyopt.robust import SmoothTheoryThreshold, certified_c0, exact_anchor

        horizon, dim, m = 80, 5, 4
        report = run_audit_campaign("lemma2", m, seed=3, horizon=horizon)
        rng = child_rng(3, 0xC0)
        ball = L2Ball(np.zeros(dim), 1.0)
        obj = Quadratic(np.eye(dim), np.zeros(dim), feasible_set=ball)
        noise = NoiseSpec("student-t", 0.02, 2.5)
        c0 = certified_c0(1.0, 2.0, certified_sigma(noise, dim), horizon, 0.05)
        sums = []
        for _ in range(m):
            oracle = SyntheticOracle(noise, seed=rng.integers(2**63))
            h1 = audits._ball_point(rng, dim, 1.0)
            trace = run(obj, oracle, exact_anchor(obj, h1), SmoothTheoryThreshold(1.0, c0),
                        MirrorDescentLearner(EuclideanMap(), ball, steps=1.0, h_start=h1),
                        np.ones(horizon), horizon)
            total = 0.0
            for t in range(horizon):
                err = trace.grads_processed[t] - obj.gradient(trace.main[t])
                total += trace.weights[t] * ball.support_gap(err)
            sums.append(total)
        assert report.details["worst_error_sum"] == pytest.approx(max(sums), rel=1e-12)

    @pytest.mark.parametrize("seed", [6, 9, 11, 21, 29])
    def test_regret_ftrl_holds_on_seeds_that_used_to_fail(self, seed):
        # these seeds violated a bound that paired psi_T(u) with h_{T+1}
        report = run_audit_campaign("regret-ftrl", 20, seed=seed)
        assert report.violations == 0, report.details
        assert report.details["min_slack"] >= -1e-9
