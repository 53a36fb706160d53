import json

import numpy as np
import pytest

from anyopt.conversion import run
from anyopt.experiment import ResultRecord
from anyopt.geometry import EuclideanMap, L2Ball
from anyopt.learners import MirrorDescentLearner
from anyopt.objectives import Quadratic
from anyopt.oracles import NoiseSpec, SyntheticOracle
from anyopt.results import CSV_HEADER, emit_results, load_trace, read_results, save_trace
from anyopt.robust import HeuristicThreshold, exact_anchor


def record(trial=0, epoch=1, method="sgd-ave", train=0.5, test=0.6, rate=0.0):
    return ResultRecord(trial, epoch, method, train, test, rate, 0.0)


class TestEmitResults:
    def test_single_record_csv(self, tmp_path):
        path, summary = emit_results([record()], "csv", tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert summary.name == "r_summary.csv"

    def test_roundtrip_csv(self, tmp_path):
        records = [record(trial=t, epoch=e, train=0.123456789012 + t, test=0.9 - e * 0.1)
                   for t in range(3) for e in (1, 2)]
        path, _ = emit_results(records, "csv", tmp_path / "r.csv")
        parsed = read_results(path)
        assert len(parsed) == len(records)
        for a, b in zip(parsed, records):
            assert (a.trial, a.epoch, a.method) == (b.trial, b.epoch, b.method)
            assert abs(a.train_loss - b.train_loss) <= 1e-9  # 10 significant digits

    def test_roundtrip_json(self, tmp_path):
        records = [record(method="anytime-sgd"), record(epoch=2, method="anytime-sgd")]
        path, summary = emit_results(records, "json", tmp_path / "r.json")
        parsed = read_results(path)
        assert [r.epoch for r in parsed] == [1, 2]
        assert json.loads(summary.read_text())[0]["method"] == "anytime-sgd"

    def test_losses_at_ten_significant_digits(self, tmp_path):
        value = 0.12345678901234567
        path, _ = emit_results([record(train=value)], "csv", tmp_path / "r.csv")
        row = path.read_text().splitlines()[1]
        assert "0.123456789" in row and "0.1234567890123" not in row

    def test_summary_has_one_row_per_method_epoch(self, tmp_path):
        records = [
            record(trial=t, epoch=e, method=m)
            for m in ("sgd-ave", "anytime-sgd") for e in (1, 2) for t in range(3)
        ]
        _, summary = emit_results(records, "csv", tmp_path / "r.csv")
        assert len(summary.read_text().splitlines()) == 1 + 4

    def test_summary_means(self, tmp_path):
        records = [record(trial=0, train=0.2), record(trial=1, train=0.4)]
        _, summary = emit_results(records, "json", tmp_path / "r.json")
        row = json.loads(summary.read_text())[0]
        assert row["train_loss"] == pytest.approx(0.3) and row["trials"] == 2

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "csv", tmp_path / "r.csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([record()], "xml", tmp_path / "r.xml")


class TestTraceFiles:
    def test_missing_step_sizes_serialize_as_null(self, tmp_path):
        from anyopt.learners import FtrlLearner, QuadraticRegularizer

        ball = L2Ball(np.zeros(2), 1.0)
        obj = Quadratic(np.eye(2), np.zeros(2), feasible_set=ball)
        learner = FtrlLearner(ball, QuadraticRegularizer(1.0))
        oracle = SyntheticOracle(NoiseSpec("gaussian", 0.1), seed=6)
        h1 = learner.start()
        trace = run(obj, oracle, exact_anchor(obj, h1), HeuristicThreshold(10.0),
                    learner, np.ones(5), 5)
        path = save_trace(trace, tmp_path / "trace.json")
        assert "NaN" not in path.read_text()
        clone = load_trace(path)
        assert np.all(np.isnan(clone.step_sizes))

    def test_save_and_load(self, tmp_path):
        ball = L2Ball(np.zeros(2), 1.0)
        obj = Quadratic(np.eye(2), np.zeros(2), feasible_set=ball)
        oracle = SyntheticOracle(NoiseSpec("gaussian", 0.1), seed=4)
        h1 = np.array([0.2, 0.1])
        trace = run(obj, oracle, exact_anchor(obj, h1), HeuristicThreshold(10.0),
                    MirrorDescentLearner(EuclideanMap(), ball, steps=0.5, h_start=h1),
                    np.ones(15), 15)
        path = save_trace(trace, tmp_path / "trace.json")
        clone = load_trace(path)
        np.testing.assert_array_equal(clone.main, trace.main)
        np.testing.assert_array_equal(clone.weights, trace.weights)
        assert json.loads(path.read_text())["schema"] == "run-trace/1"

    @pytest.mark.parametrize("field,cut", [("ancillary", "rows"), ("grads_raw", "width"),
                                           ("thresholds", "rows"), ("step_sizes", "rows")])
    def test_truncated_trace_file_names_the_field(self, tmp_path, field, cut):
        ball = L2Ball(np.zeros(2), 1.0)
        obj = Quadratic(np.eye(2), np.zeros(2), feasible_set=ball)
        h1 = np.array([0.2, 0.1])
        trace = run(obj, SyntheticOracle(NoiseSpec("gaussian", 0.1), seed=4),
                    exact_anchor(obj, h1), HeuristicThreshold(10.0),
                    MirrorDescentLearner(EuclideanMap(), ball, steps=0.5, h_start=h1),
                    np.ones(15), 15)
        path = save_trace(trace, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        if cut == "rows":
            payload[field] = payload[field][:-1]
        else:
            payload[field] = [row[:-1] for row in payload[field]]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=field):
            load_trace(path)

    def test_batched_trace_roundtrip(self, tmp_path):
        ball = L2Ball(np.zeros(2), 1.0)
        obj = Quadratic(np.eye(2), np.zeros(2), feasible_set=ball)
        h1 = np.array([[0.2, 0.1], [-0.3, 0.0], [0.0, 0.5]])
        trace = run(obj, SyntheticOracle(NoiseSpec("gaussian", 0.1), seed=[4, 5, 6]),
                    exact_anchor(obj, h1), HeuristicThreshold(0.2),
                    MirrorDescentLearner(EuclideanMap(), ball, steps=0.5, h_start=h1),
                    np.ones(12), 12)
        path = save_trace(trace, tmp_path / "trace.json")
        clone = load_trace(path)
        assert clone.replications == 3 and clone.horizon == 12
        for name in ("ancillary", "main", "grads_processed", "thresholds", "truncated"):
            np.testing.assert_array_equal(getattr(clone, name), getattr(trace, name))
        payload = json.loads(path.read_text())
        payload["truncated"] = [row[:2] for row in payload["truncated"]]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="truncated"):
            load_trace(path)
