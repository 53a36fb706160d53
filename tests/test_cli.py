import json

import pytest

from anyopt.cli import main


class TestBoundsCommand:
    def test_prints_table(self, capsys):
        code = main(["bounds", "--D", "1", "--sigma", "1", "--lambda", "1",
                     "--delta", "0.05", "--T", "100", "--beta", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "q_delta" in out and "r_delta" in out
        assert "sgd_excess_bound" in out
        assert "1.978197465" in out  # worked value for these inputs

    def test_without_beta_omits_envelopes(self, capsys):
        main(["bounds", "--D", "2", "--sigma", "0.5", "--lambda", "1", "--T", "50"])
        out = capsys.readouterr().out
        assert "q_delta" in out and "sgd_excess_bound" not in out

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            main(["bounds", "--D", "1"])

    def test_hypothesis_violation_reported_in_table(self, capsys):
        code = main(["bounds", "--D", "1", "--sigma", "1", "--lambda", "4",
                     "--T", "10", "--beta", "1.0"])  # beta > 1/lambda
        out = capsys.readouterr().out
        assert code == 0
        assert "unavailable" in out and "1/smoothness" in out


class TestAuditCommand:
    def test_runs_and_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(["audit", "--kind", "bernstein", "--replications", "2000",
                     "--seed", "3", "--out", str(out_file)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "PASS" in printed
        payload = json.loads(out_file.read_text())
        assert payload["kind"] == "bernstein" and payload["passed"]

    @pytest.mark.parametrize("kind", ["lemma2", "regret-ftrl"])
    def test_report_file_is_json_for_numpy_counts(self, tmp_path, capsys, kind):
        out_file = tmp_path / "report.json"
        main(["audit", "--kind", kind, "--replications", "2", "--seed", "0",
              "--out", str(out_file)])
        payload = json.loads(out_file.read_text())
        assert payload["kind"] == kind and payload["violations"] == 0

    def test_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            main(["audit", "--kind", "nonsense"])


class TestBenchCommand:
    def test_synthetic_end_to_end(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([
            "bench", "--dataset", "synthetic:n=120,k=2,d=4",
            "--method", "anytime-robust-sgd", "--trials", "2", "--epochs", "2",
            "--seed", "7", "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "results.json").exists()
        assert (out_dir / "results_summary.csv").exists()
        assert len((out_dir / "results.csv").read_text().splitlines()) == 1 + 4

    def test_csv_dataset_via_schema_flags(self, tmp_path):
        data = tmp_path / "toy.csv"
        rows = ["f1,f2,color,label"]
        for i in range(40):
            rows.append(f"{i % 7},{(3 * i) % 5},{'red' if i % 2 else 'blue'},{i % 2}")
        data.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "out"
        code = main([
            "bench", "--dataset", str(data), "--label", "label",
            "--categorical", "color", "--method", "sgd-ave",
            "--trials", "1", "--epochs", "1", "--seed", "0", "--out", str(out_dir),
        ])
        assert code == 0

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dataset": "synthetic:n=100,k=2,d=3",
            "method": "sgd-ave",
            "trials": 1,
            "epochs": 3,
            "seed": 1,
            "out": str(tmp_path / "from_config"),
        }))
        code = main(["--config", str(config), "bench", "--epochs", "1"])
        assert code == 0
        csv_text = (tmp_path / "from_config" / "results.csv").read_text()
        assert len(csv_text.splitlines()) == 2  # flag override: 1 epoch, not 3

    def test_missing_dataset_rejected(self):
        with pytest.raises(SystemExit, match="dataset"):
            main(["bench", "--method", "sgd-ave"])


class TestDeterminism:
    def test_repeated_bench_is_byte_identical(self, tmp_path):
        args = ["bench", "--dataset", "synthetic:n=150,k=3,d=4", "--method",
                "anytime-robust-sgd", "--trials", "2", "--epochs", "2", "--seed", "11"]
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            main(args + ["--out", str(out_dir)])
            outputs.append({
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            })
        assert outputs[0] == outputs[1]
