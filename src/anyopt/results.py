"""Result persistence: CSV/JSON emission, re-parsing, and trace files.

CSV layout (one row per record, losses at 10 significant digits):

    trial,epoch,method,train_loss,test_loss,truncation_rate,wall_time_ms

JSON files mirror the same fields as a list of objects.  Every emission also
writes a companion ``*_summary`` file with per-(method, epoch) means over
trials.  Run traces serialize to JSON under the ``run-trace/1`` schema: a
single object holding the horizon, dimension, replication count (null for a
single run), per-step iterate/gradient arrays, thresholds, truncation flags,
weights, and step sizes.  Loading checks every array's shape against them.
"""

from __future__ import annotations

import json
from pathlib import Path

from .conversion import RunTrace
from .experiment import ResultRecord

CSV_HEADER = "trial,epoch,method,train_loss,test_loss,truncation_rate,wall_time_ms"


def _fmt(x):
    return f"{float(x):.10g}"


def _record_row(r):
    return (
        f"{r.trial},{r.epoch},{r.method},{_fmt(r.train_loss)},{_fmt(r.test_loss)},"
        f"{_fmt(r.truncation_rate)},{_fmt(r.wall_time_ms)}"
    )


def _summaries(records):
    """Mean over trials for every (method, epoch) pair, in first-seen order."""
    groups = {}
    for r in records:
        groups.setdefault((r.method, r.epoch), []).append(r)
    rows = []
    for (method, epoch), bucket in groups.items():
        n = len(bucket)
        rows.append(
            {
                "method": method,
                "epoch": epoch,
                "trials": n,
                "train_loss": sum(b.train_loss for b in bucket) / n,
                "test_loss": sum(b.test_loss for b in bucket) / n,
                "truncation_rate": sum(b.truncation_rate for b in bucket) / n,
            }
        )
    return rows


def emit_results(records, fmt, path):
    """Write records plus a mean-over-trials summary file alongside."""
    if not records:
        raise ValueError("no records to emit")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    summary_path = path.with_name(f"{path.stem}_summary{path.suffix}")
    summaries = _summaries(records)

    if fmt == "csv":
        lines = [CSV_HEADER] + [_record_row(r) for r in records]
        path.write_text("\n".join(lines) + "\n")
        head = "method,epoch,trials,train_loss,test_loss,truncation_rate"
        rows = [
            f"{s['method']},{s['epoch']},{s['trials']},{_fmt(s['train_loss'])},"
            f"{_fmt(s['test_loss'])},{_fmt(s['truncation_rate'])}"
            for s in summaries
        ]
        summary_path.write_text("\n".join([head] + rows) + "\n")
    elif fmt == "json":
        payload = [
            {
                "trial": r.trial,
                "epoch": r.epoch,
                "method": r.method,
                "train_loss": float(_fmt(r.train_loss)),
                "test_loss": float(_fmt(r.test_loss)),
                "truncation_rate": float(_fmt(r.truncation_rate)),
                "wall_time_ms": float(_fmt(r.wall_time_ms)),
            }
            for r in records
        ]
        path.write_text(json.dumps(payload, indent=2) + "\n")
        summary_path.write_text(json.dumps(summaries, indent=2, default=float) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'json'")
    return path, summary_path


def read_results(path):
    """Re-parse an emitted results file (CSV or JSON) into records."""
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        return [ResultRecord(**row) for row in payload]
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a results CSV (bad header)")
    records = []
    for line in lines[1:]:
        trial, epoch, method, train, test, rate, wall = line.split(",")
        records.append(
            ResultRecord(
                trial=int(trial),
                epoch=int(epoch),
                method=method,
                train_loss=float(train),
                test_loss=float(test),
                truncation_rate=float(rate),
                wall_time_ms=float(wall),
            )
        )
    return records


def save_trace(trace, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace.to_dict()) + "\n")
    return path


def load_trace(path):
    return RunTrace.from_dict(json.loads(Path(path).read_text()))
