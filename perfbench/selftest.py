"""Self-test of the benchmark at a tiny size (about half a minute).

    python3 perfbench/selftest.py

For every workload it checks that a tiny run prints every metric named in
BENCHMARK.json with its unit (end-to-end with --trace 0, per-layer with
--trace 1) and passes its checks, that the traced query count matches the
workload definition, and that a deliberately wrong reference makes the run
report a failed check for every op.  It also checks that the benchmark
refuses to run, and prints no result, in a copy that holds only
BENCHMARK.json and perfbench/.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402  (also those not in BENCHMARK.json)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_names(done, specs):
    """Every metric named in ``specs`` is in the JSON line and printed with its unit."""
    result = result_of(done)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(result["metrics"]) != {s["name"] for s in specs}:
        problems.append(f"metric names differ: {sorted(set(result['metrics']) ^ {s['name'] for s in specs})}")
    lines = done.stdout.splitlines()
    for s in specs:
        got = result["metrics"].get(s["name"], {})
        if got.get("unit") != s["unit"]:
            problems.append(f"{s['name']} unit {got.get('unit')!r}, expected {s['unit']!r}")
        if not any(l.startswith(f"{s['name']}: ") and f" {s['unit']}" in l for l in lines):
            problems.append(f"{s['name']} not printed with its unit")
    return result, problems


def corrupt(reference, workload):
    """A copy of the reference with one tiny-size output of each op of ``workload`` wrong.

    Returns the path of the copy and the number of ops.
    """
    bad = json.loads(json.dumps(reference))
    ops = bad["workloads"][workload]["tiny"]
    for op in ops:
        key = next(k for k in op if k not in ("op", "passed"))
        value = op[key]
        op[key] = value[::-1] if isinstance(value, str) else value * 1.5 + 1
    path = OUT_DIR / f"selftest-reference-{workload}.json"
    path.write_text(json.dumps(bad))
    return path, len(ops)


def main():
    OUT_DIR.mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    failures = []
    for w in WORKLOAD_NAMES:
        if set(reference["workloads"].get(w, {})) != {"full", "tiny"}:
            failures.append(f"{w}: reference.json lacks the full or tiny outputs")
        result, problems = check_names(bench(w, 0), SPEC["end_to_end"])
        if not result["correct"] or result["failed"]:
            problems.append("checks failed with the committed reference")
        result, more = check_names(bench(w, 1), SPEC["per_layer"])
        problems += more
        record = json.loads((OUT_DIR / f"{w}-tiny-seed0-trace1.json").read_text())
        if result["metrics"]["oracles.query.calls"]["value"] != record["queries_per_unit"]:
            problems.append("traced oracle queries differ from the workload definition")
        bad, ops = corrupt(reference, w)
        result = result_of(bench(w, 0, "--reference", str(bad)))
        # the warm-up unit alone compares every op with the reference
        if result["correct"] or result["failed"] < ops:
            problems.append("a wrong reference went unnoticed")
        failures += [f"{w}: {p}" for p in problems]
        print(f"{w}: {'ok' if not problems else 'FAILED'}")

    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(WORKLOAD_NAMES[0], 0, cwd=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        failures.append("ran without the package or printed a result")
    print(f"bare copy: {'ok' if done.returncode and not done.stdout.strip() else 'FAILED'}")

    for failure in failures:
        print(f"FAILED {failure}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
