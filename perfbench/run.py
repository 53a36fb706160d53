"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload audit-sgd --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with tracing off:
``setup_s`` (median wall of fresh processes that import anyopt, build the
inputs and run one warm-up unit), ``queries_per_ref_s`` (median over the
timed units of oracle queries per second) and ``peak_rss_mb``; both times are
scaled to the reference machine speed (see ``calibrate``).  With ``--trace 1``
it alternates untraced and traced units and reports the per-layer metrics
(see tracing.py).  Every operation's outputs are checked; ``failed`` /
``attempted`` in the last line is the fraction of checks that failed
(``fail_frac``).  The last line of standard output is one JSON object.

The package is imported from ``src/`` of the checkout that holds this file,
never from elsewhere, and BLAS is pinned to one thread.  Outputs and spans are
written under ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_REFERENCE = HERE / "reference.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROCESSES = {"full": 5, "tiny": 1}
# Reference floats may move by reassociation (e.g. a batched loop), by far
# less than these; counts, verdicts and file hashes must not move at all.  The
# absolute part covers values that are rounding noise themselves (the
# identity audit's worst relative gap, about 1e-16).
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
WORKLOAD_NAMES = ("audit-sgd", "audit-pathwise", "bench-logistic", "audit-sgd-wide")
END_TO_END_UNITS = {"setup_s": "s", "queries_per_ref_s": "1/s", "peak_rss_mb": "MB"}
# Wall seconds of calibrate() at the reference machine speed: its median on a
# shared 2-core x86-64 VM with Python 3.11 and numpy 2.4.
CALIBRATION_REFERENCE_S = 0.030


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="unit size; 'tiny' is for the self-test")
    p.add_argument("--reference", default=str(DEFAULT_REFERENCE),
                   help="reference outputs (JSON) for the reference seed")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, run the warm-up unit and exit (a setup_s sample)")
    return p.parse_args(argv)


def import_package():
    """Import anyopt from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "anyopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {src / 'anyopt'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import anyopt

    if Path(anyopt.__file__).resolve().parent != (src / "anyopt").resolve():
        sys.exit(f"perfbench: imported anyopt from {anyopt.__file__}, not {src}")


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_CONFIG_NOSYSTEM="1",
               GIT_CONFIG_GLOBAL=os.devnull, GIT_OPTIONAL_LOCKS="0")
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_rev": rev or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
    }


def load_reference(path, workload, size):
    """Reference outputs ``(seed, ops)`` for this workload and size, or None."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        return None
    entry = data.get("workloads", {}).get(workload, {}).get(size)
    return None if entry is None else (data["seed"], entry)


def _same(value, ref):
    if isinstance(ref, float) and isinstance(value, float):
        return abs(value - ref) <= REFERENCE_RTOL * abs(ref) + REFERENCE_ATOL
    return value == ref


class Checks:
    """Tally of checked operations; every failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, where, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{where}: {'; '.join(problems)}")

    def unit(self, unit, raw, where, expected=None):
        """Check one unit's outputs; ``expected`` is a list of reference outputs."""
        try:
            triples = unit.outputs(raw)
        except Exception as err:  # unreadable outputs fail every op of the unit
            for _ in raw:
                self.record(where, [f"outputs unreadable: {type(err).__name__}: {err}"])
            return None
        for i, (op, outputs, problems) in enumerate(triples):
            if expected is not None:
                ref = expected[i]
                if ref.get("op") != op:
                    problems = problems + [f"reference is for {ref.get('op')!r}"]
                for key, value in outputs.items():
                    if key not in ref or not _same(value, ref[key]):
                        problems = problems + [f"{key}={value!r} differs from reference "
                                               f"{ref.get(key)!r}"]
            self.record(f"{where} {op}", problems)
        return [{"op": op, **outputs} for op, outputs, _ in triples]


def setup(args, workloads, checks, workdir):
    """Build the inputs and run the warm-up unit (at the reference seed).

    Returns the unit for ``--seed`` and the reference outputs for it, if any.
    """
    reference = load_reference(args.reference, args.workload, args.size)
    if reference is None:
        print(f"perfbench: no reference outputs for {args.workload}/{args.size}; "
              "only seed-independent checks run", file=sys.stderr)
        ref_seed, ref_ops = args.seed, None
    else:
        ref_seed, ref_ops = reference
    warm = workloads.make_unit(args.workload, args.size, ref_seed, workdir)
    warm_ops = checks.unit(warm, warm.run(), f"warm-up seed {ref_seed}", ref_ops)
    if ref_seed == args.seed:
        return warm, ref_ops or warm_ops
    return workloads.make_unit(args.workload, args.size, args.seed, workdir), None


def setup_sample(args, checks):
    """One fresh process that only sets up: its wall and the calibration around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--reference", args.reference,
           "--setup-only"]
    before = calibrate()
    t0 = time.perf_counter()
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    wall = time.perf_counter() - t0
    after = calibrate()
    checks.record("setup process", [] if done.returncode == 0 else
                  [f"exit {done.returncode}: {done.stderr.strip()[-300:]}"])
    return wall, (before + after) / 2.0


def calibrate(steps=3000):
    """Wall seconds of a fixed loop of small numpy operations and Python calls.

    The speed of a shared 2-core VM wanders by about 20% over tens of
    seconds, for every process alike, and a 25 s run cannot
    average that out.  This loop runs just before and just after each timed
    unit and measures the speed of the moment; it uses no anyopt code, so no
    change to the package moves it.  Its mix (a 5-vector, a matvec, a norm,
    a branch, a clip) is the mix of the conversion loop's steps.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = np.eye(5) + 0.1 * rng.standard_normal((5, 5))
    x = rng.standard_normal(5)
    total = 0.0
    t0 = time.perf_counter()
    for _ in range(steps):
        y = a @ x - 0.1 * x
        norm = float(np.sqrt(y @ y))
        if norm > 1.0:
            y = y / norm
        x = np.clip(y + 0.01, -1.0, 1.0)
        total += norm
    wall = time.perf_counter() - t0
    if not math.isfinite(total):
        raise RuntimeError("calibration loop diverged")
    return wall


def timed_units(unit, seconds, checks, expected, tracer=None, between=None):
    """Run units until their walls add up to ``seconds``.

    Returns ``(traced, wall, calibration)`` per unit, where ``calibration`` is
    the mean of ``calibrate()`` just before and just after the unit.

    With a tracer, units alternate in pairs that swap which side runs first
    (untraced, traced, traced, untraced, ...) and at least one of each runs.
    ``between(fraction)`` runs after each unit, outside the measured time,
    with the fraction of ``seconds`` measured so far.
    """
    walls = []
    measured = 0.0
    i = 0
    while True:
        traced = tracer is not None and (i % 2 == 1) != (i // 2 % 2 == 1)
        before = calibrate()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        raw = unit.run()
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        walls.append((traced, t1 - t0, (before + calibrate()) / 2.0))
        measured += t1 - t0
        ops = checks.unit(unit, raw, f"unit {i}", expected)
        if expected is None and ops is not None:
            expected = ops  # the same seed must give the same outputs every time
        i += 1
        if between is not None:
            between(measured / seconds if seconds > 0 else 1.0)
        if measured >= seconds and (tracer is None or i >= 2):
            return walls, expected


def measure_end_to_end(args, unit, checks, expected):
    count = SETUP_PROCESSES[args.size]
    setup_walls = []

    def between(fraction):
        # spread the setup samples over the run, so one slow spell of the
        # machine does not decide them all
        while len(setup_walls) < min(count, math.ceil(count * fraction)):
            setup_walls.append(setup_sample(args, checks))

    walls, outputs = timed_units(unit, args.seconds, checks, expected, between=between)
    # a wall at the reference speed is the wall times the speed of the
    # moment relative to the reference, CALIBRATION_REFERENCE_S / cal
    rates = [unit.queries / w * cal / CALIBRATION_REFERENCE_S for _, w, cal in walls]
    metrics = {
        "setup_s": statistics.median(w * CALIBRATION_REFERENCE_S / cal for w, cal in setup_walls),
        "queries_per_ref_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"setup_walls_s": [w for w, _ in setup_walls],
              "setup_calibration_walls_s": [cal for _, cal in setup_walls],
              "unit_walls_s": [w for _, w, _ in walls],
              "calibration_walls_s": [cal for *_, cal in walls],
              "queries_per_s": statistics.median(unit.queries / w for _, w, _ in walls),
              "queries_per_unit": unit.queries}
    return metrics, detail, outputs


def measure_per_layer(args, unit, checks, expected, spans_path):
    from tracing import Tracer

    tracer = Tracer()
    walls, outputs = timed_units(unit, args.seconds, checks, expected, tracer)
    traced = [w for t, w, _ in walls if t]
    plain = [w for t, w, _ in walls if not t]
    metrics, absent = tracer.layer_metrics(len(traced), statistics.median(traced),
                                           statistics.median(plain))
    tracer.save(spans_path)
    detail = {"traced_unit_walls_s": traced, "untraced_unit_walls_s": plain,
              "absent": absent, "spans_file": str(spans_path.relative_to(ROOT)),
              "queries_per_unit": unit.queries}
    return metrics, detail, outputs


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    import_package()
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import PER_LAYER_UNITS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        checks = Checks()
        unit, expected = setup(args, workloads, checks, workdir)
        if args.setup_only:
            for failure in checks.failures:
                print(failure, file=sys.stderr)
            return 1 if checks.failures else 0

        env = environment()
        for key, value in env.items():
            print(f"env {key}: {value}")
        stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, detail, outputs = measure_per_layer(
                args, unit, checks, expected, OUT_DIR / f"{stem}-spans.npz")
            unit_of = PER_LAYER_UNITS
        else:
            metrics, detail, outputs = measure_end_to_end(args, unit, checks, expected)
            unit_of = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checks.failures)
    fail_frac = failed / checks.attempted
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(f"fail_frac: {fail_frac} ({failed} of {checks.attempted} checks)")
    for name, value in metrics.items():
        note = " (absent: layer did not run)" if name in detail.get("absent", ()) else ""
        print(f"{name}: {value} {unit_of[name]}{note}")
    if "queries_per_s" in detail:
        print(f"queries_per_s (wall, not scaled to the reference speed): "
              f"{detail['queries_per_s']} 1/s")
    record = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "fail_frac": fail_frac, "failures": checks.failures,
              "unit_outputs": outputs, "metrics": metrics, **detail}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    if not all(math.isfinite(v) for v in metrics.values()):
        sys.exit(f"perfbench: non-finite metric in {metrics}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
