"""The benchmark's workloads: one unit of work each, its query count, its checks.

Every workload is a closed loop with one caller in one process: the next unit
starts when the previous one has returned.  A unit is made of operations (one
campaign call or one ``anyopt bench`` invocation); each operation yields a
dict of outputs that is checked on its own, so one failure does not hide
another.  Query counts are fixed by the workload definition, so
``queries_per_ref_s`` compares across commits.

Why each workload was chosen, and which layer dominates it (cProfile shares
on a 2-core x86-64 box, Python 3.11, numpy 2.4):

audit-sgd
    ``run_audit_campaign("corollary-sgd", M, seed)``: robust anytime projected
    SGD on a d=5 quadratic, T=500, Student-t noise.  Dominated by the
    overhead of the conversion loop: under cProfile 80% of wall time is
    inside ``conversion.run`` and ``as_vector`` runs 11.0 times per query.
    This is where batching ``conversion.run`` and validating once at the
    boundary must show.

audit-pathwise
    The ``anytime-identity`` (T=50, random weights) and ``regret-smd``
    (Euclidean and entropy geometry, T=101) campaigns at their acceptance
    sizes, and FTRL runs of ``conversion.run`` set up as the
    ``regret-ftrl`` campaign sets them up (T=101).  Same loop used
    differently: short horizons, ``FtrlLearner`` and the entropy map, a new
    objective per replication.  Post-hoc audit loops that read the per-step
    trace take about 30% (``anytime_identity_audit``).  A change that speeds
    long runs but adds fixed cost per run, or that stops keeping the trace
    arrays these audits read, shows here.  The ``regret-ftrl`` campaign
    itself is not run: its cumulative-regret check reports violations on
    about one seed in three (39 of 120 random seeds at M=20, slack down to
    -2e-3), a defect of the package, and a benchmark operation must not fail.
    The FTRL runs are checked instead against the learner's closed form,
    h_{t+1} = P_ball(-sum_{i<=t} alpha_i g_i / s_{t+1}), and the anytime
    identity.

bench-logistic
    ``anyopt.cli.main(["bench", ...])`` in-process on the default
    ``synthetic`` set (n=10,000, k=3, d=20, a 60-dim model) for all three
    methods, output to a temporary directory.  The user-facing command.
    ``MulticlassLogistic.gradient`` takes 46% and ``process`` 30%.
    ``experiment.py`` runs its own loop, so changes confined to
    ``conversion.run`` or the learners should leave this workload unchanged.

audit-sgd-wide
    The ``corollary-sgd`` campaign with ``dim=500``.  Bound by numpy kernels
    and per-replication setup: ``eigvalsh`` in ``Quadratic.__init__`` takes
    67% and the 500x500 matvec per gradient most of the rest, so removing
    per-call overhead should not move it.  The only workload for the objectives
    kernel layer at large d, and the first place trace memory shows.  BLAS
    is pinned to one thread because two OpenBLAS threads made it the
    noisiest workload (CPU/wall 1.4-1.8).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from anyopt import audits, cli, conversion, geometry, learners, objectives, oracles, robust

SGD_HORIZON = 500

# The results.csv column contract; compared literally so a change shows even
# if the package's own constant moves with it.
RESULTS_CSV_HEADER = "trial,epoch,method,train_loss,test_loss,truncation_rate,wall_time_ms"
BENCH_METHODS = ("sgd-ave", "anytime-sgd", "anytime-robust-sgd")

# Parameters of one unit per workload, at the full size and at the tiny size
# the self-test uses.
SIZES = {
    "audit-sgd": {
        "full": {"replications": 10, "dim": 5},
        "tiny": {"replications": 2, "dim": 5},
    },
    "audit-pathwise": {
        "full": {"identity": 50, "smd": 10, "ftrl": 10},
        "tiny": {"identity": 4, "smd": 2, "ftrl": 2},
    },
    "bench-logistic": {
        "full": {"dataset": "synthetic", "n": 10_000, "trials": 1, "epochs": 5, "batch": 8},
        "tiny": {"dataset": "synthetic:n=400", "n": 400, "trials": 1, "epochs": 1, "batch": 8},
    },
    "audit-sgd-wide": {
        "full": {"replications": 4, "dim": 500},
        "tiny": {"replications": 1, "dim": 50},
    },
}


class Unit:
    """One unit of work of a workload, bound to its parameters and seed.

    ``run()`` is the timed part and returns raw results; ``outputs(raw)`` turns
    them into one ``(op, outputs, problems)`` triple per operation and runs
    outside the timed window.
    """

    queries = 0

    def run(self):
        raise NotImplementedError

    def outputs(self, raw):
        raise NotImplementedError


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


class _Campaigns(Unit):
    def __init__(self, calls, seed):
        # calls: (kind, replications, params, queries) per operation
        self.calls = calls
        self.seed = seed
        self.queries = sum(q for *_, q in calls)

    def run(self):
        out = []
        for kind, replications, params, _ in self.calls:
            try:
                out.append(audits.run_audit_campaign(kind, replications, self.seed, **params))
            except Exception as err:  # an op that raises is a failed op, not a crash
                out.append(err)
        return out

    def outputs(self, raw):
        triples = []
        for (kind, *_), report in zip(self.calls, raw):
            if isinstance(report, Exception):
                triples.append((kind, {}, [f"raised {type(report).__name__}: {report}"]))
                continue
            outputs = {"violations": int(report.violations), "passed": bool(report.passed)}
            problems = [] if report.passed else ["verdict FAIL"]
            if kind == "corollary-sgd":
                outputs["worst_excess"] = float(report.details["worst_excess"])
            elif kind == "anytime-identity":
                outputs["worst_relative_gap"] = float(report.details["worst_relative_gap"])
            else:
                outputs["min_slack"] = float(report.details["min_slack"])
            if kind != "corollary-sgd" and report.violations:
                problems.append(f"{report.violations} violations")
            problems += [f"{k} not finite" for k, v in outputs.items() if not _finite(v)]
            triples.append((kind, outputs, problems))
        return triples


def _audit_sgd(params, seed, workdir):
    m, dim = params["replications"], params["dim"]
    return _Campaigns([("corollary-sgd", m, {"dim": dim}, m * SGD_HORIZON)], seed)


FTRL_HORIZON = 101
FTRL_DIM = 5
# Largest distance allowed between an FTRL iterate and its closed form, and
# the relative tolerance of the package's own identity campaign.
FTRL_ITERATE_TOL = 1e-12
IDENTITY_RTOL = 1e-9


class _FtrlRuns:
    """FTRL runs of the conversion loop, set up as the ``regret-ftrl`` campaign does.

    Functions are looked up on their modules at call time, so the tracer's
    wrappers see these calls.
    """

    op = "ftrl-run"

    def __init__(self, replications, seed):
        self.replications = replications
        self.seed = seed

    def run(self):
        rng = oracles.child_rng(self.seed, 0xF7)
        noise = oracles.NoiseSpec("student-t", 0.05, 2.5)
        sigma = oracles.SyntheticOracle(noise).sigma(FTRL_DIM)
        runs = []
        for _ in range(self.replications):
            ball = geometry.L2Ball(np.zeros(FTRL_DIM), 1.0)
            direction = rng.standard_normal(FTRL_DIM)
            h_star = 0.3 * rng.random() ** (1.0 / FTRL_DIM) * direction / np.linalg.norm(direction)
            obj = objectives.Quadratic(np.eye(FTRL_DIM), h_star, feasible_set=ball)
            oracle = oracles.SyntheticOracle(noise, seed=rng.integers(2**63))
            learner = learners.FtrlLearner(ball, learners.QuadraticRegularizer.sqrt_schedule(1.0))
            h1 = learner.start()
            anchor = robust.exact_anchor(obj, h1, delta=0.05)
            c0 = robust.certified_c0(obj.smoothness, ball.diameter, sigma, FTRL_HORIZON, 0.05)
            schedule = robust.SmoothTheoryThreshold(smoothness=obj.smoothness, c0=c0)
            trace = conversion.run(obj, oracle, anchor, schedule, learner,
                                   np.ones(FTRL_HORIZON), FTRL_HORIZON)
            runs.append((obj, h_star, trace))
        return runs

    def outputs(self, runs):
        """Closed-form and identity checks of every run, and the mean final excess."""
        problems = []
        strengths = np.sqrt(np.arange(2, FTRL_HORIZON + 1))  # s_{t+1} of sqrt_schedule(1.0)
        worst_iterate, worst_gap, excess = 0.0, 0.0, []
        for obj, h_star, trace in runs:
            duals = np.cumsum(trace.weights[:-1, None] * trace.grads_processed[:-1], axis=0)
            expected = -duals / strengths[:, None]
            expected /= np.maximum(1.0, np.linalg.norm(expected, axis=1))[:, None]
            worst_iterate = max(worst_iterate,
                                float(np.max(np.abs(trace.ancillary[1:] - expected))))
            audit = conversion.anytime_identity_audit(trace, obj, h_star)
            gap = max(audit.identity_gap, audit.decomposition_gap) / (1.0 + abs(audit.lhs))
            worst_gap = max(worst_gap, gap)
            excess.append(audit.lhs)
        if worst_iterate > FTRL_ITERATE_TOL:
            problems.append(f"FTRL iterate off its closed form by {worst_iterate:.3g}")
        if worst_gap > IDENTITY_RTOL:
            problems.append(f"anytime identity gap {worst_gap:.3g}")
        outputs = {"mean_final_excess": float(np.mean(excess))}
        problems += [f"{k} not finite" for k, v in outputs.items() if not _finite(v)]
        return self.op, outputs, problems


class _Pathwise(_Campaigns):
    def __init__(self, params, seed, workdir):
        super().__init__(
            [
                ("anytime-identity", params["identity"], {}, params["identity"] * 50),
                ("regret-smd", params["smd"], {}, params["smd"] * 2 * 101),
            ],
            seed,
        )
        self.ftrl = _FtrlRuns(params["ftrl"], seed)
        self.queries += params["ftrl"] * FTRL_HORIZON

    def run(self):
        out = super().run()
        try:
            out.append(self.ftrl.run())
        except Exception as err:
            out.append(err)
        return out

    def outputs(self, raw):
        *campaigns, runs = raw
        if isinstance(runs, Exception):
            last = (self.ftrl.op, {}, [f"raised {type(runs).__name__}: {runs}"])
        else:
            last = self.ftrl.outputs(runs)
        return super().outputs(campaigns) + [last]


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _Bench(Unit):
    def __init__(self, params, seed, workdir):
        self.params = params
        self.seed = seed
        self.out = Path(workdir) / "bench"
        steps_per_epoch = -(-int(0.8 * params["n"]) // params["batch"])
        self.queries = len(BENCH_METHODS) * params["trials"] * params["epochs"] * steps_per_epoch

    def _argv(self, method):
        p = self.params
        return ["bench", "--dataset", p["dataset"], "--method", method,
                "--trials", str(p["trials"]), "--epochs", str(p["epochs"]),
                "--batch", str(p["batch"]), "--seed", str(self.seed),
                "--out", str(self.out / method)]

    def run(self):
        out = []
        sink = io.StringIO()  # the command's progress lines are not the benchmark's output
        for method in BENCH_METHODS:
            try:
                with contextlib.redirect_stdout(sink):
                    out.append(cli.main(self._argv(method)))
            except Exception as err:
                out.append(err)
        return out

    def outputs(self, raw):
        triples = []
        rows_expected = self.params["trials"] * self.params["epochs"]
        for method, code in zip(BENCH_METHODS, raw):
            if isinstance(code, Exception):
                triples.append((method, {}, [f"raised {type(code).__name__}: {code}"]))
                continue
            problems = [] if code == 0 else [f"exit code {code}"]
            results = self.out / method / "results.csv"
            summary = self.out / method / "results_summary.csv"
            lines = results.read_text().splitlines()
            if lines[0] != RESULTS_CSV_HEADER:
                problems.append("results.csv header changed")
            if len(lines) - 1 != rows_expected:
                problems.append(f"{len(lines) - 1} result rows, expected {rows_expected}")
            for line in lines[1:]:
                fields = line.split(",")
                if len(fields) != 7 or not all(math.isfinite(float(x)) for x in fields[3:5]):
                    problems.append(f"bad result row {line!r}")
                    break
            outputs = {"results_csv_sha256": _sha256(results),
                       "summary_csv_sha256": _sha256(summary)}
            triples.append((method, outputs, problems))
        return triples


WORKLOADS = {
    "audit-sgd": _audit_sgd,
    "audit-pathwise": _Pathwise,
    "bench-logistic": _Bench,
    "audit-sgd-wide": _audit_sgd,
}


def make_unit(workload, size, seed, workdir):
    """Build the inputs of one unit of ``workload`` at ``size`` for ``seed``."""
    return WORKLOADS[workload](SIZES[workload][size], int(seed), workdir)
