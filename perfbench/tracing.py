"""Spans around the calls into each anyopt layer, installed only in a traced run.

The wrappers replace the module attribute or class method that each caller
looks up (callers import functions by name, so a function is patched in every
anyopt module that binds it).  Each call becomes a span (layer, start, end,
parent) kept in flat arrays in memory; a span's self time is its duration
minus the time its child spans cover.  ``as_vector`` runs about eleven times
per query, so it gets a call counter and an aggregate timer instead of spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# (module, attribute or Class.method, layer)
SPANS = (
    ("anyopt.conversion", "run", "conversion.run"),
    ("anyopt.conversion", "weighting_update", "conversion.weighting_update"),
    ("anyopt.conversion", "anytime_identity_audit", "conversion.anytime_identity_audit"),
    ("anyopt.geometry", "L2Ball.project", "geometry.project"),
    ("anyopt.geometry", "L2Ball.bregman_project", "geometry.project"),
    ("anyopt.geometry", "Simplex.project", "geometry.project"),
    ("anyopt.geometry", "Simplex.bregman_project", "geometry.project"),
    ("anyopt.oracles", "SyntheticOracle.query", "oracles.query"),
    ("anyopt.oracles", "MiniBatchOracle.query", "oracles.query"),
    ("anyopt.objectives", "Quadratic.gradient", "objectives.gradient"),
    ("anyopt.objectives", "MulticlassLogistic.gradient", "objectives.gradient"),
    ("anyopt.objectives", "Quadratic.value", "objectives.value"),
    ("anyopt.objectives", "MulticlassLogistic.value", "objectives.value"),
    ("anyopt.objectives", "Quadratic.bregman", "objectives.bregman"),
    ("anyopt.objectives", "MulticlassLogistic.bregman", "objectives.bregman"),
    ("anyopt.objectives", "Quadratic.__init__", "objectives.init"),
    ("anyopt.objectives", "MulticlassLogistic.__init__", "objectives.init"),
    ("anyopt.robust", "process", "robust.process"),
    ("anyopt.robust", "SmoothTheoryThreshold.threshold_at", "robust.threshold_at"),
    ("anyopt.robust", "HeuristicThreshold.threshold_at", "robust.threshold_at"),
    ("anyopt.robust", "exact_anchor", "robust.anchor"),
    ("anyopt.robust", "empirical_anchor", "robust.anchor"),
    ("anyopt.learners", "MirrorDescentLearner.step", "learners.MirrorDescentLearner.step"),
    ("anyopt.learners", "FtrlLearner.step", "learners.FtrlLearner.step"),
    ("anyopt.learners", "AoftrlLearner.step", "learners.AoftrlLearner.step"),
    ("anyopt.bounds", "sgd_excess_bound", "bounds"),
    ("anyopt.bounds", "smd_excess_bound", "bounds"),
    ("anyopt.bounds", "q_delta", "bounds"),
    ("anyopt.bounds", "r_delta", "bounds"),
    ("anyopt.bounds", "bernstein_deviation", "bounds"),
    ("anyopt.bounds", "BoundInputs.constant", "bounds"),
    ("anyopt.audits", "run_audit_campaign", "audits.campaign"),
    ("anyopt.experiment", "run_experiment", "experiment"),
    ("anyopt.datasets", "make_synthetic", "datasets.make_synthetic"),
    ("anyopt.cli", "main", "cli"),
    ("anyopt.results", "emit_results", "results.emit_results"),
)
COUNTERS = (("anyopt.geometry", "as_vector", "geometry.as_vector"),)
LEARNERS = ("MirrorDescentLearner", "FtrlLearner")

# Per-layer metrics in report order: name -> unit.  Counts named ``calls`` are
# per unit of work, so they repeat exactly from run to run.
PER_LAYER_UNITS = {
    "conversion.run.self_us_per_query": "us",
    "conversion.run.ms_p50": "ms",
    "conversion.run.ms_tail": "ms",
    "conversion.run.tail_pct": "%",
    "conversion.run.samples": "count",
    "conversion.weighting_update.us_per_call": "us",
    "conversion.anytime_identity_audit.ms_per_call": "ms",
    "conversion.trace_bytes_per_query": "bytes",
    "geometry.as_vector.calls_per_query": "count",
    "geometry.as_vector.us_per_call": "us",
    "geometry.project.us_per_call": "us",
    "oracles.query.calls": "count",
    "oracles.query.self_us_per_call": "us",
    "objectives.gradient.calls": "count",
    "objectives.gradient.us_per_call": "us",
    "objectives.value.us_per_call": "us",
    "objectives.bregman.us_per_call": "us",
    "objectives.init.ms_per_call": "ms",
    "robust.process.calls": "count",
    "robust.process.us_per_call": "us",
    "robust.process.clip_frac": "ratio",
    "robust.threshold_at.us_per_call": "us",
    "robust.anchor.us_per_call": "us",
    "learners.step.calls": "count",
    "learners.step.self_us_per_call": "us",
    **{f"learners.{c}.step.self_us_per_call": "us" for c in LEARNERS},
    "bounds.us_per_call": "us",
    "audits.self_ms_per_rep": "ms",
    "experiment.self_us_per_query": "us",
    "datasets.make_synthetic.s": "s",
    "cli.self_ms": "ms",
    "results.emit_results.ms_per_call": "ms",
    "trace.overhead_frac": "ratio",
}


def _trace_nbytes(trace):
    return sum(getattr(trace, f.name).nbytes for f in dataclasses.fields(trace))


class Tracer:
    """Span and counter store for one traced run (single thread)."""

    def __init__(self):
        self.layers = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.child = array("d")
        self._stack = []
        self.counters = {}
        # values observed on return: queries and trace bytes of conversion.run,
        # clips of process calls, replications of campaigns
        self.totals = dict.fromkeys(("run_queries", "trace_bytes", "clips", "replications"), 0)
        self._patches = []
        self._build()

    def _id(self, layer):
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._ids[layer]

    def _observer(self, layer):
        totals = self.totals
        if layer == "conversion.run":
            def observe(args, kwargs, result):
                totals["run_queries"] += result.horizon
                totals["trace_bytes"] += _trace_nbytes(result)
        elif layer == "robust.process":
            def observe(args, kwargs, result):
                totals["clips"] += bool(result[1])
        elif layer == "audits.campaign":
            def observe(args, kwargs, result):
                totals["replications"] += int(args[1] if len(args) > 1 else kwargs["replications"])
        else:
            observe = None
        return observe

    def _span(self, layer, fn):
        nid = self._id(layer)
        observe = self._observer(layer)
        names, starts, ends, parents, child, stack = (
            self.name, self.start, self.end, self.parent, self.child, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            child.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if stack:
                    child[stack[-1]] += t1 - t0
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _counter(self, layer, fn):
        slot = self.counters.setdefault(layer, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += clock() - t0
                slot[0] += 1

        return counted

    def _build(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "anyopt" or name.startswith("anyopt.")]
        plan = [(m, a, layer, self._span) for m, a, layer in SPANS]
        plan += [(m, a, layer, self._counter) for m, a, layer in COUNTERS]
        for module_name, attr, layer, make in plan:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    replacement = classmethod(make(layer, raw.__func__))
                else:
                    replacement = make(layer, raw)
                self._patches.append((cls, meth, raw, replacement))
                continue
            original = getattr(module, attr)
            replacement = make(layer, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original, replacement))

    def install(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "child": np.frombuffer(self.child, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write the spans out (compressed npz; layer names as JSON)."""
        np.savez_compressed(path, layers=np.array(json.dumps(self.layers)),
                            counters=np.array(json.dumps(self.counters)), **self.arrays())

    def layer_metrics(self, units, traced_wall, untraced_wall):
        """Per-layer metrics over ``units`` traced units; also the absent ones.

        ``traced_wall`` / ``untraced_wall`` are the median unit walls of the
        traced and untraced units, for ``trace.overhead_frac``.  A metric
        whose layer never ran is reported as 0 and listed as absent.
        """
        s = self.arrays()
        name, parent = s["name"], s["parent"]
        dur = s["end"] - s["start"]
        self_time = dur - s["child"]
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

        def ids(*layers):
            return [self._ids[x] for x in layers if x in self._ids]

        def layer(*layers):
            """(calls, inclusive seconds, self seconds, durations) of outermost spans."""
            member = np.isin(name, ids(*layers))
            outer = member & ~np.isin(parent_name, ids(*layers))
            return int(outer.sum()), float(dur[outer].sum()), float(self_time[member].sum()), dur[outer]

        def under(layers_a, layers_b):
            """Number of spans of layers_a that have an ancestor in layers_b."""
            idx = np.nonzero(np.isin(name, ids(*layers_a)))[0]
            found = np.zeros(idx.size, dtype=bool)
            cur = parent[idx]
            target = ids(*layers_b)
            while np.any(cur >= 0):
                valid = cur >= 0
                found[valid] |= np.isin(name[cur[valid]], target)
                cur = np.where(valid, parent[np.maximum(cur, 0)], -1)
            return int(found.sum())

        metrics, absent = {}, []

        def put(metric, value, base):
            if base:
                metrics[metric] = float(value)
            else:
                metrics[metric] = 0.0
                absent.append(metric)

        def per(total, count, scale):
            return total / count * scale if count else 0.0

        run_calls, _, run_self, run_durs = layer("conversion.run")
        q = self.totals["run_queries"]
        put("conversion.run.self_us_per_query", per(run_self, q, 1e6), q)
        durs = np.sort(run_durs)
        n = durs.size
        put("conversion.run.ms_p50", float(np.median(durs)) * 1e3 if n else 0.0, n)
        # highest percentile with at least ten samples beyond it
        tail_index = n - 11 if n > 10 else n - 1
        put("conversion.run.ms_tail", durs[tail_index] * 1e3 if n else 0.0, n)
        put("conversion.run.tail_pct", 100.0 * (n - 10) / n if n > 10 else 100.0, n)
        put("conversion.run.samples", n, n)
        for short, scale in (("weighting_update", 1e6), ("anytime_identity_audit", 1e3)):
            calls, incl, _, _ = layer(f"conversion.{short}")
            unit = "us" if scale == 1e6 else "ms"
            put(f"conversion.{short}.{unit}_per_call", per(incl, calls, scale), calls)
        put("conversion.trace_bytes_per_query", per(self.totals["trace_bytes"], q, 1), q)

        queries, _, query_self, _ = layer("oracles.query")
        av_calls, av_time = self.counters.get("geometry.as_vector", (0, 0.0))
        put("geometry.as_vector.calls_per_query", per(av_calls, queries, 1), queries and av_calls)
        put("geometry.as_vector.us_per_call", per(av_time, av_calls, 1e6), av_calls)
        calls, incl, _, _ = layer("geometry.project")
        put("geometry.project.us_per_call", per(incl, calls, 1e6), calls)
        put("oracles.query.calls", queries / units, queries)
        put("oracles.query.self_us_per_call", per(query_self, queries, 1e6), queries)

        calls, incl, _, _ = layer("objectives.gradient")
        put("objectives.gradient.calls", calls / units, calls)
        put("objectives.gradient.us_per_call", per(incl, calls, 1e6), calls)
        for short in ("value", "bregman"):
            calls, incl, _, _ = layer(f"objectives.{short}")
            put(f"objectives.{short}.us_per_call", per(incl, calls, 1e6), calls)
        calls, incl, _, _ = layer("objectives.init")
        put("objectives.init.ms_per_call", per(incl, calls, 1e3), calls)

        calls, incl, _, _ = layer("robust.process")
        put("robust.process.calls", calls / units, calls)
        put("robust.process.us_per_call", per(incl, calls, 1e6), calls)
        put("robust.process.clip_frac", per(self.totals["clips"], calls, 1), calls)
        for short in ("threshold_at", "anchor"):
            calls, incl, _, _ = layer(f"robust.{short}")
            put(f"robust.{short}.us_per_call", per(incl, calls, 1e6), calls)

        steps = [f"learners.{c}.step" for c in ("MirrorDescentLearner", "FtrlLearner",
                                                 "AoftrlLearner")]
        calls, _, own, _ = layer(*steps)
        put("learners.step.calls", calls / units, calls)
        put("learners.step.self_us_per_call", per(own, calls, 1e6), calls)
        for cls in LEARNERS:
            calls, _, own, _ = layer(f"learners.{cls}.step")
            put(f"learners.{cls}.step.self_us_per_call", per(own, calls, 1e6), calls)

        calls, incl, _, _ = layer("bounds")
        put("bounds.us_per_call", per(incl, calls, 1e6), calls)
        _, _, own, _ = layer("audits.campaign")
        reps = self.totals["replications"]
        put("audits.self_ms_per_rep", per(own, reps, 1e3), reps)
        _, _, own, _ = layer("experiment")
        exp_queries = under(("oracles.query",), ("experiment",))
        put("experiment.self_us_per_query", per(own, exp_queries, 1e6), exp_queries)
        calls, incl, _, _ = layer("datasets.make_synthetic")
        put("datasets.make_synthetic.s", per(incl, calls, 1), calls)
        calls, _, own, _ = layer("cli")
        put("cli.self_ms", per(own, calls, 1e3), calls)
        calls, incl, _, _ = layer("results.emit_results")
        put("results.emit_results.ms_per_call", per(incl, calls, 1e3), calls)
        put("trace.overhead_frac", traced_wall / untraced_wall - 1.0, True)
        if list(metrics) != list(PER_LAYER_UNITS):
            raise RuntimeError("per-layer metrics out of step with PER_LAYER_UNITS")
        return metrics, absent
