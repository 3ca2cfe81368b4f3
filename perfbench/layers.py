"""Traced in-process scenario run: per-layer self times and counts.

The benchmark wraps calls into each qhgeo module from outside; nothing in
``src/`` is instrumented.  A function is wrapped under every name its callers
look it up by (``verifier/scenario.py`` imports the estimators by name), and a
method is wrapped on its class.  Spans are kept in memory and written out
when the run ends.  Each span records its name, start, end, parent span, run
id and thread.  A layer's self time is the duration of its spans minus the
part of each that its child spans cover; spans opened by ``--jobs`` worker
threads are children of the run's root span.

Rows are counted by wrappers around the ``dijkstra`` that ``qhgeo.views``
calls and around ``DenseChainView._single_source``.  The tracer times its
own code on every call (span bookkeeping, count hooks and counting
wrappers) and reports the sum as ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name): a function wrapped under all of its aliases,
# or a method "Class.name" wrapped on that class
SPANS = [
    ("qhgeo.views", "GraphView.rows", "views.graph.rows"),
    ("qhgeo.views", "GraphView.pairs", "views.graph.pairs"),
    ("qhgeo.views", "DenseChainView.rows", "views.chain.rows"),
    ("qhgeo.metric_core", "build_grid_domain", "metric_core.build_grid_domain"),
    ("qhgeo.quasihyperbolic", "QuasihyperbolicMetric.__init__", "quasihyperbolic.metric_build"),
    ("qhgeo.quasihyperbolic", "QuasihyperbolicMetric.geodesic", "quasihyperbolic.geodesic"),
    ("qhgeo.quasihyperbolic", "estimate_uniformity", "quasihyperbolic.estimate_uniformity"),
    ("qhgeo.quasihyperbolic", "verify_qh_distance_bounds",
     "quasihyperbolic.verify_qh_distance_bounds"),
    ("qhgeo.deformations", "sphericalize", "deformations.sphericalize"),
    ("qhgeo.deformations", "UniformizedSpace.boundary_distance", "deformations.boundary_distance"),
    ("qhgeo.deformations", "SphericalizedSpace.boundary_distance",
     "deformations.boundary_distance"),
    ("qhgeo.deformations", "UniformizedSpace.qh_view", "deformations.qh_view"),
    ("qhgeo.deformations", "SphericalizedSpace.qh_view", "deformations.qh_view"),
    ("qhgeo.deformations", "sphericalization_envelope", "deformations.sphericalization_envelope"),
    ("qhgeo.hyperbolicity", "estimate_rough_starlikeness",
     "hyperbolicity.estimate_rough_starlikeness"),
    ("qhgeo.sampling", "check_metric_axioms", "sampling.check_metric_axioms"),
    ("qhgeo.sampling", "pair_sample", "sampling.pair_sample"),
    ("qhgeo.verifier.scenario", "ScenarioContext.__init__", "scenario.context"),
] + [
    ("qhgeo.mapping_analysis", name, f"mapping_analysis.{name}")
    for name in ("estimate_quasi_isometry", "estimate_quasimobius",
                 "estimate_local_quasisymmetry", "estimate_qh_bilipschitz",
                 "sample_qh_pairs", "check_global_qs_hypotheses")
]
ESTIMATORS = ("mapping_analysis.estimate_quasi_isometry", "mapping_analysis.estimate_quasimobius",
              "mapping_analysis.estimate_local_quasisymmetry",
              "mapping_analysis.estimate_qh_bilipschitz")
ROOT_SPAN = "scenario.run"

# per-layer metrics: the self time of each span name, and the counters (name -> unit)
SELF_TIMES = list(dict.fromkeys(name for _, _, name in SPANS)) + ["shapes.contains", ROOT_SPAN]
COUNTS = {
    "views.graph.rows.calls": "count",
    "views.graph.sources_requested": "count",
    "views.graph.sources_computed": "count",
    "views.graph.edges_scanned": "count",
    "views.graph.pairs.queries": "count",
    "views.graph.pairs.distinct_sources": "count",
    "views.graph.bytes_cached": "bytes",
    "views.chain.sources_computed": "count",
    "views.chain.weight_entries": "count",
    "metric_core.build_grid_domain.vertices": "count",
    "metric_core.build_grid_domain.edges": "count",
    "shapes.contains.points": "count",
    "quasihyperbolic.geodesic.calls": "count",
    "mapping_analysis.samples": "count",
    "mapping_analysis.skipped": "count",
}


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, thread id)
        self.counts: Counter = Counter()
        self.overhead_s = 0.0  # time spent in the tracer's own code, on every thread
        self.root = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: int = 1):
        with self._lock:
            self.counts[name] += int(amount)

    def charge(self, seconds: float):
        with self._lock:
            self.overhead_s += seconds

    def wrap(self, fn, name: str, hook=None):
        """``fn`` inside a span; ``hook(args, kwargs, result)`` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            stack = self.stack()
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else self.root
            if self.root is None:
                self.root = span_id
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
            if hook is not None:
                hook(args, kwargs, result)
            self.charge(start - entered + time.perf_counter() - end)
            return result

        return traced

    def in_span(self, prefixes) -> bool:
        return any(name.startswith(prefixes) for _, name in self.stack())

    def self_times(self) -> dict:
        """Per span name: total duration minus the union of child-span coverage."""
        children = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            covered, reach = 0.0, start
            for a, b in sorted(children.get(span_id, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            totals[name] += (end - start) - covered
        return totals

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "run_id": self.run_id,
                "fields": ["id", "name", "start", "end", "parent", "thread"],
                "spans": self.spans,
                "counts": dict(self.counts),
            }, fh)


def _install(module: str, attr: str, wrapper):
    """Replace ``module.attr`` by ``wrapper(original)`` wherever callers look it up."""
    mod = importlib.import_module(module)
    cls_name, _, method = attr.rpartition(".")
    if cls_name:
        cls = getattr(mod, cls_name)
        setattr(cls, method, wrapper(cls.__dict__[method]))
        return
    original = getattr(mod, attr)
    wrapped = wrapper(original)
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("qhgeo"):
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)


def instrument(tracer: Tracer):
    """Wrap every traced layer and the counters at its boundary."""
    add = tracer.add

    def graph_rows(args, kwargs, result):
        add("views.graph.rows.calls")
        add("views.graph.sources_requested", len(result))

    def graph_pairs(args, kwargs, result):
        i = np.asarray(args[1])
        add("views.graph.pairs.queries", len(i))
        add("views.graph.pairs.distinct_sources", len(np.unique(i)))

    def grid(args, kwargs, result):
        add("metric_core.build_grid_domain.vertices", result.n)
        add("metric_core.build_grid_domain.edges", len(result.graph.edges))

    def estimator(args, kwargs, result):
        # nested calls (bilateral estimators) are summed into their caller's result
        if tracer.in_span(ESTIMATORS):
            return
        n = next(getattr(result, k) for k in ("n_samples", "n_quadruples", "n_pairs")
                 if hasattr(result, k))
        add("mapping_analysis.samples", n)
        add("mapping_analysis.skipped", getattr(result, "n_skipped", 0))

    hooks = {
        "views.graph.rows": graph_rows,
        "views.graph.pairs": graph_pairs,
        "metric_core.build_grid_domain": grid,
        "quasihyperbolic.geodesic": lambda a, k, r: add("quasihyperbolic.geodesic.calls"),
        **{name: estimator for name in ESTIMATORS},
    }
    for module, attr, name in SPANS:
        _install(module, attr, lambda fn, name=name: tracer.wrap(fn, name, hooks.get(name)))

    shapes = importlib.import_module("qhgeo.shapes")
    for cls in vars(shapes).values():
        if isinstance(cls, type) and issubclass(cls, shapes.ShapeGeometry) and "contains" in vars(cls):
            cls.contains = tracer.wrap(
                cls.contains, "shapes.contains",
                lambda a, k, r: add("shapes.contains.points", len(a[1])))

    # Rows computed by the engines: scipy's dijkstra as the views module calls it, and
    # the dense chain's single-source loop.  Every computed row is stored in the view's
    # cache, since the benchmark runs scenarios with one check worker.
    views = importlib.import_module("qhgeo.views")

    def counted_dijkstra(fn):
        @functools.wraps(fn)
        def dijkstra(csgraph, *args, **kwargs):
            result = fn(csgraph, *args, **kwargs)
            entered = time.perf_counter()
            if not kwargs.get("min_only", False):  # multi-source nearest-target runs are no rows
                rows = np.atleast_2d(result)
                add("views.graph.sources_computed", len(rows))
                add("views.graph.edges_scanned", len(rows) * csgraph.nnz)
                add("views.graph.bytes_cached", rows.nbytes)
            tracer.charge(time.perf_counter() - entered)
            return result
        return dijkstra

    def counted_chain_source(fn):
        @functools.wraps(fn)
        def single_source(self, source):
            row = fn(self, source)
            entered = time.perf_counter()
            add("views.chain.sources_computed")
            add("views.chain.weight_entries", self.n ** 2)
            tracer.charge(time.perf_counter() - entered)
            return row
        return single_source

    views.dijkstra = counted_dijkstra(views.dijkstra)
    views.DenseChainView._single_source = counted_chain_source(views.DenseChainView._single_source)


def traced_run(scenario_path: str, seed: int, spans_path: str):
    """Run the scenario once under the tracer: (report bytes, per-layer metrics)."""
    from qhgeo.verifier import scenario

    tracer = Tracer(f"{os.path.basename(scenario_path)}:{seed}:{os.getpid()}")
    instrument(tracer)
    raw = scenario.load_scenario(scenario_path)
    run = tracer.wrap(scenario.run_scenario, ROOT_SPAN)
    report = run(raw, seed=seed, jobs=1)
    data = scenario.report_to_json_bytes(report)
    tracer.write(spans_path)

    counts = tracer.counts
    self_times = tracer.self_times()
    metrics = {f"{name}.s": {"value": self_times.get(name, 0.0), "unit": "s"}
               for name in SELF_TIMES}
    metrics.update({name: {"value": counts[name], "unit": unit} for name, unit in COUNTS.items()})
    requested = counts["views.graph.sources_requested"]
    hit_ratio = 1.0 - counts["views.graph.sources_computed"] / requested if requested else 0.0
    metrics["views.graph.hit_ratio"] = {"value": hit_ratio, "unit": "ratio"}
    metrics["scenario.report_bytes"] = {"value": len(data), "unit": "bytes"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    metrics["trace.overhead_s"] = {"value": tracer.overhead_s, "unit": "s"}
    return data, metrics
