"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions each layer exposes, in every
``diskflow`` module namespace that refers to them, with wrappers that record a
span (name, start, end, parent, run id) or bump a counter.  Nothing under
``src/`` changes; ``uninstall`` puts the originals back.  Spans stay in memory
until the run writes them out.

Layers are the modules under ``src/diskflow/``.  A span's self time is its
duration minus the time covered by its child spans.  Each CLI call is a root
``cli`` span, whose self time holds whatever no named layer covers.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

perf_counter = time.perf_counter


# (module, attribute, span name); "Class.method" patches the method in place
SPANS = [
    ("surfaces", "sample_poisson", "surfaces.sample"),
    ("delaunay", "delaunay", "delaunay"),
    ("delaunay", "ConvexHull", "delaunay.triangulate"),
    ("delaunay", "PlanarDelaunay", "delaunay.triangulate"),
    ("estimators", "chi_estimator", "estimators"),
    ("estimators", "face_defect_in_region", "estimators"),
    # first draw to accepted triangulation, resamples included
    ("estimators", "_run_trial", "estimators.trial"),
    ("angles", "find_negative_delaunay", "angles.lp"),
    ("hyperbolic", "class_hessian", "hyperbolic.hessian"),
    ("hyperbolic", "objective_H", "hyperbolic.objective"),
    ("hyperbolic", "class_grad", "hyperbolic.grad"),
    ("uniformize", "uniformize", "uniformize"),
    ("uniformize", "assemble_structure", "uniformize.assemble"),
    ("smoothflow", "MeshMetric.__init__", "smoothflow.build"),
    ("smoothflow", "teleport", "smoothflow.teleport"),
    ("smoothflow", "log_ricci_flow", "smoothflow.flow"),
    ("serialization", "read_json", "serialization"),
    ("serialization", "write_json", "serialization"),
    ("serialization", "trials_csv", "serialization"),
    ("serialization", "counts_csv", "serialization"),
    ("serialization", "trace_csv", "serialization"),
]

# called thousands of times per flow: counted, not spanned
COUNTED = [("smoothflow", "evaluate_Ig", "smoothflow.objective_evals")]


def _on_return(counts: Counter, name: str, result) -> None:
    """Counts read off a wrapped call's result."""
    if name == "surfaces.sample":
        counts["surfaces.samples"] += 1
    elif name == "delaunay":
        counts["delaunay.calls"] += 1
        counts["delaunay.accepted"] += 1
        counts["delaunay.faces"] += result.face_count
    elif name == "hyperbolic.hessian":
        counts["hyperbolic.hessian_calls"] += 1
        counts["hyperbolic.hessian_bytes"] += result.nbytes
    elif name == "hyperbolic.objective":
        counts["hyperbolic.objective_calls"] += 1
    elif name == "angles.lp":
        counts["angles.lp_calls"] += 1
    elif name == "uniformize":
        counts["uniformize.newton_iters"] += len(result[2])
    elif name == "smoothflow.flow":
        report = result[1]
        counts["smoothflow.flow_iters"] += report.iterations
        counts["smoothflow.newton_steps"] += sum(s.newton for s in report.steps)


def _on_raise(counts: Counter, name: str) -> None:
    if name == "delaunay":
        counts["delaunay.calls"] += 1  # a rejected sample, resampled by the caller


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.run_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self, name: str):
        """Top-level span of one CLI call; its spans share a fresh run id."""
        self.run_id += 1
        with self.span(name):
            yield

    def _spanned(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            except Exception:
                _on_raise(tracer.counts, name)
                raise
            _on_return(tracer.counts, name, result)
            return result

        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "diskflow"]
        targets = [(*t, self._spanned) for t in SPANS] + [(*t, self._counted) for t in COUNTED]
        for mod_name, attr, name, make in targets:
            mod = sys.modules[f"diskflow.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, make(cls.__dict__[meth], name))
                continue
            original = getattr(mod, attr)
            wrapper = make(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def self_times(spans) -> tuple[Counter, Counter]:
    """Inclusive and self time per span name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    total, own = Counter(), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - covered[i]
    return total, own


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def layer_metrics(tracer: Tracer, traced_wall: float, plain_wall: float) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    total, own = self_times(tracer.spans)
    c = tracer.counts
    trials_ms = [
        1e3 * (end - start) for name, start, end, _, _ in tracer.spans
        if name == "estimators.trial"
    ]
    calls = c["delaunay.calls"]
    iters = c["smoothflow.flow_iters"]
    return {
        "surfaces.sample_s": own["surfaces.sample"],
        "surfaces.samples": c["surfaces.samples"],
        "delaunay.s": total["delaunay"],
        "delaunay.triangulate_s": own["delaunay.triangulate"],
        "delaunay.check_s": own["delaunay"],
        "delaunay.calls": calls,
        "delaunay.accept_ratio": c["delaunay.accepted"] / calls if calls else 0.0,
        "delaunay.faces": c["delaunay.faces"],
        "estimators.trials": len(trials_ms),
        "estimators.trial_p50_ms": statistics.median(trials_ms) if trials_ms else 0.0,
        "estimators.trial_p90_ms": _percentile(trials_ms, 0.9),
        "estimators.self_s": own["estimators"] + own["estimators.trial"],
        "angles.lp_s": own["angles.lp"],
        "angles.lp_calls": c["angles.lp_calls"],
        "hyperbolic.hessian_s": own["hyperbolic.hessian"],
        "hyperbolic.hessian_calls": c["hyperbolic.hessian_calls"],
        "hyperbolic.hessian_bytes": c["hyperbolic.hessian_bytes"],
        "hyperbolic.objective_s": own["hyperbolic.objective"],
        "hyperbolic.objective_calls": c["hyperbolic.objective_calls"],
        "hyperbolic.grad_s": own["hyperbolic.grad"],
        "uniformize.self_s": own["uniformize"],
        "uniformize.newton_iters": c["uniformize.newton_iters"],
        "uniformize.assemble_s": own["uniformize.assemble"],
        "smoothflow.build_s": own["smoothflow.build"],
        "smoothflow.teleport_s": own["smoothflow.teleport"],
        "smoothflow.flow_s": own["smoothflow.flow"],
        "smoothflow.flow_iters": iters,
        "smoothflow.objective_evals": c["smoothflow.objective_evals"],
        "smoothflow.evals_per_iter": c["smoothflow.objective_evals"] / iters if iters else 0.0,
        "smoothflow.newton_steps": c["smoothflow.newton_steps"],
        "serialization.s": own["serialization"],
        "cli.self_s": own["cli"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        # named layers only: the root "cli" span would absorb the rest
        "trace.attributed_share": (sum(own.values()) - own["cli"]) / traced_wall,
    }
