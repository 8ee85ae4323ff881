"""Span tracing for the benchmark's traced run.

Timing wrappers are installed from here, around the public functions that
``knotfold.cli`` and ``knotfold.pipeline`` call, by replacing the names in
those modules.  Spans are kept in memory with their parent span and the
counts the per-layer metrics need, and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from time import perf_counter

# (module, attribute, span name); a span name is the layer and function
WRAPPED = (
    ("knotfold.cli", "run_pipeline", "pipeline.run"),
    ("knotfold.cli", "grid_to_planar", "grid.to_planar"),
    ("knotfold.cli", "alexander", "alexander.alexander"),
    ("knotfold.cli", "project", "alexander.project"),
    ("knotfold.cli", "certify", "bounds.certify"),
    ("knotfold.cli", "serialize_lattice", "lattice.serialize"),
    ("knotfold.cli", "smooth", "rope.smooth"),
    ("knotfold.cli", "rope_metrics", "rope.metrics"),
    ("knotfold.cli", "export_geometry", "rope.export"),
    ("knotfold.pipeline", "settle", "lattice.settle"),
    ("knotfold.pipeline", "fold_horizontal", "lattice.fold_horizontal"),
    ("knotfold.pipeline", "fold_vertical", "lattice.fold_vertical"),
)

# per-layer metric name -> (span name, what to total); "time" is the span's
# duration, "self" its duration minus its children's
LAYER_METRICS = {
    "alexander.alexander_s": ("alexander.alexander", "time"),
    "alexander.calls": ("alexander.alexander", "calls"),
    "alexander.crossings": ("alexander.alexander", "crossings"),
    "alexander.project_s": ("alexander.project", "time"),
    "alexander.shear_tries": ("alexander.project", "shear_tries"),
    "grid.to_planar_s": ("grid.to_planar", "time"),
    "rope.metrics_s": ("rope.metrics", "time"),
    "rope.pieces": ("rope.metrics", "pieces"),
    "rope.smooth_s": ("rope.smooth", "time"),
    "rope.export_s": ("rope.export", "time"),
    "pipeline.run_s": ("pipeline.run", "time"),
    "pipeline.self_s": ("pipeline.run", "self"),
    "lattice.settle_s": ("lattice.settle", "time"),
    "lattice.fold_horizontal_s": ("lattice.fold_horizontal", "time"),
    "lattice.fold_vertical_s": ("lattice.fold_vertical", "time"),
    "lattice.serialize_s": ("lattice.serialize", "time"),
    "bounds.certify_s": ("bounds.certify", "time"),
    "cli.self_s": ("cli", "self"),
}

# the layer self times that partition each command's traced time
SELF_METRICS = (
    "alexander.alexander_s", "alexander.project_s", "grid.to_planar_s", "rope.metrics_s",
    "rope.smooth_s", "rope.export_s", "pipeline.self_s", "lattice.settle_s",
    "lattice.fold_horizontal_s", "lattice.fold_vertical_s", "lattice.serialize_s",
    "bounds.certify_s", "cli.self_s",
)
FOLDS = ("lattice.fold_horizontal", "lattice.fold_vertical")


class Tracer:
    def __init__(self):
        # (name, parent index or -1, start, end, ok, counts)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._shears: tuple = ()

    def _counts(self, name: str, args, result) -> dict:
        """Work counts read from a traced call's argument or result."""
        if name == "alexander.alexander":
            return {"crossings": len(args[0].crossings)}
        if name == "alexander.project":
            return {"shear_tries": self._shears.index(result.shear) + 1}
        if name == "rope.metrics":
            return {"pieces": len(args[0].pieces)}
        return {}

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span whose parent is the innermost open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        ok, result = False, None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            counts = self._counts(name, args, result) if ok else {}
            self.spans[index] = (name, parent, start, end, ok, counts)

    def install(self) -> None:
        self._shears = importlib.import_module("knotfold.alexander").SHEAR_CANDIDATES
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            setattr(module, attr, wrapper)
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def layer_metrics(self, rounds: int) -> tuple[dict, dict]:
        """Per-layer metrics per round of the workload, and a consistency summary."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, ok, counts in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[tuple[str, str], float] = {}
        fold_calls = fold_ok = 0
        op_time = 0.0
        for i, (name, parent, start, end, ok, counts) in enumerate(self.spans):
            duration = end - start
            self_time = duration - child_time[i]
            if parent < 0:
                op_time += duration
            for key, value in (("time", duration), ("self", self_time), ("calls", 1), *counts.items()):
                totals[name, key] = totals.get((name, key), 0) + value
            if name in FOLDS:
                fold_calls += 1
                fold_ok += ok
        metrics = {}
        for metric, key in LAYER_METRICS.items():
            unit = "s" if metric.endswith("_s") else "count"
            metrics[metric] = {"value": totals.get(key, 0) / rounds, "unit": unit}
        metrics["lattice.fold_calls"] = {"value": fold_calls / rounds, "unit": "count"}
        metrics["lattice.fold_valid_ratio"] = {
            "value": fold_ok / fold_calls if fold_calls else 0.0, "unit": "ratio"}
        summary = {
            "rounds": rounds,
            "spans_per_round": len(self.spans) / rounds,
            "span_cost_s": span_cost(),
            "op_s_per_round": op_time / rounds,
            "self_s_sum_per_round": sum(metrics[k]["value"] for k in SELF_METRICS),
        }
        return metrics, summary

    def write(self, path: Path) -> None:
        base = self.spans[0][2] if self.spans else 0.0
        path.write_text(json.dumps([
            {"name": n, "parent": p, "start": s - base, "end": e - base, "ok": ok, **c}
            for n, p, s, e, ok, c in self.spans
        ]) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Time a span adds to one call: a wrapped no-op against a direct one."""
    tracer = Tracer()

    def noop():
        return None

    start = perf_counter()
    for _ in range(calls):
        noop()
    direct = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        tracer.call("noop", noop)
    return max(0.0, (perf_counter() - start - direct) / calls)
