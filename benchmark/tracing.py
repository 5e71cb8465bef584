"""Spans and per-call aggregates recorded from outside the library.

A ``Tracer`` patches the library's public functions where they are looked
up, for the duration of one ``with`` block, and restores them afterwards.
Patching must target the name a caller resolves at call time:
``lineclust.neighborhood.min_distance`` (``neighborhood`` imports it by name),
not ``lineclust.geometry.min_distance``.

Layer boundaries (load, lift, the engine's run, each relation row, the write)
become spans: name, start, end, parent.  Per-pair calls, up to a million per
operation, are not spans: each adds one to a count and its duration to a
summed time, kept on the innermost open span.  A layer's busy time counts
only its outermost active call, so ``peak_density`` calling ``density``
inside the same layer is not counted twice.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from lineclust import data_io, engine, missing_data, neighborhood, profiles

# (module, attribute, aggregate name); the layer is the name's prefix
AGGREGATED = [
    (neighborhood, "relates_v1", "neighborhood.relates_v1"),
    (neighborhood, "relates_prob", "neighborhood.relates_prob"),
    (neighborhood, "min_distance", "geometry.min_distance"),
    (neighborhood, "closest_point", "geometry.closest_point"),
    (neighborhood, "density", "profiles.density"),
    (profiles, "density", "profiles.density"),
    (neighborhood, "peak_density", "profiles.peak_density"),
    (neighborhood, "effective_window", "profiles.effective_window"),
    (profiles, "effective_window", "profiles.effective_window"),
    (neighborhood, "scaling_factor", "profiles.scaling_factor"),
    (neighborhood, "exact_volume_scaling_factor", "profiles.scaling_factor"),
    (profiles, "adaptive_quadrature", "profiles.adaptive_quadrature"),
]

SPANNED = [
    (data_io, "load_segments_csv", "data_io.load"),
    (data_io, "load_points_csv", "data_io.load"),
    (missing_data, "lift_dataset", "missing_data.lift"),
    (engine, "run_literal", "engine.run"),
    (engine, "run_expand", "engine.run"),
    (data_io, "write_results", "data_io.write"),
]

# layers whose calls are timed inside relation rows, not part of row self time
ROW_CHILD_LAYERS = ("geometry", "profiles")


class Span:
    __slots__ = ("name", "start", "end", "parent", "calls", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.calls = defaultdict(lambda: [0, 0.0])  # name -> [count, seconds]
        self.info = {}


class Tracer:
    """Records one traced operation; use as ``with Tracer() as tr: ...``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._depth = defaultdict(int)
        self._saved = []

    # -- recording -----------------------------------------------------------

    def open(self, name) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if name == "missing_data.lift":
                    span.info["lifted"] = sum(p is not None for p in result.profiles)
                return result
            finally:
                tracer.close(span)
        return wrapper

    def _row(self, fn):
        tracer = self

        def neighbor_set(ev, i):
            span = tracer.open("neighborhood.row")
            before = ev.eval_count
            try:
                result = fn(ev, i)
                span.info["hits"] = len(result)
                return result
            finally:
                span.info["pairs"] = ev.eval_count - before
                tracer.close(span)
        return neighbor_set

    def _aggregated(self, fn, name):
        stack, depth = self._stack, self._depth
        layer = name.split(".", 1)[0]
        busy = layer + ".busy"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = depth[layer] == 0
            depth[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[layer] -= 1
                calls = stack[-1].calls
                rec = calls[name]
                rec[0] += 1
                rec[1] += elapsed
                if outer:
                    calls[busy][1] += elapsed
        return wrapper

    def __enter__(self):
        patches = [(m, a, self._aggregated(getattr(m, a), n)) for m, a, n in AGGREGATED]
        patches += [(m, a, self._spanned(getattr(m, a), n)) for m, a, n in SPANNED]
        cls = neighborhood.RelationEvaluator
        patches.append((cls, "neighbor_set", self._row(cls.neighbor_set)))
        for owner, attr, new in patches:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        self.open("operation")
        return self

    def __exit__(self, *exc):
        self.close(self.spans[0])
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()
        return False

    # -- summaries -------------------------------------------------------------

    def total(self, name, spans=None) -> tuple[int, float]:
        count, seconds = 0, 0.0
        for span in self.spans if spans is None else spans:
            rec = span.calls.get(name)
            if rec is not None:
                count += rec[0]
                seconds += rec[1]
        return count, seconds

    def duration(self, name) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def layer_metrics(self, labels, results_bytes: int) -> tuple[dict, list[float]]:
        """Counts and times of one traced operation, plus its row times in ms."""
        rows = [s for s in self.spans if s.name == "neighborhood.row"]
        row_ms = [1e3 * (s.end - s.start) for s in rows]
        row_s = sum(row_ms) / 1e3
        child_busy = sum(self.total(layer + ".busy", rows)[1] for layer in ROW_CHILD_LAYERS)
        run_s = self.duration("engine.run")
        pairs = sum(s.info["pairs"] for s in rows)
        hits = sum(s.info["hits"] for s in rows)
        v1_calls = self.total("neighborhood.relates_v1")[0]
        witness_calls = self.total("neighborhood.relates_prob")[0]
        md_calls, md_s = self.total("geometry.min_distance")
        cp_calls, cp_s = self.total("geometry.closest_point")
        alpha_calls, alpha_s = self.total("profiles.scaling_factor")
        m = {
            "data_io.load_s": self.duration("data_io.load"),
            "data_io.write_s": self.duration("data_io.write"),
            "data_io.results_bytes": results_bytes,
            "missing_data.lift_s": self.duration("missing_data.lift"),
            "missing_data.lifted_records": sum(s.info.get("lifted", 0) for s in self.spans),
            "profiles.alpha_calls": alpha_calls,
            "profiles.alpha_s": alpha_s,
            "profiles.quadrature_calls": self.total("profiles.adaptive_quadrature")[0],
            "profiles.window_calls": self.total("profiles.effective_window")[0],
            "profiles.peak_density_calls": self.total("profiles.peak_density")[0],
            "profiles.density_calls": self.total("profiles.density")[0],
            "profiles.busy_s": self.total("profiles.busy")[1],
            "geometry.min_distance_calls": md_calls,
            "geometry.min_distance_s": md_s,
            "geometry.closest_point_calls": cp_calls,
            "geometry.closest_point_s": cp_s,
            "geometry.busy_s": self.total("geometry.busy")[1],
            "neighborhood.pairs": pairs,
            "neighborhood.rows": len(rows),
            "neighborhood.row_s": row_s,
            "neighborhood.self_s": row_s - child_busy,
            "neighborhood.v1_calls": v1_calls,
            "neighborhood.witness_calls": witness_calls,
            "neighborhood.exact_share": md_calls / pairs if pairs else 0.0,
            "neighborhood.phi_per_witness": cp_calls / witness_calls if witness_calls else 0.0,
            "neighborhood.hit_ratio": hits / pairs if pairs else 0.0,
            "engine.draws": len(labels.seed_order),
            "engine.self_s": run_s - row_s,
            "engine.peak_aux": labels.peak_aux,
            "engine.clusters": labels.k,
            "engine.noise": len(labels.noise),
        }
        return m, row_ms

    def dump(self, fh, op_id: int) -> None:
        """Write the spans as JSON lines; ``op`` identifies the operation."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        t0 = self.spans[0].start
        for k, s in enumerate(self.spans):
            rec = {"op": op_id, "span": k, "name": s.name,
                   "parent": index[id(s.parent)] if s.parent is not None else None,
                   "start_s": s.start - t0, "end_s": s.end - t0}
            if s.calls:
                rec["calls"] = {name: {"count": c, "seconds": t} for name, (c, t) in s.calls.items()
                                if not name.endswith(".busy")}
            rec.update(s.info)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
