"""Runs one workload in this process: set up, warm up, time, check, report.

Started by ``run.py``, one fresh process per workload.  It prints ``READY``
once the input file is written (``run.py`` times set-up up to that line),
then ``CALIB <count> <busy>``, the host sampler's reading over set-up (see
``host.py``), and, unless ``--probe`` is given, one JSON line with the
measurements last.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import NamedTuple

import host

SAMPLER = host.Sampler()
if __name__ == "__main__":
    SAMPLER.start()  # samples the host speed through set-up, imports included

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import lineclust  # noqa: E402

if not os.path.abspath(lineclust.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"error: lineclust imported from {lineclust.__file__}, not from this checkout")

import checks  # noqa: E402
import tracing  # noqa: E402
from catalog import WORKLOADS  # noqa: E402
from workloads import Prepared  # noqa: E402

MIN_UNTRACED = 3  # timed untraced operations in a --trace 0 run
MIN_TRACED = 2  # traced operations in a --trace 1 run, so counts can be compared


class Op(NamedTuple):
    """The outcome of one operation."""

    seconds: float  # the sampler's kernel taken out
    norm_seconds: float | None  # at the reference host speed; None when traced
    labels: object
    ids: list
    U: list
    results: bytes
    tracer: object


def run_once(prepared: Prepared, out_path: str, traced: bool) -> Op:
    """One operation; an untraced one runs under the host sampler."""
    gc.collect()
    tracer = tracing.Tracer() if traced else None
    norm_seconds = None
    if traced:
        with tracer:
            start = time.perf_counter()
            labels, ids, U = prepared.operation(out_path)
            seconds = time.perf_counter() - start
    else:
        SAMPLER.start()
        try:
            before = SAMPLER.reading()
            start = time.perf_counter()
            labels, ids, U = prepared.operation(out_path)
            seconds = time.perf_counter() - start
            after = SAMPLER.reading()
        finally:
            SAMPLER.stop()
        norm_seconds = host.normalised(seconds, before, after)
        seconds -= after[1] - before[1]
    with open(out_path, "rb") as fh:
        results = fh.read()
    return Op(seconds, norm_seconds, labels, ids, U, results, tracer)


def trace_errors(prepared: Prepared, layer: dict, first: dict | None) -> list[str]:
    """The traced run's self-checks on one operation's layer metrics."""
    n = prepared.n
    errors = []
    if layer["neighborhood.pairs"] != n * n:
        errors.append(f"traced pairs {layer['neighborhood.pairs']} != n^2")
    if layer["neighborhood.v1_calls"] + layer["neighborhood.witness_calls"] != layer["neighborhood.pairs"]:
        errors.append("v1_calls + witness_calls != pairs")
    # the bound rejects every pair but a line against itself
    if prepared.name == "isolated-v1-literal" and layer["geometry.min_distance_calls"] != n:
        errors.append(f"min_distance called {layer['geometry.min_distance_calls']} times "
                      f"on the isolated worst case, not only for the {n} self-pairs")
    if prepared.name == "doughnut-v2-volume" and layer["profiles.alpha_calls"] != n:
        errors.append(f"alpha derived {layer['profiles.alpha_calls']} times for {n} lines")
    if first is not None:
        changed = [k for k in layer if not k.endswith("_s") and layer[k] != first[k]]
        if changed:
            errors.append(f"traced counts differ between operations: {changed}")
    return errors


def measure(prepared: Prepared, seconds: float, traced_run: bool, workdir: str) -> dict:
    out_path = os.path.join(workdir, "results.json")
    attempted = failed = 0
    reference = None
    ari_value = None
    last = None
    plain_s, traced_s = [], []
    plain_norm_s = []  # plain_s at the reference host speed
    layers, row_ms = [], []
    spans_path = os.path.join(os.path.dirname(workdir),
                              f"spans-{prepared.name}-seed{prepared.seed}.jsonl")
    spans_fh = open(spans_path, "w", encoding="utf-8") if traced_run else None

    def one(traced: bool, warm_up: bool = False) -> None:
        nonlocal attempted, failed, reference, ari_value, last
        attempted += 1
        try:
            op = run_once(prepared, out_path, traced)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            failed += 1
            return
        ari_value = checks.ari(prepared, op.labels, op.ids)
        errors = checks.operation_errors(prepared, op.labels, op.ids, op.results,
                                         reference, ari_value)
        if traced:
            layer, rows = op.tracer.layer_metrics(op.labels, len(op.results))
            errors += trace_errors(prepared, layer, layers[0] if layers else None)
            layers.append(layer)
            row_ms.extend(rows)
            op.tracer.dump(spans_fh, len(layers))
        if reference is None:
            reference = op.results
        if errors:
            failed += 1
            print(f"{prepared.name}: operation {attempted} failed: {'; '.join(errors)}",
                  file=sys.stderr)
        if not warm_up:
            (traced_s if traced else plain_s).append(op.seconds)
            if not traced:
                plain_norm_s.append(op.norm_seconds)
        last = op

    try:
        one(False, warm_up=True)
        start = time.perf_counter()
        while True:
            # traced and untraced operations alternate in a traced run
            one(traced_run and len(traced_s) <= len(plain_s))
            done = plain_s + traced_s
            if traced_run:
                enough = len(traced_s) >= MIN_TRACED and len(plain_s) >= 1
            else:
                enough = len(plain_s) >= MIN_UNTRACED
            typical = statistics.median(done) if done else 0.0
            if (enough or failed) and time.perf_counter() - start + typical > seconds:
                break
            if failed and not done:
                break
    finally:
        if spans_fh is not None:
            spans_fh.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if last is not None:
        relation = checks.relation_errors(prepared, last.U, prepared.seed)
        if relation:
            print(f"{prepared.name}: relation check failed: " + "; ".join(relation[:5]),
                  file=sys.stderr)
            failed = attempted
    report = {"attempted": attempted, "failed": failed,
              "n": prepared.n, "untraced_s": plain_s, "traced_s": traced_s,
              "untraced_norm_s": plain_norm_s,
              "peak_rss_mb": peak_rss_mb,
              "ari": ari_value, "eval_count": last.labels.eval_count if last else 0}
    if traced_run and layers:
        merged = dict(layers[0])
        for key in merged:
            if key.endswith("_s"):
                merged[key] = statistics.median(layer[key] for layer in layers)
        merged["neighborhood.row_ms.p50"] = tracing.percentile(row_ms, 50)
        merged["neighborhood.row_ms.p90"] = tracing.percentile(row_ms, 90)
        merged["neighborhood.row_ms.p99"] = tracing.percentile(row_ms, 99)
        merged["neighborhood.row_samples"] = len(row_ms)
        if plain_s:
            base = statistics.median(plain_s)
            merged["trace.overhead_share"] = (statistics.median(traced_s) - base) / base
        report["layers"] = merged
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up; used to sample set-up time")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    prepared = Prepared(args.workload, args.seed, args.workdir)
    count, busy = SAMPLER.reading()
    print("READY", flush=True)
    SAMPLER.stop()
    print(f"CALIB {count} {busy!r}", flush=True)
    if args.probe:
        return 0
    report = measure(prepared, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
