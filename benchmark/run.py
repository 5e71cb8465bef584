"""lineclust benchmark: seeded clustering workloads, end-to-end and per layer.

    python3 benchmark/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh worker process (``worker.py``) on one thread.
With ``--trace 0`` the run also starts set-up probes, worker processes that
stop once their input file is written, and reports the median set-up time.
Times are reported at the reference host speed of ``host.py``; the text
report also prints them as measured.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import host
from catalog import END_TO_END, PER_LAYER, TEXT_ONLY_END_TO_END, TEXT_ONLY_UNITS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 4  # plus the measuring worker's own set-up: 5 samples
RUN_LIMIT_S = 170.0  # every process of one workload ends within this


class WorkerFailed(RuntimeError):
    pass


def spawn(cmd: list[str], deadline: float) -> tuple[float, float, dict | None]:
    """Run a worker; return (seconds from start to its READY line with the host
    sampler's kernel taken out, the same at the reference host speed, its report)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready, sampled, last = None, None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif sampled is None and line.startswith("CALIB "):
                _, count, busy = line.split()
                sampled = (int(count), float(busy))
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or sampled is None:
        raise WorkerFailed(f"worker exited with code {code}: {' '.join(cmd[1:])}")
    report = json.loads(last) if last is not None else None
    return ready - sampled[1], host.normalised(ready, (0, 0.0), sampled), report


def run_workload(name: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    """Probe set-up, measure one workload, and return its result object."""
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
           "--workdir", workdir]
    try:
        setup = [spawn(cmd + ["--probe"], deadline)[:2] for _ in range(0 if traced else SETUP_PROBES)]
        ready, norm, report = spawn(cmd, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append((ready, norm))
    setup_raw = statistics.median(s for s, _ in setup)
    setup_norm = statistics.median(s for _, s in setup)

    if traced:
        values = report["layers"]
        metrics = {m: (values[m], unit) for m, unit, _ in PER_LAYER}
        text = metrics | {m: (values[m], unit) for m, unit in TEXT_ONLY_UNITS.items()}
    else:
        cluster_s = statistics.median(report["untraced_norm_s"])
        values = {
            "setup_s": setup_norm,
            "cluster_s": cluster_s,
            "pairs_per_s": report["eval_count"] / cluster_s,
            "peak_rss_mb": report["peak_rss_mb"],
            "ari": report["ari"],
        }
        metrics = {m: (values[m], unit) for m, unit, _ in END_TO_END}
        text = metrics | {m: (values[m], unit) for m, unit in TEXT_ONLY_END_TO_END.items()}
        text["setup_s.measured"] = (setup_raw, "s")
        text["cluster_s.measured"] = (statistics.median(report["untraced_s"]), "s")
    attempted, failed = report["attempted"], report["failed"]
    text["failed_share"] = (failed / attempted, "ratio")

    times = report["traced_s" if traced else "untraced_s"]
    # the highest percentile with at least ten samples above it, when one exists
    q = int(100 * (1 - 10 / len(times))) // 5 * 5
    if not traced and q > 50:
        text[f"cluster_s.p{q}"] = (statistics.quantiles(report["untraced_norm_s"], n=100)[q - 1], "s")
    print(f"{name}  seed {seed}  n={report['n']}  {'traced' if traced else 'untraced'}: "
          f"{len(times)} timed operations (min {min(times):.3f} s, max {max(times):.3f} s) "
          f"after 1 warm-up; set-up samples {len(setup)}; {failed} of {attempted} failed")
    for key, (value, unit) in text.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {key:32s} {shown} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload, after set-up and warm-up")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lineclust", "__init__.py")):
        print(f"error: {ROOT} holds no src/lineclust to benchmark", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        seed = WORKLOADS[name] if args.seed is None else args.seed
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            results[name] = run_workload(name, seed, args.seconds, bool(args.trace), deadline)
        except WorkerFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
