"""infdiag benchmark: one seeded workload, timed in a closed loop, every
answer refereed.

    python3 bench/run.py --workload diagnose|wide|rewrite|plan \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The seeded inputs are built here; the timed
passes run in fresh worker processes (``bench/worker.py``), one after the
other, each importing ``infdiag`` from ``src/``, making one untimed warm-up
pass and then sweeping the request list until its share of ``--seconds``
is used. The answers of each worker's last pass are then checked by
``bench/referee.py``. With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are reported; with ``--trace 1`` the workers alternate
untraced and traced passes and the per-layer metrics are reported, and
the spans are written to ``.bench_build/trace/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every answer passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One client, one process, no contention: numpy's pools get one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# Worker processes per run. Each one sets up from a cold import, so
# ``setup_s`` is the median of this many set-ups; the timed seconds are
# split evenly between them.
WORKERS = 3
# All workers together must end within this many seconds of the start.
DEADLINE_S = 170

# Times are reported at the speed of a machine on which the calibration
# unit in worker.py takes this long: each latency is multiplied by this over
# the unit's time measured around it. Same code, same inputs, same seed: on
# a shared 2-vCPU VM the unscaled ops_per_s of diagnose read 915-1260 req/s
# over five runs (spread 0.22). Scaled, the spread of ops_per_s over ten
# seeds stays below 0.07 on every workload (bench/baseline.json).
CALIBRATION_REFERENCE_S = 0.001

# Tail percentile: the highest of these with at least 10 samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile that leaves at
    least 10 samples beyond it, interpolated between the samples on
    either side."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= 10:
            break
    pos = p / 100 * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return p, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_worker(job: dict, deadline: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("worker did not finish before the deadline")
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def normalized(p: dict) -> list[float]:
    """A pass's request latencies at the reference speed."""
    return [t * CALIBRATION_REFERENCE_S / c
            for t, c in zip(p["latency_s"], p["calib_s"])]


def end_to_end(job, results, failed, attempted, structure):
    n = len(job["requests"])
    passes = [normalized(p) for r in results for p in r["passes"]]
    # A request's latency is its median over the run's timed passes.
    per_request = [statistics.median(p[i] for p in passes) for i in range(n)]
    pct, tail_s = tail(per_request)
    calib = statistics.median(c for r in results for p in r["passes"]
                              for c in p["calib_s"])
    raw = statistics.median(sum(p["latency_s"]) for r in results
                            for p in r["passes"])
    added, touched = structure
    metrics = {
        "setup_s": (statistics.median(
            r["setup_s"] * CALIBRATION_REFERENCE_S / r["setup_calib_s"]
            for r in results), "s"),
        "ops_per_s": (n / statistics.median(sum(p) for p in passes), "req/s"),
        "op_p50_ms": (1e3 * statistics.median(per_request), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "pass_ratio": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
        "added_arcs": (added, "count"),
        "params_touched": (touched, "count"),
    }
    notes = {
        "setup_s": f"median of {len(results)} workers",
        "ops_per_s": f"{n} requests / median of {len(passes)} passes; "
                     f"{n / raw:.6g} req/s unscaled",
        "op_p50_ms": f"of {n} request latencies, each the median of "
                     f"{len(passes)} passes",
        "op_tail_ms": f"p{pct:g} of the same {n} request latencies",
        "pass_ratio": f"{failed} of {attempted} requests failed",
        "added_arcs": "one pass", "params_touched": "one pass",
    }
    return metrics, notes, calib


UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes",
         "cells_written": "cells", "peak_cells": "cells",
         "zero_rows": "count", "useful_ratio": "ratio"}


def per_layer(results):
    traced = [p for r in results for p in r["passes"] if p["traced"]]
    scales = [CALIBRATION_REFERENCE_S / statistics.median(p["calib_s"])
              for p in traced]
    totals = [layer for r in results for layer in r["layers"]]
    metrics = {}
    for name in totals[0]:
        unit = UNITS[name.rsplit(".", 1)[1]]
        if unit == "s":
            vals = [t[name] * k for t, k in zip(totals, scales)]
        else:
            vals = [t[name] for t in totals]
        metrics[name] = (statistics.median(vals), unit)
    plain = statistics.median(sum(normalized(p)) for r in results
                              for p in r["passes"] if not p["traced"])
    metrics["trace.overhead_ratio"] = (
        plain / statistics.median(sum(normalized(p)) for p in traced), "ratio")
    calib = statistics.median(c for p in traced for c in p["calib_s"])
    notes = {"trace.overhead_ratio": "traced / untraced ops_per_s"}
    return metrics, notes, calib


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("diagnose", "wide", "rewrite", "plan"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not (SRC / "infdiag" / "__init__.py").is_file():
        fail(f"no engine source at {SRC / 'infdiag'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import referee
    import workloads

    job = workloads.build(args.workload, args.seed, ROOT)
    job.update(src=str(SRC), bench=str(BENCH), trace=bool(args.trace),
               seconds=args.seconds / WORKERS)
    trace_dir = ROOT / ".bench_build" / "trace"
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for k in range(WORKERS):
        job["trace_file"] = str(
            trace_dir / f"{args.workload}-seed{args.seed}-worker{k}.json")
        results.append(run_worker(job, started + DEADLINE_S))

    # Referee each distinct answer once. A wrong answer fails every pass
    # that returned it. Workers may differ in the last bits (string hashing
    # is seeded per process); each worker's answers are refereed.
    ref = referee.Referee(job)
    verdicts: dict[tuple[int, str], str | None] = {}
    failed = attempted = 0
    reasons = {}
    for r in results:
        attempted += len(r["passes"]) * len(job["requests"])
        for i, out in enumerate(r["outputs"]):
            key = (i, json.dumps(out, sort_keys=True))
            if key not in verdicts:
                verdicts[key] = ref.check(i, out)
            why = verdicts[key]
            if why:
                failed += len(r["passes"])
                reasons.setdefault(i, why)
            elif r["bad"][i]:
                failed += r["bad"][i]
                reasons.setdefault(i, r["errors"][str(i)])

    if args.trace:
        metrics, notes, calib = per_layer(results)
    else:
        structure = [sum(col) for col in zip(*(
            referee.structure(job, i, out)
            for i, out in enumerate(results[-1]["outputs"])))]
        metrics, notes, calib = end_to_end(job, results, failed, attempted,
                                           structure)

    for i, why in sorted(reasons.items()):
        print(f"FAILED request {i}: {why}")
    print(f"workload {args.workload}, seed {args.seed}, {attempted} requests "
          f"attempted, {failed} failed; calibration unit {1e3 * calib:.4g} ms "
          f"here, times scaled to {1e3 * CALIBRATION_REFERENCE_S:g} ms")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:>14.6g} {unit}{note}")
    if not args.trace:
        # Not in the JSON line, where every metric must be non-zero.
        print(f"  {'fail_ratio':40s} {failed / attempted:>14.6g} ratio  "
              f"(1 - pass_ratio)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
