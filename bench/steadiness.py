"""Run the benchmark on several seeds and record how steady each metric is.

    python3 bench/steadiness.py [--seeds 1-10] [--workloads a,b] \\
        [--trace 0|1] [--out FILE]

For every workload and metric: the median over the seeds, the first and
third quartiles (``statistics.quantiles(values, n=4)``), and the spread,
the distance between the quartiles as a share of the median. A spread is
compared with the metric's bound in ``BENCHMARK.json``; one wider than its
bound is reported as such. Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", type=seed_range)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    report = {"seeds": args.seeds, "seconds": spec["run_seconds"],
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        walls = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited with "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s", file=sys.stderr)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name],
                          "values": vals}
            flag = ""
            if bounds[name] is not None and spread > bounds[name]:
                flag = "  WIDER THAN BOUND"
            print(f"{workload:9s} {name:40s} median {med:12.6g} "
                  f"spread {spread:6.3f}{flag}")
        report["workloads"][workload] = {
            "metrics": rows, "max_run_wall_s": max(walls)}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
