#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload sweep --runs 10 --seconds 20

Runs the benchmark `--runs` times on one workload, each run with another
seed (1, 2, ...), and prints for every metric its median, the distance
between its first and third quartile as a share of the median (the
spread), and the ten values. `--trace 1` does the same for the
per-layer metrics. A benchmark is steady when every end-to-end spread
is well below the metric's bound in `BENCHMARK.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
        started = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - started
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {wall:.1f} s wall, {result['attempted']} attempted, "
              f"{result['failed']} failed", file=sys.stderr)
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
        print(f"{name:28} median {med:14.4f}  spread {100 * spread:6.2f}%  {flag}")
        print("    " + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
