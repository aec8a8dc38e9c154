#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload corr-read-cached --runs 10 \
        [--first-seed 1] [--seconds <run_seconds>] [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of the median, next
to the metric's bound from BENCHMARK.json (a spread above a third of
the bound is marked). Exits 1 if a run fails or is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bounds():
    s = spec()
    return {m["name"]: m.get("bound") for m in
            s["end_to_end"] + s["per_layer"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, out.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect output" % seed)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
            flush=True)

    limits = bounds()
    print("\n%-36s %14s %8s %7s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = limits.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- over a third of the bound"
        print("%-36s %14.4f %8.4f %7s%s" % (
            name, med, spread, "-" if bound is None else bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
