#!/usr/bin/env python3
"""Repeats the benchmark and reports each metric's spread.

    python3 perfbench/spread.py --workload ring_daily --runs 10 \
        --seconds 20 [--first-seed 1] [--trace 0] [--out runs.json]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) and
prints, per metric, the median, the quartiles (statistics.quantiles,
n=4) and the quartile distance as a share of the median. With --out it
also writes every run's result line to a JSON file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit("run with seed %d failed:\n%s" % (seed, proc.stderr))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        )), flush=True)

    print("\n%-32s %12s %12s %12s %9s" % ("metric", "median", "q1", "q3",
                                         "iqr/med"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print("%-32s %12.6g %12.6g %12.6g %9.4f" % (name, med, q1, q3, share))
    shares = {(r["attempted"], r["failed"]) for r in results}
    print("\nattempted/failed: %s; all correct: %s" % (
        sorted(shares), all(r["correct"] for r in results)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
