#!/usr/bin/env python3
"""Steadiness of the benchmark: runs each workload several times, with seeds
1..runs, and prints per metric the median, the quartiles, the spread
(interquartile distance as a share of the median) and the max/min ratio.
The bounds in BENCHMARK.json are set from this spread.

    python3 perfbench/steady.py --runs 10 --seconds 20
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d failed (exit %d)" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()

    for workload in ("explore", "sessions", "boot"):
        results = []
        for seed in range(1, args.runs + 1):
            start = time.monotonic()
            results.append(run_once(workload, seed, args.seconds))
            print("  %s seed %d done in %.1f s" % (
                workload, seed, time.monotonic() - start), file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, failed share %s" % (
            workload, len(results), ", ".join("%.6g" % s for s in shares)))
        print("  %-28s %12s %12s %12s %8s %8s" % (
            "metric", "median", "q1", "q3", "iqr/med", "max/min"))
        for name, metric in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            ratio = max(values) / min(values) if min(values) > 0 else float("nan")
            print("  %-28s %12.6g %12.6g %12.6g %8.4f %8.3f  %s" % (
                name, med, q1, q3, spread, ratio, metric["unit"]))


if __name__ == "__main__":
    main()
