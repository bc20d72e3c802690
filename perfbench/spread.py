#!/usr/bin/env python3
"""Runs the serving benchmark on several seeds and prints each metric's
median and quartile spread (q3 - q1) / median, the figure the benchmark's
bounds are judged against.

    python3 perfbench/spread.py --workloads solo,burst8,churn \
        --seeds 1-10 [--seconds 20] [--trace 0]

Runs one process at a time from the repository root; exits non-zero when a
run fails or reports correct: false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (workload, seed, out.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                ok = False
                print("%s seed %d: correct=false" % (workload, seed))
                print("\n".join(l for l in lines if l.startswith("ERROR")))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%s seeds, %d s):" % (workload, args.seeds, seconds))
        for name, v in values.items():
            med = statistics.median(v)
            spread = 0.0
            if len(v) >= 2 and med != 0:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / abs(med)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
            print("  %-32s median %14.6f  spread %6.2f%%  min %.6g max %.6g%s"
                  % (name, med, 100 * spread, min(v), max(v), flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
