#!/usr/bin/env python3
"""Builds and runs the serving benchmark (perfbench_serve).

Usage, from the repository root:

    python3 perfbench/run.py --workload solo|burst8|churn --seed N \
        --seconds S --trace 0|1

Configures and builds perfbench/ (which builds the refloat library from the
repository's sources) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the statistics unit tests, then runs the
benchmark. Build output goes to stderr; the benchmark's last stdout line is
its JSON result. Exits non-zero, printing no result, when the build or the
unit tests fail.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def sh(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("perfbench: failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build, "Makefile")):
        sh(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", build, "-j3"])
    test = os.path.join(build, "perfbench_stats_test")
    if os.path.exists(test):
        sh([test, "--gtest_brief=1"])

    # Exact-repeat records are kept per build of the benchmark binary: a
    # rebuilt program starts a fresh record.
    binary = os.path.join(build, "perfbench_serve")
    state = os.path.join(build, "state-%d" % os.stat(binary).st_mtime_ns)
    result = subprocess.run(
        [binary,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--state-dir", state],
        cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
