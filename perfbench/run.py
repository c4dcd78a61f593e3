#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload csvm_local --seed 1 --seconds 30 --trace 0

The build goes to .bench_build/perfbench under the checkout root; scratch
files of a run (WAL directories, span dumps) go to its work/ subdirectory.
The last line of stdout is the JSON result; build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("csvm_local", "routed_hot", "paper_table1")
# A run ends well inside 180 s; the build of a fresh checkout inside 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve",
                                       "retrieval_service.h")):
        print("perfbench: no library sources under %s/src" % ROOT,
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        try:
            rc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return False
        if rc != 0:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size (selftest.py); not a measurement")
    parser.add_argument("--break-digest", action="store_true",
                        help="perturb the expected digest (selftest.py)")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    out = BUILD_DIR
    if not build(out):
        return 3
    command = [os.path.join(out, "perfbench"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds,
               "--trace=%d" % args.trace,
               "--work-dir=" + os.path.join(out, "work")]
    if args.tiny:
        command.append("--tiny")
    if args.break_digest:
        command.append("--break-digest")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
