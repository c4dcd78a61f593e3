#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at tiny size, untraced and traced, and
checks that each run is correct and prints every metric BENCHMARK.json names
for that mode, with its unit. Then checks that a wrong expected digest makes
every workload's correctness check fail. Takes about a minute after the
build.

    python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s trace=%d" % (workload, trace)
            proc, result = run(workload, trace)
            check(proc.returncode == 0, label + ": exit code 0")
            if result is None:
                check(False, label + ": last stdout line is the JSON result")
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            check(set(result) == RESULT_KEYS, label + ": result keys")
            check(result.get("correct") is True, label + ": outputs correct")
            check(result.get("attempted", 0) >= 1 and
                  result.get("failed") == 0,
                  label + ": operations attempted, none failed")
            printed = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            missing = sorted(set(wanted) - set(printed))
            extra = sorted(set(printed) - set(wanted))
            check(not missing, label + ": every %s metric printed %s"
                  % (key, missing or ""))
            check(not extra, label + ": no metric outside %s %s"
                  % (key, extra or ""))
            wrong_unit = sorted(n for n in set(wanted) & set(printed)
                                if printed[n].get("unit") != wanted[n])
            check(not wrong_unit, label + ": units as declared %s"
                  % (wrong_unit or ""))

        proc, result = run(workload, 0, ["--break-digest"])
        check(proc.returncode != 0 and result is not None and
              result.get("correct") is False,
              workload + ": a wrong expected digest fails the check")

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
