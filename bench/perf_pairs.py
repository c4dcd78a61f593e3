#!/usr/bin/env python3
"""Runs perfbench on a parent and a change checkout in alternating pairs and
keeps every run as one row of bench/trajectory.jsonl.

    python3 bench/perf_pairs.py run --pr N \\
        --parent /path/to/parent:SHA --change /path/to/change:SHA \\
        --workloads csvm_local,routed_hot,paper_table1 --pairs 10 \\
        --first-seed 21 --seconds 30
    python3 bench/perf_pairs.py summary --pr N

A checkout is a full source tree (for example `git archive SHA | tar -x`);
its perfbench builds into the tree's own .bench_build. Pair i runs seed
first_seed + i on both sides, the parent first when i is even. A run that
exits non-zero (incorrect outputs, a failed build, a timeout) is kept as a
row with its exit code and whatever metrics it printed, and the pairs go
on. `summary` reads the rows back, counts each side's failed runs and
leaves them out, and prints, per workload and end-to-end metric, each
side's median and quartiles, the change's wins of the pairs, and whether
the parent's own quartile spread is wider than the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")


def end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def checkout(spec):
    path, _, commit = spec.rpartition(":")
    if not path or not commit:
        raise argparse.ArgumentTypeError("expected DIR:SHA, got " + spec)
    return os.path.abspath(path), commit


def prebuild(tree):
    out = os.path.join(tree, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                        out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4"], stdout=sys.stderr,
                   check=True)


def run_once(tree, workload, seed, seconds):
    """Returns the run's exit code and its final JSON line (None if it
    printed none)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def run(args):
    names = [m["name"] for m in end_to_end()]
    sides = {"parent": args.parent, "change": args.change}
    for tree, _ in sides.values():
        prebuild(tree)
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            order = 0
            for i in range(args.pairs):
                seed = args.first_seed + i
                first = ("parent", "change") if i % 2 == 0 else ("change",
                                                                 "parent")
                for side in first:
                    tree, commit = sides[side]
                    code, result = run_once(tree, workload, seed,
                                            args.seconds)
                    result = result or {}
                    metrics = result.get("metrics", {})
                    row = {"pr": args.pr, "side": side, "commit": commit,
                           "workload": workload, "seed": seed, "order": order,
                           "seconds": args.seconds, "exit_code": code,
                           "correct": result.get("correct", False),
                           "attempted": result.get("attempted", 0),
                           "failed": result.get("failed", 0),
                           "metrics": {n: metrics[n]["value"] for n in names
                                       if n in metrics}}
                    out.write(json.dumps(row, sort_keys=True) + "\n")
                    out.flush()
                    print("%s %s seed %d: exit %d" %
                          (workload, side, seed, code), file=sys.stderr)
                    order += 1


def run_failed(row):
    # Rows written before `exit_code` existed are all runs that exited 0.
    return row.get("exit_code", 0) != 0 or not row["correct"]


def summary(args):
    with open(args.out) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    rows = [r for r in rows if r["pr"] == args.pr]
    for workload in sorted({r["workload"] for r in rows}):
        sides = ("parent", "change")
        mine = [r for r in rows if r["workload"] == workload]
        failed_runs = {side: sum(run_failed(r) for r in mine
                                 if r["side"] == side) for side in sides}
        runs = {side: {r["seed"]: r for r in mine
                       if r["side"] == side and not run_failed(r)}
                for side in sides}
        seeds = sorted(set(runs["parent"]) & set(runs["change"]))
        failed = {side: sum(r["failed"] for r in mine if r["side"] == side)
                  for side in sides}
        print("## %s: %d pairs, failed runs parent %d / change %d,"
              " failed ops parent %d / change %d" %
              (workload, len(seeds), failed_runs["parent"],
               failed_runs["change"], failed["parent"], failed["change"]))
        print("| metric | parent median [q1, q3] | change median [q1, q3] |"
              " change | wins | parent spread / bound | verdict |")
        print("|---|---|---|---|---|---|---|")
        for metric in end_to_end():
            name, bound = metric["name"], metric["bound"]
            higher = metric["better"] == "higher"
            values = {side: [runs[side][s]["metrics"][name] for s in seeds
                             if name in runs[side][s]["metrics"]]
                      for side in runs}
            if len(values["parent"]) < 2 or len(values["change"]) < 2:
                continue
            pq1, pmed, pq3 = statistics.quantiles(values["parent"], n=4,
                                                  method="inclusive")
            cq1, cmed, cq3 = statistics.quantiles(values["change"], n=4,
                                                  method="inclusive")
            better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
            wins = sum(better(runs["change"][s]["metrics"][name],
                              runs["parent"][s]["metrics"][name])
                       for s in seeds)
            delta = (cmed - pmed) / pmed if pmed else 0.0
            worse = -delta if higher else delta
            spread = (pq3 - pq1) / pmed if pmed else 0.0
            if name in ("p20", "map"):
                # Quality repeats per seed, so the seeds' spread is not noise:
                # report the largest per-seed change next to the verdict.
                largest = max((runs["change"][s]["metrics"][name] -
                               runs["parent"][s]["metrics"][name]
                               for s in seeds), key=abs)
                verdict = "%s, %s" % (
                    "REGRESSION" if worse > bound else "within bound",
                    "equal per seed" if largest == 0 else
                    "largest per-seed change %+.3g" % largest)
            elif worse > bound:
                verdict = "REGRESSION"
            elif spread > bound and not all(
                    better(c, p) for c in values["change"]
                    for p in values["parent"]):
                verdict = "unresolved"
            else:
                verdict = "within bound"
            print("| `%s` | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% |"
                  " %d/%d | %.0f%% / %.0f%% | %s |" %
                  (name, pmed, pq1, pq3, cmed, cq1, cq3, 100 * delta, wins,
                   len(seeds), 100 * spread, 100 * bound, verdict))
        print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=TRAJECTORY)
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run")
    run_parser.add_argument("--pr", type=int, required=True)
    run_parser.add_argument("--parent", type=checkout, required=True)
    run_parser.add_argument("--change", type=checkout, required=True)
    run_parser.add_argument("--workloads", required=True)
    run_parser.add_argument("--pairs", type=int, default=10)
    run_parser.add_argument("--first-seed", type=int, required=True)
    run_parser.add_argument("--seconds", type=int, default=30)
    summary_parser = sub.add_parser("summary")
    summary_parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args()
    if args.command == "run":
        run(args)
    else:
        summary(args)


if __name__ == "__main__":
    main()
