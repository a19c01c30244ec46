#!/usr/bin/env python3
"""Check that the benchmark's exact counts repeat exactly.

    python3 perfbench/test_counts.py

Builds the benchmark as run.py does, then runs every workload at a small
scale and requires:
  * two untraced runs of one seed report the same ios_per_op and
    bytes_per_rec;
  * two traced runs of one seed report the same rtree.query.leaves_per_op,
    rtree.query.results_per_op and core.build.tree_pages;
  * bulk_load reports the same counts at --threads 1 and --threads 4;
  * every run passes its own correctness checks.
Exit code 0 iff all of that holds.
"""

import json
import subprocess
import sys

import run

SCALE = "0.05"
SECONDS = "1"
SEED = "7"
UNTRACED = ("ios_per_op", "bytes_per_rec")
TRACED = ("rtree.query.leaves_per_op", "rtree.query.results_per_op",
          "core.build.tree_pages")


def measure(workload, trace, threads=4):
    cmd = [run.BINARY, "--workload", workload, "--seed", SEED,
           "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE,
           "--threads", str(threads)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise AssertionError(f"{workload} trace={trace} threads={threads} "
                             f"failed its checks: {proc.stdout}")
    names = TRACED if trace else UNTRACED
    return {n: result["metrics"][n]["value"] for n in names
            if n in result["metrics"]}


def expect_equal(what, a, b, failures):
    status = "ok" if a == b else "MISMATCH"
    print(f"{status:8} {what}: {a} vs {b}")
    if a != b:
        failures.append(what)


def main():
    if not run.build():
        print("build failed", file=sys.stderr)
        return 2
    failures = []
    workloads = [w["name"] for w in run.load_spec()["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            expect_equal(f"{workload} trace={trace} run 1 vs run 2",
                         measure(workload, trace), measure(workload, trace),
                         failures)
    for trace in (0, 1):
        expect_equal(f"bulk_load trace={trace} threads 1 vs 4",
                     measure("bulk_load", trace, threads=1),
                     measure("bulk_load", trace, threads=4), failures)
    print("FAILED: " + ", ".join(failures) if failures else "all counts exact")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
