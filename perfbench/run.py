#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The first call configures and builds
perfbench/ (the library from src/ plus prtree_perfbench) under
.bench_build/perfbench; later calls rebuild only what changed.  One
workload's run prints the program's parameter line and, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and metrics:
every end_to_end metric of BENCHMARK.json with --trace 0, every per_layer
metric with --trace 1.  A per-layer metric whose layer the workload does not
exercise reads 0 and is named in the "not_exercised" line.

An untraced run first times SETUP_PROCESSES set-ups in processes of their
own (--setup-only), then the measured run; setup_s is the median over every
set-up of those processes.  Each process sets up once, so repeated set-ups
never count in the measured process's peak RSS.  A readable table
goes to stderr.  --all runs every workload in turn and prints one table.

The exit code is 0 only when the build worked and every correctness check
passed.  README.md in this directory defines the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "prtree_perfbench")
RUN_TIMEOUT_S = 170
SETUP_PROCESSES = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: src/ not found next to perfbench/; run from a full "
            "checkout of the repository")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "prtree_perfbench",
           "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_binary(workload, args, deadline):
    """Runs the program once; returns (exit code, stdout lines) or None."""
    cmd = [BINARY, "--workload", workload] + args
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        log(f"run.py: {workload} printed no result (exit {proc.returncode})")
        return None
    return proc.returncode, lines


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--seed", str(seed), "--seconds", str(seconds)]
    setup_times = []
    if not trace:
        for _ in range(SETUP_PROCESSES):
            got = run_binary(workload, base + ["--trace", "0",
                                               "--setup-only", "1"], deadline)
            if got is None or got[0] != 0:
                log(f"run.py: {workload} set-up failed")
                return 1, None
            setup_times += json.loads(got[1][-2])["params"]["setup_reps_s"]
    got = run_binary(workload, base + ["--trace", str(trace)], deadline)
    if got is None:
        return 1, None
    code, lines = got
    for line in lines[:-1]:
        print(line)
    measured = json.loads(lines[-1])["metrics"]
    if not trace:
        setup_times += json.loads(lines[-2])["params"]["setup_reps_s"]
        print(json.dumps({"setup_s_samples": setup_times}))
        measured["setup_s"]["value"] = statistics.median(setup_times)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, not_exercised = {}, []
    for m in declared:
        got = measured.get(m["name"])
        if got is None and trace:
            not_exercised.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            log(f"run.py: {workload} did not report {m['name']} "
                f"in {m['unit']}")
            return 1, None
        metrics[m["name"]] = got
    if not_exercised:
        print(json.dumps({"not_exercised": not_exercised}))
    result = json.loads(lines[-1])
    result["metrics"] = metrics
    return code, result


def print_table(rows):
    log(f"{'workload':<16} {'metric':<40} {'value':>16}  unit")
    for workload, result in rows:
        for name, m in result["metrics"].items():
            log(f"{workload:<16} {name:<40} {m['value']:>16.6g}  {m['unit']}")
        log(f"{workload:<16} {'(correct / attempted / failed)':<40} "
            f"{str(result['correct']):>16}  "
            f"{result['attempted']} / {result['failed']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        log("run.py: BENCHMARK.json not found at the repository root")
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.all else [args.workload]
    if workloads == [None] or any(w not in names for w in workloads):
        parser.error(f"pass --all or --workload one of {', '.join(names)}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    if not build():
        log("run.py: build failed")
        return 2

    rows, code = [], 0
    for workload in workloads:
        rc, result = run_workload(spec, workload, args.seed, seconds,
                                  args.trace)
        code = code or rc
        if result is None:
            code = code or 1
            continue
        rows.append((workload, result))
    print_table(rows)
    if len(rows) == 1 and not args.all:
        print(json.dumps(rows[0][1]))
    return code


if __name__ == "__main__":
    sys.exit(main())
