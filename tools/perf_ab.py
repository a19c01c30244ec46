#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload, seed by seed.

    python3 tools/perf_ab.py --parent DIR --change DIR --workload NAME \\
        --seeds 31-40
    python3 tools/perf_ab.py --self-test

DIR is the root of a full checkout (say a `git archive` of each commit).
Each checkout runs its own `python3 perfbench/run.py --workload NAME
--seed N` from its root, so each side builds and runs its own code under its
own .bench_build/ for BENCHMARK.json's run_seconds.  One run per side per
seed; the side that runs first alternates from seed to seed (the parent
first on the first seed), so a drift in the machine's speed favours
neither side.

For every end-to-end metric of the parent's BENCHMARK.json it prints each
pair, both medians, the parent's quartiles and interquartile range (IQR;
quartiles interpolate between order statistics, as
statistics.quantiles(method="inclusive") does), and how many pairs the
change won by the metric's `better` (ties count for neither side).  Two
verdicts follow:

 * gain: the change won at least nine in ten pairs and its median is better
   than the parent's by more than the parent's IQR;
 * bound: WORSE when the change's median is worse than the parent's by
   more than the metric's `bound` (a fraction of the parent's median);
   otherwise unresolved when the parent's IQR is wider than that bound and
   some run of the change reads no better than some run of the parent;
   otherwise within.

It flags every seed whose ios_per_op or bytes_per_rec differ between the
two sides (both are exact per seed), every run that is not `correct` or
failed operations, and every run that printed no result.  It writes no
file; keep its output to keep the numbers.  The exit code is 1 when
anything was flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
EXACT_PER_SEED = ("ios_per_op", "bytes_per_rec")


def parse_seeds(text):
    """'31-35,40' -> [31, 32, 33, 34, 35, 40]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def plan(seeds):
    """The run order: (seed, side), alternating which side runs first."""
    order = []
    for i, seed in enumerate(seeds):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order += [(seed, side) for side in sides]
    return order


def parse_result(stdout):
    """run.py's result object (its last stdout line), or None.  A run that
    failed part-way ends its stdout on another JSON line, such as its
    set-up samples, which is no result."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if not isinstance(result, dict) or not all(
            key in result for key in ("correct", "failed", "metrics")):
        return None
    return result


def run_checkout(root, workload, seed):
    """One perfbench run in `root`; its result object, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    result = parse_result(proc.stdout)
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return result


def collect(order, runner):
    """Runs `order` through runner(seed, side); results[seed][side]."""
    results = {}
    for seed, side in order:
        result = runner(seed, side)
        results.setdefault(seed, {})[side] = result
        if result is not None:
            value = result["metrics"].get("ops_per_s", {}).get("value")
            print(f"  seed {seed} {side}: ops_per_s {value}", flush=True)
        else:
            print(f"  seed {seed} {side}: no result", flush=True)
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(metrics, seeds, results):
    """Report lines and the flags raised, for the spec's `metrics`."""
    lines, flags = [], []
    for seed in seeds:
        for side in SIDES:
            result = results[seed].get(side)
            if result is None:
                flags.append(f"seed {seed} {side}: no result")
            elif not result["correct"] or result["failed"]:
                flags.append(f"seed {seed} {side}: correct "
                             f"{result['correct']}, failed {result['failed']}")
    paired = [s for s in seeds
              if all(results[s].get(side) for side in SIDES)]
    for name in EXACT_PER_SEED:
        for seed in paired:
            got = [results[seed][side]["metrics"][name]["value"]
                   for side in SIDES]
            if got[0] != got[1]:
                flags.append(f"seed {seed}: {name} {got[0]} != {got[1]}")

    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(seed, results[seed]["parent"]["metrics"][name]["value"],
                  results[seed]["change"]["metrics"][name]["value"])
                 for seed in paired]
        if not pairs:
            continue
        lines.append(f"{name} ({m['unit']}; {m['better']} is better, "
                     f"bound {m['bound']:.0%})")
        wins = 0
        for seed, p, c in pairs:
            won = c > p if higher else c < p
            wins += won
            rel = f"{c / p - 1:+.1%}" if p else "n/a"
            lines.append(f"  seed {seed}: {p:.6g} -> {c:.6g} ({rel})"
                         f"{'  change better' if won else ''}")
        parent = [p for _, p, _ in pairs]
        change = [c for _, _, c in pairs]
        p_med = statistics.median(parent)
        c_med = statistics.median(change)
        q1, q3 = quartiles(parent)
        iqr = q3 - q1
        gain = c_med - p_med if higher else p_med - c_med
        lines.append(f"  median {p_med:.6g} -> {c_med:.6g}; parent quartiles "
                     f"{q1:.6g}-{q3:.6g} (IQR {iqr:.6g}); change better in "
                     f"{wins} of {len(pairs)}")
        met = wins * 10 >= 9 * len(pairs) and gain > iqr
        bound = m["bound"] * abs(p_med)
        separated = (min(change) > max(parent) if higher
                     else max(change) < min(parent))
        if -gain > bound:
            verdict = "WORSE than"
        elif iqr > bound and not separated:
            verdict = "unresolved against"
        else:
            verdict = "within"
        lines.append(f"  gain rule {'met' if met else 'not met'}; "
                     f"{verdict} the bound")
    return lines, flags


def self_test():
    assert parse_seeds("11-13,21") == [11, 12, 13, 21]
    assert plan([1, 2, 3]) == [(1, "parent"), (1, "change"),
                               (2, "change"), (2, "parent"),
                               (3, "parent"), (3, "change")]
    assert quartiles([7.0]) == (7.0, 7.0)
    assert quartiles([float(v) for v in range(1, 11)]) == (3.25, 7.75)

    spec = [{"name": "ops_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.24},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
             "bound": 0.1}]
    # ops_per_s: the change wins 9 of 10 (seed 10 ties); peak RSS: 3 wins,
    # 1 loss, the rest ties.  Seed 4's ios_per_op differs, seed 7's change
    # run is not correct, and seed 9's parent run failed an operation.
    canned = {}
    for seed in range(1, 11):
        ops = {"parent": 100.0 + seed, "change": 130.0 + seed}
        rss = {"parent": 80.0, "change": 80.0 - (seed <= 3) + (seed == 5)}
        if seed == 10:
            ops["change"] = ops["parent"]
        for side in SIDES:
            canned[(seed, side)] = {
                "correct": not (seed == 7 and side == "change"),
                "attempted": 1000,
                "failed": int(seed == 9 and side == "parent"),
                "metrics": {
                    "ops_per_s": {"value": ops[side], "unit": "1/s"},
                    "peak_rss_mb": {"value": rss[side], "unit": "MB"},
                    "ios_per_op": {"value": 5.25 + (seed == 4 and
                                                    side == "change"),
                                   "unit": "blocks/op"},
                    "bytes_per_rec": {"value": 36.5, "unit": "B/record"},
                }}
    calls = []

    def runner(seed, side):
        calls.append((seed, side))
        return canned[(seed, side)]

    seeds = list(range(1, 11))
    results = collect(plan(seeds), runner)
    assert calls == plan(seeds), calls
    lines, flags = summarize(spec, seeds, results)
    text = "\n".join(lines)
    assert ("median 105.5 -> 134.5; parent quartiles 103.25-107.75 (IQR 4.5); "
            "change better in 9 of 10") in text, text
    assert "median 80 -> 80; parent quartiles 80-80 (IQR 0); change better " \
           "in 3 of 10" in text, text
    verdicts = [line for line in lines if "gain rule" in line]
    assert verdicts == ["  gain rule met; within the bound",
                        "  gain rule not met; within the bound"], verdicts
    assert flags == ["seed 7 change: correct False, failed 0",
                     "seed 9 parent: correct True, failed 1",
                     "seed 4: ios_per_op 5.25 != 6.25"], flags

    # A slower change: median 20% below the parent's breaks a 10% bound
    # and wins no pair.
    slow = {s: {side: json.loads(json.dumps(results[s][side]))
                for side in SIDES} for s in seeds}
    for s in seeds:
        slow[s]["change"]["metrics"]["ops_per_s"]["value"] = \
            0.8 * slow[s]["parent"]["metrics"]["ops_per_s"]["value"]
    spec[0]["bound"] = 0.1
    lines, _ = summarize(spec[:1], seeds, slow)
    assert lines[-1] == "  gain rule not met; WORSE than the bound", lines
    assert "change better in 0 of 10" in lines[-2], lines

    # A parent spread wider than the bound: a change 2% slower is
    # unresolved against a 5% bound, and one whose every run beats every
    # parent run is within it.
    wide = [100.0, 90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0]
    spec[0]["bound"] = 0.05
    for scale, offset, verdict in ((0.98, 0.0, "  gain rule not met; "
                                    "unresolved against the bound"),
                                   (1.0, 50.0, "  gain rule met; "
                                    "within the bound")):
        for s, p in zip(seeds, wide):
            slow[s]["parent"]["metrics"]["ops_per_s"]["value"] = p
            slow[s]["change"]["metrics"]["ops_per_s"]["value"] = \
                scale * p + offset
        lines, _ = summarize(spec[:1], seeds, slow)
        assert "(IQR 9)" in lines[-2], lines
        assert lines[-1] == verdict, lines

    # Only run.py's result row is a result: a run that stopped after its
    # set-up samples, or printed nothing, has none.
    row = json.dumps(canned[(1, "parent")])
    assert parse_result(f"params\n{row}\n") == canned[(1, "parent")]
    assert parse_result(f"params\n{row}\n"
                        '{"setup_s_samples": [1.5, 1.6]}\n') is None
    assert parse_result("") is None
    assert parse_result("build failed\n") is None

    # A side with no result is flagged and leaves the seed unpaired.
    del results[3]["parent"]
    lines, flags = summarize(spec[:1], seeds, results)
    assert "seed 3 parent: no result" in flags, flags
    assert "change better in 8 of 9" in "\n".join(lines), lines
    print("perf_ab self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", help="a workload of BENCHMARK.json")
    parser.add_argument("--seeds", help="seed list, e.g. 31-40 or 1,3,5-7")
    parser.add_argument("--self-test", action="store_true",
                        help="check the pairing and statistics on canned "
                             "results")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload and args.seeds):
        parser.error("--parent, --change, --workload and --seeds are required")
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    specs = {}
    for side, root in roots.items():
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            specs[side] = json.load(f)
    seeds = parse_seeds(args.seeds)
    results = collect(plan(seeds), lambda seed, side: run_checkout(
        roots[side], args.workload, seed))
    lines, flags = summarize(specs["parent"]["end_to_end"], seeds, results)
    if specs["parent"] != specs["change"]:
        flags.append("the two checkouts' BENCHMARK.json differ")
    print(f"{args.workload}, seeds {args.seeds}: parent {roots['parent']}, "
          f"change {roots['change']}")
    print("\n".join(lines))
    for flag in flags:
        print(f"FLAG: {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
