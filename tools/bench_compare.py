#!/usr/bin/env python3
"""Gate a BENCH_*.json produced by this run against a committed baseline.

Used by the bench-smoke CI job (and runnable locally):

    python3 tools/bench_compare.py bench/baselines/outofcore_smoke.json \
        BENCH_outofcore.json --threshold 0.25

The two files are flattened to dotted numeric keys and every key present in
the *baseline* is checked in the current run (new keys in the current run
never break an old baseline).  What a key means decides how it is gated:

 * exact keys (leaf I/Os, result counts, block-transfer counts, dataset
   shape) are deterministic functions of the workload — any drift is an
   algorithmic change, not noise, and fails at zero tolerance;
 * speedup keys (any path containing "speedup") are wall-clock *ratios of
   two same-machine runs*, the only timing numbers comparable across
   machines; higher is better, and a drop of more than --threshold
   (default 25%) fails;
 * "deterministic" must be true in the current run — the benches set it
   false when their internal cross-checks (identical trees across thread
   counts, identical traversals across devices/budgets) break;
 * every other timing key (is_timing below: "seconds", "_ms", p50/p99
   percentiles) is echoed side-by-side with the baseline but never gated:
   absolute wall-clock does not transfer between a laptop, a CI runner and
   a dev box, and the mixed-workload percentiles also move with core count
   (docs/TUNING.md covers re-baselining);
 * everything else is ignored.

is_timing is the repo's one rule for which keys are timings: the eval
pipeline (tools/eval/) imports it to drop timing columns before rendering.
"""

import argparse
import json
import sys

# Deterministic counters: exact match required.  Anything countable in the
# external-memory model belongs here; anything measured in seconds does not.
EXACT_LEAF_KEYS = {
    "leaves",
    "results",
    "demand_reads",
    "prefetch_reads",
    "io_blocks",
    "pool_hits",
    "pool_misses",
    "prefetch_staged",
    "prefetch_useful",
    "tree_nodes",
    "tree_leaves",
    "capacity",
    "n",
    "queries",
    "threads",
    "budget",
    "ops",
    "final_size",
    "knn_results",
    "writes",
    "write_batches",
    # Journal leg (bench/throughput_concurrent.cc --journal=on): all
    # deterministic functions of the op stream — journal frames, commits
    # and region size never depend on timing (docs/DURABILITY.md).
    "meta_reads",
    "meta_writes",
    "committed",
    "journal_pages",
}

# A key is a timing when any part of its path contains one of these:
# measured wall-clock (seconds, milliseconds, latency percentiles) or a
# ratio of two wall-clock runs (speedup).
TIMING_MARKERS = ("seconds", "_ms", "p50", "p99", "speedup")


def is_timing(key):
    """True if `key` (a dotted path, a leaf or a column name) is a timing:
    machine-dependent, so never gated exactly nor rendered into docs."""
    return any(m in key for m in TIMING_MARKERS)


def flatten(obj, prefix=""):
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = obj
    return out


def classify(path):
    leaf = path.rsplit(".", 1)[-1]
    if leaf == "deterministic":
        return "deterministic"
    if is_timing(path):
        return "speedup" if "speedup" in path else "timing"
    if leaf in EXACT_LEAF_KEYS:
        return "exact"
    return "info"


def compare(baseline, current, threshold):
    """Returns (failures, notes): lists of human-readable strings."""
    base = flatten(baseline)
    cur = flatten(current)
    failures = []
    notes = []
    for path in sorted(base):
        kind = classify(path)
        if kind == "info":
            continue
        if kind == "timing":
            # Echo next to the baseline for eyeballing; never gate (absolute
            # time is machine-bound, and a bench may drop a percentile).
            if path in cur and isinstance(cur[path], (int, float)):
                notes.append(
                    f"{path}: {cur[path]:.4f} vs baseline "
                    f"{base[path]:.4f} (timing, not gated)"
                )
            continue
        if path not in cur:
            failures.append(f"missing in current run: {path}")
            continue
        b, c = base[path], cur[path]
        if kind == "deterministic":
            if c is not True:
                failures.append(f"{path}: current run is not deterministic")
            continue
        if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
            continue
        if kind == "exact":
            if b != c:
                failures.append(f"{path}: expected {b}, got {c} (exact)")
        elif kind == "speedup":
            floor = b * (1.0 - threshold)
            if c < floor:
                failures.append(
                    f"{path}: speedup {c:.3f} fell below {floor:.3f} "
                    f"(baseline {b:.3f}, threshold {threshold:.0%})"
                )
            else:
                notes.append(f"{path}: {c:.3f} vs baseline {b:.3f} ok")
    return failures, notes


def self_test():
    baseline = {
        "n": 100,
        "deterministic": True,
        "points": [
            {"leaves": 10, "seconds": 1.0},
            {"leaves": 20, "seconds": 2.0},
        ],
        "speedup_readahead": {"0.125": 1.50},
    }
    good = {
        "n": 100,
        "deterministic": True,
        "points": [
            # seconds may drift wildly: never gated.
            {"leaves": 10, "seconds": 9.0},
            {"leaves": 20, "seconds": 0.1},
        ],
        "speedup_readahead": {"0.125": 1.20},  # within 25% of 1.50
        "new_metric": 42,  # extra keys never fail an old baseline
    }
    fails, _ = compare(baseline, good, 0.25)
    assert fails == [], fails

    drifted = json.loads(json.dumps(good))
    drifted["points"][1]["leaves"] = 21
    fails, _ = compare(baseline, drifted, 0.25)
    assert len(fails) == 1 and "exact" in fails[0], fails

    # Block-write counters (PR 8 write path) gate exactly, like reads.
    wbase = {"legs": [{"writes": 500, "write_batches": 8, "seconds": 1.0}]}
    wcur = {"legs": [{"writes": 500, "write_batches": 8, "seconds": 0.2}]}
    fails, _ = compare(wbase, wcur, 0.25)
    assert fails == [], fails
    wcur["legs"][0]["write_batches"] = 9
    fails, _ = compare(wbase, wcur, 0.25)
    assert len(fails) == 1 and "exact" in fails[0], fails

    slow = json.loads(json.dumps(good))
    slow["speedup_readahead"]["0.125"] = 1.0  # > 25% below 1.50
    fails, _ = compare(baseline, slow, 0.25)
    assert len(fails) == 1 and "speedup" in fails[0], fails

    broken = json.loads(json.dumps(good))
    broken["deterministic"] = False
    fails, _ = compare(baseline, broken, 0.25)
    assert any("deterministic" in f for f in fails), fails

    truncated = json.loads(json.dumps(good))
    del truncated["points"][1]
    fails, _ = compare(baseline, truncated, 0.25)
    assert any("missing" in f for f in fails), fails

    # Latency percentiles: echoed-but-never-gated, even when they drift
    # wildly or disappear from the current run.  So is every other timing.
    lat_base = {"legs": [{"threads": 2, "window_p50_ms": 0.5,
                          "window_p99_ms": 2.0, "knn_p50_ms": 1.0}]}
    lat_cur = {"legs": [{"threads": 2, "window_p50_ms": 50.0,
                         "window_p99_ms": 0.001}]}  # knn_p50_ms dropped
    fails, notes = compare(lat_base, lat_cur, 0.25)
    assert fails == [], fails
    assert sum("not gated" in n for n in notes) == 2, notes

    # One timing rule: a "speedup" anywhere in the path gates as a ratio,
    # any other timing marker is echoed only.
    assert classify("speedup_writebatch.0.1250") == "speedup"
    assert classify("points.0.seconds") == "timing"
    assert classify("legs.0.window_p99_ms") == "timing"
    assert classify("points.0.leaves") == "exact"

    print("bench_compare self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", help="committed baseline JSON")
    parser.add_argument("current", nargs="?", help="freshly produced JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed relative drop in speedup metrics (default 0.25)",
    )
    parser.add_argument(
        "--self-test", action="store_true", help="run the built-in checks"
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        parser.error("baseline and current JSON files are required")
    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)
    failures, notes = compare(baseline, current, args.threshold)
    for note in notes:
        print(f"  ok: {note}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print(
            f"{len(failures)} regression(s) against {args.baseline}",
            file=sys.stderr,
        )
        return 1
    print(f"no regressions against {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
