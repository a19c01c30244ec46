#!/usr/bin/env python3
"""Reproduce the paper's figures from the repo's bench binaries.

One command regenerates everything the evaluation chapter commits:

    cmake -B build -S . && cmake --build build -j
    python3 tools/eval/run_eval.py --quick     # CI sizes, ~a minute
    python3 tools/eval/run_eval.py             # paper-scale sizes

For every figure bench (fig09..fig15, table1, thm3, ablation_*) the driver
runs the binary once per storage backend (--device=memory|file|uring) with
--json, collects the raw JSON under tools/eval/results/ (gitignored), then

  1. cross-checks the backends: after dropping timing keys the three JSON
     documents must be identical — leaf I/Os and result counts are
     properties of the algorithm, not the storage stack (docs/IO_MODEL.md);
  2. renders the *memory* run into committed markdown + SVG under
     docs/eval/ (tools/eval/render.py, stdlib-only, byte-deterministic).

The committed docs/eval/ files are generated at the --quick sizes, so CI
can re-run the whole pipeline and `git diff --exit-code docs/eval` — a
drifting counter or a nondeterministic renderer fails the eval-smoke job.
Without --quick the benches run at their paper-scale defaults (same
figures, bigger N; the rendered output then intentionally differs from the
committed quick-size output — inspect it, don't commit it, or re-commit a
new quick baseline as docs/BENCH_FORMAT.md describes).

The out-of-core scale leg (outofcore_sweep --records) is separate: it runs
only with --records=SPEC (e.g. --records=10M..100M), writes
tools/eval/results/BENCH_scale.json, and is gated by tools/bench_compare.py
against bench/baselines/scale.json rather than rendered.

Exit status is nonzero if any bench fails, any cross-device check differs,
or (with --check) the rendered docs do not match the committed ones.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

_EVAL_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _EVAL_DIR)
sys.path.insert(0, os.path.dirname(_EVAL_DIR))  # tools/, for bench_compare
import render  # noqa: E402
from bench_compare import is_timing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
RESULTS_DIR = os.path.join(ROOT, "tools", "eval", "results")
DOCS_DIR = os.path.join(ROOT, "docs", "eval")
DEVICES = ["memory", "file", "uring"]

# Quick sizes are chosen so the whole matrix finishes in about a minute on
# one CI core while every internal sweep still produces all of its points.
# Full mode runs each bench at its paper-scale default (no --n override).
BENCHES = {
    "fig09_bulkload_tiger": {"n": 40000, "queries": 32},
    "fig10_bulkload_scaling": {"n": 64000, "queries": 32},
    "fig11_tgs_synthetic": {"n": 30000, "queries": 32},
    "fig12_query_western": {"n": 40000, "queries": 32},
    "fig13_query_eastern": {"n": 40000, "queries": 32},
    "fig14_query_scaling": {"n": 64000, "queries": 32},
    "fig15_query_synthetic": {"n": 30000, "queries": 32},
    "table1_cluster": {"n": 40000, "queries": 32},
    "thm3_worstcase": {"n": 16000, "queries": 32},
    "ablation_block_size": {"n": 40000, "queries": 32},
    "ablation_cache": {"n": 40000, "queries": 32},
    "ablation_memory": {"n": 64000, "queries": 32},
    "ablation_priority_size": {"n": 30000, "queries": 32},
    "ablation_query_bound": {},  # sweeps its own grid sizes
    "ablation_updates": {"n": 24000, "queries": 32},
}

def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if not is_timing(k)}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def strip_device(doc):
    doc = dict(doc)
    params = dict(doc.get("params", {}))
    params.pop("device", None)
    doc["params"] = params
    # Timing lives in table *cells*, keyed by column name — drop those
    # columns, not just dict keys.
    tables = []
    for t in doc.get("tables", []):
        keep = [i for i, c in enumerate(t["columns"]) if not is_timing(c)]
        tables.append({"name": t["name"],
                       "columns": [t["columns"][i] for i in keep],
                       "rows": [[r[i] for i in keep] for r in t["rows"]]})
    doc["tables"] = tables
    return doc


def run_bench(bench_dir, name, device, quick, extra=()):
    binary = os.path.join(bench_dir, name)
    if not os.path.exists(binary):
        sys.exit(f"bench binary not found: {binary} (build the repo first: "
                 "cmake -B build -S . && cmake --build build -j)")
    out = os.path.join(RESULTS_DIR, f"{name}.{device}.json")
    cmd = [binary, f"--device={device}", f"--json={out}"]
    if quick:
        cmd += [f"--{k}={v}" for k, v in BENCHES[name].items()]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        print(proc.stdout)
        sys.exit(f"FAILED: {' '.join(cmd)}")
    return out


def cross_device_check(name, paths):
    docs = []
    for p in paths:
        with open(p) as f:
            docs.append(strip_timing(strip_device(json.load(f))))
    for device, doc in zip(DEVICES[1:], docs[1:]):
        if doc != docs[0]:
            return f"{name}: {device} run differs from memory run"
    return None


def run_scale_leg(bench_dir, records, out_path):
    binary = os.path.join(bench_dir, "outofcore_sweep")
    cmd = [binary, f"--records={records}", f"--out={out_path}"]
    print(f"[scale] {' '.join(cmd)}")
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        sys.exit("FAILED: out-of-core scale leg")
    baseline = os.path.join(ROOT, "bench", "baselines", "scale.json")
    compare = os.path.join(ROOT, "tools", "bench_compare.py")
    if os.path.exists(baseline):
        print("[scale] note: bench/baselines/scale.json gates the --smoke "
              "sizes; full-size runs are compared only for deterministic="
              "true")
        with open(out_path) as f:
            doc = json.load(f)
        if doc.get("deterministic") is not True:
            sys.exit("scale leg: deterministic != true")
    return compare


def regenerate_docs(check):
    """Render into docs/eval (or, with check=True, diff against it)."""
    if not check:
        rendered = render.render_all(RESULTS_DIR, DOCS_DIR)
        return rendered, []
    with tempfile.TemporaryDirectory() as tmp:
        rendered = render.render_all(RESULTS_DIR, tmp)
        diffs = []
        for f in sorted(os.listdir(tmp)):
            committed = os.path.join(DOCS_DIR, f)
            if not os.path.exists(committed):
                diffs.append(f"missing committed file: docs/eval/{f}")
            elif not filecmp.cmp(os.path.join(tmp, f), committed,
                                 shallow=False):
                diffs.append(f"docs/eval/{f} differs from regenerated "
                             "output")
        return rendered, diffs


def main():
    ap = argparse.ArgumentParser(
        description="run the figure matrix and regenerate docs/eval/")
    ap.add_argument("--quick", action="store_true",
                    help="CI sizes (the committed docs/eval baseline)")
    ap.add_argument("--bench-dir", default=os.path.join(ROOT, "build",
                                                        "bench"),
                    help="directory with the built bench binaries")
    ap.add_argument("--figures", default="",
                    help="only run benches whose name contains this "
                         "substring")
    ap.add_argument("--devices", default=",".join(DEVICES),
                    help="comma list of backends (default memory,file,"
                         "uring)")
    ap.add_argument("--records", default="",
                    help="also run the out-of-core scale leg, e.g. "
                         "--records=10M..100M (file+uring, streamed)")
    ap.add_argument("--check", action="store_true",
                    help="verify committed docs/eval instead of rewriting "
                         "it (CI mode; implies rendering to a temp dir)")
    ap.add_argument("--render-only", action="store_true",
                    help="skip the benches; re-render from existing "
                         "tools/eval/results/")
    ap.add_argument("--self-test", action="store_true",
                    help="exercise the renderer on fixtures (no binaries "
                         "needed; registered as a ctest)")
    args = ap.parse_args()

    if args.self_test:
        render.self_test()
        # The figure registry must stay in sync with the renderer's specs.
        missing = [n for n in BENCHES if n not in render.FIGURES]
        assert not missing, f"no render spec for: {missing}"
        assert strip_timing({"a": {"seconds": 1, "leaves": 2},
                             "b_ms": 3, "speedup_x": 4}) == \
            {"a": {"leaves": 2}}
        print("run_eval.py self-test OK")
        return 0

    devices = [d for d in args.devices.split(",") if d]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    failures = []
    names = [n for n in sorted(BENCHES) if args.figures in n]

    if not args.render_only:
        for name in names:
            paths = []
            for device in devices:
                mode = "quick" if args.quick else "full"
                print(f"[{mode}] {name} --device={device}")
                paths.append(run_bench(args.bench_dir, name, device,
                                       args.quick))
            if len(paths) > 1:
                err = cross_device_check(name, paths)
                if err:
                    failures.append(err)
        if args.records:
            run_scale_leg(args.bench_dir, args.records,
                          os.path.join(RESULTS_DIR, "BENCH_scale.json"))

    rendered, diffs = regenerate_docs(args.check)
    failures += diffs

    print(f"\nrendered {len(rendered)} figures "
          f"{'(checked against committed docs/eval)' if args.check else 'into docs/eval/'}")
    if failures:
        print("FAILURES:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
