// Ablation: memory budget M.
//
// Theorem 1's bulk-loading bound is O((N/B) log_{M/B} (N/B)) — the
// dependence on M shows up as a staircase: each time the budget halves
// past a threshold, the grid construction (and the external sorts beneath
// it) need another level of recursion / merge pass.  This bench sweeps M
// at fixed N for PR and H, exposing exactly that staircase.

#include <cstdio>

#include "core/prtree.h"
#include "baselines/hilbert_rtree.h"
#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "workload/datasets.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/400000);
  size_t n = opts.ScaledN();
  std::printf("=== Ablation: memory budget sweep (SIZE(0.01), n=%zu, "
              "data = %.1f MB) ===\n", n,
              static_cast<double>(n * sizeof(Record2)) / (1u << 20));
  auto data = workload::MakeSize(n, 0.01, opts.seed);

  FigureJson json("ablation_memory");
  AddBenchParams(opts, n, &json);
  FigureJson::Table* jt = json.AddTable(
      "memory", {"memory_kb", "pr_io", "pr_seconds", "h_io", "pr_over_h"});

  TablePrinter table({"memory budget", "PR I/Os", "PR seconds", "H I/Os",
                      "PR/H"});
  for (size_t mem_kb : {512u, 1024u, 2048u, 4096u, 8192u, 32768u,
                        131072u}) {
    size_t mem = static_cast<size_t>(mem_kb) << 10;

    MemoryBlockDevice dev_pr(kDefaultBlockSize);
    RTree<2> pr(&dev_pr);
    Stream<Record2> in_pr(&dev_pr);
    in_pr.Append(data);
    in_pr.Flush();
    dev_pr.ResetStats();
    Timer t;
    AbortIfError(BulkLoadPrTree<2>(WorkEnv{&dev_pr, mem}, &in_pr, &pr));
    double pr_seconds = t.Seconds();
    uint64_t pr_io = dev_pr.stats().Total();

    MemoryBlockDevice dev_h(kDefaultBlockSize);
    RTree<2> h(&dev_h);
    Stream<Record2> in_h(&dev_h);
    in_h.Append(data);
    in_h.Flush();
    dev_h.ResetStats();
    AbortIfError(BulkLoadHilbert(WorkEnv{&dev_h, mem}, &in_h, &h));
    uint64_t h_io = dev_h.stats().Total();

    table.AddRow({TablePrinter::FmtCount(mem_kb) + " KB",
                  TablePrinter::FmtCount(pr_io),
                  TablePrinter::Fmt(pr_seconds, 2),
                  TablePrinter::FmtCount(h_io),
                  TablePrinter::Fmt(static_cast<double>(pr_io) /
                                        static_cast<double>(h_io),
                                    2)});
    jt->AddRow({static_cast<unsigned long long>(mem_kb),
                static_cast<unsigned long long>(pr_io), pr_seconds,
                static_cast<unsigned long long>(h_io),
                static_cast<double>(pr_io) / static_cast<double>(h_io)});
  }
  table.Print();
  std::printf("(expected: a log_{M/B}(N/B) staircase — I/O steps up as M "
              "shrinks, flat once the data fits in memory)\n");
  json.WriteFile(opts.json_path);
  return 0;
}
