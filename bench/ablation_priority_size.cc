// Ablation: priority-leaf size.
//
// The PR-tree's priority leaves hold B rectangles; the precursor structure
// of Agarwal et al. [2] used priority "boxes" of size 1, which costs a
// log_B N factor in the query bound (§1.1).  This bench sweeps the
// priority-leaf fill fraction and measures query cost on an extreme
// dataset, showing why B-sized priority leaves matter in practice.

#include <cstdio>

#include "core/prtree.h"
#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "io/buffer_pool.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/150000);
  size_t n = opts.ScaledN();
  std::printf("=== Ablation: PR-tree priority-leaf size "
              "(ASPECT(1000), n=%zu) ===\n", n);
  auto data = workload::MakeAspect(n, 1000, opts.seed);

  FigureJson json("ablation_priority_size");
  AddBenchParams(opts, n, &json);
  FigureJson::Table* jt = json.AddTable(
      "priority_fill", {"fill", "leaves_per_query", "pct_of_optimal",
                        "leaves", "utilization_pct"});

  TablePrinter table({"priority fill", "leaves/query", "%T/B", "leaves",
                      "space util"});
  for (double frac : {0.01, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    MemoryBlockDevice dev(kDefaultBlockSize);
    RTree<2> tree(&dev);
    WorkEnv env{&dev, ScaledMemoryBudget(n)};
    PrTreeOptions popts;
    popts.priority_fraction = frac;
    AbortIfError(BulkLoadPrTree<2>(env, data, &tree, popts));
    TreeStats ts = tree.ComputeStats();

    auto queries = workload::MakeSquareQueries(tree.Mbr(), 0.01,
                                               opts.queries, opts.seed + 9);
    BufferPool pool(&dev, ts.num_nodes + 16);
    tree.CacheInternalNodes(&pool);
    uint64_t leaves = 0, results = 0;
    for (const auto& q : queries) {
      QueryStats qs = tree.Query(q, [](const Record2&) {}, &pool);
      leaves += qs.leaves_visited;
      results += qs.results;
    }
    double pct = results == 0
                     ? 0
                     : 100.0 * static_cast<double>(leaves) /
                           (static_cast<double>(results) /
                            static_cast<double>(tree.capacity()));
    table.AddRow({TablePrinter::Fmt(frac, 2),
                  TablePrinter::Fmt(static_cast<double>(leaves) /
                                        static_cast<double>(queries.size()),
                                    1),
                  TablePrinter::Fmt(pct, 1) + "%",
                  TablePrinter::FmtCount(ts.num_leaves),
                  TablePrinter::FmtPercent(100 * ts.utilization)});
    jt->AddRow({frac,
                static_cast<double>(leaves) /
                    static_cast<double>(queries.size()),
                pct, static_cast<unsigned long long>(ts.num_leaves),
                100 * ts.utilization});
  }
  table.Print();
  std::printf("(expected: small priority leaves approach the [2] structure "
              "— more leaves, worse query cost; fill 1.0 is the PR-tree)\n");
  json.WriteFile(opts.json_path);
  return 0;
}
