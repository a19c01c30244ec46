// Table 1: query performance on the CLUSTER dataset — the paper's
// worst-case-style experiment for the heuristic R-trees.
//
// Paper result (10,000 clusters x 1,000 points; long skinny horizontal
// queries of area 1e-7 through all clusters, returning ~0.3% of the
// points):
//
//     tree:                 H       H4      PR     TGS
//     # I/Os:            32,920  83,389  1,060  22,158
//     % of tree visited:   37%     94%    1.2%    25%
//
// i.e. the PR-tree beats every heuristic by well over an order of
// magnitude.  Defaults here: 1,000 clusters x 200 points (use
// --scale to grow; --scale=50 reaches paper scale).

#include <cstdio>

#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/200000);
  size_t n = opts.ScaledN();
  // Keep the paper's 10:1 cluster:size ratio as n scales.
  size_t clusters = std::max<size_t>(10, n / 200);
  size_t per_cluster = n / clusters;
  std::printf("=== Table 1: CLUSTER dataset (%zu clusters x %zu points), "
              "thin horizontal stab queries ===\n", clusters, per_cluster);

  auto data = workload::MakeCluster(clusters, per_cluster, opts.seed);

  FigureJson json("table1_cluster");
  AddBenchParams(opts, n, &json);
  json.Param("clusters", static_cast<unsigned long long>(clusters));
  json.Param("per_cluster", static_cast<unsigned long long>(per_cluster));
  FigureJson::Table* jt = json.AddTable(
      "cluster_query", {"variant", "avg_leaf_io", "pct_tree_visited",
                        "avg_results", "build_io"});

  TablePrinter table({"tree", "# leaf I/Os (avg)", "% of R-tree visited",
                      "avg T", "build I/Os"});
  double pr_frac = 0, worst_frac = 0;
  for (Variant v : {Variant::kHilbert, Variant::kHilbert4D, Variant::kPrTree,
                    Variant::kTgs}) {
    BuiltIndex index =
        BuildIndex(v, data, /*memory_bytes=*/0, opts.threads, opts.device);
    Rect2 extent = index.tree->Mbr();
    auto queries = workload::MakeHorizontalStabQueries(
        extent, /*height=*/1e-7, /*band=*/0.9, opts.queries, opts.seed + 5);
    QueryMeasurement m = MeasureQueries(index, queries);
    if (v == Variant::kPrTree) pr_frac = m.frac_tree_visited;
    worst_frac = std::max(worst_frac, m.frac_tree_visited);
    table.AddRow({VariantName(v),
                  TablePrinter::FmtCount(
                      static_cast<uint64_t>(m.avg_leaves)),
                  TablePrinter::FmtPercent(100 * m.frac_tree_visited),
                  TablePrinter::FmtCount(
                      static_cast<uint64_t>(m.avg_results)),
                  TablePrinter::FmtCount(index.build_io.Total())});
    jt->AddRow({VariantName(v), m.avg_leaves, 100 * m.frac_tree_visited,
                m.avg_results,
                static_cast<unsigned long long>(index.build_io.Total())});
  }
  table.Print();
  std::printf("(paper: H 37%%, H4 94%%, PR 1.2%%, TGS 25%% — PR wins by "
              ">10x; here PR visits %.1f%% vs worst heuristic %.1f%%)\n",
              100 * pr_frac, 100 * worst_frac);
  json.WriteFile(opts.json_path);
  return 0;
}
