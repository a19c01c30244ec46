// Figure 15: query performance on the synthetic extreme datasets, with
// square queries of area 0.01 (skew-transformed for SKEWED so output size
// stays comparable).
//
// Paper result (10M rectangles):
//   SIZE(max_side):  all near-optimal for small rectangles; as max_side
//                    grows PR and H4 clearly beat TGS, and H degrades the
//                    most (up to ~340% of T/B at max_side=0.2).
//   ASPECT(a):       PR == H4 stay near optimal for all aspect ratios;
//                    TGS and especially H degrade steeply.
//   SKEWED(c):       PR is flat (order-based construction is invariant to
//                    the monotone squeeze); H, H4, TGS degrade as c grows.
//
// --family=size|aspect|skewed runs one family (default: all three).

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_query_common.h"
#include "workload/datasets.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  std::string family = "all";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--family=", 9) == 0) family = argv[i] + 9;
  }
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/150000);
  size_t n = opts.ScaledN();
  std::printf("=== Figure 15: query cost on synthetic datasets "
              "(n=%zu, area-0.01 queries, %zu queries/point) ===\n",
              n, opts.queries);
  int qseed = 400;
  FigureJson json("fig15_query_synthetic");
  AddBenchParams(opts, n, &json);
  json.Param("family", family);

  if (family == "all" || family == "size") {
    TablePrinter table({"max_side", "avg T", "TGS %T/B", "PR %T/B",
                        "H %T/B", "H4 %T/B"});
    FigureJson::Table* jt = nullptr;
    for (double max_side : {0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}) {
      auto data = workload::MakeSize(n, max_side, opts.seed);
      VariantSet set = BuildAllVariants(data, opts);
      if (jt == nullptr) {
        jt = json.AddTable("size", QueryJsonColumns(set, "max_side"));
      }
      auto queries = workload::MakeSquareQueries(
          set.indexes.front().tree->Mbr(), 0.01, opts.queries,
          opts.seed + qseed++);
      AddQueryRow(set, queries, TablePrinter::Fmt(max_side, 3), &table, jt,
                  max_side);
    }
    std::printf("\n--- SIZE(max_side) ---\n");
    table.Print();
    std::printf("(paper shape: PR,H4 < TGS << H as max_side grows)\n");
  }

  if (family == "all" || family == "aspect") {
    TablePrinter table({"aspect", "avg T", "TGS %T/B", "PR %T/B", "H %T/B",
                        "H4 %T/B"});
    FigureJson::Table* jt = nullptr;
    for (double aspect : {1e1, 1e2, 1e3, 1e4, 1e5}) {
      auto data = workload::MakeAspect(n, aspect, opts.seed);
      VariantSet set = BuildAllVariants(data, opts);
      if (jt == nullptr) {
        jt = json.AddTable("aspect", QueryJsonColumns(set, "aspect"));
      }
      auto queries = workload::MakeSquareQueries(
          set.indexes.front().tree->Mbr(), 0.01, opts.queries,
          opts.seed + qseed++);
      AddQueryRow(set, queries, TablePrinter::Fmt(aspect, 0), &table, jt,
                  aspect);
    }
    std::printf("\n--- ASPECT(a) ---\n");
    table.Print();
    std::printf("(paper shape: PR == H4 near optimal; TGS and "
                "especially H degrade with aspect)\n");
  }

  if (family == "all" || family == "skewed") {
    TablePrinter table({"c", "avg T", "TGS %T/B", "PR %T/B", "H %T/B",
                        "H4 %T/B"});
    FigureJson::Table* jt = nullptr;
    for (int c : {1, 3, 5, 7, 9}) {
      auto data = workload::MakeSkewed(n, c, opts.seed);
      VariantSet set = BuildAllVariants(data, opts);
      if (jt == nullptr) {
        jt = json.AddTable("skewed", QueryJsonColumns(set, "c"));
      }
      auto queries = workload::MakeSkewedQueries(0.01, c, opts.queries,
                                                 opts.seed + qseed++);
      AddQueryRow(set, queries, std::to_string(c), &table, jt, c);
    }
    std::printf("\n--- SKEWED(c) ---\n");
    table.Print();
    std::printf("(paper shape: PR flat in c; H, H4, TGS degrade as the "
                "point set gets more skewed)\n");
  }
  json.WriteFile(opts.json_path);
  return 0;
}
