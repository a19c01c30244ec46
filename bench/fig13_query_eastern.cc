// Figure 13: query performance on the Eastern TIGER data for square
// windows of area 0.25%-2% of the data extent.  Same protocol and expected
// shape as Figure 12 (see fig12_query_western.cc).

#include <cstdio>

#include "bench/bench_query_common.h"
#include "workload/datasets.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/556000);
  size_t n = opts.ScaledN();
  std::printf("=== Figure 13: query cost vs window size, Eastern TIGER-like "
              "(n=%zu, %zu queries/point) ===\n", n, opts.queries);
  auto data = workload::MakeTigerLike(n, workload::TigerRegion::kEastern,
                                      opts.seed);
  VariantSet set = BuildAllVariants(data, opts);
  Rect2 extent = set.indexes.front().tree->Mbr();

  FigureJson json("fig13_query_eastern");
  AddBenchParams(opts, n, &json);
  FigureJson::Table* jt =
      json.AddTable("query_cost", QueryJsonColumns(set, "query_area_pct"));

  TablePrinter table(QueryTableHeaders(set, "query area %"));
  int qseed = 200;
  for (double pct : {0.25, 0.50, 0.75, 1.00, 1.25, 1.50, 1.75, 2.00}) {
    auto queries = workload::MakeSquareQueries(extent, pct / 100.0,
                                               opts.queries,
                                               opts.seed + qseed++);
    AddQueryRow(set, queries, TablePrinter::Fmt(pct, 2), &table, jt, pct);
  }
  table.Print();
  std::printf("(paper shape: all variants within ~10%%, ordering "
              "TGS <= PR <= H <= H4, all near 100%% of T/B)\n");
  json.WriteFile(opts.json_path);
  return 0;
}
