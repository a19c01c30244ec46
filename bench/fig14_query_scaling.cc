// Figure 14: query performance for fixed 1%-area square windows on the
// five Eastern datasets of increasing size.
//
// Paper result: the normalised query cost (% of T/B) is flat in dataset
// size for every variant, with the same TGS <= PR <= H <= H4 ordering as
// Figures 12-13.

#include <cstdio>

#include "bench/bench_query_common.h"
#include "workload/datasets.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/556000);
  const double kFractions[] = {2.08 / 16.72, 5.67 / 16.72, 9.16 / 16.72,
                               12.66 / 16.72, 1.0};
  std::printf("=== Figure 14: 1%% queries vs dataset size, Eastern "
              "TIGER-like (up to n=%zu) ===\n", opts.ScaledN());
  auto full = workload::MakeTigerLike(opts.ScaledN(),
                                      workload::TigerRegion::kEastern,
                                      opts.seed);

  FigureJson json("fig14_query_scaling");
  AddBenchParams(opts, opts.ScaledN(), &json);
  FigureJson::Table* jt = nullptr;

  TablePrinter table({"records", "avg T", "TGS %T/B", "PR %T/B", "H %T/B",
                      "H4 %T/B"});
  int qseed = 300;
  for (double f : kFractions) {
    size_t n = static_cast<size_t>(f * static_cast<double>(full.size()));
    std::vector<Record2> data(full.begin(), full.begin() + n);
    VariantSet set = BuildAllVariants(data, opts);
    if (jt == nullptr) {
      jt = json.AddTable("query_cost", QueryJsonColumns(set, "records"));
    }
    Rect2 extent = set.indexes.front().tree->Mbr();
    auto queries = workload::MakeSquareQueries(extent, 0.01, opts.queries,
                                               opts.seed + qseed++);
    AddQueryRow(set, queries, TablePrinter::FmtCount(n), &table, jt,
                static_cast<double>(n));
  }
  table.Print();
  std::printf("(paper shape: flat in dataset size; TGS <= PR <= H <= H4)\n");
  json.WriteFile(opts.json_path);
  return 0;
}
