// Ablation: internal-node cache (§3.3, footnote 5).
//
// The paper caches all internal nodes during query experiments and notes
// that "experiments with the cache disabled showed that the cache actually
// had relatively little effect on the window query performance".  This
// bench measures total device reads per query with (a) all internal nodes
// cached, (b) no cache, for every variant.

#include <cstdio>

#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/300000);
  size_t n = opts.ScaledN();
  std::printf("=== Ablation: internal-node cache on/off "
              "(Eastern TIGER-like, n=%zu, 1%% queries) ===\n", n);
  auto data = workload::MakeTigerLike(n, workload::TigerRegion::kEastern,
                                      opts.seed);

  FigureJson json("ablation_cache");
  AddBenchParams(opts, n, &json);
  FigureJson::Table* jt = json.AddTable(
      "cache", {"variant", "reads_cached", "reads_cold", "overhead_pct"});

  TablePrinter table({"tree", "reads/query (cached)", "reads/query (cold)",
                      "overhead"});
  for (Variant v : PaperVariants()) {
    BuiltIndex index =
        BuildIndex(v, data, /*memory_bytes=*/0, opts.threads, opts.device);
    auto queries = workload::MakeSquareQueries(index.tree->Mbr(), 0.01,
                                               opts.queries, opts.seed + 3);
    QueryMeasurement cached = MeasureQueries(index, queries, true);
    QueryMeasurement cold = MeasureQueries(index, queries, false);
    double cached_reads = cached.avg_leaves;  // internals are cache hits
    double cold_reads = cold.avg_leaves + cold.avg_internal;
    double overhead_pct = 100 * (cold_reads - cached_reads) /
                          (cached_reads > 0 ? cached_reads : 1);
    table.AddRow({VariantName(v), TablePrinter::Fmt(cached_reads, 1),
                  TablePrinter::Fmt(cold_reads, 1),
                  TablePrinter::FmtPercent(overhead_pct)});
    jt->AddRow({VariantName(v), cached_reads, cold_reads, overhead_pct});
  }
  table.Print();
  std::printf("(paper: the cache has relatively little effect — leaf reads "
              "dominate; internal overhead is a few percent)\n");
  json.WriteFile(opts.json_path);
  return 0;
}
