// Figure 9: bulk-loading performance on the TIGER datasets — block I/Os and
// wall-clock seconds for H/H4, PR and TGS on the Western and Eastern data.
//
// Paper result (16.7M Eastern / 12M Western rectangles): H and H4 use the
// same I/O and ~2.5x fewer than PR; TGS uses ~4.5x more I/O than PR.  In
// time, H/H4 are >3x faster than PR and TGS ~3x slower than PR.
//
// This harness runs a laptop-scale replica (defaults: Western 400k, Eastern
// 556k records, memory budget scaled to keep the paper's ~9:1 data:memory
// ratio); pass --scale=30 to approach paper scale.

#include <cstdio>

#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "workload/datasets.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/556000);
  std::printf(
      "=== Figure 9: bulk-loading on TIGER-like data "
      "(Eastern n=%zu, Western n=%zu) ===\n",
      opts.ScaledN(), opts.ScaledN() * 12 / 167 * 10);

  struct RegionSpec {
    const char* name;
    workload::TigerRegion region;
    size_t n;
  };
  // Paper ratio: Western 12M vs Eastern 16.7M.
  RegionSpec regions[] = {
      {"Western", workload::TigerRegion::kWestern,
       opts.ScaledN() * 12 / 167 * 10},
      {"Eastern", workload::TigerRegion::kEastern, opts.ScaledN()},
  };

  FigureJson json("fig09_bulkload_tiger");
  AddBenchParams(opts, opts.ScaledN(), &json);
  FigureJson::Table* jt = json.AddTable(
      "build", {"region", "variant", "records", "io_blocks",
                "blocks_per_record", "seconds", "utilization_pct"});

  for (const auto& spec : regions) {
    auto data = workload::MakeTigerLike(spec.n, spec.region, opts.seed);
    TablePrinter table({"variant", "blocks read+written", "blocks/record",
                        "seconds", "space util"});
    double pr_io = 0;
    for (Variant v : {Variant::kHilbert, Variant::kHilbert4D,
                      Variant::kPrTree, Variant::kTgs}) {
      BuiltIndex index = BuildIndex(v, data, 0, opts.threads, opts.device);
      double io = static_cast<double>(index.build_io.Total());
      if (v == Variant::kPrTree) pr_io = io;
      table.AddRow({VariantName(v), TablePrinter::FmtCount(index.build_io.Total()),
                    TablePrinter::Fmt(io / static_cast<double>(spec.n), 4),
                    TablePrinter::Fmt(index.build_seconds, 2),
                    TablePrinter::FmtPercent(
                        100 * index.tree_stats.utilization)});
      jt->AddRow({spec.name, VariantName(v),
                  static_cast<unsigned long long>(spec.n),
                  static_cast<unsigned long long>(index.build_io.Total()),
                  io / static_cast<double>(spec.n), index.build_seconds,
                  100 * index.tree_stats.utilization});
    }
    std::printf("\n--- %s data (%zu rectangles) ---\n", spec.name, spec.n);
    table.Print();
    std::printf("(paper shape: H == H4 ~= PR/2.5, TGS ~= 4.5*PR;"
                " PR I/O here = %.0f)\n", pr_io);
  }
  json.WriteFile(opts.json_path);
  return 0;
}
