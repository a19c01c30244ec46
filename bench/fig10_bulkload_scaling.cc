// Figure 10: bulk-loading I/O on the five Eastern datasets of increasing
// size (paper: 2.1, 5.7, 9.2, 12.7, 16.7 million rectangles).
//
// Paper result: H/H4 and PR scale linearly with dataset size (the
// log_{M/B}(N/B) factor is constant across these sizes); TGS grows slightly
// super-linearly (its factor is log2 N).

#include <cstdio>

#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "workload/datasets.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/556000);
  // The paper's five sizes as fractions of the full Eastern set.
  const double kFractions[] = {2.08 / 16.72, 5.67 / 16.72, 9.16 / 16.72,
                               12.66 / 16.72, 1.0};
  std::printf("=== Figure 10: bulk-loading I/O vs dataset size "
              "(Eastern prefixes of %zu) ===\n", opts.ScaledN());

  // Size-graded datasets are prefixes of one fixed-seed stream, mirroring
  // the paper's region unions.
  auto full = workload::MakeTigerLike(opts.ScaledN(),
                                      workload::TigerRegion::kEastern,
                                      opts.seed);
  FigureJson json("fig10_bulkload_scaling");
  AddBenchParams(opts, opts.ScaledN(), &json);
  FigureJson::Table* jt = json.AddTable(
      "build_io", {"records", "H_io", "H4_io", "PR_io", "TGS_io",
                   "tgs_over_pr", "pr_over_h"});

  TablePrinter table({"records", "H", "H4", "PR", "TGS",
                      "TGS/PR", "PR/H"});
  for (double f : kFractions) {
    size_t n = static_cast<size_t>(f * static_cast<double>(full.size()));
    std::vector<Record2> data(full.begin(), full.begin() + n);
    double ios[4] = {0, 0, 0, 0};
    int i = 0;
    for (Variant v : {Variant::kHilbert, Variant::kHilbert4D,
                      Variant::kPrTree, Variant::kTgs}) {
      BuiltIndex index = BuildIndex(v, data, 0, opts.threads, opts.device);
      ios[i++] = static_cast<double>(index.build_io.Total());
    }
    table.AddRow({TablePrinter::FmtCount(n),
                  TablePrinter::FmtCount(static_cast<uint64_t>(ios[0])),
                  TablePrinter::FmtCount(static_cast<uint64_t>(ios[1])),
                  TablePrinter::FmtCount(static_cast<uint64_t>(ios[2])),
                  TablePrinter::FmtCount(static_cast<uint64_t>(ios[3])),
                  TablePrinter::Fmt(ios[3] / ios[2], 2),
                  TablePrinter::Fmt(ios[2] / ios[0], 2)});
    jt->AddRow({static_cast<unsigned long long>(n), ios[0], ios[1], ios[2],
                ios[3], ios[3] / ios[2], ios[2] / ios[0]});
  }
  table.Print();
  std::printf("(paper shape: H/H4/PR linear in n; TGS slightly "
              "super-linear; PR ~2.5x H; TGS ~4.5x PR)\n");
  json.WriteFile(opts.json_path);
  return 0;
}
