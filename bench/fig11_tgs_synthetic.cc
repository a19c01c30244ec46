// Figure 11: TGS bulk-loading cost on the synthetic datasets — the paper's
// demonstration that TGS construction (unlike H/H4/PR) depends strongly on
// the data distribution.
//
// Paper result (10M rectangles each): TGS build time varies from 3,726s to
// 14,034s across SIZE(max_side) and ASPECT(a), i.e. 2.8-10.9x slower than
// PR in time and 4.6-16.4x in I/O, while H/H4 (381s / 1.0M I/Os) and PR
// (1,289s / 2.6M I/Os) are constant across all synthetic datasets.

#include <cstdio>
#include <string>

#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "workload/datasets.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/150000);
  size_t n = opts.ScaledN();
  std::printf("=== Figure 11: TGS bulk-loading on synthetic data "
              "(n=%zu per dataset) ===\n", n);

  // Forwards --threads and --device; with an explicit --path the file is
  // suffixed per variant because two variants' devices can be alive at
  // once (cf. BuildAllVariants).
  auto build = [&](Variant v, const std::vector<Record2>& data) {
    DeviceSpec spec = opts.device;
    if (!spec.path.empty()) {
      spec.path += std::string(".") + LoaderKindName(v);
    }
    return BuildIndex(v, data, /*memory_bytes=*/0, opts.threads, spec);
  };

  FigureJson json("fig11_tgs_synthetic");
  AddBenchParams(opts, n, &json);
  FigureJson::Table* jref =
      json.AddTable("reference", {"variant", "io_blocks", "seconds"});
  FigureJson::Table* jt = json.AddTable(
      "tgs_build", {"dataset", "tgs_io", "tgs_seconds", "tgs_over_pr_io",
                    "pr_io"});

  // Reference: PR (and H) on one dataset — their cost is distribution-
  // independent (verified by the variation rows below).
  auto ref_data = workload::MakeSize(n, 0.01, opts.seed);
  BuiltIndex pr_ref = build(Variant::kPrTree, ref_data);
  BuiltIndex h_ref = build(Variant::kHilbert, ref_data);
  jref->AddRow({"PR", static_cast<unsigned long long>(pr_ref.build_io.Total()),
                pr_ref.build_seconds});
  jref->AddRow({"H", static_cast<unsigned long long>(h_ref.build_io.Total()),
                h_ref.build_seconds});
  std::printf("reference on SIZE(0.01): PR %s I/Os %.2fs | H %s I/Os %.2fs\n",
              TablePrinter::FmtCount(pr_ref.build_io.Total()).c_str(),
              pr_ref.build_seconds,
              TablePrinter::FmtCount(h_ref.build_io.Total()).c_str(),
              h_ref.build_seconds);

  TablePrinter table({"dataset", "TGS I/Os", "TGS seconds", "TGS/PR I/O",
                      "PR I/Os (same data)"});
  auto run = [&](const std::string& name, const std::vector<Record2>& data) {
    BuiltIndex tgs = build(Variant::kTgs, data);
    BuiltIndex pr = build(Variant::kPrTree, data);
    table.AddRow({name, TablePrinter::FmtCount(tgs.build_io.Total()),
                  TablePrinter::Fmt(tgs.build_seconds, 2),
                  TablePrinter::Fmt(
                      static_cast<double>(tgs.build_io.Total()) /
                          static_cast<double>(pr.build_io.Total()),
                      2),
                  TablePrinter::FmtCount(pr.build_io.Total())});
    jt->AddRow({name, static_cast<unsigned long long>(tgs.build_io.Total()),
                tgs.build_seconds,
                static_cast<double>(tgs.build_io.Total()) /
                    static_cast<double>(pr.build_io.Total()),
                static_cast<unsigned long long>(pr.build_io.Total())});
  };

  for (double max_side : {0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}) {
    char name[64];
    std::snprintf(name, sizeof(name), "SIZE(%g)", max_side);
    run(name, workload::MakeSize(n, max_side, opts.seed));
  }
  for (double aspect : {1e1, 1e2, 1e3, 1e4, 1e5}) {
    char name[64];
    std::snprintf(name, sizeof(name), "ASPECT(%g)", aspect);
    run(name, workload::MakeAspect(n, aspect, opts.seed));
  }
  // §3.3 text: "The point datasets, skewed(c) and cluster, were all built
  // in between 3,471 and 4,456 seconds" — i.e. at the cheap end of TGS's
  // range.
  run("SKEWED(5)", workload::MakeSkewed(n, 5, opts.seed));
  run("CLUSTER", workload::MakeCluster(std::max<size_t>(10, n / 200),
                                       200, opts.seed));
  table.Print();
  std::printf("(paper shape: TGS cost varies several-fold across datasets "
              "and is always a multiple of PR's)\n");
  json.WriteFile(opts.json_path);
  return 0;
}
