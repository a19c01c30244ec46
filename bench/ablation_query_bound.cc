// Ablation: empirical verification of the Theorem 1 query bound.
//
// Sweeps N on the §2.4 worst-case grid and compares the PR-tree's measured
// worst-case empty-query leaf visits against c * sqrt(N/B): the measured
// curve must grow like sqrt(N) with a stable constant, while the packed
// Hilbert R-tree's cost grows linearly in N.

#include <cmath>
#include <cstdio>

#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "workload/datasets.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/0);
  const size_t rows = NodeCapacity<2>(kDefaultBlockSize);  // B = 113
  std::printf("=== Ablation: Theorem 1 query bound on the worst-case grid "
              "(B=%zu) ===\n", rows);

  FigureJson json("ablation_query_bound");
  AddBenchParams(opts, opts.n, &json);
  json.Param("rows", static_cast<unsigned long long>(rows));
  FigureJson::Table* jt = json.AddTable(
      "bound", {"n", "sqrt_n_over_b", "pr_worst_leaves", "pr_constant",
                "h_worst_leaves", "h_per_mille"});

  TablePrinter table({"N", "sqrt(N/B)", "PR worst leaves", "PR constant c",
                      "H worst leaves", "H/N per mille"});
  for (size_t columns : {128, 256, 512, 1024, 2048}) {
    auto data = workload::MakeWorstCaseGrid(columns, rows);
    const size_t n = data.size();
    std::vector<Rect2> queries;
    for (int row = 1; row < 12; ++row) {
      double y = row / static_cast<double>(rows) -
                 0.5 / static_cast<double>(n);
      queries.push_back(
          MakeRect(-1, y, static_cast<double>(columns) + 1, y));
    }
    auto worst = [&](Variant v) {
      BuiltIndex index =
          BuildIndex(v, data, /*memory_bytes=*/0, opts.threads, opts.device);
      uint64_t w = 0;
      for (const auto& q : queries) {
        QueryStats qs = index.tree->Query(q, [](const Record2&) {});
        w = std::max(w, qs.leaves_visited);
      }
      return w;
    };
    uint64_t pr = worst(Variant::kPrTree);
    uint64_t h = worst(Variant::kHilbert);
    double bound = std::sqrt(static_cast<double>(n) /
                             static_cast<double>(rows));
    table.AddRow({TablePrinter::FmtCount(n), TablePrinter::Fmt(bound, 1),
                  TablePrinter::FmtCount(pr),
                  TablePrinter::Fmt(static_cast<double>(pr) / bound, 2),
                  TablePrinter::FmtCount(h),
                  TablePrinter::Fmt(1000.0 * static_cast<double>(h) /
                                        static_cast<double>(n),
                                    2)});
    jt->AddRow({static_cast<unsigned long long>(n), bound,
                static_cast<unsigned long long>(pr),
                static_cast<double>(pr) / bound,
                static_cast<unsigned long long>(h),
                1000.0 * static_cast<double>(h) / static_cast<double>(n)});
  }
  table.Print();
  std::printf("(expected: PR constant c stays bounded as N grows 16x; "
              "H grows linearly with N)\n");
  json.WriteFile(opts.json_path);
  return 0;
}
