// Theorem 3 / §2.4: the Halton–Hammersley grid on which a zero-output line
// query forces the packed Hilbert, 4-D Hilbert and TGS R-trees to visit
// Θ(N/B) leaves, while the PR-tree stays within its O(sqrt(N/B)) bound.

#include <cmath>
#include <cstdio>

#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "workload/datasets.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/115712);
  const size_t rows = NodeCapacity<2>(kDefaultBlockSize);  // B = 113
  size_t columns = std::max<size_t>(4, opts.ScaledN() / rows);
  auto data = workload::MakeWorstCaseGrid(columns, rows);
  const size_t n = data.size();
  std::printf("=== Theorem 3: worst-case grid (%zu columns x %zu rows = "
              "%zu points) ===\n", columns, rows, n);

  // Empty-result horizontal line queries between the point rows.
  std::vector<Rect2> queries;
  for (int row = 1; row < 20; ++row) {
    double y = row / static_cast<double>(rows) -
               0.5 / static_cast<double>(n);
    queries.push_back(MakeRect(-1, y, static_cast<double>(columns) + 1, y));
  }

  FigureJson json("thm3_worstcase");
  AddBenchParams(opts, n, &json);
  json.Param("columns", static_cast<unsigned long long>(columns));
  json.Param("rows", static_cast<unsigned long long>(rows));
  FigureJson::Table* jt = json.AddTable(
      "worstcase", {"variant", "avg_leaves", "pct_leaves", "results"});

  TablePrinter table({"tree", "leaves visited (avg)", "% of leaves",
                      "results"});
  for (Variant v : {Variant::kHilbert, Variant::kHilbert4D, Variant::kPrTree,
                    Variant::kTgs}) {
    BuiltIndex index =
        BuildIndex(v, data, /*memory_bytes=*/0, opts.threads, opts.device);
    QueryMeasurement m = MeasureQueries(index, queries);
    table.AddRow({VariantName(v),
                  TablePrinter::FmtCount(
                      static_cast<uint64_t>(m.avg_leaves)),
                  TablePrinter::FmtPercent(100 * m.frac_tree_visited),
                  TablePrinter::FmtCount(m.total_results)});
    jt->AddRow({VariantName(v), m.avg_leaves, 100 * m.frac_tree_visited,
                static_cast<unsigned long long>(m.total_results)});
  }
  table.Print();
  double bound = std::sqrt(static_cast<double>(n) / static_cast<double>(rows));
  std::printf("(T = 0 for every query; Theorem 3: H/H4/TGS visit Θ(N/B) "
              "leaves; Theorem 1 bound for PR: O(sqrt(N/B)) = O(%.0f))\n",
              bound);
  json.WriteFile(opts.json_path);
  return 0;
}
