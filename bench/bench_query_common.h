// Shared driver for the query-performance figures (12-15): builds every
// paper variant once per dataset and reports leaf I/Os as a percentage of
// the optimal T/B, the paper's y-axis.

#ifndef PRTREE_BENCH_BENCH_QUERY_COMMON_H_
#define PRTREE_BENCH_BENCH_QUERY_COMMON_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "workload/queries.h"

namespace prtree {
namespace harness {

/// All paper variants built over one dataset, ready for repeated query
/// batches.
struct VariantSet {
  std::vector<Variant> variants;
  std::vector<BuiltIndex> indexes;
};

/// `opts` forwards --threads and --device/--path; the built trees (and all
/// reported I/O counts) are identical regardless of either.  With an
/// explicit --path the file is suffixed per variant — every variant's
/// device stays alive for the whole query phase, so they cannot share one
/// file.
inline VariantSet BuildAllVariants(const std::vector<Record2>& data,
                                   const BenchOptions& opts = {}) {
  VariantSet set;
  set.variants = PaperVariants();
  for (Variant v : set.variants) {
    DeviceSpec spec = opts.device;
    if (!spec.path.empty()) {
      spec.path += std::string(".") + LoaderKindName(v);
    }
    set.indexes.push_back(
        BuildIndex(v, data, /*memory_bytes=*/0, opts.threads, spec));
  }
  return set;
}

/// Runs one query batch against every variant and appends a table row:
/// label | avg T | <variant>%... (percent of optimal T/B).  When
/// `json_table` is set the same row is captured raw (x_value instead of
/// the formatted label, unrounded averages and percentages) for
/// tools/eval/run_eval.py.
inline void AddQueryRow(const VariantSet& set,
                        const std::vector<Rect2>& queries,
                        const std::string& label, TablePrinter* table,
                        FigureJson::Table* json_table = nullptr,
                        double x_value = 0) {
  std::vector<std::string> row{label};
  std::vector<BenchJson> json_row{x_value};
  bool first = true;
  for (size_t i = 0; i < set.indexes.size(); ++i) {
    QueryMeasurement m = MeasureQueries(set.indexes[i], queries);
    if (first) {
      row.push_back(TablePrinter::FmtCount(
          static_cast<uint64_t>(m.avg_results)));
      json_row.emplace_back(m.avg_results);
      first = false;
    }
    row.push_back(TablePrinter::Fmt(m.pct_of_optimal, 1) + "%");
    json_row.emplace_back(m.pct_of_optimal);
  }
  table->AddRow(std::move(row));
  if (json_table != nullptr) json_table->AddRow(std::move(json_row));
}

inline std::vector<std::string> QueryTableHeaders(const VariantSet& set,
                                                  const std::string& x_name) {
  std::vector<std::string> headers{x_name, "avg T"};
  for (Variant v : set.variants) {
    headers.push_back(std::string(VariantName(v)) + " %T/B");
  }
  return headers;
}

/// JSON column names matching the AddQueryRow json_row layout:
/// x_name | avg_results | <variant>_pct_of_optimal...
inline std::vector<std::string> QueryJsonColumns(const VariantSet& set,
                                                 const std::string& x_name) {
  std::vector<std::string> cols{x_name, "avg_results"};
  for (Variant v : set.variants) {
    cols.push_back(std::string(VariantName(v)) + "_pct_of_optimal");
  }
  return cols;
}

}  // namespace harness
}  // namespace prtree

#endif  // PRTREE_BENCH_BENCH_QUERY_COMMON_H_
