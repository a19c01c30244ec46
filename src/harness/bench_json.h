// The one JSON writer of the bench programs.
//
// BenchJson is an ordered JSON document: numbers, strings, booleans and
// null, plus objects and arrays that nest.  Object members print in
// insertion order.  Every bench document goes through it, in one of two
// layouts (docs/BENCH_FORMAT.md):
//
//  * the figure layout (FigureJson below): with --json=PATH
//    (harness/experiment.h, ParseBenchFlags) every figure/table/ablation
//    bench mirrors its human tables *raw* — unformatted numbers, no percent
//    signs or thousands separators — into
//
//      {
//        "bench": "fig12_query_western",
//        "params": {"n": 400000, "queries": 100, "seed": 1, ...},
//        "tables": [
//          {
//            "name": "query_cost",
//            "columns": ["query_area_pct", "avg_results", ...],
//            "rows": [[0.25, 812, 104.1, ...], ...]
//          }
//        ]
//      }
//
//    which tools/eval/run_eval.py renders into docs/eval/;
//  * the gated layout: the regression benches (bulkload_parallel,
//    outofcore_sweep, query_warm, throughput_concurrent) write
//    BenchJson::Document(name) with their own nested keys to --out=PATH,
//    ending in "deterministic" (WriteGated), and CI gates the flattened key
//    paths against bench/baselines/ with tools/bench_compare.py.
//
// Numbers are exact where they count: integral values below 9e15 print as
// integers, every other finite value as %.10g, NaN and ±Inf as null.

#ifndef PRTREE_HARNESS_BENCH_JSON_H_
#define PRTREE_HARNESS_BENCH_JSON_H_

#include <list>
#include <string>
#include <utility>
#include <vector>

namespace prtree {
namespace harness {

/// \brief An ordered JSON value; objects and arrays nest.
///
/// Scalars convert implicitly, so members are set by assignment:
/// `doc["n"] = n; doc["legs"].Push(BenchJson::Object())["device"] = "file";`
class BenchJson {
 public:
  BenchJson() = default;  // null
  BenchJson(double v) : kind_(Kind::kNumber), num_(v) {}           // NOLINT
  BenchJson(int v) : BenchJson(static_cast<double>(v)) {}          // NOLINT
  BenchJson(unsigned v) : BenchJson(static_cast<double>(v)) {}     // NOLINT
  BenchJson(long v) : BenchJson(static_cast<double>(v)) {}         // NOLINT
  BenchJson(unsigned long v)                                       // NOLINT
      : BenchJson(static_cast<double>(v)) {}
  BenchJson(long long v) : BenchJson(static_cast<double>(v)) {}    // NOLINT
  BenchJson(unsigned long long v)                                  // NOLINT
      : BenchJson(static_cast<double>(v)) {}
  BenchJson(bool v) : kind_(Kind::kBool), flag_(v) {}              // NOLINT
  BenchJson(const char* v) : kind_(Kind::kString), str_(v) {}      // NOLINT
  BenchJson(std::string v)                                         // NOLINT
      : kind_(Kind::kString), str_(std::move(v)) {}

  /// An empty object / array (prints `{}` / `[]`, not null).
  static BenchJson Object();
  static BenchJson Array();
  /// A gated bench's document: an object whose first member is
  /// "bench": `bench_name`.
  static BenchJson Document(std::string bench_name);

  /// The object member `key`: the existing one, else a new null member
  /// after the others (a null value becomes an object first).  Assigning
  /// to an existing member keeps its place.
  BenchJson& operator[](const std::string& key);

  /// Appends `value` to an array (a null value becomes an array first)
  /// and returns the stored element.
  BenchJson& Push(BenchJson value);

  /// Deep equality: same kinds, values, keys and key order.
  bool operator==(const BenchJson&) const = default;

  /// The document, newline-terminated.  A container whose members are all
  /// scalars prints on one line; any other is one member per line,
  /// indented two spaces per level.
  std::string ToString() const;

  /// Serializes to `path`.  Empty path is a silent no-op (the figure
  /// benches call this unconditionally; --json unset means "no JSON").
  /// Returns false and prints to stderr when the file cannot be written.
  bool WriteFile(const std::string& path) const;

 private:
  enum class Kind { kNull, kNumber, kBool, kString, kObject, kArray };

  void Append(std::string* out, int indent) const;

  Kind kind_ = Kind::kNull;
  double num_ = 0;
  bool flag_ = false;
  std::string str_;
  // Object members, or array elements (with empty keys).  A list, so the
  // references operator[] and Push return survive later additions.
  std::list<std::pair<std::string, BenchJson>> children_;
};

/// The gated benches' epilogue: sets `doc`'s last member "deterministic"
/// to `ok`, writes `doc` to `path` and returns the process exit code — 0,
/// or 1 when the file cannot be written or `ok` is false, in which case
/// stderr names `check`, the cross-check that failed.
int WriteGated(BenchJson* doc, const std::string& path, bool ok,
               const char* check);

/// \brief The figure benches' layout on top of BenchJson: "bench", then
/// "params" (scalars), then "tables" (named column/row captures).
class FigureJson {
 public:
  /// A captured table: fixed columns, then rows of matching width.
  class Table {
   public:
    void AddRow(std::vector<BenchJson> cells);

   private:
    friend class FigureJson;
    BenchJson* rows_ = nullptr;
    size_t width_ = 0;
  };

  explicit FigureJson(std::string bench_name);

  /// Records a scalar under "params" (insertion order kept).
  void Param(const std::string& key, BenchJson value);

  /// Adds a named table; the pointer stays valid for the document's life.
  Table* AddTable(std::string name, std::vector<std::string> columns);

  const BenchJson& doc() const { return doc_; }
  bool WriteFile(const std::string& path) const {
    return doc_.WriteFile(path);
  }

 private:
  BenchJson doc_;
  std::list<Table> tables_;
};

}  // namespace harness
}  // namespace prtree

#endif  // PRTREE_HARNESS_BENCH_JSON_H_
