// Shared experiment harness for the figure/table benchmarks.
//
// Mirrors the paper's protocol (§3.1, §3.3):
//  * every bulk load runs on a fresh device — in-memory by default, or
//    file-backed with --device=file — with a memory budget scaled so
//    data:memory stays near the paper's ~9:1 (574 MB of Eastern data
//    against 64 MB for TPIE), keeping the external-memory behaviour of
//    the algorithms intact at laptop-scale N;
//  * build cost is reported as blocks read+written plus wall-clock seconds;
//  * queries cache all internal nodes, so query cost == leaf blocks read,
//    reported both raw and as a percentage of the optimal T/B.  I/O counts
//    are backend-independent (docs/IO_MODEL.md); only wall time changes
//    between memory and file runs.

#ifndef PRTREE_HARNESS_EXPERIMENT_H_
#define PRTREE_HARNESS_EXPERIMENT_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "geom/rect.h"
#include "io/block_device.h"
#include "io/work_env.h"
#include "rtree/bulk_loader.h"
#include "rtree/rtree.h"

namespace prtree {
namespace harness {

/// The index variants of the paper's evaluation (§3) plus STR.
/// (Alias of the BulkLoader kinds — the harness builds everything through
/// the unified rtree/bulk_loader.h API.)
using Variant = LoaderKind;

/// Short display name used in the paper ("H", "H4", "PR", "TGS", "STR").
const char* VariantName(Variant v);

/// The paper's four contenders, in its presentation order.
std::vector<Variant> PaperVariants();

/// \brief Which storage backend a harness run builds on.
///
/// kind "memory" (default) is MemoryBlockDevice; "file" is FileBlockDevice;
/// "uring" is UringBlockDevice (the file backend with io_uring-batched
/// reads, falling back to pread transparently when the kernel lacks
/// io_uring).  With an empty path the file-backed kinds use an anonymous
/// temp file (unlinked immediately after open, so nothing survives the
/// run); give a path to keep the device file around.
struct DeviceSpec {
  std::string kind = "memory";
  std::string path;
  /// file/uring only: request O_DIRECT (--direct).  Best effort — silently
  /// degrades to buffered I/O where the filesystem refuses.
  bool direct_io = false;
};

/// \brief A bulk-loaded tree with its own device and measurements.
struct BuiltIndex {
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<RTree<2>> tree;
  IoStats build_io;        // blocks read/written during the build
  double build_seconds = 0;
  TreeStats tree_stats;
};

class BenchJson;
class FigureJson;

/// Opens a fresh device per `spec` (see DeviceSpec).  Aborts on file
/// errors — harness-only convenience, not library API.  With `leg` set
/// (a gated bench's leg object) it also records the backend the device
/// negotiated: "device" (spec.kind), "ring_active" (the io_uring engine is
/// in use) and "direct_io" (O_DIRECT was granted, not just requested).
std::unique_ptr<BlockDevice> OpenDeviceOrDie(const DeviceSpec& spec,
                                             size_t block_size,
                                             BenchJson* leg = nullptr);

/// \brief Bulk-loads `variant` over `data` on a fresh device.
///
/// `memory_bytes` == 0 selects the paper-proportional budget
/// (max(data/9, 2 MB)).  `threads` > 1 parallelises the build through the
/// BulkLoader pipeline; the tree (and its I/O counts) are identical for
/// any value, only build_seconds changes.  `device` picks the backend; the
/// tree, query answers and I/O counts are identical across backends too.
/// `leg` is passed to OpenDeviceOrDie.
BuiltIndex BuildIndex(Variant variant, const std::vector<Record2>& data,
                      size_t memory_bytes = 0, int threads = 1,
                      const DeviceSpec& device = {},
                      BenchJson* leg = nullptr);

/// Best-of-`repeats` wall clock, the noise-robust statistic: calls `run`
/// (which times its own measured section and returns the seconds)
/// `repeats` >= 1 times and returns the fastest.
template <typename Run>
double BestOfRepeats(int repeats, Run run) {
  double best = run();
  for (int rep = 1; rep < repeats; ++rep) best = std::min(best, run());
  return best;
}

/// Paper-proportional memory budget for a dataset of `n` records.
size_t ScaledMemoryBudget(size_t n);

/// \brief Aggregate query measurements over a batch of windows.
struct QueryMeasurement {
  double avg_leaves = 0;        // leaf blocks read per query (the paper's I/O)
  double avg_internal = 0;      // internal nodes touched per query
  double avg_results = 0;       // T per query
  double pct_of_optimal = 0;    // 100 * sum(leaves) / (sum(T)/B)
  uint64_t total_results = 0;
  double frac_tree_visited = 0;  // share of all leaves read per query
};

/// \brief Runs `queries` against `index`, caching all internal nodes first
/// (§3.3).  Set `cache_internal` false for the cache ablation.
QueryMeasurement MeasureQueries(const BuiltIndex& index,
                                const std::vector<Rect2>& queries,
                                bool cache_internal = true);

/// \brief Command-line options shared by every bench binary.
///
///   --n=<records>       dataset size (default per bench)
///   --queries=<count>   windows per measurement (default 100, as in §3.3)
///   --seed=<uint64>     generator seed
///   --scale=<double>    multiplies --n (quick way to approach paper scale)
///   --threads=<count>   build threads (default 1; results are identical,
///                       only wall-clock changes)
///   --device=<kind>     storage backend: memory (default), file or uring
///   --path=<file>       file/uring backends only: device file path
///                       (default: an anonymous temp file removed at exit)
///   --direct            file/uring backends only: request O_DIRECT
///                       (best effort; page-cache bypass where supported)
///   --json=<path>       additionally write the bench's tables as raw
///                       machine-readable JSON (harness/bench_json.h) —
///                       what tools/eval/run_eval.py consumes
struct BenchOptions {
  size_t n = 0;
  size_t queries = 100;
  bool queries_set = false;  // true when --queries= was given explicitly
  uint64_t seed = 1;
  double scale = 1.0;
  int threads = 1;
  DeviceSpec device;
  std::string json_path;  // empty: no JSON output

  size_t ScaledN() const {
    return static_cast<size_t>(static_cast<double>(n) * scale);
  }
};

/// Parses the shared flags; an unknown flag or a malformed value exits 2
/// with a usage message.
BenchOptions ParseBenchFlags(int argc, char** argv, size_t default_n);

/// Prints "<problem> <arg>" and "usage: <usage>" to stderr and exits 2.
[[noreturn]] void UsageExit(const char* problem, const char* arg,
                            const std::string& usage);

/// The value of `arg` if it is `prefix` followed by the value, else null.
const char* FlagValue(const char* arg, const char* prefix);

/// The one parse for numeric flag values: the whole of `text` must parse.
/// An integral value is an unsigned decimal integer no smaller than `min`;
/// a floating one is finite and > 0.  False on anything else (empty, junk,
/// trailing characters, a sign, overflow), so a malformed number never
/// silently becomes 0.
bool ParseNumber(const char* text, uint64_t min, uint64_t* out);
bool ParseNumber(const char* text, double* out);

/// If `arg` is `prefix` followed by a value, parses it into `*out` with
/// ParseNumber (integral values at least `min`: counts are >= 1) and
/// returns true, or exits 2 with `usage` when the value is malformed.
/// False when `arg` is some other flag.
template <typename T>
bool NumberFlag(const char* arg, const char* prefix, T* out,
                const std::string& usage, uint64_t min = 1) {
  const char* text = FlagValue(arg, prefix);
  if (text == nullptr) return false;
  bool ok;
  if constexpr (std::is_floating_point_v<T>) {
    double v = 0;
    ok = ParseNumber(text, &v);
    *out = v;
  } else {
    uint64_t v = 0;
    ok = ParseNumber(text, min, &v) &&
         v <= static_cast<uint64_t>(std::numeric_limits<T>::max());
    *out = static_cast<T>(v);
  }
  if (!ok) UsageExit("malformed", arg, usage);
  return true;
}

/// Records the shared flag set (`n`, `queries`, `seed`, `threads`,
/// `device`) as params of a --json document, so every fig bench's JSON
/// carries the same provenance block.
void AddBenchParams(const BenchOptions& opts, size_t n, FigureJson* json);

}  // namespace harness
}  // namespace prtree

#endif  // PRTREE_HARNESS_EXPERIMENT_H_
