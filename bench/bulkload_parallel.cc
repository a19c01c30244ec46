// Parallel bulk-load sweep: wall-clock build time at 1/2/4/8 threads for
// the BulkLoader pipeline on synthetic and TIGER-like data, with a
// determinism cross-check (every thread count must produce the identical
// tree — same root page, height, node count and build I/O).
//
// Writes the perf-trajectory file BENCH_bulkload.json (override with
// --out=).  Speedups are relative to the same loader at threads=1; on a
// single-core host all configurations time alike and the sweep degenerates
// to a determinism + overhead check.
//
//   --n=<records>   dataset size (default 1M, the acceptance config)
//   --seed=<uint>   generator seed
//   --out=<path>    JSON output path (default BENCH_bulkload.json)
//   --smoke         tiny run (n=20k, threads 1/2) for the ctest tier1 label

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "rtree/bulk_loader.h"
#include "rtree/validate.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "workload/datasets.h"

using namespace prtree;  // NOLINT
using harness::BenchJson;

namespace {

// What every thread count must reproduce: the same tree, built with the
// same I/O.
struct Fingerprint {
  PageId root = kInvalidPageId;
  int height = 0;
  uint64_t num_nodes = 0;
  uint64_t io_blocks = 0;
  bool operator==(const Fingerprint&) const = default;
};

struct RunResult {
  double seconds = 0;
  Fingerprint tree;
};

struct LoaderConfig {
  std::string label;
  LoaderKind kind;
  bool in_memory_budget;  // else the paper-proportional external budget
};

RunResult BuildOnce(const LoaderConfig& cfg, const std::vector<Record2>& data,
                    int threads) {
  MemoryBlockDevice device(kDefaultBlockSize);
  RTree<2> tree(&device);
  BuildOptions opts;
  opts.threads = threads;
  size_t data_bytes = data.size() * sizeof(Record2);
  opts.memory_bytes = cfg.in_memory_budget
                          ? std::max<size_t>(4 * data_bytes, 64u << 20)
                          : std::max<size_t>(data_bytes / 9, 2u << 20);
  auto loader = MakeBulkLoader<2>(cfg.kind, opts);

  Stream<Record2> input(&device);
  input.Append(data);
  input.Flush();
  device.ResetStats();

  Timer timer;
  AbortIfError(loader->Build(&device, &input, &tree));
  RunResult r;
  r.seconds = timer.Seconds();
  r.tree.io_blocks = device.stats().Total();
  r.tree.root = tree.root();
  r.tree.height = tree.height();
  r.tree.num_nodes = tree.ComputeStats().num_nodes;
  AbortIfError(ValidateTree(tree));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 1'000'000;
  uint64_t seed = 1;
  std::string out_path = "BENCH_bulkload.json";
  bool smoke = false;
  std::vector<int> thread_counts = {1, 2, 4, 8};
  const std::string usage =
      std::string(argv[0]) + " [--n=N] [--seed=S] [--out=PATH] [--smoke]";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (harness::NumberFlag(arg, "--n=", &n, usage) ||
        harness::NumberFlag(arg, "--seed=", &seed, usage, /*min=*/0)) {
      // Parsed in place.
    } else if ((value = harness::FlagValue(arg, "--out=")) != nullptr) {
      out_path = value;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else {
      harness::UsageExit("unknown flag", arg, usage);
    }
  }
  if (smoke) {
    n = 20'000;
    thread_counts = {1, 2};
  }

  const std::vector<LoaderConfig> configs = {
      // PR-tree with a generous budget: the in-memory pseudo-PR-tree
      // recursion — the acceptance path ("1M-record in-memory dataset").
      {"pr-inmem", LoaderKind::kPrTree, true},
      // PR-tree at the paper's ~9:1 data:memory ratio: the external grid
      // algorithm with task-parallel base-case regions.
      {"pr-grid", LoaderKind::kPrTree, false},
      {"hilbert4d", LoaderKind::kHilbert4D, true},
      {"str", LoaderKind::kStr, true},
      // TGS is omitted: its O((N/B) log2(N/B)) split cascade dwarfs the
      // sortable fraction, so a thread sweep mostly measures its serial
      // partitioning (fig11 covers TGS build cost).
  };

  struct DatasetSpec {
    const char* name;
    std::vector<Record2> data;
  };
  std::vector<DatasetSpec> datasets;
  datasets.push_back({"uniform", workload::MakeSize(n, 0.001, seed)});
  datasets.push_back(
      {"tiger_western",
       workload::MakeTigerLike(n, workload::TigerRegion::kWestern, seed)});

  std::printf("=== bulkload_parallel: n=%zu, host threads=%d%s ===\n", n,
              HardwareThreads(), smoke ? " (smoke)" : "");

  bool deterministic = true;
  BenchJson doc = BenchJson::Document("bulkload_parallel");
  doc["n"] = n;
  doc["host_threads"] = HardwareThreads();
  for (const auto& spec : datasets) {
    std::printf("\n--- %s (%zu rectangles) ---\n", spec.name,
                spec.data.size());
    std::printf("%-10s %8s %10s %12s %9s\n", "loader", "threads", "seconds",
                "io blocks", "speedup");
    BenchJson& set = doc["datasets"].Push(BenchJson::Object());
    set["name"] = spec.name;
    for (const auto& cfg : configs) {
      RunResult base;
      for (int t : thread_counts) {
        RunResult r = BuildOnce(cfg, spec.data, t);
        if (t == thread_counts.front()) {
          base = r;
        } else if (!(r.tree == base.tree)) {
          deterministic = false;
          std::printf("!! %s: threads=%d differs from threads=%d\n",
                      cfg.label.c_str(), t, thread_counts.front());
        }
        const double speedup =
            base.seconds > 0 ? base.seconds / r.seconds : 1.0;
        std::printf("%-10s %8d %10.3f %12llu %8.2fx\n", cfg.label.c_str(), t,
                    r.seconds,
                    static_cast<unsigned long long>(r.tree.io_blocks),
                    speedup);
        BenchJson& run = set["runs"].Push(BenchJson::Object());
        run["loader"] = cfg.label;
        run["threads"] = t;
        run["seconds"] = r.seconds;
        run["io_blocks"] = r.tree.io_blocks;
        run["speedup"] = speedup;
      }
    }
  }
  return harness::WriteGated(&doc, out_path, deterministic,
                             "determinism (every thread count builds the "
                             "same tree)");
}
