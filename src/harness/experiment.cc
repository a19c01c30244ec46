#include "harness/experiment.h"

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "harness/bench_json.h"
#include "io/buffer_pool.h"
#include "io/file_block_device.h"
#include "io/uring_block_device.h"
#include "rtree/bulk_loader.h"
#include "util/timer.h"

namespace prtree {
namespace harness {

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kHilbert:
      return "H";
    case Variant::kHilbert4D:
      return "H4";
    case Variant::kPrTree:
      return "PR";
    case Variant::kTgs:
      return "TGS";
    case Variant::kStr:
      return "STR";
  }
  return "?";
}

std::vector<Variant> PaperVariants() {
  return {Variant::kTgs, Variant::kPrTree, Variant::kHilbert,
          Variant::kHilbert4D};
}

size_t ScaledMemoryBudget(size_t n) {
  // The paper: 574 MB Eastern data vs 64 MB for TPIE (~9:1).  Keep the
  // ratio but never drop below 2 MB (the grid/sort algorithms need a few
  // hundred blocks of working space to behave like themselves).
  size_t data_bytes = n * sizeof(Record2);
  return std::max<size_t>(data_bytes / 9, 2u << 20);
}

std::unique_ptr<BlockDevice> OpenDeviceOrDie(const DeviceSpec& spec,
                                             size_t block_size,
                                             BenchJson* leg) {
  if (leg != nullptr) {
    (*leg)["device"] = spec.kind;
    (*leg)["ring_active"] = false;
    (*leg)["direct_io"] = false;
  }
  if (spec.kind == "memory") {
    return std::make_unique<MemoryBlockDevice>(block_size);
  }
  if (spec.kind != "file" && spec.kind != "uring") {
    std::fprintf(stderr, "unknown device kind '%s' (memory|file|uring)\n",
                 spec.kind.c_str());
    std::exit(2);
  }
  std::string path = spec.path;
  const bool anonymous = path.empty();
  if (anonymous) {
    // mkstemp: exclusive creation under an unpredictable name, so the
    // device never lands on a stale path from a previous run.  (The name
    // is then reopened by FileBlockDevice::Open — fine for a bench
    // harness, not a hardened API.)
    path = "/tmp/prtree_harness.XXXXXX";
    int tfd = ::mkstemp(path.data());
    if (tfd < 0) {
      std::fprintf(stderr, "cannot create temp device file: %s\n",
                   std::strerror(errno));
      std::exit(2);
    }
    ::close(tfd);
  }
  FileDeviceOptions fopts;
  fopts.block_size = block_size;
  fopts.truncate = true;
  fopts.direct_io = spec.direct_io;
  std::unique_ptr<FileBlockDevice> dev;
  AbortIfError(OpenFileBackedDevice(spec.kind, path, fopts, &dev));
  // Anonymous backing: unlink while the fd stays open, so nothing is left
  // behind even on a crashed run.
  if (anonymous) ::unlink(path.c_str());
  if (leg != nullptr) {
    auto* uring = dynamic_cast<UringBlockDevice*>(dev.get());
    (*leg)["ring_active"] = uring != nullptr && uring->ring_active();
    (*leg)["direct_io"] = dev->direct_io();
  }
  return dev;
}

BuiltIndex BuildIndex(Variant variant, const std::vector<Record2>& data,
                      size_t memory_bytes, int threads,
                      const DeviceSpec& device, BenchJson* leg) {
  BuiltIndex out;
  out.device = OpenDeviceOrDie(device, kDefaultBlockSize, leg);
  out.tree = std::make_unique<RTree<2>>(out.device.get());
  if (memory_bytes == 0) memory_bytes = ScaledMemoryBudget(data.size());
  BuildOptions bopts;
  bopts.memory_bytes = memory_bytes;
  bopts.threads = threads;
  std::unique_ptr<BulkLoader<2>> loader = MakeBulkLoader<2>(variant, bopts);

  // Stage the input on the device first (it exists on disk in the paper's
  // setup); the build measurement starts after staging.
  Stream<Record2> input(out.device.get());
  input.Append(data);
  input.Flush();
  out.device->ResetStats();

  Timer timer;
  AbortIfError(loader->Build(out.device.get(), &input, out.tree.get()));
  out.build_seconds = timer.Seconds();
  out.build_io = out.device->stats();
  out.tree_stats = out.tree->ComputeStats();
  return out;
}

QueryMeasurement MeasureQueries(const BuiltIndex& index,
                                const std::vector<Rect2>& queries,
                                bool cache_internal) {
  QueryMeasurement m;
  if (queries.empty()) return m;
  BufferPool pool(index.device.get(),
                  cache_internal ? index.tree_stats.num_nodes + 16 : 0);
  if (cache_internal) index.tree->CacheInternalNodes(&pool);

  uint64_t leaves = 0, internal = 0, results = 0;
  for (const auto& q : queries) {
    QueryStats qs = index.tree->Query(q, [](const Record2&) {},
                                      cache_internal ? &pool : nullptr);
    leaves += qs.leaves_visited;
    internal += qs.internal_visited;
    results += qs.results;
  }
  double nq = static_cast<double>(queries.size());
  m.avg_leaves = static_cast<double>(leaves) / nq;
  m.avg_internal = static_cast<double>(internal) / nq;
  m.avg_results = static_cast<double>(results) / nq;
  m.total_results = results;
  double capacity = static_cast<double>(index.tree->capacity());
  if (results > 0) {
    m.pct_of_optimal = 100.0 * static_cast<double>(leaves) /
                       (static_cast<double>(results) / capacity);
  }
  if (index.tree_stats.num_leaves > 0) {
    m.frac_tree_visited =
        static_cast<double>(leaves) /
        (static_cast<double>(index.tree_stats.num_leaves) * nq);
  }
  return m;
}

BenchOptions ParseBenchFlags(int argc, char** argv, size_t default_n) {
  BenchOptions opts;
  opts.n = default_n;
  const std::string usage =
      std::string(argv[0]) +
      " [--n=N] [--queries=Q] [--seed=S] [--scale=F] [--threads=T] "
      "[--device=memory|file|uring] [--path=FILE] [--direct] [--json=PATH]";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (NumberFlag(arg, "--queries=", &opts.queries, usage)) {
      opts.queries_set = true;
    } else if (NumberFlag(arg, "--n=", &opts.n, usage) ||
               NumberFlag(arg, "--seed=", &opts.seed, usage, /*min=*/0) ||
               NumberFlag(arg, "--scale=", &opts.scale, usage) ||
               NumberFlag(arg, "--threads=", &opts.threads, usage)) {
      // Parsed in place.
    } else if ((value = FlagValue(arg, "--device=")) != nullptr) {
      opts.device.kind = value;
      if (opts.device.kind != "memory" && opts.device.kind != "file" &&
          opts.device.kind != "uring") {
        std::fprintf(stderr, "--device must be memory, file or uring\n");
        std::exit(2);
      }
    } else if ((value = FlagValue(arg, "--path=")) != nullptr) {
      opts.device.path = value;
    } else if ((value = FlagValue(arg, "--json=")) != nullptr) {
      opts.json_path = value;
    } else if (std::strcmp(arg, "--direct") == 0) {
      opts.device.direct_io = true;
    } else if (FlagValue(arg, "--family=") == nullptr) {
      // (--family= is fig15's own flag.)
      UsageExit("unknown flag", arg, usage);
    }
  }
  return opts;
}

void UsageExit(const char* problem, const char* arg,
               const std::string& usage) {
  std::fprintf(stderr, "%s %s\nusage: %s\n", problem, arg, usage.c_str());
  std::exit(2);
}

const char* FlagValue(const char* arg, const char* prefix) {
  const size_t len = std::strlen(prefix);
  return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
}

bool ParseNumber(const char* text, uint64_t min, uint64_t* out) {
  // A leading digit rules out the empty string, signs and whitespace,
  // which strtoull would otherwise accept.
  if (!std::isdigit(static_cast<unsigned char>(*text))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < min) return false;
  *out = v;
  return true;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || !(v > 0)) {
    return false;
  }
  *out = v;
  return true;
}

void AddBenchParams(const BenchOptions& opts, size_t n, FigureJson* json) {
  json->Param("n", static_cast<unsigned long long>(n));
  json->Param("queries", static_cast<unsigned long long>(opts.queries));
  json->Param("seed", static_cast<unsigned long long>(opts.seed));
  json->Param("threads", opts.threads);
  json->Param("device", opts.device.kind);
}

}  // namespace harness
}  // namespace prtree
