// Out-of-core query sweep: buffer-pool budget « dataset, on the real
// file-backed devices, with frontier readahead on and off.
//
// The paper reports query cost in leaf I/Os because, in the external-memory
// model, *which* blocks a traversal touches is the algorithm's property
// (§3.3).  This bench measures the other axis — what the storage engine
// makes of those touches when the pool cannot hold the tree: at each budget
// point (a fraction of the tree's pages, 1/16 → 1/2) it runs the same query
// batch twice, scalar (each leaf miss is one synchronous pread) and with
// readahead (each frontier is prefetched as one batch — a single io_uring
// submission on --device=uring).  Leaf I/Os, results and visit counters are
// asserted identical across every budget, readahead mode and device: the
// sweep only redistributes the same block transfers in time.
//
// Writes BENCH_outofcore.json (see tools/bench_compare.py for the gating
// semantics: `leaves`/`results`/reads are exact, `speedup` entries are
// ratio-gated, raw seconds are informational).  On a single-core CI
// container the speedups sit near 1x — re-baseline on real hardware per
// docs/TUNING.md.
//
//   --n=<records>        dataset size (default 300k)
//   --queries=<count>    windows per measurement (default 256)
//   --seed=<uint64>      generator seed
//   --device=file|uring  storage backend (default file)
//   --path=<file>        device file path (default: anonymous temp file)
//   --budgets=a,b,...    pool budgets as fractions in (0, 1] (default
//                        0.0625,0.125,0.25,0.5)
//   --repeats=<count>    timing repeats per point, minimum kept (default 3)
//   --direct             request O_DIRECT: misses pay real device latency
//                        instead of warm page-cache memcpys, which is the
//                        regime where batched readahead wins (best effort;
//                        silently buffered where the fs refuses)
//   --out=<path>         JSON output path (default BENCH_outofcore.json)
//   --smoke              tiny run for the ctest tier1 label
//   --verify-cross-device  additionally run the sweep on the *other*
//                        file-backed device and require identical leaf
//                        I/Os and result counts point by point
//   --write              run the build-phase write leg instead of the query
//                        sweep: at each budget point (memory budget as a
//                        fraction of the dataset's bytes) the same PR-tree
//                        grid build runs once on the plain file backend
//                        (scalar pwrites) and once on --device (staged
//                        WriteBatch submissions), on real temp files.  The
//                        device files must hash identically (FNV-64 after
//                        Sync+close) and every demand counter must match —
//                        batching may only move wall-clock.  Writes
//                        BENCH_writepath.json (--out overrides).
//   --records=SPEC       run the out-of-core scale leg instead of the query
//                        sweep: at each dataset size the records are
//                        *streamed* from the seeded generator straight into
//                        a device-resident Stream (RecordGenerator — 100M
//                        records never materialize in RAM), grid-built
//                        (force_grid) under the paper-proportional memory
//                        budget, then measured with window queries and kNN
//                        on BOTH the file and uring backends.  Every demand
//                        counter (and the kNN result digest) must be
//                        byte-identical across the two devices; the check
//                        folds into "deterministic".  SPEC is a comma list
//                        of counts with K/M suffixes; "A..B" expands by
//                        doubling from A and always includes B
//                        (10M..100M -> 10M,20M,40M,80M,100M).  Writes
//                        BENCH_scale.json (--out overrides).
//
// A malformed value (a count that is not a whole integer >= 1, junk or
// trailing characters, a budget outside (0, 1], a range with A > B) exits 2.
//
// All three legs share one skeleton (RunLegs): the same points on two
// devices, each device opened through harness::OpenDeviceOrDie (which
// records "device", "ring_active" and "direct_io" into the leg), timed
// best-of-repeats, and cross-checked point by point.

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/prtree.h"
#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "io/buffer_pool.h"
#include "io/stream.h"
#include "io/write_stager.h"
#include "rtree/knn.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;  // NOLINT
using harness::BenchJson;

namespace {

struct Options {
  size_t n = 300'000;
  size_t queries = 256;
  uint64_t seed = 1;
  std::string device = "file";
  std::string path;
  std::vector<double> budgets = {0.0625, 0.125, 0.25, 0.5};
  int repeats = 3;
  bool direct_io = false;
  bool verify_cross = false;
  std::vector<size_t> records;  // --records: the scale leg
  std::string out_path;
};

// The legs' shared skeleton.  Each device kind in `kinds` gets one leg
// object in `legs`; `point(l, i, &leg)` runs point i of leg l, opening its
// device through OpenDeviceOrDie(..., &leg), appends its JSON and returns
// the part that must not depend on the device (its JSON without the wall
// clock).  Which blocks an algorithm reads and writes is its property, not
// the backend's (§3.3), so RunLegs returns false — after naming the point —
// when any leg's counters differ from the first leg's.
template <typename Point>
bool RunLegs(const std::vector<std::string>& kinds, size_t points,
             BenchJson* legs, Point point) {
  std::vector<BenchJson> first;
  bool same = true;
  for (size_t l = 0; l < kinds.size(); ++l) {
    BenchJson& leg = legs->Push(BenchJson::Object());
    for (size_t i = 0; i < points; ++i) {
      BenchJson counters = point(l, i, &leg);
      if (l == 0) {
        first.push_back(std::move(counters));
      } else if (!(counters == first[i])) {
        std::fprintf(stderr, "!! point %zu: %s and %s disagree\n", i,
                     kinds[0].c_str(), kinds[l].c_str());
        same = false;
      }
    }
  }
  return same;
}

// The budget keys of the speedup maps ("0.1250").
std::string BudgetKey(double budget) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", budget);
  return buf;
}

std::string Hex64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// ---------------------------------------------------------------------------
// The budget sweep: per budget, readahead off then on, over one tree per
// device.

int RunSweep(const Options& o) {
  auto data = workload::MakeSize(o.n, 0.001, o.seed);
  auto queries = workload::MakeSquareQueries(MakeRect(0, 0, 1, 1), 0.01,
                                             o.queries, o.seed + 17);
  std::vector<std::string> kinds = {o.device};
  if (o.verify_cross) kinds.push_back(o.device == "file" ? "uring" : "file");
  std::printf("=== outofcore_sweep: n=%zu, queries=%zu, device=%s ===\n", o.n,
              o.queries, o.device.c_str());

  BenchJson doc = BenchJson::Document("outofcore_sweep");
  doc["n"] = o.n;
  doc["queries"] = o.queries;
  harness::BuiltIndex index;
  std::array<uint64_t, 3> ref{};  // leaves/internal/results of point 0
  bool uniform = true;
  bool same = RunLegs(kinds, o.budgets.size(), &doc["sweeps"],
                      [&](size_t l, size_t b, BenchJson* leg) {
    if (b == 0) {
      // The cross-check device is an anonymous temp file: never clobber
      // --path.
      index = harness::BuildIndex(
          harness::Variant::kPrTree, data, /*memory_bytes=*/0,
          /*threads=*/1, {kinds[l], l == 0 ? o.path : "", o.direct_io}, leg);
      (*leg)["tree_nodes"] = index.tree_stats.num_nodes;
      (*leg)["tree_leaves"] = index.tree_stats.num_leaves;
      std::printf("--- %s device: %llu nodes, %llu leaves ---\n",
                  kinds[l].c_str(),
                  static_cast<unsigned long long>(index.tree_stats.num_nodes),
                  static_cast<unsigned long long>(
                      index.tree_stats.num_leaves));
      std::printf("%8s %9s %10s %10s %12s %12s %14s\n", "budget", "frames",
                  "readahead", "seconds", "leaf I/Os", "demand reads",
                  "prefetch reads");
    }
    const double frac = o.budgets[b];
    const size_t capacity = std::max<size_t>(
        4, static_cast<size_t>(
               frac * static_cast<double>(index.tree_stats.num_nodes)));
    BenchJson counters;
    double seconds[2];
    for (int ahead = 0; ahead < 2; ++ahead) {
      BenchJson& p = (*leg)["points"].Push(BenchJson::Object());
      p["budget"] = frac;
      p["capacity"] = capacity;
      p["readahead"] = ahead == 1;
      p["seconds"] = BenchJson();  // set after the repeats
      // Each repeat is a fresh pool over the same device (the out-of-core
      // state of interest); the counters are deterministic, so every
      // repeat records the same set.
      uint64_t leaves = 0, internal = 0, results = 0;
      IoStats io;
      seconds[ahead] = harness::BestOfRepeats(o.repeats, [&] {
        BufferPool pool(index.device.get(), capacity);
        pool.set_readahead(ahead == 1);
        index.device->ResetStats();
        leaves = internal = results = 0;
        Timer timer;
        for (const Rect2& q : queries) {
          QueryStats qs = index.tree->Query(q, [](const Record2&) {}, &pool);
          leaves += qs.leaves_visited;
          internal += qs.internal_visited;
          results += qs.results;
        }
        const double s = timer.Seconds();
        io = index.device->stats();
        p["leaves"] = leaves;
        p["results"] = results;
        p["pool_hits"] = pool.hits();
        p["pool_misses"] = pool.misses();
        p["demand_reads"] = io.reads;
        p["prefetch_reads"] = io.prefetch_reads;
        p["prefetch_staged"] = pool.prefetch_staged();
        p["prefetch_useful"] = pool.prefetch_useful();
        return s;
      });
      counters.Push(p);
      p["seconds"] = seconds[ahead];
      // The §3.3 invariant: budget and readahead change when blocks are
      // read, never what the traversal visits or returns.
      const std::array<uint64_t, 3> traversal = {leaves, internal, results};
      if (b == 0 && ahead == 0) {
        ref = traversal;
      } else if (traversal != ref) {
        std::fprintf(stderr,
                     "!! %s: budget %.4f readahead=%d changed the traversal "
                     "(leaves %llu vs %llu)\n",
                     kinds[l].c_str(), frac, ahead,
                     static_cast<unsigned long long>(leaves),
                     static_cast<unsigned long long>(ref[0]));
        uniform = false;
      }
      std::printf("%8.4f %9zu %10s %10.3f %12llu %12llu %14llu\n", frac,
                  capacity, ahead ? "on" : "off", seconds[ahead],
                  static_cast<unsigned long long>(leaves),
                  static_cast<unsigned long long>(io.reads),
                  static_cast<unsigned long long>(io.prefetch_reads));
    }
    // Wall-clock ratios of two same-machine, same-device runs: the only
    // timing numbers stable enough to gate on (machine speed cancels).
    (*leg)["speedup_readahead"][BudgetKey(frac)] =
        seconds[1] > 0 ? seconds[0] / seconds[1] : 1.0;
    return counters;
  });
  if (same && o.verify_cross) {
    std::printf("cross-device check: file and uring agree on every leaf "
                "I/O, result and transfer count\n");
  }
  return harness::WriteGated(&doc, o.out_path, uniform && same,
                             "determinism (traversal uniform across budgets "
                             "and readahead, identical across devices)");
}

// ---------------------------------------------------------------------------
// --write: the build-phase leg.  The same PR-tree grid build through scalar
// pwrites (leg 0, the plain file backend) and through staged WriteBatch
// submissions (leg 1, --device), byte-identity asserted via an FNV-64 hash
// of each closed device file.

uint64_t FnvHashFile(const std::string& path) {
  uint64_t h = kFnvBasis;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::vector<unsigned char> buf(1 << 16);
  size_t got;
  while ((got = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    for (size_t i = 0; i < got; ++i) {
      h ^= buf[i];
      h *= kFnvPrime;
    }
  }
  std::fclose(f);
  return h;
}

// Isolated write-engine microbenchmark: the same page train written through
// the scalar Write() loop or through staged WriteBatch submissions, a fresh
// device each repeat.  The full build legs mix in the pipeline's demand
// *reads* (untouched by batching), so their ratio is Amdahl-diluted; this
// one measures the write path alone.
double MicroWriteSeconds(const harness::DeviceSpec& spec, bool batched,
                         size_t pages, int repeats) {
  double best = harness::BestOfRepeats(repeats, [&] {
    std::remove(spec.path.c_str());
    auto dev = harness::OpenDeviceOrDie(spec, kDefaultBlockSize);
    std::vector<std::byte> buf(kDefaultBlockSize);
    std::vector<PageId> ids;
    ids.reserve(pages);
    for (size_t i = 0; i < pages; ++i) ids.push_back(dev->Allocate());
    Timer timer;
    {
      WriteStager stager(dev.get(), batched ? 0 : 1);
      for (size_t i = 0; i < pages; ++i) {
        std::memset(buf.data(), static_cast<int>(i & 0xff), buf.size());
        stager.Stage(ids[i], buf.data());
      }
    }
    AbortIfError(dev->Sync());
    return timer.Seconds();
  });
  std::remove(spec.path.c_str());
  return best;
}

int RunWrite(const Options& o) {
  auto data = workload::MakeSize(o.n, 0.001, o.seed);
  const size_t data_bytes = data.size() * sizeof(Record2);
  const std::string base =
      o.path.empty() ? "/tmp/prtree_writepath." +
                           std::to_string(static_cast<long>(getpid()))
                     : o.path;
  const std::vector<std::string> kinds = {"file", o.device};
  const std::string paths[2] = {base + ".scalar", base + ".batched"};
  std::printf("=== outofcore_sweep --write: n=%zu, scalar file vs batched "
              "%s ===\n", o.n, o.device.c_str());
  std::printf("%7s %8s %10s %12s %9s %17s\n", "device", "budget", "seconds",
              "io_blocks", "batches", "file hash");

  BenchJson doc = BenchJson::Document("writepath");
  doc["n"] = o.n;
  const size_t micro_pages = std::max<size_t>(1024, o.n / 40);
  doc["micro_pages"] = micro_pages;
  std::vector<double> seconds[2];
  bool same = RunLegs(kinds, o.budgets.size(), &doc["legs"],
                      [&](size_t l, size_t b, BenchJson* leg) {
    const size_t memory = std::max<size_t>(
        1u << 20,
        static_cast<size_t>(o.budgets[b] * static_cast<double>(data_bytes)));
    BenchJson p = BenchJson::Object();
    p["budget"] = o.budgets[b];
    p["seconds"] = BenchJson();  // set after the repeats
    IoStats io;
    uint64_t hash = 0;
    const double s = harness::BestOfRepeats(o.repeats, [&] {
      std::remove(paths[l].c_str());
      auto dev = harness::OpenDeviceOrDie({kinds[l], paths[l], o.direct_io},
                                          kDefaultBlockSize, leg);
      WorkEnv env{dev.get(), memory};
      PrTreeOptions opts;
      opts.force_grid = true;  // always the external, write-heavy path
      dev->ResetStats();
      Timer timer;
      RTree<2> tree(dev.get());
      AbortIfError(BulkLoadPrTree<2>(env, data, &tree, opts));
      AbortIfError(dev->Sync());
      const double build_seconds = timer.Seconds();
      io = dev->stats();
      dev.reset();  // close before hashing: the file is the artifact
      hash = FnvHashFile(paths[l]);
      return build_seconds;
    });
    p["writes"] = io.writes;
    p["demand_reads"] = io.reads;
    p["write_batches"] = io.write_batches;
    p["io_blocks"] = io.Total();
    p["file_hash"] = Hex64(hash);
    // Batching may move wall clock and the batch count, nothing else.
    BenchJson counters = p;
    counters["write_batches"] = BenchJson();
    p["seconds"] = s;
    seconds[l].push_back(s);
    std::printf("%7s %8.4f %10.3f %12llu %9llu %17s\n", kinds[l].c_str(),
                o.budgets[b], s, static_cast<unsigned long long>(io.Total()),
                static_cast<unsigned long long>(io.write_batches),
                Hex64(hash).c_str());
    (*leg)["points"].Push(std::move(p));
    return counters;
  });

  // Same-machine wall-clock ratios, the only gateable timing numbers.
  for (size_t b = 0; b < o.budgets.size(); ++b) {
    const double speedup =
        seconds[1][b] > 0 ? seconds[0][b] / seconds[1][b] : 1.0;
    doc["speedup_writebatch"][BudgetKey(o.budgets[b])] = speedup;
    std::printf("budget %.4f: batched build %.2fx\n", o.budgets[b], speedup);
  }
  const double micro_scalar = MicroWriteSeconds(
      {"file", paths[0], o.direct_io}, /*batched=*/false, micro_pages,
      o.repeats);
  const double micro_batched = MicroWriteSeconds(
      {o.device, paths[1], o.direct_io}, /*batched=*/true, micro_pages,
      o.repeats);
  const double micro_speedup =
      micro_batched > 0 ? micro_scalar / micro_batched : 1.0;
  doc["speedup_writebatch_micro"] = micro_speedup;
  std::printf("write-only micro (%zu pages): scalar %.3fs, batched %.3fs "
              "-> %.2fx\n", micro_pages, micro_scalar, micro_batched,
              micro_speedup);
  return harness::WriteGated(&doc, o.out_path, same,
                             "byte-identity (batched build vs scalar: file "
                             "hash and demand counters)");
}

// ---------------------------------------------------------------------------
// --records: the out-of-core scale leg.  Dataset sizes are parsed from a
// K/M-suffixed spec; each point streams the seeded generator straight into
// a device-resident Stream (no in-RAM dataset), grid-builds, then measures
// window queries and kNN, on the file leg and on the uring leg.

// One record count: a number in [1, 1e18) (so it converts to size_t) with
// an optional K/M suffix and nothing after it.
bool ParseRecordCount(const std::string& tok, size_t* out) {
  char* end = nullptr;
  double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str()) return false;
  if (*end == 'K' || *end == 'k') {
    v *= 1e3;
    ++end;
  } else if (*end == 'M' || *end == 'm') {
    v *= 1e6;
    ++end;
  }
  if (*end != '\0' || !(v >= 1 && v < 1e18)) return false;
  *out = static_cast<size_t>(v);
  return true;
}

// "a,b,c" with K/M suffixes; "A..B" doubles from A and always ends at B.
// False on any field that is not a count or a range with A <= B.
bool ParseRecordsSpec(const std::string& spec, std::vector<size_t>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    size_t dots = tok.find("..");
    size_t lo = 0, hi = 0;
    if (dots == std::string::npos) {
      if (!ParseRecordCount(tok, &lo)) return false;
      out->push_back(lo);
      continue;
    }
    if (!ParseRecordCount(tok.substr(0, dots), &lo) ||
        !ParseRecordCount(tok.substr(dots + 2), &hi) || lo > hi) {
      return false;
    }
    for (size_t v = lo; v < hi; v *= 2) out->push_back(v);
    if (out->empty() || out->back() != hi) out->push_back(hi);
  }
  return true;
}

int RunScale(const Options& o) {
  const size_t num_knn = std::min<size_t>(o.queries, 64);
  const size_t k = 10;
  const double pool_frac = 0.125;
  const std::vector<std::string> kinds = {"file", "uring"};
  std::printf("=== outofcore_sweep --records: %zu sizes, file+uring, "
              "streamed build + window + kNN ===\n", o.records.size());
  std::printf("%12s %7s %10s %12s %12s %17s\n", "records", "dev", "build s",
              "build I/O", "demand reads", "knn digest");

  BenchJson doc = BenchJson::Document("scale_sweep");
  doc["queries"] = o.queries;
  doc["knn"] = num_knn;
  doc["k"] = k;
  bool same = RunLegs(kinds, o.records.size(), &doc["legs"],
                      [&](size_t l, size_t i, BenchJson* leg) {
    const size_t n = o.records[i];
    auto dev = harness::OpenDeviceOrDie(
        {kinds[l], o.path.empty() ? "" : o.path + "." + kinds[l],
         o.direct_io},
        kDefaultBlockSize, leg);
    // Stage the dataset straight from the generator: the only RAM cost is
    // the stream's one-block write buffer.
    Stream<Record2> input(dev.get());
    {
      auto gen = workload::NewSizeGenerator(n, 0.001, o.seed);
      Record2 rec;
      while (gen->Next(&rec)) input.Push(rec);
      input.Flush();
    }

    WorkEnv env{dev.get(), harness::ScaledMemoryBudget(n)};
    PrTreeOptions opts;
    opts.force_grid = true;  // always the external, write-heavy path
    dev->ResetStats();
    Timer build_timer;
    RTree<2> tree(dev.get());
    AbortIfError(BulkLoadPrTree<2>(env, &input, &tree, opts));
    const double build_seconds = build_timer.Seconds();
    const IoStats build_io = dev->stats();
    const TreeStats ts = tree.ComputeStats();
    BenchJson p = BenchJson::Object();
    p["n"] = n;
    BenchJson& build = p["build"];
    build["seconds"] = build_seconds;
    build["io_blocks"] = build_io.Total();
    build["writes"] = build_io.writes;
    build["tree_nodes"] = ts.num_nodes;
    build["tree_leaves"] = ts.num_leaves;

    // Out-of-core query state: the pool holds a fraction of the tree, with
    // frontier readahead on (the uring backend's batched path).
    const size_t capacity = std::max<size_t>(
        4, static_cast<size_t>(pool_frac * static_cast<double>(ts.num_nodes)));
    auto queries = workload::MakeSquareQueries(tree.Mbr(), 0.01, o.queries,
                                               o.seed + 17);
    IoStats window_io;
    {
      BufferPool pool(dev.get(), capacity);
      pool.set_readahead(true);
      dev->ResetStats();
      uint64_t leaves = 0, results = 0;
      Timer timer;
      for (const Rect2& q : queries) {
        QueryStats qs = tree.Query(q, [](const Record2&) {}, &pool);
        leaves += qs.leaves_visited;
        results += qs.results;
      }
      BenchJson& window = p["window"];
      window["seconds"] = timer.Seconds();
      window_io = dev->stats();
      window["leaves"] = leaves;
      window["results"] = results;
      window["demand_reads"] = window_io.reads;
      window["prefetch_reads"] = window_io.prefetch_reads;
    }

    // kNN digest: FNV over neighbour ids and distance bits.
    uint64_t digest = kFnvBasis;
    {
      Rng rng(o.seed + 31);
      BufferPool pool(dev.get(), capacity);
      pool.set_readahead(true);
      uint64_t leaves = 0, results = 0;
      Timer timer;
      for (size_t q = 0; q < num_knn; ++q) {
        std::array<Real, 2> at{rng.Uniform(0, 1), rng.Uniform(0, 1)};
        QueryStats qs;
        auto neighbors = KnnSearch<2>(tree, at, k, &qs, &pool);
        leaves += qs.leaves_visited;
        results += neighbors.size();
        for (const auto& nb : neighbors) {
          uint64_t bits = 0;
          static_assert(sizeof(nb.distance) <= sizeof(bits));
          std::memcpy(&bits, &nb.distance, sizeof(nb.distance));
          digest ^= nb.record.id;
          digest *= kFnvPrime;
          digest ^= bits;
          digest *= kFnvPrime;
        }
      }
      BenchJson& knn = p["knn"];
      knn["seconds"] = timer.Seconds();
      knn["leaves"] = leaves;
      knn["knn_results"] = results;
      knn["digest"] = Hex64(digest);
    }
    std::printf("%12zu %7s %10.3f %12llu %12llu %17s\n", n,
                kinds[l].c_str(), build_seconds,
                static_cast<unsigned long long>(build_io.Total()),
                static_cast<unsigned long long>(window_io.reads),
                Hex64(digest).c_str());

    BenchJson counters = p;
    counters["build"]["seconds"] = counters["window"]["seconds"] =
        counters["knn"]["seconds"] = BenchJson();
    (*leg)["points"].Push(std::move(p));
    return counters;
  });
  return harness::WriteGated(&doc, o.out_path, same,
                             "cross-device identity (file vs uring demand "
                             "counters and kNN digest)");
}

// "a,b,..." pool budgets, each a fraction in (0, 1].
bool ParseBudgets(const char* spec, std::vector<double>* out) {
  out->clear();
  const char* p = spec;
  while (true) {
    char* end = nullptr;
    double v = std::strtod(p, &end);
    if (end == p || !(v > 0 && v <= 1)) return false;
    out->push_back(v);
    if (*end == '\0') return true;
    if (*end != ',') return false;
    p = end + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "outofcore_sweep [--n=N] [--queries=Q] [--seed=S] "
      "[--device=file|uring] [--path=FILE] [--budgets=a,b,...] "
      "[--repeats=R] [--direct] [--out=PATH] [--smoke] "
      "[--verify-cross-device] [--write] [--records=SPEC]";
  Options o;
  bool smoke = false;
  bool write = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (harness::NumberFlag(arg, "--n=", &o.n, usage) ||
        harness::NumberFlag(arg, "--queries=", &o.queries, usage) ||
        harness::NumberFlag(arg, "--seed=", &o.seed, usage, /*min=*/0) ||
        harness::NumberFlag(arg, "--repeats=", &o.repeats, usage)) {
      // Parsed in place.
    } else if ((value = harness::FlagValue(arg, "--device=")) != nullptr) {
      o.device = value;
    } else if ((value = harness::FlagValue(arg, "--path=")) != nullptr) {
      o.path = value;
    } else if ((value = harness::FlagValue(arg, "--budgets=")) != nullptr) {
      if (!ParseBudgets(value, &o.budgets)) {
        harness::UsageExit("malformed", arg, usage);
      }
    } else if ((value = harness::FlagValue(arg, "--records=")) != nullptr) {
      if (!ParseRecordsSpec(value, &o.records)) {
        harness::UsageExit("malformed", arg, usage);
      }
    } else if ((value = harness::FlagValue(arg, "--out=")) != nullptr) {
      o.out_path = value;
    } else if (std::strcmp(arg, "--direct") == 0) {
      o.direct_io = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(arg, "--verify-cross-device") == 0) {
      o.verify_cross = true;
    } else if (std::strcmp(arg, "--write") == 0) {
      write = true;
    } else {
      harness::UsageExit("unknown flag", arg, usage);
    }
  }
  if (o.device != "file" && o.device != "uring") {
    std::fprintf(stderr, "--device must be file or uring (the sweep "
                         "measures real storage)\n");
    return 2;
  }
  if (smoke) {
    o.n = 40'000;
    o.queries = 64;
    o.budgets = {0.125, 0.5};
    o.repeats = 2;
    // Tiny but still two scale points.
    if (!o.records.empty()) o.records = {40'000, 80'000};
  }
  if (!o.records.empty()) {
    if (o.out_path.empty()) o.out_path = "BENCH_scale.json";
    return RunScale(o);
  }
  if (write) {
    if (o.out_path.empty()) o.out_path = "BENCH_writepath.json";
    return RunWrite(o);
  }
  if (o.out_path.empty()) o.out_path = "BENCH_outofcore.json";
  return RunSweep(o);
}
