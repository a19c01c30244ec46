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
// A malformed --budgets or --records value (junk, trailing characters, a
// budget outside (0, 1], a count below 1, a range with A > B) exits 2.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/prtree.h"
#include "harness/experiment.h"
#include "io/buffer_pool.h"
#include "io/stream.h"
#include "io/uring_block_device.h"
#include "io/write_stager.h"
#include "rtree/knn.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;  // NOLINT

namespace {

struct SweepPoint {
  double budget_frac = 0;
  size_t capacity = 0;
  bool readahead = false;
  double seconds = 0;
  uint64_t leaves = 0;
  uint64_t internal = 0;
  uint64_t results = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t demand_reads = 0;
  uint64_t prefetch_reads = 0;
  uint64_t prefetch_staged = 0;
  uint64_t prefetch_useful = 0;
};

struct SweepResult {
  std::string device;
  bool ring_active = false;
  bool direct_io = false;  // negotiated, not requested
  harness::BuiltIndex index;
  std::vector<SweepPoint> points;
};

SweepPoint RunPoint(const harness::BuiltIndex& index,
                    const std::vector<Rect2>& queries, double frac,
                    bool readahead, int repeats) {
  SweepPoint pt;
  pt.budget_frac = frac;
  pt.readahead = readahead;
  pt.capacity = std::max<size_t>(
      4, static_cast<size_t>(frac *
                             static_cast<double>(index.tree_stats.num_nodes)));

  // Each repeat is a fresh pool over the same device (the out-of-core
  // state of interest), timed whole; the minimum is the noise-robust
  // statistic.  The counters are recorded once — they are deterministic,
  // so every repeat produces the identical set.
  pt.seconds = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    BufferPool pool(index.device.get(), pt.capacity);
    pool.set_readahead(readahead);
    index.device->ResetStats();
    uint64_t leaves = 0, internal = 0, results = 0;

    Timer timer;
    for (const Rect2& q : queries) {
      QueryStats qs = index.tree->Query(q, [](const Record2&) {}, &pool);
      leaves += qs.leaves_visited;
      internal += qs.internal_visited;
      results += qs.results;
    }
    double seconds = timer.Seconds();
    if (rep == 0 || seconds < pt.seconds) pt.seconds = seconds;

    IoStats io = index.device->stats();
    pt.leaves = leaves;
    pt.internal = internal;
    pt.results = results;
    pt.demand_reads = io.reads;
    pt.prefetch_reads = io.prefetch_reads;
    pt.pool_hits = pool.hits();
    pt.pool_misses = pool.misses();
    pt.prefetch_staged = pool.prefetch_staged();
    pt.prefetch_useful = pool.prefetch_useful();
  }
  return pt;
}

SweepResult RunSweep(const std::string& device_kind, const std::string& path,
                     bool direct_io, const std::vector<Record2>& data,
                     const std::vector<Rect2>& queries,
                     const std::vector<double>& budgets, int repeats) {
  SweepResult r;
  r.device = device_kind;
  harness::DeviceSpec spec;
  spec.kind = device_kind;
  spec.path = path;
  spec.direct_io = direct_io;
  r.index = harness::BuildIndex(harness::Variant::kPrTree, data,
                                /*memory_bytes=*/0, /*threads=*/1, spec);
  if (auto* uring =
          dynamic_cast<UringBlockDevice*>(r.index.device.get())) {
    r.ring_active = uring->ring_active();
  }
  if (auto* file = dynamic_cast<FileBlockDevice*>(r.index.device.get())) {
    r.direct_io = file->direct_io();
  }
  std::printf("--- %s device (%s%s): %llu nodes, %llu leaves ---\n",
              device_kind.c_str(),
              r.ring_active ? "io_uring active" : "pread path",
              r.direct_io ? ", O_DIRECT" : "",
              static_cast<unsigned long long>(r.index.tree_stats.num_nodes),
              static_cast<unsigned long long>(r.index.tree_stats.num_leaves));
  std::printf("%8s %9s %10s %10s %12s %12s %14s %9s\n", "budget", "frames",
              "readahead", "seconds", "leaf I/Os", "pool misses",
              "prefetch(use%)", "speedup");
  for (double frac : budgets) {
    SweepPoint scalar =
        RunPoint(r.index, queries, frac, /*readahead=*/false, repeats);
    SweepPoint ahead =
        RunPoint(r.index, queries, frac, /*readahead=*/true, repeats);
    double speedup =
        ahead.seconds > 0 ? scalar.seconds / ahead.seconds : 1.0;
    for (const SweepPoint* pt : {&scalar, &ahead}) {
      double use = pt->prefetch_staged > 0
                       ? 100.0 * static_cast<double>(pt->prefetch_useful) /
                             static_cast<double>(pt->prefetch_staged)
                       : 0.0;
      std::printf("%8.4f %9zu %10s %10.3f %12llu %12llu %8llu(%3.0f%%) %8.2fx\n",
                  pt->budget_frac, pt->capacity, pt->readahead ? "on" : "off",
                  pt->seconds, static_cast<unsigned long long>(pt->leaves),
                  static_cast<unsigned long long>(pt->pool_misses),
                  static_cast<unsigned long long>(pt->prefetch_staged), use,
                  pt->readahead ? speedup : 1.0);
    }
    r.points.push_back(scalar);
    r.points.push_back(ahead);
  }
  return r;
}

/// The §3.3 invariant this sweep must never bend: readahead and budget
/// change when blocks are read, never what the traversal visits or
/// returns.  Every point of a sweep must agree on leaves/internal/results.
bool CheckUniform(const SweepResult& r) {
  bool ok = true;
  for (const SweepPoint& pt : r.points) {
    if (pt.leaves != r.points[0].leaves ||
        pt.internal != r.points[0].internal ||
        pt.results != r.points[0].results) {
      std::fprintf(stderr,
                   "!! %s: budget %.4f readahead=%d changed the traversal "
                   "(leaves %llu vs %llu)\n",
                   r.device.c_str(), pt.budget_frac, pt.readahead ? 1 : 0,
                   static_cast<unsigned long long>(pt.leaves),
                   static_cast<unsigned long long>(r.points[0].leaves));
      ok = false;
    }
  }
  return ok;
}

std::string JsonForSweep(const SweepResult& r,
                         const std::vector<double>& budgets) {
  char buf[512];
  std::string json = "  {\n";
  json += "    \"device\": \"" + r.device + "\",\n";
  json += std::string("    \"ring_active\": ") +
          (r.ring_active ? "true" : "false") + ",\n";
  json += std::string("    \"direct_io\": ") +
          (r.direct_io ? "true" : "false") + ",\n";
  std::snprintf(buf, sizeof(buf),
                "    \"tree_nodes\": %llu,\n    \"tree_leaves\": %llu,\n",
                static_cast<unsigned long long>(r.index.tree_stats.num_nodes),
                static_cast<unsigned long long>(
                    r.index.tree_stats.num_leaves));
  json += buf;
  json += "    \"points\": [\n";
  for (size_t i = 0; i < r.points.size(); ++i) {
    const SweepPoint& pt = r.points[i];
    std::snprintf(
        buf, sizeof(buf),
        "      {\"budget\": %.4f, \"capacity\": %zu, \"readahead\": %s, "
        "\"seconds\": %.6f, \"leaves\": %llu, \"results\": %llu, "
        "\"pool_hits\": %llu, \"pool_misses\": %llu, \"demand_reads\": %llu, "
        "\"prefetch_reads\": %llu, \"prefetch_staged\": %llu, "
        "\"prefetch_useful\": %llu}%s\n",
        pt.budget_frac, pt.capacity, pt.readahead ? "true" : "false",
        pt.seconds, static_cast<unsigned long long>(pt.leaves),
        static_cast<unsigned long long>(pt.results),
        static_cast<unsigned long long>(pt.pool_hits),
        static_cast<unsigned long long>(pt.pool_misses),
        static_cast<unsigned long long>(pt.demand_reads),
        static_cast<unsigned long long>(pt.prefetch_reads),
        static_cast<unsigned long long>(pt.prefetch_staged),
        static_cast<unsigned long long>(pt.prefetch_useful),
        i + 1 < r.points.size() ? "," : "");
    json += buf;
  }
  json += "    ],\n";
  // Wall-clock ratios of two same-machine, same-device runs: the only
  // timing numbers stable enough to gate on (machine speed cancels).
  json += "    \"speedup_readahead\": {";
  for (size_t b = 0; b < budgets.size(); ++b) {
    const SweepPoint& scalar = r.points[2 * b];
    const SweepPoint& ahead = r.points[2 * b + 1];
    std::snprintf(buf, sizeof(buf), "%s\"%.4f\": %.3f",
                  b == 0 ? "" : ", ", budgets[b],
                  ahead.seconds > 0 ? scalar.seconds / ahead.seconds : 1.0);
    json += buf;
  }
  json += "}\n  }";
  return json;
}

// ---------------------------------------------------------------------------
// --write: the build-phase leg.  Same PR-tree grid build, scalar pwrites vs
// staged WriteBatch submissions, byte-identity asserted via an FNV-64 hash
// of the closed device file.

struct WritePoint {
  double budget_frac = 0;
  size_t memory_bytes = 0;
  double seconds = 0;
  uint64_t writes = 0;
  uint64_t demand_reads = 0;
  uint64_t write_batches = 0;
  uint64_t io_blocks = 0;  // reads + writes: the paper's build cost (§3.3)
  uint64_t file_hash = 0;  // FNV-64 of the device file after Sync + close
};

struct WriteLeg {
  std::string device;
  bool ring_active = false;
  bool direct_io = false;
  std::vector<WritePoint> points;
};

uint64_t FnvHashFile(const std::string& path) {
  uint64_t h = 1469598103934665603ull;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::vector<unsigned char> buf(1 << 16);
  size_t got;
  while ((got = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    for (size_t i = 0; i < got; ++i) {
      h ^= buf[i];
      h *= 1099511628211ull;
    }
  }
  std::fclose(f);
  return h;
}

WriteLeg RunWriteLeg(const std::string& device_kind, const std::string& path,
                     bool direct_io, const std::vector<Record2>& data,
                     const std::vector<double>& budgets, int repeats) {
  WriteLeg leg;
  leg.device = device_kind;
  const size_t data_bytes = data.size() * sizeof(Record2);
  for (double frac : budgets) {
    WritePoint pt;
    pt.budget_frac = frac;
    pt.memory_bytes = std::max<size_t>(
        1u << 20, static_cast<size_t>(frac * static_cast<double>(data_bytes)));
    for (int rep = 0; rep < repeats; ++rep) {
      std::remove(path.c_str());
      harness::DeviceSpec spec;
      spec.kind = device_kind;
      spec.path = path;
      spec.direct_io = direct_io;
      auto dev = harness::OpenDeviceOrDie(spec, kDefaultBlockSize);
      if (auto* uring = dynamic_cast<UringBlockDevice*>(dev.get())) {
        leg.ring_active = uring->ring_active();
      }
      if (auto* file = dynamic_cast<FileBlockDevice*>(dev.get())) {
        leg.direct_io = file->direct_io();
      }
      WorkEnv env{dev.get(), pt.memory_bytes};
      PrTreeOptions opts;
      opts.force_grid = true;  // always the external, write-heavy path
      dev->ResetStats();
      Timer timer;
      RTree<2> tree(dev.get());
      AbortIfError(BulkLoadPrTree<2>(env, data, &tree, opts));
      AbortIfError(dev->Sync());
      double seconds = timer.Seconds();
      if (rep == 0 || seconds < pt.seconds) pt.seconds = seconds;
      IoStats io = dev->stats();
      pt.writes = io.writes;
      pt.demand_reads = io.reads;
      pt.write_batches = io.write_batches;
      pt.io_blocks = io.Total();
      dev.reset();  // close before hashing: the file is the artifact
      pt.file_hash = FnvHashFile(path);
    }
    leg.points.push_back(pt);
  }
  std::remove(path.c_str());
  return leg;
}

std::string JsonForWriteLeg(const WriteLeg& leg) {
  char buf[512];
  std::string json = "  {\n";
  json += "    \"device\": \"" + leg.device + "\",\n";
  json += std::string("    \"ring_active\": ") +
          (leg.ring_active ? "true" : "false") + ",\n";
  json += std::string("    \"direct_io\": ") +
          (leg.direct_io ? "true" : "false") + ",\n";
  json += "    \"points\": [\n";
  for (size_t i = 0; i < leg.points.size(); ++i) {
    const WritePoint& pt = leg.points[i];
    std::snprintf(
        buf, sizeof(buf),
        "      {\"budget\": %.4f, \"seconds\": %.6f, \"writes\": %llu, "
        "\"demand_reads\": %llu, \"write_batches\": %llu, "
        "\"io_blocks\": %llu, \"file_hash\": \"%016llx\"}%s\n",
        pt.budget_frac, pt.seconds,
        static_cast<unsigned long long>(pt.writes),
        static_cast<unsigned long long>(pt.demand_reads),
        static_cast<unsigned long long>(pt.write_batches),
        static_cast<unsigned long long>(pt.io_blocks),
        static_cast<unsigned long long>(pt.file_hash),
        i + 1 < leg.points.size() ? "," : "");
    json += buf;
  }
  json += "    ]\n  }";
  return json;
}

// Isolated write-engine microbenchmark: the same page train written once
// through the scalar Write() loop and once through staged WriteBatch
// submissions, a fresh device each time.  The full build legs above mix in
// the pipeline's demand *reads* (untouched by batching), so their ratio is
// Amdahl-diluted; this one measures the write path alone.
double MicroWriteSeconds(const std::string& device_kind,
                         const std::string& path, bool direct_io,
                         bool batched, size_t pages, int repeats) {
  double best = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    std::remove(path.c_str());
    harness::DeviceSpec spec;
    spec.kind = device_kind;
    spec.path = path;
    spec.direct_io = direct_io;
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
    double seconds = timer.Seconds();
    if (rep == 0 || seconds < best) best = seconds;
    dev.reset();
  }
  std::remove(path.c_str());
  return best;
}

int RunWritePhase(const std::string& device_kind, const std::string& path,
                  bool direct_io, size_t n, uint64_t seed,
                  const std::vector<double>& budgets, int repeats,
                  const std::string& out_path) {
  auto data = workload::MakeSize(n, 0.001, seed);
  std::string base = path.empty()
                         ? "/tmp/prtree_writepath." +
                               std::to_string(static_cast<long>(getpid()))
                         : path;

  std::printf("=== outofcore_sweep --write: n=%zu, scalar file vs batched "
              "%s ===\n", n, device_kind.c_str());
  WriteLeg scalar = RunWriteLeg("file", base + ".scalar", /*direct_io=*/
                                direct_io, data, budgets, repeats);
  WriteLeg batched =
      RunWriteLeg(device_kind, base + ".batched", direct_io, data, budgets,
                  repeats);

  bool ok = true;
  std::printf("%8s %10s %10s %8s %12s %9s %8s\n", "budget", "scalar s",
              "batched s", "speedup", "io_blocks", "batches", "bytes");
  for (size_t b = 0; b < budgets.size(); ++b) {
    const WritePoint& s = scalar.points[b];
    const WritePoint& u = batched.points[b];
    bool same = s.file_hash == u.file_hash && s.writes == u.writes &&
                s.demand_reads == u.demand_reads &&
                s.io_blocks == u.io_blocks;
    if (!same) {
      std::fprintf(stderr,
                   "!! budget %.4f: batched build diverged from scalar "
                   "(hash %016llx vs %016llx, writes %llu vs %llu)\n",
                   s.budget_frac,
                   static_cast<unsigned long long>(u.file_hash),
                   static_cast<unsigned long long>(s.file_hash),
                   static_cast<unsigned long long>(u.writes),
                   static_cast<unsigned long long>(s.writes));
      ok = false;
    }
    std::printf("%8.4f %10.3f %10.3f %7.2fx %12llu %9llu %8s\n",
                s.budget_frac, s.seconds, u.seconds,
                u.seconds > 0 ? s.seconds / u.seconds : 1.0,
                static_cast<unsigned long long>(s.io_blocks),
                static_cast<unsigned long long>(u.write_batches),
                same ? "equal" : "DIFFER");
  }

  const size_t micro_pages = std::max<size_t>(1024, n / 40);
  double micro_scalar = MicroWriteSeconds("file", base + ".scalar",
                                          direct_io, /*batched=*/false,
                                          micro_pages, repeats);
  double micro_batched = MicroWriteSeconds(device_kind, base + ".batched",
                                           direct_io, /*batched=*/true,
                                           micro_pages, repeats);
  double micro_speedup =
      micro_batched > 0 ? micro_scalar / micro_batched : 1.0;
  std::printf("write-only micro (%zu pages): scalar %.3fs, batched %.3fs "
              "-> %.2fx\n", micro_pages, micro_scalar, micro_batched,
              micro_speedup);

  std::string json = "{\n  \"bench\": \"writepath\",\n";
  json += "  \"n\": " + std::to_string(n) + ",\n";
  json += "  \"micro_pages\": " + std::to_string(micro_pages) + ",\n";
  json += "  \"legs\": [\n" + JsonForWriteLeg(scalar) + ",\n" +
          JsonForWriteLeg(batched) + "\n  ],\n";
  // Same-machine wall-clock ratio, the only gateable timing number.
  json += "  \"speedup_writebatch\": {";
  char buf[64];
  for (size_t b = 0; b < budgets.size(); ++b) {
    const WritePoint& s = scalar.points[b];
    const WritePoint& u = batched.points[b];
    std::snprintf(buf, sizeof(buf), "%s\"%.4f\": %.3f", b == 0 ? "" : ", ",
                  budgets[b], u.seconds > 0 ? s.seconds / u.seconds : 1.0);
    json += buf;
  }
  json += "},\n";
  std::snprintf(buf, sizeof(buf), "  \"speedup_writebatch_micro\": %.3f,\n",
                micro_speedup);
  json += buf;
  json += std::string("  \"deterministic\": ") + (ok ? "true" : "false") +
          "\n}\n";

  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "BYTE-IDENTITY CHECK FAILED\n");
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --records: the out-of-core scale leg.  Dataset sizes are parsed from a
// K/M-suffixed spec; each point streams the seeded generator straight into
// a device-resident Stream (no in-RAM dataset), grid-builds, then measures
// window queries and kNN on both file and uring, asserting byte-identical
// demand counters across the two backends.

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

struct ScalePoint {
  size_t records = 0;
  // Build phase (grid path, paper-proportional memory budget).
  double build_seconds = 0;
  uint64_t build_io = 0;
  uint64_t build_writes = 0;
  uint64_t tree_nodes = 0;
  uint64_t tree_leaves = 0;
  // Window phase (readahead pool at a fraction of the tree).
  double window_seconds = 0;
  uint64_t window_leaves = 0;
  uint64_t window_results = 0;
  uint64_t window_demand_reads = 0;
  uint64_t window_prefetch_reads = 0;
  // kNN phase (same pool configuration).
  double knn_seconds = 0;
  uint64_t knn_leaves = 0;
  uint64_t knn_results = 0;
  uint64_t knn_digest = 0;  // FNV over neighbor ids + distance bits
};

struct ScaleLeg {
  std::string device;
  bool ring_active = false;
  bool direct_io = false;
  std::vector<ScalePoint> points;
};

ScalePoint RunScalePoint(const std::string& device_kind,
                         const std::string& path, bool direct_io, size_t n,
                         uint64_t seed, size_t num_queries, size_t num_knn,
                         size_t k, double pool_frac, ScaleLeg* leg) {
  ScalePoint pt;
  pt.records = n;
  harness::DeviceSpec spec;
  spec.kind = device_kind;
  spec.path = path;
  spec.direct_io = direct_io;
  auto dev = harness::OpenDeviceOrDie(spec, kDefaultBlockSize);
  if (auto* uring = dynamic_cast<UringBlockDevice*>(dev.get())) {
    leg->ring_active = uring->ring_active();
  }
  if (auto* file = dynamic_cast<FileBlockDevice*>(dev.get())) {
    leg->direct_io = file->direct_io();
  }

  // Stage the dataset straight from the generator: the only RAM cost is
  // the stream's one-block write buffer.
  Stream<Record2> input(dev.get());
  {
    auto gen = workload::NewSizeGenerator(n, 0.001, seed);
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
  pt.build_seconds = build_timer.Seconds();
  IoStats build_io = dev->stats();
  pt.build_io = build_io.Total();
  pt.build_writes = build_io.writes;
  TreeStats ts = tree.ComputeStats();
  pt.tree_nodes = ts.num_nodes;
  pt.tree_leaves = ts.num_leaves;

  // Out-of-core query state: the pool holds a fraction of the tree, with
  // frontier readahead on (the uring backend's batched path).
  size_t capacity = std::max<size_t>(
      4, static_cast<size_t>(pool_frac * static_cast<double>(ts.num_nodes)));
  auto queries = workload::MakeSquareQueries(tree.Mbr(), 0.01, num_queries,
                                             seed + 17);
  {
    BufferPool pool(dev.get(), capacity);
    pool.set_readahead(true);
    dev->ResetStats();
    Timer timer;
    for (const Rect2& q : queries) {
      QueryStats qs = tree.Query(q, [](const Record2&) {}, &pool);
      pt.window_leaves += qs.leaves_visited;
      pt.window_results += qs.results;
    }
    pt.window_seconds = timer.Seconds();
    IoStats io = dev->stats();
    pt.window_demand_reads = io.reads;
    pt.window_prefetch_reads = io.prefetch_reads;
  }

  Rng rng(seed + 31);
  {
    BufferPool pool(dev.get(), capacity);
    pool.set_readahead(true);
    uint64_t digest = 1469598103934665603ull;
    Timer timer;
    for (size_t i = 0; i < num_knn; ++i) {
      std::array<Real, 2> p{rng.Uniform(0, 1), rng.Uniform(0, 1)};
      QueryStats qs;
      auto neighbors = KnnSearch<2>(tree, p, k, &qs, &pool);
      pt.knn_leaves += qs.leaves_visited;
      pt.knn_results += neighbors.size();
      for (const auto& nb : neighbors) {
        uint64_t bits;
        static_assert(sizeof(nb.distance) <= sizeof(bits));
        bits = 0;
        std::memcpy(&bits, &nb.distance, sizeof(nb.distance));
        digest ^= nb.record.id;
        digest *= 1099511628211ull;
        digest ^= bits;
        digest *= 1099511628211ull;
      }
    }
    pt.knn_seconds = timer.Seconds();
    pt.knn_digest = digest;
  }
  return pt;
}

std::string JsonForScaleLeg(const ScaleLeg& leg) {
  char buf[640];
  std::string json = "  {\n";
  json += "    \"device\": \"" + leg.device + "\",\n";
  json += std::string("    \"ring_active\": ") +
          (leg.ring_active ? "true" : "false") + ",\n";
  json += std::string("    \"direct_io\": ") +
          (leg.direct_io ? "true" : "false") + ",\n";
  json += "    \"points\": [\n";
  for (size_t i = 0; i < leg.points.size(); ++i) {
    const ScalePoint& pt = leg.points[i];
    std::snprintf(
        buf, sizeof(buf),
        "      {\"n\": %zu,\n"
        "       \"build\": {\"seconds\": %.6f, \"io_blocks\": %llu, "
        "\"writes\": %llu, \"tree_nodes\": %llu, \"tree_leaves\": %llu},\n"
        "       \"window\": {\"seconds\": %.6f, \"leaves\": %llu, "
        "\"results\": %llu, \"demand_reads\": %llu, "
        "\"prefetch_reads\": %llu},\n"
        "       \"knn\": {\"seconds\": %.6f, \"leaves\": %llu, "
        "\"knn_results\": %llu, \"digest\": \"%016llx\"}}%s\n",
        pt.records, pt.build_seconds,
        static_cast<unsigned long long>(pt.build_io),
        static_cast<unsigned long long>(pt.build_writes),
        static_cast<unsigned long long>(pt.tree_nodes),
        static_cast<unsigned long long>(pt.tree_leaves), pt.window_seconds,
        static_cast<unsigned long long>(pt.window_leaves),
        static_cast<unsigned long long>(pt.window_results),
        static_cast<unsigned long long>(pt.window_demand_reads),
        static_cast<unsigned long long>(pt.window_prefetch_reads),
        pt.knn_seconds, static_cast<unsigned long long>(pt.knn_leaves),
        static_cast<unsigned long long>(pt.knn_results),
        static_cast<unsigned long long>(pt.knn_digest),
        i + 1 < leg.points.size() ? "," : "");
    json += buf;
  }
  json += "    ]\n  }";
  return json;
}

int RunScalePhase(const std::vector<size_t>& records, const std::string& path,
                  bool direct_io, uint64_t seed, size_t num_queries,
                  int repeats, const std::string& out_path) {
  (void)repeats;  // each point is one full build — repeats would double it
  const size_t num_knn = std::min<size_t>(num_queries, 64);
  const size_t k = 10;
  const double pool_frac = 0.125;
  std::printf("=== outofcore_sweep --records: %zu sizes, file+uring, "
              "streamed build + window + kNN ===\n", records.size());

  ScaleLeg file_leg{"file", false, false, {}};
  ScaleLeg uring_leg{"uring", false, false, {}};
  bool ok = true;
  std::printf("%12s %7s %10s %12s %10s %12s %10s %6s\n", "records", "dev",
              "build s", "build I/O", "window s", "demand reads", "knn s",
              "agree");
  for (size_t n : records) {
    ScalePoint fp = RunScalePoint(
        "file", path.empty() ? "" : path + ".file", direct_io, n, seed,
        num_queries, num_knn, k, pool_frac, &file_leg);
    ScalePoint up = RunScalePoint(
        "uring", path.empty() ? "" : path + ".uring", direct_io, n, seed,
        num_queries, num_knn, k, pool_frac, &uring_leg);
    // The §3.3 invariant at scale: which blocks the build writes and the
    // traversals demand is a property of the algorithm, not the backend.
    bool same = fp.build_io == up.build_io &&
                fp.build_writes == up.build_writes &&
                fp.tree_nodes == up.tree_nodes &&
                fp.tree_leaves == up.tree_leaves &&
                fp.window_leaves == up.window_leaves &&
                fp.window_results == up.window_results &&
                fp.window_demand_reads == up.window_demand_reads &&
                fp.window_prefetch_reads == up.window_prefetch_reads &&
                fp.knn_leaves == up.knn_leaves &&
                fp.knn_results == up.knn_results &&
                fp.knn_digest == up.knn_digest;
    if (!same) {
      std::fprintf(stderr,
                   "!! n=%zu: file and uring disagree on demand counters\n",
                   n);
      ok = false;
    }
    for (const ScalePoint* pt : {&fp, &up}) {
      std::printf("%12zu %7s %10.3f %12llu %10.3f %12llu %10.3f %6s\n",
                  n, pt == &fp ? "file" : "uring", pt->build_seconds,
                  static_cast<unsigned long long>(pt->build_io),
                  pt->window_seconds,
                  static_cast<unsigned long long>(pt->window_demand_reads),
                  pt->knn_seconds, same ? "yes" : "NO");
    }
    file_leg.points.push_back(fp);
    uring_leg.points.push_back(up);
  }

  std::string json = "{\n  \"bench\": \"scale_sweep\",\n";
  json += "  \"queries\": " + std::to_string(num_queries) + ",\n";
  json += "  \"knn\": " + std::to_string(num_knn) + ",\n";
  json += "  \"k\": " + std::to_string(k) + ",\n";
  json += "  \"legs\": [\n" + JsonForScaleLeg(file_leg) + ",\n" +
          JsonForScaleLeg(uring_leg) + "\n  ],\n";
  json += std::string("  \"deterministic\": ") + (ok ? "true" : "false") +
          "\n}\n";
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "CROSS-DEVICE IDENTITY CHECK FAILED\n");
    return 1;
  }
  return 0;
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

int Usage(const char* problem, const char* arg) {
  std::fprintf(stderr,
               "%s %s\nusage: outofcore_sweep [--n=N] [--queries=Q] "
               "[--seed=S] [--device=file|uring] [--path=FILE] "
               "[--budgets=a,b,...] [--repeats=R] [--direct] "
               "[--out=PATH] [--smoke] [--verify-cross-device] "
               "[--write] [--records=SPEC]\n",
               problem, arg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 300'000;
  size_t num_queries = 256;
  uint64_t seed = 1;
  std::string device_kind = "file";
  std::string path;
  std::string out_path = "BENCH_outofcore.json";
  std::vector<double> budgets = {0.0625, 0.125, 0.25, 0.5};
  int repeats = 3;
  bool direct_io = false;
  bool smoke = false;
  bool verify_cross = false;
  bool write_phase = false;
  bool out_set = false;
  std::vector<size_t> records;  // --records: run the scale leg instead
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--n=", 4) == 0) {
      n = std::strtoull(arg + 4, nullptr, 10);
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      num_queries = std::strtoull(arg + 10, nullptr, 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--device=", 9) == 0) {
      device_kind = arg + 9;
    } else if (std::strncmp(arg, "--path=", 7) == 0) {
      path = arg + 7;
    } else if (std::strncmp(arg, "--budgets=", 10) == 0) {
      if (!ParseBudgets(arg + 10, &budgets)) return Usage("malformed", arg);
    } else if (std::strncmp(arg, "--repeats=", 10) == 0) {
      repeats = static_cast<int>(std::strtol(arg + 10, nullptr, 10));
      if (repeats < 1) repeats = 1;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
      out_set = true;
    } else if (std::strcmp(arg, "--direct") == 0) {
      direct_io = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(arg, "--verify-cross-device") == 0) {
      verify_cross = true;
    } else if (std::strcmp(arg, "--write") == 0) {
      write_phase = true;
    } else if (std::strncmp(arg, "--records=", 10) == 0) {
      if (!ParseRecordsSpec(arg + 10, &records)) {
        return Usage("malformed", arg);
      }
    } else {
      return Usage("unknown flag", arg);
    }
  }
  if (device_kind != "file" && device_kind != "uring") {
    std::fprintf(stderr, "--device must be file or uring (the sweep "
                         "measures real storage)\n");
    return 2;
  }
  if (smoke) {
    n = 40'000;
    num_queries = 64;
    budgets = {0.125, 0.5};
    repeats = 2;
  }
  if (!records.empty()) {
    if (smoke) records = {40'000, 80'000};  // tiny but still two scale points
    if (!out_set) out_path = "BENCH_scale.json";
    return RunScalePhase(records, path, direct_io, seed, num_queries,
                         repeats, out_path);
  }
  if (write_phase) {
    if (!out_set) out_path = "BENCH_writepath.json";
    return RunWritePhase(device_kind, path, direct_io, n, seed, budgets,
                         repeats, out_path);
  }

  auto data = workload::MakeSize(n, 0.001, seed);
  auto queries = workload::MakeSquareQueries(MakeRect(0, 0, 1, 1), 0.01,
                                             num_queries, seed + 17);

  std::printf("=== outofcore_sweep: n=%zu, queries=%zu, device=%s%s ===\n",
              n, num_queries, device_kind.c_str(), smoke ? " (smoke)" : "");

  SweepResult primary =
      RunSweep(device_kind, path, direct_io, data, queries, budgets, repeats);
  bool ok = CheckUniform(primary);

  std::vector<SweepResult> sweeps;
  sweeps.push_back(std::move(primary));

  if (verify_cross) {
    std::string other = device_kind == "file" ? "uring" : "file";
    // Anonymous temp device for the cross-check: never clobber --path.
    SweepResult secondary =
        RunSweep(other, "", direct_io, data, queries, budgets, repeats);
    ok = CheckUniform(secondary) && ok;
    for (size_t i = 0; i < secondary.points.size(); ++i) {
      const SweepPoint& a = sweeps[0].points[i];
      const SweepPoint& b = secondary.points[i];
      if (a.leaves != b.leaves || a.results != b.results ||
          a.demand_reads != b.demand_reads ||
          a.prefetch_reads != b.prefetch_reads) {
        std::fprintf(stderr,
                     "!! cross-device mismatch at budget %.4f readahead=%d\n",
                     a.budget_frac, a.readahead ? 1 : 0);
        ok = false;
      }
    }
    if (ok) {
      std::printf("cross-device check: file and uring agree on every "
                  "leaf I/O, result and transfer count\n");
    }
    sweeps.push_back(std::move(secondary));
  }

  std::string json = "{\n  \"bench\": \"outofcore_sweep\",\n";
  json += "  \"n\": " + std::to_string(n) + ",\n";
  json += "  \"queries\": " + std::to_string(num_queries) + ",\n";
  json += "  \"sweeps\": [\n";
  for (size_t i = 0; i < sweeps.size(); ++i) {
    json += JsonForSweep(sweeps[i], budgets);
    json += i + 1 < sweeps.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += std::string("  \"deterministic\": ") + (ok ? "true" : "false") +
          "\n}\n";

  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "DETERMINISM CHECK FAILED\n");
    return 1;
  }
  return 0;
}
