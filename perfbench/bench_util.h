// Shared pieces of the benchmark driver: device placement, the timed-phase
// loop, percentiles, process counters, the host-drift probe and the
// linear-scan oracles the correctness checks compare against.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geom/rect.h"
#include "io/uring_block_device.h"
#include "perfbench/timed_device.h"
#include "perfbench/trace.h"
#include "rtree/knn.h"
#include "util/check.h"
#include "util/random.h"

namespace perfbench {

using prtree::DataId;
using prtree::Real;
using prtree::Record2;
using prtree::Rect2;

/// What one workload run produced.  `metrics` maps a metric name to its
/// value and unit; `params` holds preformatted JSON values describing the
/// run conditions.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> params;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 16) errors.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void Param(const std::string& name, const std::string& json_value) {
    params[name] = json_value;
  }
};

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Device placement.

/// Backing storage for one device: an anonymous memfd — tmpfs pages that
/// no other process or directory sees — opened by path through
/// /proc/self/fd, so the shared disk stays out of the numbers and nothing
/// is written outside the working directory.
class DeviceFile {
 public:
  explicit DeviceFile(const char* tag) : fd_(memfd_create(tag, MFD_CLOEXEC)) {
    PRTREE_CHECK(fd_ >= 0);  // memfd_create refused: no tmpfs device
    path_ = "/proc/self/fd/" + std::to_string(fd_);
  }
  ~DeviceFile() { ::close(fd_); }
  DeviceFile(const DeviceFile&) = delete;
  DeviceFile& operator=(const DeviceFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  int fd_;
  std::string path_;
};

/// A fresh uring device on its own DeviceFile, seen through a TimedDevice
/// when `tracer` is non-null (the traced run) and bare otherwise.
class BenchDevice {
 public:
  BenchDevice(const char* tag, Tracer* tracer) : file_(tag) {
    prtree::UringDeviceOptions opts;
    opts.file.truncate = true;
    prtree::AbortIfError(
        prtree::UringBlockDevice::Open(file_.path(), opts, &uring_));
    if (tracer != nullptr) {
      timed_ = std::make_unique<TimedDevice>(uring_.get(), tracer);
    }
  }

  prtree::BlockDevice* get() const {
    return timed_ != nullptr ? static_cast<prtree::BlockDevice*>(timed_.get())
                             : uring_.get();
  }
  prtree::UringBlockDevice* uring() const { return uring_.get(); }
  TimedDevice* timed() const { return timed_.get(); }
  const DeviceFile& file() const { return file_; }

 private:
  DeviceFile file_;
  std::unique_ptr<prtree::UringBlockDevice> uring_;
  std::unique_ptr<TimedDevice> timed_;
};

// ---------------------------------------------------------------------------
// Timed phases.

/// Latency samples a phase keeps: those of its first kLatencySamples ops.
/// A fixed count, so that the program's own memory — and so peak_rss_mb —
/// does not grow with the number of ops a faster host gets done.
inline constexpr size_t kLatencySamples = size_t{1} << 16;

/// Appends `us` to `samples` unless kLatencySamples are already there.
inline void AddLatency(std::vector<double>* samples, double us) {
  if (samples->size() < kLatencySamples) samples->push_back(us);
}

struct Phase {
  uint64_t ops = 0;
  double wall_s = 0;            // loop wall time minus excluded time
  std::vector<double> lat_us;   // latencies of the first ops, see above
  uint64_t traced_ops = 0;      // the share of ops and wall that ran with
  double traced_wall_s = 0;     // spans on (traced runs only)

  /// Adds another phase's ops, wall time and latencies to this one.
  void Append(const Phase& o) {
    ops += o.ops;
    wall_s += o.wall_s;
    for (double us : o.lat_us) AddLatency(&lat_us, us);
    traced_ops += o.traced_ops;
    traced_wall_s += o.traced_wall_s;
  }
};

/// How long the traced run keeps spans on, then off, in turn.
inline constexpr int64_t kTraceSliceNs = 100'000'000;

/// Runs `op(i, &latency_us)` for i = 0, 1, ... until `seconds` of wall
/// time have passed and at least `min_ops` ops ran.  `op` returns the
/// seconds of its own time that are not part of the measured work (input
/// staging, correctness checks); they are subtracted from the phase wall.
///
/// With `alternate` (the traced run) spans are switched on and off every
/// kTraceSliceNs, at op boundaries, so traced and untraced ops interleave
/// over the same stretch of time and index state; the phase splits its ops
/// and wall time by kind, which is what TraceOverhead() compares.
template <typename Op>
Phase RunPhase(double seconds, uint64_t min_ops, Tracer* alternate, Op&& op) {
  Phase p;
  const int64_t start = NowNs();
  int64_t last = start;
  int64_t last_switch = start;
  if (alternate != nullptr) alternate->set_enabled(true);
  while ((last - start) / 1e9 < seconds || p.ops < min_ops) {
    const bool traced = alternate != nullptr && alternate->enabled();
    double lat_us = 0;
    const double excluded = op(p.ops, &lat_us);
    const int64_t now = NowNs();
    const double op_wall = (now - last) / 1e9 - excluded;
    last = now;
    AddLatency(&p.lat_us, lat_us);
    ++p.ops;
    p.wall_s += op_wall;
    if (traced) {
      ++p.traced_ops;
      p.traced_wall_s += op_wall;
    }
    if (alternate != nullptr && now - last_switch >= kTraceSliceNs) {
      alternate->set_enabled(!traced);
      last_switch = now;
    }
  }
  if (alternate != nullptr) alternate->set_enabled(false);
  return p;
}

/// Traced over untraced throughput of an alternating phase (0 when either
/// kind got no op).
inline double TraceOverhead(const Phase& p) {
  const uint64_t plain_ops = p.ops - p.traced_ops;
  const double plain_wall = p.wall_s - p.traced_wall_s;
  if (p.traced_ops == 0 || plain_ops == 0) return 0;
  return (p.traced_ops / p.traced_wall_s) / (plain_ops / plain_wall);
}

/// The `q`-quantile (0..1) of `v` by nearest rank; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * v.size()));
  k = std::clamp<size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Process counters and the host probe.

inline double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Milliseconds a fixed CPU-only loop takes: the same work on every run,
/// so a change in it between runs is the host, not the code under test.
/// The volatile seed read and sink write pin the loop between the two clock
/// reads.
[[gnu::noinline]] inline double HostProbeMs() {
  static volatile uint64_t seed = 0x9E3779B97F4A7C15ull;
  static volatile double sink = 0;
  const int64_t t0 = NowNs();
  uint64_t x = seed;
  double acc = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 1023) * 1e-3;
  }
  sink = acc;
  const double ms = (NowNs() - t0) / 1e6;
  (void)sink;
  return ms;
}

// ---------------------------------------------------------------------------
// Query generation and oracles.

inline uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Order-independent digest of a window query's result set.
struct Digest {
  uint64_t count = 0;
  uint64_t hash = 0;
  void Add(const Record2& r) {
    ++count;
    hash += Mix64(r.id);
  }
  bool operator==(const Digest& o) const {
    return count == o.count && hash == o.hash;
  }
};

/// One query of the read mix: a square window or a kNN point.
struct QuerySpec {
  bool knn = false;
  Rect2 window;
  std::array<Real, 2> point{};
};

/// Seeded generator of the read mix over `extent`: `knn_share` of the
/// queries are kNN points, the rest square windows covering `area` of the
/// extent.
class QueryGen {
 public:
  QueryGen(const Rect2& extent, double area, double knn_share, uint64_t seed)
      : extent_(extent), knn_share_(knn_share), rng_(seed) {
    side_x_ = std::sqrt(area) * extent.Extent(0);
    side_y_ = std::sqrt(area) * extent.Extent(1);
  }

  QuerySpec Next() { return Next(rng_.Chance(knn_share_)); }

  /// The next query of the given kind.
  QuerySpec Next(bool knn) {
    QuerySpec q;
    q.knn = knn;
    if (knn) {
      q.point = {rng_.Uniform(extent_.lo[0], extent_.hi[0]),
                 rng_.Uniform(extent_.lo[1], extent_.hi[1])};
    } else {
      const double x = rng_.Uniform(extent_.lo[0], extent_.hi[0] - side_x_);
      const double y = rng_.Uniform(extent_.lo[1], extent_.hi[1] - side_y_);
      q.window = prtree::MakeRect(x, y, x + side_x_, y + side_y_);
    }
    return q;
  }

 private:
  Rect2 extent_;
  double knn_share_;
  double side_x_ = 0;
  double side_y_ = 0;
  prtree::Rng rng_;
};

inline Rect2 Extent(const std::vector<Record2>& recs) {
  Rect2 e = Rect2::Empty();
  for (const Record2& r : recs) e.ExtendToCover(r.rect);
  return e;
}

inline Digest OracleWindow(const std::vector<Record2>& recs, const Rect2& w) {
  Digest d;
  for (const Record2& r : recs) {
    if (r.rect.Intersects(w)) d.Add(r);
  }
  return d;
}

/// The ids of the `k` records nearest `p`, ordered by (distance, id) — the
/// order KnnSearch reports.
inline std::vector<DataId> OracleKnn(const std::vector<Record2>& recs,
                                     const std::array<Real, 2>& p, size_t k) {
  std::vector<std::pair<Real, DataId>> all;
  all.reserve(recs.size());
  for (const Record2& r : recs) {
    all.emplace_back(prtree::MinDist<2>(p, r.rect), r.id);
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end());
  std::vector<DataId> ids;
  for (size_t i = 0; i < k; ++i) ids.push_back(all[i].second);
  return ids;
}

inline std::vector<DataId> NeighborIds(
    const std::vector<prtree::Neighbor<2>>& nb) {
  std::vector<DataId> ids;
  for (const auto& n : nb) ids.push_back(n.record.id);
  return ids;
}

/// The live record set a mutating workload maintains beside the index, so
/// deletes pick existing records and oracles scan exactly what is live.
class LiveSet {
 public:
  void Add(const Record2& r) { recs_.push_back(r); }
  /// Removes and returns a uniformly chosen live record.
  Record2 TakeRandom(prtree::Rng* rng) {
    const size_t i = rng->UniformInt(0, recs_.size() - 1);
    Record2 r = recs_[i];
    recs_[i] = recs_.back();
    recs_.pop_back();
    return r;
  }
  const std::vector<Record2>& records() const { return recs_; }
  size_t size() const { return recs_.size(); }

 private:
  std::vector<Record2> recs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
