// prtree_perfbench: the repository benchmark.  One process runs one
// workload from one client thread against the library's public API and
// prints what it measured; run.py builds this program and turns its output
// into the benchmark's result line.  README.md in this directory defines
// every workload and metric.
//
//   prtree_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--scale F] [--threads T] [--setup-only 1]
//
// --trace 0 reports the end-to-end metrics.  --trace 1 reports the
// per-layer metrics: the timed phase switches spans on and off every
// 100 ms (a TimedDevice sits under the library where the workload owns the
// device), trace.overhead compares the two kinds of ops, and the spans go
// to .bench_out/trace_<workload>_seed<N>.json.  --scale shrinks every
// record count (the exact-count test runs at a small scale).  --setup-only
// stops after set-up: run.py times extra set-ups in processes of their own,
// so that they never count in the measured process's peak RSS.
//
// Output: one `{"params": ..., "errors": ...}` line, then one line holding
// {"correct", "attempted", "failed", "metrics"}.  Exit code 0 iff every
// check passed.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/dynamic_prtree.h"
#include "geom/rect_batch.h"
#include "harness/experiment.h"
#include "io/external_sort.h"
#include "perfbench/bench_util.h"
#include "rtree/bulk_loader.h"
#include "rtree/journaled_tree.h"
#include "rtree/knn.h"
#include "rtree/persist.h"
#include "rtree/validate.h"
#include "util/parallel.h"
#include "workload/datasets.h"

namespace perfbench {
namespace {

using namespace prtree;  // NOLINT

constexpr size_t kKnnK = 16;
constexpr double kWindowArea = 1e-4;  // share of the data extent
constexpr double kKnnShare = 0.2;     // query_ooc read mix
constexpr uint64_t kCheckEvery = 79;  // oracle-check every Nth op
constexpr uint64_t kWarmupQueries = 4096;
constexpr uint64_t kWarmupUpdates = 2048;
constexpr size_t kMaxSpans = 50'000;
constexpr size_t kGeneratorCap = size_t{1} << 31;  // records a stream may draw
constexpr double kBlock = static_cast<double>(kDefaultBlockSize);
constexpr const char* kTraceDir = ".bench_out";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  int threads = 4;
  bool setup_only = false;
};

size_t Scaled(size_t n, const Args& a) {
  return std::max<size_t>(2000, static_cast<size_t>(n * a.scale));
}

/// Ops whose counters are exact: the first CountWindow() timed ops run the
/// same seeded sequence from the same state on every run of a seed.
uint64_t CountWindow(const Args& a) {
  return std::max<uint64_t>(500, static_cast<uint64_t>(20'000 * a.scale));
}

double SecondsSince(int64_t t0) { return (NowNs() - t0) / 1e9; }

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// What a TimedDevice measured over a phase: read calls (every op) and
/// busy time (ops with spans on).
struct DeviceTiming {
  uint64_t read_calls = 0;
  double busy_s = 0;
  uint64_t busy_ops = 0;

  /// The device's counters now, as a mark to subtract later.
  static DeviceTiming Of(const TimedDevice& dev) {
    return {dev.read_calls(), dev.busy_ns() / 1e9, 0};
  }
  /// A phase's share: the device's counters now minus this mark, over the
  /// phase's `ops` traced ops.
  DeviceTiming Since(const TimedDevice& dev, uint64_t ops) const {
    return {dev.read_calls() - read_calls, dev.busy_ns() / 1e9 - busy_s, ops};
  }
  void Add(const DeviceTiming& o) {
    read_calls += o.read_calls;
    busy_s += o.busy_s;
    busy_ops += o.busy_ops;
  }
};

/// The io.device.* per-layer metrics over `ops` ops; `timing` is null when
/// no TimedDevice could sit under the library.
void SetDeviceLayer(const IoStats& io, uint64_t ops, const DeviceTiming* timing,
                    Result* r) {
  const double n = static_cast<double>(ops);
  r->Set("io.device.reads_per_op", io.reads / n, "blocks/op");
  r->Set("io.device.writes_per_op", io.writes / n, "blocks/op");
  r->Set("io.device.prefetch_reads_per_op", io.prefetch_reads / n,
         "blocks/op");
  r->Set("io.device.meta_writes_per_op", io.meta_writes / n, "blocks/op");
  if (io.write_batches != 0) {
    r->Set("io.device.blocks_per_write_batch",
           static_cast<double>(io.writes) / io.write_batches, "blocks");
  }
  if (timing != nullptr) {
    r->Set("io.device.blocks_per_read_call",
           static_cast<double>(io.reads + io.prefetch_reads) /
               timing->read_calls,
           "blocks");
    r->Set("io.device.busy_s_per_op", timing->busy_s / timing->busy_ops,
           "s/op");
  }
}

/// Pool counters: a mark taken with Of(), or the deltas of a phase, which
/// Layer() turns into the io.buffer_pool.* metrics.
struct PoolCounts {
  uint64_t hits = 0, misses = 0, staged = 0, useful = 0;

  static PoolCounts Of(const BufferPool& p) {
    return {p.hits(), p.misses(), p.prefetch_staged(), p.prefetch_useful()};
  }
  PoolCounts Since(const BufferPool& p) const {
    const PoolCounts now = Of(p);
    return {now.hits - hits, now.misses - misses, now.staged - staged,
            now.useful - useful};
  }
  void Add(const PoolCounts& o) {
    hits += o.hits;
    misses += o.misses;
    staged += o.staged;
    useful += o.useful;
  }
  void Layer(uint64_t ops, Result* r) const {
    const double h = hits, m = misses, s = staged, u = useful;
    r->Set("io.buffer_pool.hit_rate", h / (h + m), "ratio");
    r->Set("io.buffer_pool.misses_per_op", m / ops, "1/op");
    r->Set("io.buffer_pool.prefetch_useful_ratio", s == 0 ? 0.0 : u / s,
           "ratio");
  }
};

/// Read-path counters of a phase: the rtree.query.* per-layer metrics.
struct QueryLayer {
  std::vector<double> window_us, knn_us;
  uint64_t queries = 0;
  uint64_t nodes = 0;
  int64_t query_ns = 0;
  QueryStats in_window;  // over the count window only (exact)
  uint64_t window_ops = 0;

  void Add(const QuerySpec& q, const QueryStats& qs, int64_t ns,
           bool counted) {
    AddLatency(q.knn ? &knn_us : &window_us, ns / 1e3);
    ++queries;
    nodes += qs.nodes_visited;
    query_ns += ns;
    if (counted) {
      in_window += qs;
      ++window_ops;
    }
  }
  void Layer(Result* r) const {
    r->Set("rtree.query.window_p50_us", Median(window_us), "us");
    r->Set("rtree.query.knn_p50_us", Median(knn_us), "us");
    r->Set("rtree.query.nodes_per_op", static_cast<double>(nodes) / queries,
           "nodes/op");
    r->Set("rtree.query.ns_per_node", static_cast<double>(query_ns) / nodes,
           "ns");
    r->Set("rtree.query.leaves_per_op",
           static_cast<double>(in_window.leaves_visited) / window_ops,
           "blocks/op");
    r->Set("rtree.query.results_per_op",
           static_cast<double>(in_window.results) / window_ops, "records/op");
  }
};

/// One sampled read, kept for comparison against the oracle.
struct ReadCheck {
  QuerySpec q;
  Digest digest;
  std::vector<DataId> ids;
};

void VerifyReads(const std::vector<ReadCheck>& checks,
                 const std::vector<Record2>& recs, Result* res) {
  for (const ReadCheck& c : checks) {
    if (c.q.knn) {
      res->Check(OracleKnn(recs, c.q.point, kKnnK) == c.ids,
                 "kNN result differs from the linear-scan oracle");
    } else {
      res->Check(OracleWindow(recs, c.q.window) == c.digest,
                 "window result differs from the linear-scan oracle");
    }
  }
}

/// Records the median of this process's set-up `times` as setup_s, and
/// every time as the setup_reps_s param (run.py takes the median over the
/// set-ups of all the processes of a run).
void SetSetup(const std::vector<double>& times, Result* r) {
  r->Set("setup_s", Median(times), "s");
  std::string list;
  for (double t : times) list += (list.empty() ? "" : ", ") + JsonNumber(t);
  r->Param("setup_reps_s", "[" + list + "]");
}

/// Runs `setup` once and records its time as setup_s.
template <typename Setup>
void TimeSetup(Setup setup, Result* r) {
  const int64_t t0 = NowNs();
  setup();
  SetSetup({SecondsSince(t0)}, r);
}

/// The end-to-end metrics of an untraced phase.
void SetEndToEnd(const Phase& p, double ops_per_s, double ios_per_op,
                 double bytes_per_rec, Result* r) {
  r->attempted += p.ops;
  r->Set("ops_per_s", ops_per_s, "1/s");
  r->Param("op_p50_us", JsonNumber(Median(p.lat_us)));
  r->Param("op_p99_us", JsonNumber(Quantile(p.lat_us, 0.99)));
  r->Param("latency_samples", std::to_string(p.lat_us.size()));
  r->Set("ios_per_op", ios_per_op, "blocks/op");
  r->Set("bytes_per_rec", bytes_per_rec, "B/record");
}

void SetRingActive(const UringBlockDevice& dev, Result* r) {
  r->Param("ring_active", dev.ring_active() ? "true" : "false");
}

// ---------------------------------------------------------------------------
// bulk_load: external PR-tree builds of 500k records, 4 loader threads.

Result RunBulkLoad(const Args& a, Tracer* tr) {
  Result res;
  const size_t n = Scaled(500'000, a);
  BuildOptions opts;
  opts.memory_bytes = harness::ScaledMemoryBudget(n);
  opts.threads = a.threads;
  auto loader = MakeBulkLoader<2>(LoaderKind::kPrTree, opts);
  std::vector<Record2> data;
  double gen_s = 0;

  struct BuildRun {
    double wall_s = 0, cpu_s = 0;
    DeviceTiming timing;
    IoStats io;
    size_t tree_pages = 0;
  };
  // One complete build of `data` into a fresh device.  Only Build() is
  // timed; a traced build runs over a TimedDevice with spans on for
  // Build() alone.
  auto build = [&](bool traced) {
    BuildRun b;
    BenchDevice dev("bulk_load", traced ? tr : nullptr);
    SetRingActive(*dev.uring(), &res);
    BlockDevice* d = dev.get();
    RTree2 tree(d);
    if (traced) tr->set_enabled(false);
    {
      Stream<Record2> input(d);
      input.Append(data);
      input.Flush();
      const IoStats before = d->stats();
      const DeviceTiming timing0 =
          traced ? DeviceTiming::Of(*dev.timed()) : DeviceTiming{};
      const double cpu0 = CpuSeconds();
      const int64_t t0 = NowNs();
      Status st;
      if (traced) tr->set_enabled(true);
      {
        ScopedSpan span(tr, "core.build.Build");
        st = loader->Build(d, &input, &tree);
      }
      if (traced) tr->set_enabled(false);
      b.wall_s = SecondsSince(t0);
      b.cpu_s = CpuSeconds() - cpu0;
      b.io = d->stats() - before;
      if (traced) b.timing = timing0.Since(*dev.timed(), 1);
      res.Check(st.ok(), "Build: " + st.ToString());
    }
    b.tree_pages = d->num_allocated();  // the input stream is gone
    res.Check(tree.size() == n, "built tree holds the wrong record count");
    Status v = ValidateTree(tree);
    res.Check(v.ok(), "ValidateTree: " + v.ToString());
    if (traced) tr->set_enabled(true);
    return b;
  };

  // Set-up: generation plus one untimed warm-up build.
  BuildRun reference;
  TimeSetup([&] {
    const int64_t t0 = NowNs();
    data = workload::MakeTigerLike(n, workload::TigerRegion::kEastern, a.seed);
    gen_s = SecondsSince(t0);
    reference = build(false);
  }, &res);
  if (a.setup_only) return res;

  std::vector<BuildRun> traced_runs;
  const Phase p = RunPhase(a.seconds, 2, tr, [&](uint64_t, double* lat_us) {
    const int64_t t0 = NowNs();
    const bool traced = tr != nullptr && tr->enabled();
    BuildRun b = build(traced);
    *lat_us = b.wall_s * 1e6;
    res.Check(b.tree_pages == reference.tree_pages &&
                  b.io.reads == reference.io.reads &&
                  b.io.writes == reference.io.writes &&
                  b.io.write_batches == reference.io.write_batches,
              "build pages or I/O differ from the warm-up build");
    if (traced) traced_runs.push_back(b);
    return SecondsSince(t0) - b.wall_s;
  });

  res.Set("workload.gen_s", gen_s, "s");
  res.Param("records", std::to_string(n));
  res.Param("threads", std::to_string(a.threads));
  res.Param("memory_bytes", std::to_string(opts.memory_bytes));
  if (!a.trace) {
    SetEndToEnd(p, p.ops / p.wall_s,
                static_cast<double>(reference.io.Total()),
                reference.tree_pages * kBlock / n, &res);
    return res;
  }

  res.attempted += p.ops;
  res.Set("trace.overhead", TraceOverhead(p), "ratio");
  IoStats io;
  DeviceTiming timing;
  double wall = 0, cpu = 0, unattributed = 0;
  for (const BuildRun& b : traced_runs) {
    io += b.io;
    timing.Add(b.timing);
    wall += b.wall_s;
    cpu += b.cpu_s;
    unattributed += b.wall_s - b.timing.busy_s;
  }
  SetDeviceLayer(io, traced_runs.size(), &timing, &res);
  res.Set("core.build.cpu_util", cpu / wall, "ratio");
  res.Set("core.build.unattributed_s", unattributed / traced_runs.size(), "s");
  res.Set("core.build.tree_pages", static_cast<double>(reference.tree_pages),
          "pages");

  // One standalone external sort of the staged input at the build's
  // budget: the io.external_sort share of a build.
  BenchDevice dev("external_sort", tr);
  BlockDevice* d = dev.get();
  Stream<Record2> input(d);
  input.Append(data);
  input.Flush();
  std::unique_ptr<ThreadPool> pool;
  if (a.threads > 1) pool = std::make_unique<ThreadPool>(a.threads);
  const IoStats before = d->stats();
  const int64_t t0 = NowNs();
  tr->set_enabled(true);
  {
    ScopedSpan span(tr, "io.external_sort.ExternalSort");
    Stream<Record2> sorted = ExternalSort(
        WorkEnv{d, opts.memory_bytes, pool.get()}, &input,
        [](const Record2& x, const Record2& y) {
          if (x.rect.lo[0] != y.rect.lo[0]) return x.rect.lo[0] < y.rect.lo[0];
          return x.id < y.id;
        });
    res.Check(sorted.size() == n, "ExternalSort lost records");
  }
  tr->set_enabled(false);
  res.Set("io.external_sort.s", SecondsSince(t0), "s");
  res.Set("io.external_sort.ios",
          static_cast<double>((d->stats() - before).Total()), "blocks");
  return res;
}

// ---------------------------------------------------------------------------
// query_ooc: windows and kNN on a 1M-record PR-tree whose pool holds the
// internal nodes plus 1/16 of the leaves.

Result RunQueryOoc(const Args& a, Tracer* tr) {
  Result res;
  const size_t n = Scaled(1'000'000, a);
  const uint64_t window = CountWindow(a);
  struct State {
    std::vector<Record2> data;
    std::unique_ptr<BenchDevice> dev;
    std::unique_ptr<RTree2> tree;
    std::unique_ptr<BufferPool> pool;
    Rect2 extent;
  };
  std::unique_ptr<State> s;
  double gen_s = 0;

  auto query = [&](const QuerySpec& q, Digest* digest,
                   std::vector<Neighbor<2>>* nb) {
    QueryStats qs;
    if (q.knn) {
      ScopedSpan span(tr, "rtree.query.KnnSearch");
      *nb = KnnSearch<2>(*s->tree, q.point, kKnnK, &qs, s->pool.get());
    } else {
      ScopedSpan span(tr, "rtree.query.Query");
      qs = s->tree->Query(
          q.window,
          [&](const Record2& r) {
            if (digest != nullptr) digest->Add(r);
          },
          s->pool.get());
    }
    return qs;
  };

  // Set-up: generation, the base build, the §3.3 internal-node cache and a
  // warm-up of the pool.
  TimeSetup([&] {
    s.reset();
    const int64_t t0 = NowNs();
    s = std::make_unique<State>();
    s->data =
        workload::MakeTigerLike(n, workload::TigerRegion::kEastern, a.seed);
    gen_s = SecondsSince(t0);
    s->dev = std::make_unique<BenchDevice>("query_ooc", tr);
    BlockDevice* d = s->dev->get();
    s->tree = std::make_unique<RTree2>(d);
    {
      Stream<Record2> input(d);
      input.Append(s->data);
      input.Flush();
      AbortIfError(MakeBulkLoader<2>(LoaderKind::kPrTree)
                       ->Build(d, &input, s->tree.get()));
    }
    const TreeStats ts = s->tree->ComputeStats();
    s->pool = std::make_unique<BufferPool>(
        d, (ts.num_nodes - ts.num_leaves) + ts.num_leaves / 16);
    s->tree->CacheInternalNodes(s->pool.get());
    s->extent = s->tree->Mbr();
    QueryGen warm(s->extent, kWindowArea, kKnnShare, a.seed ^ 0x57A4);
    std::vector<Neighbor<2>> nb;
    for (uint64_t i = 0; i < kWarmupQueries; ++i) {
      query(warm.Next(), nullptr, &nb);
    }
    res.Param("tree_pages", std::to_string(ts.num_nodes));
  }, &res);
  if (a.setup_only) return res;
  BlockDevice* d = s->dev->get();
  SetRingActive(*s->dev->uring(), &res);
  res.Param("records", std::to_string(n));
  res.Param("pool_pages", std::to_string(s->pool->capacity()));
  res.Param("count_window_ops", std::to_string(window));

  QueryLayer layer;
  IoStats io_window;
  QueryGen gen(s->extent, kWindowArea, kKnnShare, a.seed);
  std::vector<ReadCheck> checks;
  const IoStats io0 = d->stats();
  const PoolCounts pool0 = PoolCounts::Of(*s->pool);
  const DeviceTiming timing0 =
      a.trace ? DeviceTiming::Of(*s->dev->timed()) : DeviceTiming{};
  const Phase p = RunPhase(a.seconds, window, tr, [&](uint64_t i,
                                                      double* lat_us) {
    const QuerySpec q = gen.Next();
    const bool sampled = i < window && i % kCheckEvery == 0;
    Digest digest;
    std::vector<Neighbor<2>> nb;
    const int64_t t0 = NowNs();
    const QueryStats qs = query(q, sampled ? &digest : nullptr, &nb);
    const int64_t ns = NowNs() - t0;
    *lat_us = ns / 1e3;
    layer.Add(q, qs, ns, i < window);
    if (i + 1 == window) io_window = d->stats() - io0;
    if (sampled) checks.push_back({q, digest, NeighborIds(nb)});
    return 0.0;
  });
  VerifyReads(checks, s->data, &res);
  res.Param("oracle_checks", std::to_string(checks.size()));
  res.Set("workload.gen_s", gen_s, "s");

  if (!a.trace) {
    SetEndToEnd(p, p.ops / p.wall_s,
                static_cast<double>(io_window.Total()) / window,
                d->num_allocated() * kBlock / n, &res);
    return res;
  }
  res.attempted += p.ops;
  res.Set("trace.overhead", TraceOverhead(p), "ratio");
  const DeviceTiming timing = timing0.Since(*s->dev->timed(), p.traced_ops);
  SetDeviceLayer(d->stats() - io0, p.ops, &timing, &res);
  pool0.Since(*s->pool).Layer(p.ops, &res);
  layer.Layer(&res);
  return res;
}

// ---------------------------------------------------------------------------
// mixed_rw: 5% insert, 5% delete, 70% window, 20% kNN on a DynamicPRTree
// whose attached pool holds the whole forest.
//
// Every Delete copies the forest's tombstone set, so ops slow down as a
// run goes on.  The workload therefore times rounds of a fixed op count:
// each round sets the forest up afresh and runs the same seeded sequence of
// CountWindow() ops, so every round, on any host or build, measures the
// same sequence of states.  ops_per_s is the median over the rounds.

Result RunMixedRw(const Args& a, Tracer* tr) {
  Result res;
  const size_t n = Scaled(200'000, a);
  const uint64_t round_ops = CountWindow(a);
  constexpr int kMinRounds = 5;
  struct State {
    std::unique_ptr<BenchDevice> dev;
    std::unique_ptr<BufferPool> pool;  // outlives the forest it is attached to
    std::unique_ptr<DynamicPRTree<2>> forest;
    std::unique_ptr<workload::RecordGenerator> gen;
    LiveSet live;
    Rect2 extent;
  };
  std::unique_ptr<State> s;
  double gen_s = 0;

  // Set-up: generation, 200k inserts (the forest's own level rebuilds)
  // and a read-only warm-up of the pool.
  auto setup = [&] {
    s.reset();
    const int64_t t0 = NowNs();
    s = std::make_unique<State>();
    s->gen = workload::NewTigerLikeGenerator(
        kGeneratorCap, workload::TigerRegion::kEastern, a.seed);
    std::vector<Record2> base(n);
    for (Record2& r : base) s->gen->Next(&r);
    gen_s = SecondsSince(t0);
    s->dev = std::make_unique<BenchDevice>("mixed_rw", tr);
    BlockDevice* d = s->dev->get();
    s->pool = std::make_unique<BufferPool>(
        d, 4 * n / NodeCapacity<2>(kDefaultBlockSize) + 1024);
    s->forest = std::make_unique<DynamicPRTree<2>>(WorkEnv{d});
    s->forest->AttachPool(s->pool.get());
    for (const Record2& r : base) {
      s->forest->Insert(r);
      s->live.Add(r);
    }
    s->extent = Extent(base);
    QueryGen warm(s->extent, kWindowArea, kKnnShare, a.seed ^ 0x57A4);
    for (uint64_t i = 0; i < kWarmupQueries; ++i) {
      const QuerySpec q = warm.Next();
      if (q.knn) {
        s->forest->Knn(q.point, kKnnK, nullptr, s->pool.get());
      } else {
        s->forest->Query(q.window, [](const Record2&) {}, s->pool.get());
      }
    }
  };

  if (a.setup_only) {
    TimeSetup(setup, &res);
    return res;
  }

  // Per-layer accumulators, summed over the rounds of a traced run.
  QueryLayer layer;
  IoStats io_all;
  PoolCounts pool_all;
  DeviceTiming timing_all;
  std::vector<double> insert_us, delete_us, snapshot_us;
  uint64_t rebuilds = 0;
  int64_t rebuild_ns = 0, op_ns = 0;
  size_t limbo_max = 0;

  Phase p;  // every round's ops
  std::vector<double> setup_times, round_rates;
  IoStats io_first;  // the first round's counts, which every round repeats
  double bytes_per_rec = 0;
  const int64_t start = NowNs();
  for (int round = 0; round < kMinRounds || SecondsSince(start) < a.seconds;
       ++round) {
    const int64_t t_setup = NowNs();
    setup();
    setup_times.push_back(SecondsSince(t_setup));
    BlockDevice* d = s->dev->get();
    Rng rng(a.seed * 0x2545F4914F6CDD1Dull + 7);
    QueryGen gen(s->extent, kWindowArea, kKnnShare, a.seed);
    std::vector<size_t> levels = s->forest->LevelSizes();
    const IoStats io0 = d->stats();
    const PoolCounts pool0 = PoolCounts::Of(*s->pool);
    const DeviceTiming timing0 =
        a.trace ? DeviceTiming::Of(*s->dev->timed()) : DeviceTiming{};
    const Phase r = RunPhase(0, round_ops, tr, [&](uint64_t i,
                                                   double* lat_us) {
      const uint64_t pick = rng.UniformInt(0, 99);
      const bool traced = tr != nullptr && tr->enabled();
      int64_t ns = 0;
      double excluded = 0;
      if (pick < 10) {
        // Writes: an insert of a new record or a delete of a live one.
        const bool insert = pick < 5;
        Record2 rec;
        if (insert) {
          s->gen->Next(&rec);
        } else {
          rec = s->live.TakeRandom(&rng);
        }
        bool ok = true;
        const int64_t t0 = NowNs();
        if (insert) {
          ScopedSpan span(tr, "core.dynamic.Insert");
          s->forest->Insert(rec);
        } else {
          ScopedSpan span(tr, "core.dynamic.Delete");
          ok = s->forest->Delete(rec);
        }
        ns = NowNs() - t0;
        if (insert) s->live.Add(rec);
        res.Check(ok, "Delete did not find a live record");
        if (a.trace) {
          (insert ? insert_us : delete_us).push_back(ns / 1e3);
          std::vector<size_t> now = s->forest->LevelSizes();
          if (now != levels) {
            ++rebuilds;
            rebuild_ns += ns;
            levels = std::move(now);
          }
          limbo_max = std::max(limbo_max, s->forest->epochs().limbo_pages());
        }
      } else {
        // Reads: the calls the forest's own Query/Knn make, with
        // Snapshot() spanned on its own.
        const QuerySpec q = gen.Next(pick >= 80);
        const bool sampled = i % kCheckEvery == 0;
        Digest digest;
        std::vector<Neighbor<2>> nb;
        QueryStats qs;
        const int64_t t0 = NowNs();
        auto snap = [&] {
          ScopedSpan span(tr, "core.dynamic.Snapshot");
          return s->forest->Snapshot();
        }();
        if (traced) snapshot_us.push_back((NowNs() - t0) / 1e3);
        if (q.knn) {
          ScopedSpan span(tr, "rtree.query.KnnSearch");
          nb = snap.Knn(q.point, kKnnK, &qs, s->pool.get());
        } else {
          ScopedSpan span(tr, "rtree.query.Query");
          qs = snap.Query(
              q.window,
              [&](const Record2& rec) {
                if (sampled) digest.Add(rec);
              },
              s->pool.get());
        }
        ns = NowNs() - t0;
        layer.Add(q, qs, ns, true);
        if (sampled) {
          const int64_t c0 = NowNs();
          VerifyReads({ReadCheck{q, digest, NeighborIds(nb)}},
                      s->live.records(), &res);
          excluded = SecondsSince(c0);
        }
      }
      *lat_us = ns / 1e3;
      op_ns += ns;
      return excluded;
    });
    p.Append(r);
    round_rates.push_back(r.ops / r.wall_s);

    const IoStats io = d->stats() - io0;
    const double bytes = d->num_allocated() * kBlock / s->forest->size();
    if (round == 0) {
      io_first = io;
      bytes_per_rec = bytes;
      // Later rounds set up again in this process, so their memory would
      // count allocator history too: peak RSS covers one set-up and round.
      if (!a.trace) res.Set("peak_rss_mb", PeakRssMb(), "MB");
    }
    res.Check(io.reads == io_first.reads && io.writes == io_first.writes &&
                  bytes == bytes_per_rec,
              "round I/O or pages differ from the first round");
    Status v = s->forest->Validate();
    res.Check(v.ok(), "forest Validate: " + v.ToString());
    res.Check(s->forest->size() == s->live.size(),
              "forest size differs from base + inserts - deletes");
    io_all += io;
    pool_all.Add(pool0.Since(*s->pool));
    if (a.trace) timing_all.Add(timing0.Since(*s->dev->timed(), r.traced_ops));
  }
  SetRingActive(*s->dev->uring(), &res);
  res.Param("records", std::to_string(n));
  res.Param("pool_pages", std::to_string(s->pool->capacity()));
  res.Param("round_ops", std::to_string(round_ops));
  res.Param("rounds", std::to_string(round_rates.size()));
  res.Set("workload.gen_s", gen_s, "s");

  if (!a.trace) {
    SetSetup(setup_times, &res);
    SetEndToEnd(p, Median(round_rates),
                static_cast<double>(io_first.Total()) / round_ops,
                bytes_per_rec, &res);
    return res;
  }
  res.attempted += p.ops;
  res.Set("trace.overhead", TraceOverhead(p), "ratio");
  SetDeviceLayer(io_all, p.ops, &timing_all, &res);
  pool_all.Layer(p.ops, &res);
  layer.Layer(&res);
  res.Set("core.dynamic.snapshot_us", Median(snapshot_us), "us");
  res.Set("core.dynamic.insert_p50_us", Median(insert_us), "us");
  res.Set("core.dynamic.delete_p50_us", Median(delete_us), "us");
  res.Set("core.dynamic.rebuilds_per_kop", rebuilds * 1000.0 / p.ops, "1/kop");
  res.Set("core.dynamic.rebuild_time_share",
          static_cast<double>(rebuild_ns) / op_ns, "ratio");
  res.Set("core.dynamic.levels", static_cast<double>(s->forest->num_levels()),
          "levels");
  res.Set("io.epoch.limbo_pages_max", static_cast<double>(limbo_max), "pages");
  return res;
}

// ---------------------------------------------------------------------------
// durable_update: journaled Guttman inserts and deletes on a file device.

Result RunDurableUpdate(const Args& a, Tracer* tr) {
  Result res;
  const size_t n = Scaled(1'000'000, a);
  const uint64_t window = CountWindow(a);
  JournaledTree<2>::Options jopts;
  jopts.backend = "uring";
  struct State {
    std::unique_ptr<DeviceFile> file;  // outlives the tree's device
    std::unique_ptr<JournaledTree<2>> tree;
    std::unique_ptr<workload::RecordGenerator> gen;
    LiveSet live;
  };
  std::unique_ptr<State> s;
  Rng rng(a.seed * 0x2545F4914F6CDD1Dull + 11);
  double gen_s = 0;

  // One journaled op: even i inserts a new record, odd i deletes a live one.
  auto update = [&](uint64_t i) {
    Status st;
    bool deleted = true;
    Record2 rec;
    int64_t ns = 0;
    if (i % 2 == 0) {
      s->gen->Next(&rec);
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(tr, "rtree.journaled_tree.Insert");
        st = s->tree->Insert(rec);
      }
      ns = NowNs() - t0;
      s->live.Add(rec);
    } else {
      rec = s->live.TakeRandom(&rng);
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(tr, "rtree.journaled_tree.Delete");
        st = s->tree->Delete(rec, &deleted);
      }
      ns = NowNs() - t0;
    }
    res.Check(st.ok(), "journaled update: " + st.ToString());
    res.Check(deleted, "journaled Delete did not find a live record");
    return ns;
  };

  // Set-up: generation, the base build on a plain device, PersistTree,
  // then JournaledTree::Open (which upgrades the file and attaches the
  // journal) and a warm-up of journaled updates.
  TimeSetup([&] {
    s.reset();
    const int64_t t0 = NowNs();
    s = std::make_unique<State>();
    s->gen = workload::NewTigerLikeGenerator(
        kGeneratorCap, workload::TigerRegion::kEastern, a.seed);
    std::vector<Record2> base(n);
    for (Record2& r : base) s->gen->Next(&r);
    gen_s = SecondsSince(t0);
    s->file = std::make_unique<DeviceFile>("durable_update");
    {
      UringDeviceOptions uopts;
      uopts.file.truncate = true;
      std::unique_ptr<UringBlockDevice> dev;
      AbortIfError(UringBlockDevice::Open(s->file->path(), uopts, &dev));
      RTree2 tree(dev.get());
      {
        Stream<Record2> input(dev.get());
        input.Append(base);
        input.Flush();
        AbortIfError(MakeBulkLoader<2>(LoaderKind::kPrTree)
                         ->Build(dev.get(), &input, &tree));
      }
      AbortIfError(PersistTree(tree, dev.get()));
    }
    AbortIfError(JournaledTree<2>::Open(s->file->path(), jopts, &s->tree));
    for (const Record2& r : base) s->live.Add(r);
    for (uint64_t i = 0; i < kWarmupUpdates; ++i) update(i);
  }, &res);
  if (a.setup_only) return res;
  FileBlockDevice* d = s->tree->device();
  SetRingActive(*static_cast<UringBlockDevice*>(d), &res);
  res.Param("records", std::to_string(n));
  res.Param("flush_policy",
            JsonString("fsync at checkpoints only (default JournalOptions: "
                   "64-page region, no per-commit sync)"));
  res.Param("count_window_ops", std::to_string(window));

  IoStats io_window;
  double bytes_per_rec = 0;
  std::vector<double> insert_us, delete_us;
  uint64_t checkpoints = 0;
  int64_t checkpoint_ns = 0;
  const IoStats io0 = d->stats();
  const Phase p = RunPhase(a.seconds, window, tr, [&](uint64_t i,
                                                      double* lat_us) {
    const uint32_t epoch = s->tree->journal().epoch();
    const int64_t ns = update(i);
    *lat_us = ns / 1e3;
    if (a.trace) {
      (i % 2 == 0 ? insert_us : delete_us).push_back(ns / 1e3);
      if (s->tree->journal().epoch() != epoch) {
        ++checkpoints;
        checkpoint_ns += ns;
      }
    }
    if (i + 1 == window) {
      io_window = d->stats() - io0;
      bytes_per_rec = d->num_allocated() * kBlock / s->tree->tree().size();
    }
    return 0.0;
  });
  const IoStats io = d->stats() - io0;

  // Close (a clean close checkpoints), reopen through recovery, and check
  // structure, size and sampled queries against the live set.
  s->tree.reset();
  Status st = JournaledTree<2>::Open(s->file->path(), jopts, &s->tree);
  res.Check(st.ok(), "reopen: " + st.ToString());
  if (st.ok()) {
    Status v = ValidateTree(s->tree->tree());
    res.Check(v.ok(), "ValidateTree after reopen: " + v.ToString());
    res.Check(s->tree->tree().size() == s->live.size(),
              "reopened tree size differs from base + inserts - deletes");
    QueryGen check(Extent(s->live.records()), kWindowArea, 0, a.seed ^ 0xD0);
    for (int i = 0; i < 16; ++i) {
      const QuerySpec q = check.Next();
      Digest digest;
      s->tree->tree().Query(q.window, [&](const Record2& r) { digest.Add(r); });
      res.Check(digest == OracleWindow(s->live.records(), q.window),
                "reopened tree query differs from the linear-scan oracle");
    }
  }
  res.Set("workload.gen_s", gen_s, "s");

  if (!a.trace) {
    SetEndToEnd(p, p.ops / p.wall_s,
                static_cast<double>(io_window.Total()) / window,
                bytes_per_rec, &res);
    return res;
  }
  res.attempted += p.ops;
  res.Set("trace.overhead", TraceOverhead(p), "ratio");
  SetDeviceLayer(io, p.ops, nullptr, &res);
  res.Param("not_measured",
            JsonString("io.device.busy_s_per_op, "
                       "io.device.blocks_per_read_call: JournaledTree opens "
                       "its own device, so no TimedDevice can sit under it"));
  res.Set("io.journal.checkpoints_per_kop", checkpoints * 1000.0 / p.ops,
          "1/kop");
  if (checkpoints != 0) {
    res.Set("io.journal.checkpoint_op_us", checkpoint_ns / 1e3 / checkpoints,
            "us");
  }
  res.Set("io.journal.bytes_per_op", io.meta_writes * kBlock / p.ops, "B/op");
  res.Set("rtree.journaled_tree.insert_p50_us", Median(insert_us), "us");
  res.Set("rtree.journaled_tree.delete_p50_us", Median(delete_us), "us");
  return res;
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = value == "1";
    } else if (key == "--scale") {
      a->scale = std::strtod(value.c_str(), nullptr);
    } else if (key == "--threads") {
      a->threads = std::atoi(value.c_str());
    } else if (key == "--setup-only") {
      a->setup_only = value == "1";
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->scale > 0 &&
         a->threads >= 1;
}


void PrintLines(const Result& r) {
  std::string line = "{\"params\": {";
  bool first = true;
  for (const auto& [k, v] : r.params) {
    line += (first ? "" : ", ") + JsonString(k) + ": " + v;
    first = false;
  }
  line += "}, \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    line += (i ? ", " : "") + JsonString(r.errors[i]);
  }
  std::printf("%s]}\n", line.c_str());

  line = "{\"correct\": " + std::string(r.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  first = true;
  for (const auto& [name, vu] : r.metrics) {
    line += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            JsonNumber(vu.first) + ", \"unit\": " + JsonString(vu.second) +
            "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload bulk_load|query_ooc|mixed_rw|"
                 "durable_update --seed N --seconds S --trace 0|1 "
                 "[--scale F] [--threads T] [--setup-only 1]\n",
                 argv[0]);
    return 2;
  }
  Result (*run)(const Args&, Tracer*) = nullptr;
  if (a.workload == "bulk_load") {
    run = RunBulkLoad;
  } else if (a.workload == "query_ooc") {
    run = RunQueryOoc;
  } else if (a.workload == "mixed_rw") {
    run = RunMixedRw;
  } else if (a.workload == "durable_update") {
    run = RunDurableUpdate;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  Tracer tracer(kMaxSpans);
  tracer.SetClientThread();
  const double probe_start = HostProbeMs();
  Result r = run(a, a.trace ? &tracer : nullptr);
  const double probe_end = HostProbeMs();
  if (!a.trace && r.metrics.count("peak_rss_mb") == 0) {
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
  }

  r.Param("workload", JsonString(a.workload));
  r.Param("seed", std::to_string(a.seed));
  r.Param("seconds", JsonNumber(a.seconds));
  r.Param("scale", JsonNumber(a.scale));
  r.Param("simd", JsonString(SimdLevelName(ActiveSimdLevel())));
  r.Param("device", JsonString("UringBlockDevice on a memfd (tmpfs)"));
  r.Param("host_probe_ms",
          "[" + JsonNumber(probe_start) + ", " + JsonNumber(probe_end) + "]");
  if (a.trace) {
    ::mkdir(kTraceDir, 0755);
    const std::string path = std::string(kTraceDir) + "/trace_" +
                             a.workload + "_seed" + std::to_string(a.seed) +
                             ".json";
    if (tracer.WriteChromeTrace(path)) {
      r.Param("trace_file", JsonString(path));
    } else {
      r.Fail("cannot write " + path);
    }
  }
  PrintLines(r);
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
