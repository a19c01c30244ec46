// Multi-core throughput: read-only query scaling plus the mixed
// insert/delete/window/kNN workload over the MVCC dynamic forest.
//
// Leg 1 (always runs): the paper reports per-query I/Os on a single
// thread (§3.3); this sweep measures what the same setup sustains when
// many threads query one shared PR-tree through one sharded BufferPool.
// The cache protocol is unchanged (internal nodes warmed, leaf misses are
// the I/Os); queries/sec at 1..8 threads plus the per-thread QueryStats
// cross-check: summed over threads they must equal the single-thread
// totals exactly, because each query's traversal is deterministic and its
// counters are private.
//
// Leg 2 (--mix=): the snapshot-read story under writes.  A DynamicPRTree
// serves a mixed workload — x% inserts, y% deletes, z% window queries,
// w% kNN — from 1..16 threads; every query runs on an epoch-pinned
// snapshot, so readers never block on writers and never see a torn
// version.  Reports ops/sec and p50/p99 query latency per thread count
// into BENCH_mixed.json (gated by tools/bench_compare.py: op counts and
// the serial-leg counters exactly, latencies echoed but never gated).
// The run self-checks determinism: the serial counters must reproduce,
// every threaded leg must converge to the same final size, and a snapshot
// pinned before the storm must stay frozen through it.
//
// Leg 3 (--journal=on): the crash-consistent journaled update path vs
// the plain in-place updater over one deterministic op stream — demand
// counters must match exactly (journaling is meta-traffic only), and the
// journal's counters plus the off/on wall-clock ratio land in the JSON.
//
//   $ ./build/bench/throughput_concurrent [--n=N] [--queries=Q]
//       [--mix=40,10,40,10] [--threads-max=16] [--journal=on|off]
//       [--out=BENCH_mixed.json] [--smoke]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_prtree.h"
#include "io/file_block_device.h"
#include "rtree/journaled_tree.h"
#include "rtree/update.h"
#include "rtree/validate.h"
#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "io/block_device.h"
#include "io/buffer_pool.h"
#include "util/random.h"
#include "util/parallel.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

namespace {

struct SweepPoint {
  int threads;
  double seconds;
  QueryStats total;  // summed over the per-thread stats
};

SweepPoint RunSweep(const BuiltIndex& index, BufferPool* pool,
                    const std::vector<Rect2>& queries, int threads) {
  std::vector<QueryStats> per_thread(threads);
  Timer timer;
  ParallelForChunks(0, queries.size(), threads,
                    [&](int t, size_t lo, size_t hi) {
                      QueryStats local;
                      for (size_t i = lo; i < hi; ++i) {
                        local += index.tree->Query(queries[i],
                                                   [](const Record2&) {},
                                                   pool);
                      }
                      per_thread[t] = local;
                    });
  SweepPoint p{threads, timer.Seconds(), QueryStats{}};
  for (const auto& qs : per_thread) p.total += qs;
  return p;
}

bool SameStats(const QueryStats& a, const QueryStats& b) {
  return a.nodes_visited == b.nodes_visited &&
         a.internal_visited == b.internal_visited &&
         a.leaves_visited == b.leaves_visited && a.results == b.results;
}

int RunStaticSweep(const BenchOptions& opts, size_t n, size_t num_queries) {
  std::printf("=== Concurrent query throughput "
              "(PR-tree, Eastern TIGER-like, n=%zu, %zu x 1%% queries) ===\n",
              n, num_queries);
  auto data = workload::MakeTigerLike(n, workload::TigerRegion::kEastern,
                                      opts.seed);
  BuiltIndex index = BuildIndex(Variant::kPrTree, data);
  auto queries = workload::MakeSquareQueries(index.tree->Mbr(), 0.01,
                                             num_queries, opts.seed + 3);

  BufferPool pool(index.device.get(), index.tree_stats.num_nodes + 16);
  index.tree->CacheInternalNodes(&pool);
  std::printf("tree: %llu nodes (%llu leaves), pool: %zu frames over %zu "
              "shards, host: %d hardware threads\n",
              static_cast<unsigned long long>(index.tree_stats.num_nodes),
              static_cast<unsigned long long>(index.tree_stats.num_leaves),
              pool.capacity(), pool.num_shards(), HardwareThreads());

  // Warm pass: populates the leaf frames so every sweep measures the same
  // steady state, and records the single-thread reference totals.
  SweepPoint reference = RunSweep(index, &pool, queries, 1);

  TablePrinter table({"threads", "queries/s", "speedup", "leaves/query",
                      "stats == 1-thread"});
  double base_qps = 0;
  for (int threads : {1, 2, 4, 8}) {
    SweepPoint p = RunSweep(index, &pool, queries, threads);
    double qps = static_cast<double>(queries.size()) / p.seconds;
    if (threads == 1) base_qps = qps;
    table.AddRow({std::to_string(threads), TablePrinter::Fmt(qps, 0),
                  TablePrinter::Fmt(qps / base_qps, 2) + "x",
                  TablePrinter::Fmt(static_cast<double>(p.total.leaves_visited) /
                                        static_cast<double>(queries.size()),
                                    1),
                  SameStats(p.total, reference.total) ? "yes" : "NO"});
    if (!SameStats(p.total, reference.total)) {
      std::fprintf(stderr,
                   "FAIL: per-thread QueryStats at %d threads do not sum to "
                   "the single-thread totals\n",
                   threads);
      return 1;
    }
  }
  table.Print();
  std::printf("(per-thread QueryStats are private and exact; their sums match "
              "the single-thread run at every point of the sweep)\n");
  return 0;
}

// ---- mixed workload over the dynamic forest ----------------------------

enum class OpKind { kInsert, kDelete, kWindow, kKnn };

struct Op {
  OpKind kind;
  Record2 rec;       // insert/delete
  Rect2 window;      // window
  std::array<Real, 2> point;  // knn
};

struct Mix {
  int insert = 40;
  int del = 10;
  int window = 40;
  int knn = 10;
};

/// The deterministic op streams of one leg: `threads` disjoint sequences
/// (each thread inserts its own fresh ids and deletes its own slice of
/// the pre-populated records, so the final record set is independent of
/// interleaving).
std::vector<std::vector<Op>> MakeOpStreams(const Mix& mix, int threads,
                                           size_t ops_per_thread,
                                           const std::vector<Record2>& base,
                                           const Rect2& extent,
                                           uint64_t seed) {
  std::vector<std::vector<Op>> streams(threads);
  auto windows = workload::MakeSquareQueries(
      extent, 0.01, threads * ops_per_thread, seed + 11);
  Rng rng(seed + 17);
  DataId next_id = static_cast<DataId>(base.size());
  size_t next_del = 0;  // round-robins over the pre-populated records
  size_t next_win = 0;
  for (int t = 0; t < threads; ++t) {
    auto& stream = streams[t];
    stream.reserve(ops_per_thread);
    for (size_t i = 0; i < ops_per_thread; ++i) {
      int pick = static_cast<int>(rng.Uniform(0.0, 100.0));
      Op op;
      if (pick < mix.insert) {
        op.kind = OpKind::kInsert;
        double side = rng.Uniform(0.0, 0.01);
        double lo_x = rng.Uniform(0.0, 1.0 - side);
        double lo_y = rng.Uniform(0.0, 1.0 - side);
        op.rec = Record2{MakeRect(lo_x, lo_y, lo_x + side, lo_y + side),
                         next_id++};
      } else if (pick < mix.insert + mix.del && next_del < base.size()) {
        op.kind = OpKind::kDelete;
        op.rec = base[next_del++];
      } else if (pick < mix.insert + mix.del + mix.window ||
                 mix.knn == 0) {
        op.kind = OpKind::kWindow;
        op.window = windows[next_win++ % windows.size()];
      } else {
        op.kind = OpKind::kKnn;
        op.point = {rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
      }
      stream.push_back(op);
    }
  }
  return streams;
}

struct SerialCounters {
  uint64_t final_size = 0;
  uint64_t results = 0;      // window-query live results
  uint64_t leaves = 0;       // window-query leaf visits
  uint64_t knn_results = 0;
  bool operator==(const SerialCounters&) const = default;
};

/// Runs every stream back-to-back on one thread and totals the exact
/// counters — the deterministic reference the CI baseline gates on.
SerialCounters RunSerial(const std::vector<Record2>& base,
                         const std::vector<std::vector<Op>>& streams,
                         const DynamicPrTreeOptions& opts) {
  MemoryBlockDevice dev(4096);
  BufferPool pool(&dev, 4096);
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 22}, opts);
  index.AttachPool(&pool);
  for (const auto& rec : base) index.Insert(rec);
  SerialCounters c;
  for (const auto& stream : streams) {
    for (const auto& op : stream) {
      switch (op.kind) {
        case OpKind::kInsert:
          index.Insert(op.rec);
          break;
        case OpKind::kDelete:
          index.Delete(op.rec);
          break;
        case OpKind::kWindow: {
          QueryStats qs = index.Query(op.window, [](const Record2&) {},
                                      &pool);
          c.results += qs.results;
          c.leaves += qs.leaves_visited;
          break;
        }
        case OpKind::kKnn: {
          auto nn = index.Knn(op.point, 10, nullptr, &pool);
          c.knn_results += nn.size();
          break;
        }
      }
    }
  }
  c.final_size = index.size();
  return c;
}

struct MixedLeg {
  int threads = 0;
  size_t ops = 0;
  double seconds = 0;
  double window_p50_ms = 0;
  double window_p99_ms = 0;
  double knn_p50_ms = 0;
  double knn_p99_ms = 0;
  uint64_t final_size = 0;
  bool snapshot_frozen = true;
};

double PercentileMs(std::vector<double>* lat, double q) {
  if (lat->empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(lat->size() - 1));
  std::nth_element(lat->begin(), lat->begin() + idx, lat->end());
  return (*lat)[idx];
}

MixedLeg RunMixedLeg(const std::vector<Record2>& base,
                     const std::vector<std::vector<Op>>& streams,
                     const DynamicPrTreeOptions& opts) {
  MemoryBlockDevice dev(4096);
  BufferPool pool(&dev, 4096);
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 22}, opts);
  index.AttachPool(&pool);
  for (const auto& rec : base) index.Insert(rec);

  const int threads = static_cast<int>(streams.size());
  // Pin the pre-storm version: it must stay frozen through the whole leg.
  auto snap = index.Snapshot();
  const Rect2 probe = MakeRect(0.25, 0.25, 0.75, 0.75);
  std::vector<Record2> tmp;
  const QueryStats frozen =
      snap.Query(probe, [&](const Record2& r) { tmp.push_back(r); }, &pool);

  std::vector<std::vector<double>> win_lat(threads), knn_lat(threads);
  std::vector<std::thread> workers;
  Timer timer;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto& wl = win_lat[t];
      auto& kl = knn_lat[t];
      for (const auto& op : streams[t]) {
        switch (op.kind) {
          case OpKind::kInsert:
            index.Insert(op.rec);
            break;
          case OpKind::kDelete:
            index.Delete(op.rec);
            break;
          case OpKind::kWindow: {
            auto t0 = std::chrono::steady_clock::now();
            index.Query(op.window, [](const Record2&) {}, &pool);
            auto t1 = std::chrono::steady_clock::now();
            wl.push_back(
                std::chrono::duration<double, std::milli>(t1 - t0).count());
            break;
          }
          case OpKind::kKnn: {
            auto t0 = std::chrono::steady_clock::now();
            index.Knn(op.point, 10, nullptr, &pool);
            auto t1 = std::chrono::steady_clock::now();
            kl.push_back(
                std::chrono::duration<double, std::milli>(t1 - t0).count());
            break;
          }
        }
      }
    });
  }

  MixedLeg leg;
  leg.threads = threads;
  // While the storm runs, the pinned snapshot must keep answering with the
  // exact pre-storm counters.
  for (int round = 0; round < 8; ++round) {
    QueryStats qs = snap.Query(probe, [](const Record2&) {}, &pool);
    if (!SameStats(qs, frozen)) leg.snapshot_frozen = false;
  }
  for (auto& w : workers) w.join();
  leg.seconds = timer.Seconds();
  {
    QueryStats qs = snap.Query(probe, [](const Record2&) {}, &pool);
    if (!SameStats(qs, frozen)) leg.snapshot_frozen = false;
  }
  snap.Release();

  std::vector<double> all_win, all_knn;
  for (auto& v : win_lat) all_win.insert(all_win.end(), v.begin(), v.end());
  for (auto& v : knn_lat) all_knn.insert(all_knn.end(), v.begin(), v.end());
  for (const auto& s : streams) leg.ops += s.size();
  leg.window_p50_ms = PercentileMs(&all_win, 0.50);
  leg.window_p99_ms = PercentileMs(&all_win, 0.99);
  leg.knn_p50_ms = PercentileMs(&all_knn, 0.50);
  leg.knn_p99_ms = PercentileMs(&all_knn, 0.99);
  leg.final_size = index.size();
  return leg;
}

// ---- Journaled update leg (--journal=on) ---------------------------------
// One deterministic single-thread insert/delete stream run twice: through
// the plain in-place updater on a bare file device, and through the
// crash-consistent journaled stack (rtree/journaled_tree.h).  The §3.3
// demand counters must be byte-identical — journal traffic is meta-class
// only (docs/DURABILITY.md) — and that identity feeds "deterministic".
// The wall-clock ratio journal-off/journal-on is the one timing number
// exported (a same-machine ratio, gated with a floored baseline).

// Fills `leg` (the document's "journal" object) and returns whether the
// demand counters matched across the two runs.
bool RunJournalLeg(size_t n_ops, uint64_t seed, const std::string& scratch,
                   BenchJson* leg) {
  struct JOp {
    bool insert;
    Record2 rec;
  };
  std::vector<JOp> jops;
  jops.reserve(n_ops);
  {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> pos(0.0, 1.0);
    std::uniform_real_distribution<double> ext(0.0001, 0.002);
    uint32_t next = 1, oldest = 1;
    for (size_t i = 0; i < n_ops; ++i) {
      if (next - oldest > 8 && rng() % 4 == 0) {
        jops.push_back({false, Record2{MakeRect(0, 0, 0, 0), oldest}});
        ++oldest;
      } else {
        Rect2 r;
        r.lo = {pos(rng), pos(rng)};
        r.hi = {r.lo[0] + ext(rng), r.lo[1] + ext(rng)};
        jops.push_back({true, Record2{r, next}});
        ++next;
      }
    }
    // Deletes need the record's true rect; patch them in from the insert.
    std::vector<Rect2> rects(next);
    for (auto& op : jops) {
      if (op.insert) rects[op.rec.id] = op.rec.rect;
    }
    for (auto& op : jops) {
      if (!op.insert) op.rec.rect = rects[op.rec.id];
    }
  }

  // Journal OFF: plain in-place updates on a bare file device.
  const std::string off_path = scratch + ".off";
  IoStats off_stats;
  double off_seconds = 0;
  {
    FileDeviceOptions dopts;
    dopts.block_size = 4096;
    dopts.truncate = true;
    std::unique_ptr<FileBlockDevice> dev;
    AbortIfError(FileBlockDevice::Open(off_path, dopts, &dev));
    RTree<2> tree(dev.get());
    RTreeUpdater<2> updater(&tree);
    dev->ResetStats();
    Timer timer;
    for (const auto& op : jops) {
      if (op.insert) {
        updater.Insert(op.rec);
      } else {
        updater.Delete(op.rec);
      }
    }
    off_seconds = timer.Seconds();
    off_stats = dev->stats();
  }
  std::remove(off_path.c_str());

  // Journal ON: every op staged, committed and durable.
  bool identical = false;
  {
    JournaledTree<2>::Options topts;
    topts.device.block_size = 4096;
    std::unique_ptr<JournaledTree<2>> t;
    AbortIfError(JournaledTree<2>::Create(scratch, topts, &t));
    t->device()->ResetStats();
    Timer timer;
    for (const auto& op : jops) {
      if (op.insert) {
        AbortIfError(t->Insert(op.rec));
      } else {
        AbortIfError(t->Delete(op.rec));
      }
    }
    const double on_seconds = timer.Seconds();
    const IoStats on_stats = t->device()->stats();
    AbortIfError(ValidateTree(t->tree()));
    identical = on_stats.reads == off_stats.reads &&
                on_stats.writes == off_stats.writes &&
                off_stats.meta_writes == 0;
    BenchJson& j = *leg;
    j["ops"] = n_ops;
    j["final_size"] = t->tree().size();
    j["demand_reads"] = on_stats.reads;
    j["writes"] = on_stats.writes;
    j["meta_reads"] = on_stats.meta_reads;
    j["meta_writes"] = on_stats.meta_writes;
    j["committed"] = t->journal().committed_ops();
    j["journal_pages"] = t->journal().journal_pages();
    j["journal_speedup"] = on_seconds > 0 ? off_seconds / on_seconds : 0.0;
    j["seconds"] = on_seconds;
    j["deterministic"] = identical;
    std::printf("journal: %s", j.ToString().c_str());
  }
  std::remove(scratch.c_str());
  return identical;
}

int RunMixed(const BenchOptions& opts, const Mix& mix, size_t n,
             size_t ops_per_leg, int threads_max, bool journal,
             const std::string& out_path) {
  std::printf("\n=== Mixed workload over the dynamic forest "
              "(n=%zu, %zu ops/leg, mix %d%%ins/%d%%del/%d%%win/%d%%knn) "
              "===\n",
              n, ops_per_leg, mix.insert, mix.del, mix.window, mix.knn);
  auto base = workload::MakeTigerLike(n, workload::TigerRegion::kEastern,
                                      opts.seed);
  // MakeTigerLike ids are 0..n-1; insert ops continue from n.
  const Rect2 extent = MakeRect(0, 0, 1, 1);
  DynamicPrTreeOptions dopts;  // defaults: one block's worth of buffer

  std::vector<int> thread_counts;
  for (int t = 1; t <= threads_max; t *= 2) thread_counts.push_back(t);

  // Serial reference, run twice: the exact counters must reproduce.
  auto serial_streams = MakeOpStreams(mix, 1, ops_per_leg, base, extent,
                                      opts.seed);
  SerialCounters serial = RunSerial(base, serial_streams, dopts);
  bool deterministic = serial == RunSerial(base, serial_streams, dopts);
  std::printf("serial: final_size=%llu window_results=%llu "
              "window_leaves=%llu knn_results=%llu%s\n",
              static_cast<unsigned long long>(serial.final_size),
              static_cast<unsigned long long>(serial.results),
              static_cast<unsigned long long>(serial.leaves),
              static_cast<unsigned long long>(serial.knn_results),
              deterministic ? "" : "  [NOT REPRODUCIBLE]");

  TablePrinter table({"threads", "ops/s", "win p50 ms", "win p99 ms",
                      "knn p50 ms", "knn p99 ms", "snapshot frozen"});
  std::vector<MixedLeg> legs;
  for (int t : thread_counts) {
    size_t per_thread = ops_per_leg / static_cast<size_t>(t);
    auto streams = MakeOpStreams(mix, t, per_thread, base, extent,
                                 opts.seed + static_cast<uint64_t>(t));
    MixedLeg leg = RunMixedLeg(base, streams, dopts);
    // Disjoint per-thread id ranges: the final size is interleaving-free.
    MixedLeg ref;
    {
      SerialCounters sc = RunSerial(base, streams, dopts);
      ref.final_size = sc.final_size;
    }
    if (leg.final_size != ref.final_size) deterministic = false;
    if (!leg.snapshot_frozen) deterministic = false;
    table.AddRow(
        {std::to_string(t),
         TablePrinter::Fmt(static_cast<double>(leg.ops) / leg.seconds, 0),
         TablePrinter::Fmt(leg.window_p50_ms, 4),
         TablePrinter::Fmt(leg.window_p99_ms, 4),
         TablePrinter::Fmt(leg.knn_p50_ms, 4),
         TablePrinter::Fmt(leg.knn_p99_ms, 4),
         leg.snapshot_frozen ? "yes" : "NO"});
    legs.push_back(leg);
  }
  table.Print();

  BenchJson doc = BenchJson::Document("throughput_mixed");
  doc["n"] = n;
  doc["host_threads"] = HardwareThreads();
  doc["mix"]["insert"] = mix.insert;
  doc["mix"]["delete"] = mix.del;
  doc["mix"]["window"] = mix.window;
  doc["mix"]["knn"] = mix.knn;
  doc["serial"]["final_size"] = serial.final_size;
  doc["serial"]["results"] = serial.results;
  doc["serial"]["leaves"] = serial.leaves;
  doc["serial"]["knn_results"] = serial.knn_results;
  for (const MixedLeg& leg : legs) {
    BenchJson& j = doc["legs"].Push(BenchJson::Object());
    j["threads"] = leg.threads;
    j["ops"] = leg.ops;
    j["final_size"] = leg.final_size;
    j["seconds"] = leg.seconds;
    j["window_p50_ms"] = leg.window_p50_ms;
    j["window_p99_ms"] = leg.window_p99_ms;
    j["knn_p50_ms"] = leg.knn_p50_ms;
    j["knn_p99_ms"] = leg.knn_p99_ms;
  }
  if (journal &&
      !RunJournalLeg(ops_per_leg, opts.seed, out_path + ".journal.idx",
                     &doc["journal"])) {
    deterministic = false;
  }
  return WriteGated(&doc, out_path, deterministic,
                    "mixed-workload determinism (serial reproduction, "
                    "interleaving-free final sizes, frozen snapshot, "
                    "journal demand counters)");
}

}  // namespace

int main(int argc, char** argv) {
  // Pull out this bench's own flags; everything else goes to the shared
  // parser (--n, --queries, --seed, --scale, ...).
  bool smoke = false;
  bool journal = false;
  bool mix_given = false;
  Mix mix;
  int threads_max = 16;
  std::string out_path = "BENCH_mixed.json";
  const std::string usage =
      std::string(argv[0]) +
      " [--mix=insert,delete,window,knn] [--threads-max=T] "
      "[--journal=on|off] [--out=PATH] [--smoke] (plus the shared "
      "--n/--queries/--seed/--scale flags)";
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    char* arg = argv[i];
    const char* value = nullptr;
    if (std::strncmp(arg, "--mix=", 6) == 0) {
      mix_given = true;
      if (std::sscanf(arg + 6, "%d,%d,%d,%d", &mix.insert, &mix.del,
                      &mix.window, &mix.knn) != 4 ||
          mix.insert + mix.del + mix.window + mix.knn != 100 ||
          mix.insert < 0 || mix.del < 0 || mix.window < 0 || mix.knn < 0) {
        std::fprintf(stderr,
                     "--mix takes four non-negative percentages summing to "
                     "100: --mix=insert,delete,window,knn\n");
        return 2;
      }
    } else if ((value = FlagValue(arg, "--out=")) != nullptr) {
      out_path = value;
    } else if (NumberFlag(arg, "--threads-max=", &threads_max, usage)) {
      if (threads_max > 64) UsageExit("out of [1, 64]:", arg, usage);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(arg, "--journal=on") == 0) {
      journal = true;
    } else if (std::strcmp(arg, "--journal=off") == 0) {
      journal = false;
    } else {
      rest.push_back(arg);
    }
  }
  BenchOptions opts = ParseBenchFlags(static_cast<int>(rest.size()),
                                      rest.data(), /*default_n=*/300000);
  size_t n = opts.ScaledN();
  size_t num_queries = opts.queries_set ? opts.queries : 4000;
  size_t ops_per_leg = opts.queries_set ? opts.queries : 20000;
  if (smoke) {
    n = 5000;
    num_queries = 500;
    ops_per_leg = 2000;
    threads_max = std::min(threads_max, 2);
    if (!mix_given) mix_given = true;  // smoke always runs the mixed leg
  }

  int rc = RunStaticSweep(opts, n, num_queries);
  if (rc != 0) return rc;
  if (mix_given) {
    rc = RunMixed(opts, mix, smoke ? n : n / 10, ops_per_leg, threads_max,
                  journal, out_path);
  }
  return rc;
}
