// Ablation: disk block size (§3.1).
//
// The paper fixes 4 KB blocks (fan-out 113), noting earlier studies use
// 1 KB-4 KB.  This bench sweeps the block size and reports PR-tree build
// I/O, query I/O and the fan-out, showing how B enters the
// O(sqrt(N/B) + T/B) bound.

#include <cstdio>

#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "io/buffer_pool.h"
#include "rtree/bulk_loader.h"
#include "util/table_printer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/200000);
  size_t n = opts.ScaledN();
  std::printf("=== Ablation: block size sweep (PR-tree, SIZE(0.01), "
              "n=%zu) ===\n", n);
  auto data = workload::MakeSize(n, 0.01, opts.seed);

  FigureJson json("ablation_block_size");
  AddBenchParams(opts, n, &json);
  FigureJson::Table* jt = json.AddTable(
      "block_size", {"block_size", "fanout", "build_io", "leaves_per_query",
                     "pct_of_optimal"});

  TablePrinter table({"block size", "fan-out B", "build I/Os",
                      "leaves/query", "%T/B"});
  auto loader = MakeBulkLoader(LoaderKind::kPrTree,
                               {.memory_bytes = ScaledMemoryBudget(n)});
  for (size_t block : {size_t{1024}, size_t{2048}, size_t{4096},
                       size_t{8192}, size_t{16384}}) {
    // --device forwards here too: the block size is the sweep variable, so
    // the device is opened by hand rather than through BuildIndex.
    std::unique_ptr<BlockDevice> dev = OpenDeviceOrDie(opts.device, block);
    RTree<2> tree(dev.get());
    Stream<Record2> input(dev.get());
    input.Append(data);
    input.Flush();
    dev->ResetStats();
    AbortIfError(loader->Build(dev.get(), &input, &tree));
    uint64_t build_io = dev->stats().Total();
    TreeStats ts = tree.ComputeStats();

    auto queries = workload::MakeSquareQueries(tree.Mbr(), 0.01,
                                               opts.queries, opts.seed + 17);
    BufferPool pool(dev.get(), ts.num_nodes + 16);
    tree.CacheInternalNodes(&pool);
    uint64_t leaves = 0, results = 0;
    for (const auto& q : queries) {
      QueryStats qs = tree.Query(q, [](const Record2&) {}, &pool);
      leaves += qs.leaves_visited;
      results += qs.results;
    }
    double pct = 100.0 * static_cast<double>(leaves) /
                 (static_cast<double>(results) /
                  static_cast<double>(tree.capacity()));
    table.AddRow({TablePrinter::FmtCount(block),
                  TablePrinter::FmtCount(tree.capacity()),
                  TablePrinter::FmtCount(build_io),
                  TablePrinter::Fmt(static_cast<double>(leaves) /
                                        static_cast<double>(queries.size()),
                                    1),
                  TablePrinter::Fmt(pct, 1) + "%"});
    jt->AddRow({static_cast<unsigned long long>(block),
                static_cast<unsigned long long>(tree.capacity()),
                static_cast<unsigned long long>(build_io),
                static_cast<double>(leaves) /
                    static_cast<double>(queries.size()),
                pct});
  }
  table.Print();
  std::printf("(expected: larger blocks -> fewer, larger leaves; build and "
              "query I/O both scale ~1/B)\n");
  json.WriteFile(opts.json_path);
  return 0;
}
