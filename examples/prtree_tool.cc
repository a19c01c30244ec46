// prtree_tool: a small command-line workbench over the public API —
// generate datasets, bulk-load any index variant, save it, reload it and
// run queries.  The kind of utility an adopting project uses to poke at
// its data before writing code.
//
//   prtree_tool gen --family=size --n=100000 --out=data.csv
//   prtree_tool build --data=data.csv --variant=pr --index=map.prt
//   prtree_tool query --index=map.prt --window=0.1,0.1,0.3,0.3
//   prtree_tool knn   --index=map.prt --point=0.5,0.5 --k=10
//   prtree_tool stats --index=map.prt
//
// The index file is always a FileBlockDevice file with the root recorded
// in its superblock, so any --device opens an index built with any other.
// All index commands take --device=memory|file|uring (default memory):
//  * memory — build runs on an in-memory device and copies the tree into
//    the index file (SaveTree); query/knn/stats copy it back into memory
//    (LoadTree);
//  * file / uring — build writes the tree straight into the index file and
//    records the root (PersistTree); query/knn/stats reopen it in place
//    (AttachTree) without copying a single page.  This is the out-of-core
//    path: the index may exceed RAM.
//
// Dataset CSV format: one rectangle per line, "xmin,ymin,xmax,ymax,id".

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/file_block_device.h"
#include "io/uring_block_device.h"
#include "rtree/bulk_loader.h"
#include "rtree/journaled_tree.h"
#include "rtree/knn.h"
#include "rtree/persist.h"
#include "rtree/update.h"
#include "rtree/validate.h"
#include "workload/datasets.h"

using namespace prtree;  // NOLINT

namespace {

[[noreturn]] void Usage() {
  std::fprintf(
      stderr,
      "usage: prtree_tool <command> [flags]\n"
      "  gen    --family=size|aspect|skewed|cluster|tiger --n=N "
      "[--param=P] [--seed=S] --out=FILE\n"
      "  build  --data=FILE --variant=pr|h|h4|tgs|str --index=FILE "
      "[--memory-mb=M] [--threads=T] [--device=memory|file|uring]\n"
      "  query  --index=FILE --window=xmin,ymin,xmax,ymax "
      "[--device=memory|file|uring]\n"
      "  knn    --index=FILE --point=x,y [--k=K] "
      "[--device=memory|file|uring]\n"
      "  stats  --index=FILE [--device=memory|file|uring]\n"
      "  update --index=FILE [--data=FILE] [--op=insert|delete] "
      "[--journal=on|off]\n         [--device=file|uring]\n"
      "The index file is a block device file under every --device: "
      "--device=memory\ncopies it into memory, --device=file operates on "
      "it in place, and\n--device=uring is the file backend with "
      "io_uring-batched reads (pread\nfallback when unavailable).\n"
      "update applies the CSV's records to a file-backed index in place.  "
      "With\n--journal=on (the default) every op commits through the "
      "crash-consistent\nupdate journal and opening the index first runs "
      "recovery — invoke update\nwithout --data to just recover and "
      "checkpoint after a crash (docs/DURABILITY.md).\n");
  std::exit(2);
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) Usage();
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) Usage();
    flags[std::string(arg + 2, eq)] = eq + 1;
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// Parses exactly `expect` comma-separated numbers.  Each field must be a
// number strtod consumes whole (not NaN, which no query can order by),
// followed by ',' or (after the last field) the end of the string;
// anything else exits with status 2.
std::vector<double> ParseDoubles(const std::string& csv, size_t expect) {
  std::vector<double> out;
  const char* p = csv.c_str();
  bool ok = true;
  while (ok && out.size() < expect) {
    char* end = nullptr;
    out.push_back(std::strtod(p, &end));
    ok = end != p && !std::isnan(out.back()) &&
         *end == (out.size() < expect ? ',' : '\0');
    p = end + 1;
  }
  if (!ok || out.size() != expect) {
    std::fprintf(stderr, "expected %zu comma-separated numbers in '%s'\n",
                 expect, csv.c_str());
    std::exit(2);
  }
  return out;
}

// Parses a decimal integer >= 1 with nothing after it; anything else
// (empty, signed, non-numeric, trailing junk, out of range) exits with
// status 2.
size_t ParsePositive(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno == ERANGE || v == 0) {
    std::fprintf(stderr, "expected a positive integer, got '%s'\n",
                 text.c_str());
    std::exit(2);
  }
  return static_cast<size_t>(v);
}

int CmdGen(const std::map<std::string, std::string>& flags) {
  std::string family = FlagOr(flags, "family", "size");
  size_t n = std::strtoull(FlagOr(flags, "n", "100000").c_str(), nullptr, 10);
  double param = std::strtod(FlagOr(flags, "param", "0").c_str(), nullptr);
  uint64_t seed =
      std::strtoull(FlagOr(flags, "seed", "1").c_str(), nullptr, 10);
  std::string out_path = FlagOr(flags, "out", "");
  if (out_path.empty()) Usage();

  std::vector<Record2> data;
  if (family == "size") {
    data = workload::MakeSize(n, param > 0 ? param : 0.01, seed);
  } else if (family == "aspect") {
    data = workload::MakeAspect(n, param > 0 ? param : 100, seed);
  } else if (family == "skewed") {
    data = workload::MakeSkewed(n, param > 0 ? static_cast<int>(param) : 5,
                                seed);
  } else if (family == "cluster") {
    size_t clusters = std::max<size_t>(10, n / 200);
    data = workload::MakeCluster(clusters, n / clusters, seed);
  } else if (family == "tiger") {
    data = workload::MakeTigerLike(n, workload::TigerRegion::kEastern, seed);
  } else {
    Usage();
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  for (const auto& rec : data) {
    std::fprintf(f, "%.17g,%.17g,%.17g,%.17g,%u\n", rec.rect.lo[0],
                 rec.rect.lo[1], rec.rect.hi[0], rec.rect.hi[1], rec.id);
  }
  std::fclose(f);
  std::printf("wrote %zu rectangles to %s\n", data.size(), out_path.c_str());
  return 0;
}

std::vector<Record2> ReadCsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<Record2> data;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    double xmin, ymin, xmax, ymax;
    unsigned id;
    if (std::sscanf(line, "%lf,%lf,%lf,%lf,%u", &xmin, &ymin, &xmax, &ymax,
                    &id) == 5) {
      data.push_back(Record2{MakeRect(xmin, ymin, xmax, ymax), id});
    }
  }
  std::fclose(f);
  return data;
}

std::string DeviceKindOrDie(const std::map<std::string, std::string>& flags) {
  std::string kind = FlagOr(flags, "device", "memory");
  if (kind != "memory" && kind != "file" && kind != "uring") Usage();
  return kind;
}


int CmdBuild(const std::map<std::string, std::string>& flags) {
  std::string data_path = FlagOr(flags, "data", "");
  std::string index_path = FlagOr(flags, "index", "");
  std::string variant = FlagOr(flags, "variant", "pr");
  std::string device_kind = DeviceKindOrDie(flags);
  size_t memory_mb =
      std::strtoull(FlagOr(flags, "memory-mb", "64").c_str(), nullptr, 10);
  int threads = static_cast<int>(
      std::strtol(FlagOr(flags, "threads", "1").c_str(), nullptr, 10));
  if (data_path.empty() || index_path.empty()) Usage();

  auto data = ReadCsv(data_path);
  std::printf("loaded %zu rectangles from %s\n", data.size(),
              data_path.c_str());
  std::unique_ptr<BlockDevice> device;
  FileBlockDevice* file_device = nullptr;  // set when file-backed
  if (device_kind != "memory") {
    // The index file is the device: the tree is built straight into it.
    FileDeviceOptions fopts;
    fopts.truncate = true;
    std::unique_ptr<FileBlockDevice> file;
    Status st = OpenFileBackedDevice(device_kind, index_path, fopts, &file);
    if (!st.ok()) {
      std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
      return 1;
    }
    file_device = file.get();
    device = std::move(file);
  } else {
    device = std::make_unique<MemoryBlockDevice>();
  }
  RTree<2> tree(device.get());
  LoaderKind kind;
  if (!ParseLoaderKind(variant, &kind)) Usage();
  BuildOptions opts;
  opts.memory_bytes = memory_mb << 20;
  opts.threads = threads < 1 ? 1 : threads;
  Status st = MakeBulkLoader<2>(kind, opts)->Build(device.get(), data, &tree);
  if (!st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const IoStats build_io = device->stats();  // before the save reads pages
  st = file_device != nullptr ? PersistTree(tree, file_device)
                              : SaveTree(tree, index_path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  TreeStats ts = tree.ComputeStats();
  std::printf(
      "built %s index: %zu records, height %d, %llu nodes, %.1f%% "
      "utilisation, %llu build I/Os -> %s\n",
      variant.c_str(), tree.size(), tree.height(),
      static_cast<unsigned long long>(ts.num_nodes), 100 * ts.utilization,
      static_cast<unsigned long long>(build_io.Total()),
      index_path.c_str());
  return 0;
}

/// An opened index: the device keeps the pages alive, the tree points at
/// the root.  Memory kind loads a copy; file and uring reopen in place.
struct IndexHandle {
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<RTree<2>> tree;
};

IndexHandle OpenIndexOrDie(const std::map<std::string, std::string>& flags) {
  std::string path = FlagOr(flags, "index", "");
  if (path.empty()) Usage();
  IndexHandle h;
  Status st;
  std::string device_kind = DeviceKindOrDie(flags);
  if (device_kind != "memory") {
    FileDeviceOptions fopts;
    fopts.must_exist = true;  // a typo must not create a stray device file
    std::unique_ptr<FileBlockDevice> file;
    st = OpenFileBackedDevice(device_kind, path, fopts, &file);
    if (st.ok()) {
      h.tree = std::make_unique<RTree<2>>(file.get());
      st = AttachTree(file.get(), h.tree.get());
    }
    h.device = std::move(file);
  } else {
    h.device = std::make_unique<MemoryBlockDevice>();
    h.tree = std::make_unique<RTree<2>>(h.device.get());
    st = LoadTree(path, h.tree.get());
  }
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return h;
}

int CmdQuery(const std::map<std::string, std::string>& flags) {
  std::string index_path = FlagOr(flags, "index", "");
  std::string window = FlagOr(flags, "window", "");
  if (index_path.empty() || window.empty()) Usage();
  auto c = ParseDoubles(window, 4);

  IndexHandle h = OpenIndexOrDie(flags);
  RTree<2>& tree = *h.tree;
  Rect2 w = MakeRect(c[0], c[1], c[2], c[3]);
  size_t shown = 0;
  QueryStats qs = tree.Query(w, [&](const Record2& rec) {
    if (shown < 20) {
      std::printf("  id=%u %s\n", rec.id, rec.rect.ToString().c_str());
    } else if (shown == 20) {
      std::printf("  ...\n");
    }
    ++shown;
  });
  std::printf("%llu results, %llu nodes visited (%llu leaves)\n",
              static_cast<unsigned long long>(qs.results),
              static_cast<unsigned long long>(qs.nodes_visited),
              static_cast<unsigned long long>(qs.leaves_visited));
  return 0;
}

int CmdKnn(const std::map<std::string, std::string>& flags) {
  std::string index_path = FlagOr(flags, "index", "");
  std::string point = FlagOr(flags, "point", "");
  if (index_path.empty() || point.empty()) Usage();
  size_t k = ParsePositive(FlagOr(flags, "k", "10"));
  auto c = ParseDoubles(point, 2);

  IndexHandle h = OpenIndexOrDie(flags);
  RTree<2>& tree = *h.tree;
  QueryStats qs;
  auto neighbors = KnnSearch<2>(tree, {c[0], c[1]}, k, &qs);
  for (const auto& nb : neighbors) {
    std::printf("  id=%u dist=%.9g %s\n", nb.record.id, nb.distance,
                nb.record.rect.ToString().c_str());
  }
  std::printf("%zu neighbours, %llu nodes visited\n", neighbors.size(),
              static_cast<unsigned long long>(qs.nodes_visited));
  return 0;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  IndexHandle h = OpenIndexOrDie(flags);
  RTree<2>& tree = *h.tree;
  // Validate first: the stats walk trusts what validation checks (a
  // damaged node aborts it), so a failed index only gets the verdict.
  Status st = ValidateTree(tree);
  if (!st.ok()) {
    std::printf("validation:    %s\n", st.ToString().c_str());
    return 1;
  }
  TreeStats ts = tree.ComputeStats();
  std::printf("records:       %zu\n", tree.size());
  std::printf("height:        %d\n", tree.height());
  std::printf("nodes:         %llu (%llu leaves)\n",
              static_cast<unsigned long long>(ts.num_nodes),
              static_cast<unsigned long long>(ts.num_leaves));
  std::printf("fan-out:       %zu\n", tree.capacity());
  std::printf("utilisation:   %.2f%%\n", 100 * ts.utilization);
  std::printf("mbr:           %s\n", tree.Mbr().ToString().c_str());
  std::printf("validation:    %s\n", st.ToString().c_str());
  for (size_t lvl = 0; lvl < ts.nodes_per_level.size(); ++lvl) {
    std::printf("  level %zu: %llu nodes\n", lvl,
                static_cast<unsigned long long>(ts.nodes_per_level[lvl]));
  }
  return 0;
}

int CmdUpdate(const std::map<std::string, std::string>& flags) {
  std::string index_path = FlagOr(flags, "index", "");
  std::string data_path = FlagOr(flags, "data", "");
  std::string op = FlagOr(flags, "op", "insert");
  std::string journal = FlagOr(flags, "journal", "on");
  std::string device_kind = FlagOr(flags, "device", "file");
  if (index_path.empty() || (op != "insert" && op != "delete") ||
      (journal != "on" && journal != "off") ||
      (device_kind != "file" && device_kind != "uring")) {
    Usage();
  }
  std::vector<Record2> data;
  if (!data_path.empty()) data = ReadCsv(data_path);

  if (journal == "on") {
    JournaledTree<2>::Options opts;
    opts.backend = device_kind;
    std::unique_ptr<JournaledTree<2>> t;
    JournaledTree<2>::RecoveryReport rep;
    Status st = JournaledTree<2>::Open(index_path, opts, &t, &rep);
    if (!st.ok()) {
      std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (rep.recovered) {
      std::printf("recovered: %llu committed ops honoured, %zu pages swept\n",
                  static_cast<unsigned long long>(rep.committed_ops),
                  rep.swept_pages);
    }
    size_t applied = 0;
    for (const auto& rec : data) {
      st = op == "insert" ? t->Insert(rec) : t->Delete(rec);
      if (!st.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", op.c_str(),
                     st.ToString().c_str());
        return 1;
      }
      ++applied;
    }
    std::printf("%zu journaled %ss -> %s (%zu records, %llu meta writes)\n",
                applied, op.c_str(), index_path.c_str(), t->tree().size(),
                static_cast<unsigned long long>(
                    t->device()->stats().meta_writes));
    return 0;  // destructor checkpoints: clean close
  }

  // Journal off: plain in-place updates, durable only via PersistTree.
  FileDeviceOptions fopts;
  fopts.must_exist = true;
  std::unique_ptr<FileBlockDevice> device;
  Status st = OpenFileBackedDevice(device_kind, index_path, fopts, &device);
  if (!st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    return 1;
  }
  FileBlockDevice* dev = device.get();
  RTree<2> tree(dev);
  st = AttachTree(dev, &tree);
  if (!st.ok()) {
    std::fprintf(stderr, "attach failed: %s\n", st.ToString().c_str());
    return 1;
  }
  RTreeUpdater<2> updater(&tree);
  for (const auto& rec : data) {
    if (op == "insert") {
      updater.Insert(rec);
    } else {
      updater.Delete(rec);
    }
  }
  st = PersistTree(tree, dev);
  if (!st.ok()) {
    std::fprintf(stderr, "persist failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%zu in-place %ss -> %s (%zu records)\n", data.size(),
              op.c_str(), index_path.c_str(), tree.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  std::string cmd = argv[1];
  auto flags = ParseFlags(argc, argv);
  if (cmd == "gen") return CmdGen(flags);
  if (cmd == "build") return CmdBuild(flags);
  if (cmd == "query") return CmdQuery(flags);
  if (cmd == "knn") return CmdKnn(flags);
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "update") return CmdUpdate(flags);
  Usage();
}
