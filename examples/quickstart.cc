// Quickstart: bulk-load a PR-tree and run window queries.
//
//   $ ./build/examples/quickstart                    # in-memory device
//   $ ./build/examples/quickstart --device=file      # real disk file
//   $ ./build/examples/quickstart --device=file --path=/tmp/my.prtree
//   $ ./build/examples/quickstart --device=uring     # io_uring-batched reads
//
// Walks through the minimal public API: a block device (in-memory,
// file-backed or io_uring-backed — everything above it is identical,
// including the reported I/O counts), the unified BulkLoader construction
// entry point, and RTree::Query.  With --device=file or --device=uring the
// index lives in a real file, which the example then reopens in place —
// the persistence path an embedding application uses across process
// restarts.  With the memory device it saves the index to a device file
// of the same format and loads it back (SaveTree/LoadTree).
// (--device=uring falls back to plain file I/O transparently on kernels
// without io_uring; the output is identical either way.)

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "io/block_device.h"
#include "io/file_block_device.h"
#include "io/uring_block_device.h"
#include "rtree/bulk_loader.h"
#include "rtree/knn.h"
#include "rtree/persist.h"
#include "rtree/rtree.h"
#include "util/random.h"

using namespace prtree;  // NOLINT

int main(int argc, char** argv) {
  std::string device_kind = "memory";
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--device=", 9) == 0) {
      device_kind = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--path=", 7) == 0) {
      path = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--device=memory|file|uring] [--path=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (device_kind != "memory" && device_kind != "file" &&
      device_kind != "uring") {
    std::fprintf(stderr, "--device must be memory, file or uring\n");
    return 2;
  }
  const bool file_backed = device_kind != "memory";

  // 1. A "disk" of 4 KB blocks.  All index I/O is counted on it.  The
  //    memory backend is a deterministic simulation; the file backend maps
  //    the same pages onto a real file via pread/pwrite.
  bool remove_file = false;
  std::unique_ptr<BlockDevice> device;
  FileBlockDevice* file_device = nullptr;  // set when file-backed
  if (file_backed) {
    if (path.empty()) {
      path = "/tmp/prtree_quickstart." +
             std::to_string(static_cast<long>(getpid())) + ".dev";
      remove_file = true;  // example-managed temp file
    }
    FileDeviceOptions fopts;
    fopts.truncate = true;
    std::unique_ptr<FileBlockDevice> file;
    AbortIfError(OpenFileBackedDevice(device_kind, path, fopts, &file));
    if (auto* uring = dynamic_cast<UringBlockDevice*>(file.get())) {
      std::printf("uring device: %s\n", uring->ring_active()
                                            ? "io_uring active"
                                            : "pread fallback");
    }
    file_device = file.get();
    device = std::move(file);
  } else {
    device = std::make_unique<MemoryBlockDevice>();
  }

  // 2. One million random rectangles.  Each record is a bounding box plus
  //    a 32-bit id pointing back at your object.
  Rng rng(42);
  std::vector<Record2> boxes;
  for (DataId id = 0; id < 1000000; ++id) {
    double x = rng.Uniform(0, 1), y = rng.Uniform(0, 1);
    double w = rng.Uniform(0, 0.001), h = rng.Uniform(0, 0.001);
    boxes.push_back(Record2{MakeRect(x, y, x + w, y + h), id});
  }

  // 3. Bulk-load the PR-tree through the unified BulkLoader API (the same
  //    call builds Hilbert/TGS/STR — pick a LoaderKind).  memory_bytes
  //    caps the loader's working memory — the algorithm is external: it
  //    works for data far larger than RAM, and on the file backend the
  //    blocks genuinely live on disk.  threads > 1 parallelises the build
  //    and produces the byte-identical tree on either backend.
  RTree<2> index(device.get());
  BuildOptions opts;
  opts.memory_bytes = 16u << 20;
  opts.threads = HardwareThreads();
  auto loader = MakeBulkLoader<2>(LoaderKind::kPrTree, opts);
  AbortIfError(loader->Build(device.get(), boxes, &index));
  std::printf("built PR-tree: %zu records, height %d, %llu nodes, "
              "%.1f%% space utilisation\n",
              index.size(), index.height(),
              static_cast<unsigned long long>(
                  index.ComputeStats().num_nodes),
              100 * index.ComputeStats().utilization);

  // 4. Window query: report everything intersecting a rectangle.  The
  //    result set and the leaf-I/O count are identical on both backends.
  Rect2 window = MakeRect(0.25, 0.25, 0.26, 0.26);
  size_t hits = 0;
  QueryStats stats = index.Query(window, [&](const Record2& rec) {
    ++hits;
    if (hits <= 3) {
      std::printf("  hit id=%u box=%s\n", rec.id, rec.rect.ToString().c_str());
    }
  });
  std::printf("window %s -> %llu results, %llu leaf blocks read\n",
              window.ToString().c_str(),
              static_cast<unsigned long long>(stats.results),
              static_cast<unsigned long long>(stats.leaves_visited));

  // 5. The worst-case guarantee: even a query with zero results reads only
  //    O(sqrt(N/B)) blocks.
  Rect2 empty_window = MakeRect(2.0, 2.0, 3.0, 3.0);
  QueryStats empty_stats = index.Query(empty_window, [](const Record2&) {});
  std::printf("empty window -> %llu results, %llu blocks read "
              "(tree has %llu leaves)\n",
              static_cast<unsigned long long>(empty_stats.results),
              static_cast<unsigned long long>(empty_stats.nodes_visited),
              static_cast<unsigned long long>(
                  index.ComputeStats().num_leaves));

  // 6. k-nearest-neighbour search (best-first, provably minimal visits).
  auto nearest = KnnSearch<2>(index, {0.7, 0.3}, 3);
  std::printf("3 nearest to (0.7, 0.3):\n");
  for (const auto& nb : nearest) {
    std::printf("  id=%u dist=%.6f\n", nb.record.id, nb.distance);
  }

  // 7. Persistence.
  if (file_backed) {
    // The device file IS the index: record the root in its superblock,
    // sync, drop every in-memory handle, then reopen from the path alone —
    // exactly what an application does across process restarts.
    AbortIfError(PersistTree(index, file_device));
    device.reset();
    std::unique_ptr<FileBlockDevice> reopened;
    FileDeviceOptions ropts;
    ropts.must_exist = true;
    AbortIfError(FileBlockDevice::Open(path, ropts, &reopened));
    RTree<2> again(reopened.get());
    AbortIfError(AttachTree(reopened.get(), &again));
    size_t rehits = 0;
    again.Query(window, [&](const Record2&) { ++rehits; });
    std::printf("snapshot round-trip: reloaded %zu records, height %d\n",
                again.size(), again.height());
    if (rehits != hits) {
      std::fprintf(stderr, "reopen mismatch: %zu vs %zu hits\n", rehits,
                   hits);
      return 1;
    }
    if (remove_file) std::remove(path.c_str());
  } else {
    // In-memory device: save the index to a device file, which any
    // device can load (or reopen in place).  PID-qualified so concurrent
    // runs (e.g. two ctest invocations on one machine) cannot clobber
    // each other's file.
    std::string snap = "/tmp/prtree_quickstart." +
                       std::to_string(static_cast<long>(getpid())) + ".prt";
    AbortIfError(SaveTree(index, snap));
    MemoryBlockDevice device2;
    RTree<2> reloaded(&device2);
    AbortIfError(LoadTree(snap, &reloaded));
    std::printf("snapshot round-trip: reloaded %zu records, height %d\n",
                reloaded.size(), reloaded.height());
    std::remove(snap.c_str());
  }
  return 0;
}
