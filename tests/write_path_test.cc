// End-to-end write path: WriteStager batching threaded through Stream,
// the external sorter and the bulk loaders.
//
// The contract under test is byte-identity: a build that stages node and
// run emissions into WriteBatch() submissions must produce exactly the
// device file a scalar-write build produces — same bytes, same allocation
// order, same demand counters — for any engine (uring ring, pread/pwrite
// fallback, plain file backend) and any thread count.  Batching may only
// change wall-clock and the audit-only write_batches counter; the thread
// count changes neither the bytes nor any counter.  Only a uring device
// opened with O_DIRECT requested stages, so OpenUring() requests it (the
// filesystem may still refuse it: staging follows the request); a
// buffered uring device writes exactly as the file device does.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/pseudo_prtree.h"
#include "io/external_sort.h"
#include "io/file_block_device.h"
#include "io/stream.h"
#include "io/uring_block_device.h"
#include "io/write_stager.h"
#include "rtree/bulk_loader.h"
#include "tests/test_util.h"

namespace prtree {
namespace {

std::string TestPath(const std::string& tag) {
  return ::testing::TempDir() + "/prtree_writepath_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "." + tag + "." + std::to_string(static_cast<long>(getpid())) +
         ".dev";
}

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

std::unique_ptr<UringBlockDevice> OpenUring(const std::string& path,
                                            size_t block_size = 512) {
  UringDeviceOptions opts;
  opts.file.block_size = block_size;
  opts.file.truncate = true;
  opts.file.direct_io = true;
  std::unique_ptr<UringBlockDevice> dev;
  AbortIfError(UringBlockDevice::Open(path, opts, &dev));
  return dev;
}

void ExpectSameStats(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.prefetch_reads, b.prefetch_reads);
  EXPECT_EQ(a.write_batches, b.write_batches);
  EXPECT_EQ(a.meta_reads, b.meta_reads);
  EXPECT_EQ(a.meta_writes, b.meta_writes);
}

struct SortRec {
  uint64_t key;
  uint32_t payload;
};

TEST(WritePathTest, StagerDrainsInAllocationOrder) {
  // Pages staged in allocation order land with their own bytes: the drain
  // must not permute the (page, buffer) pairing even when the batch spans
  // multiple ring chunks.
  std::string path = TestPath("order");
  std::remove(path.c_str());
  {
    auto dev = OpenUring(path);
    const int kPages = 40;
    std::vector<std::byte> buf(512);
    std::vector<PageId> pages;
    {
      WriteStager stager(dev.get());
      for (int i = 0; i < kPages; ++i) {
        PageId p = dev->Allocate();
        std::memset(buf.data(), 1 + i, 512);
        stager.Stage(p, buf.data());
        pages.push_back(p);
      }
    }
    std::vector<std::byte> r(512);
    for (int i = 0; i < kPages; ++i) {
      ASSERT_TRUE(dev->Read(pages[i], r.data()).ok());
      EXPECT_EQ(r[0], static_cast<std::byte>(1 + i)) << i;
    }
  }
  std::remove(path.c_str());
}

TEST(WritePathTest, StreamWritesAreBatchedOnUringDevice) {
  std::string path = TestPath("stream");
  std::remove(path.c_str());
  {
    auto dev = OpenUring(path);
    std::vector<SortRec> data;
    for (uint32_t i = 0; i < 5000; ++i) {
      data.push_back(SortRec{static_cast<uint64_t>(i) * 7919u % 5000u, i});
    }
    dev->ResetStats();
    Stream<SortRec> s(dev.get());
    s.Append(data);
    s.Flush();
    // Every full block costs exactly one demand write, batched or not.
    EXPECT_EQ(dev->stats().writes, static_cast<uint64_t>(s.num_blocks()));
    // PreferredWriteBatch() > 1 with O_DIRECT requested, regardless of ring
    // availability, so the emission went through WriteBatch submissions.
    EXPECT_GT(dev->PreferredWriteBatch(), 1u);
    EXPECT_GT(dev->stats().write_batches, 0u);
    EXPECT_LT(dev->stats().write_batches, dev->stats().writes);

    std::vector<SortRec> out;
    s.ReadAll(&out);
    ASSERT_EQ(out.size(), data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(out[i].key, data[i].key);
      EXPECT_EQ(out[i].payload, data[i].payload);
    }
  }
  std::remove(path.c_str());
}

TEST(WritePathTest, ExternalSortParityFileVsUring) {
  // The sorter's runs and merge output go through staged batches on the
  // uring backend and scalar writes on the file backend — same sorted
  // output, same demand reads and writes.
  std::vector<SortRec> data;
  for (uint32_t i = 0; i < 20000; ++i) {
    data.push_back(SortRec{static_cast<uint64_t>((i * 48271u) % 20000u), i});
  }
  auto less = [](const SortRec& a, const SortRec& b) {
    return a.key != b.key ? a.key < b.key : a.payload < b.payload;
  };

  auto run = [&](BlockDevice* dev) {
    WorkEnv env{dev, /*memory_bytes=*/1u << 14};
    Stream<SortRec> sorted = ExternalSortVector(env, data, less);
    std::vector<SortRec> out;
    sorted.ReadAll(&out);
    return std::make_tuple(out.size(), out.front().key, out.back().key,
                           dev->stats().reads, dev->stats().writes);
  };

  std::string fpath = TestPath("file");
  std::string upath = TestPath("uring");
  std::remove(fpath.c_str());
  std::remove(upath.c_str());
  decltype(run(nullptr)) file_result, uring_result;
  {
    FileDeviceOptions opts;
    opts.block_size = 512;
    opts.truncate = true;
    std::unique_ptr<FileBlockDevice> dev;
    AbortIfError(FileBlockDevice::Open(fpath, opts, &dev));
    EXPECT_EQ(dev->PreferredWriteBatch(), 1u);  // scalar path
    file_result = run(dev.get());
    EXPECT_EQ(dev->stats().write_batches, 0u);
  }
  {
    auto dev = OpenUring(upath);
    uring_result = run(dev.get());
    EXPECT_GT(dev->stats().write_batches, 0u);
  }
  EXPECT_EQ(file_result, uring_result);
  std::remove(fpath.c_str());
  std::remove(upath.c_str());
}

// A PR-tree build through the batched write path produces a device file
// byte-identical to the scalar build — across backends (file vs uring) and
// thread counts (1 vs 8).  Demand counters match too, and write_batches
// matches across thread counts: every write is staged on the calling
// thread.
TEST(WritePathTest, BuildByteIdentityScalarVsBatchedVsParallel) {
  auto data = testing_util::RandomRects<2>(6000, 11);

  auto build = [&](BlockDevice* dev, int threads, IoStats* io) {
    // force_grid: exercise the external grid emitters too.
    auto loader = MakeBulkLoader(
        LoaderKind::kPrTree,
        {.memory_bytes = 1u << 16, .threads = threads, .force_grid = true});
    dev->ResetStats();
    RTree<2> tree(dev);
    AbortIfError(loader->Build(dev, data, &tree));
    *io = dev->stats();
    AbortIfError(dev->Sync());
  };

  std::string spath = TestPath("scalar");
  std::string bpath = TestPath("batched");
  std::string ppath = TestPath("parallel");
  for (auto* p : {&spath, &bpath, &ppath}) std::remove(p->c_str());

  IoStats scalar_io, batched_io, parallel_io;
  {
    FileDeviceOptions fopts;
    fopts.block_size = 512;
    fopts.truncate = true;
    std::unique_ptr<FileBlockDevice> dev;
    AbortIfError(FileBlockDevice::Open(spath, fopts, &dev));
    build(dev.get(), 1, &scalar_io);
  }
  {
    auto dev = OpenUring(bpath);
    build(dev.get(), 1, &batched_io);
  }
  {
    auto dev = OpenUring(ppath);
    build(dev.get(), 8, &parallel_io);
  }

  auto scalar_bytes = FileBytes(spath);
  auto batched_bytes = FileBytes(bpath);
  auto parallel_bytes = FileBytes(ppath);
  ASSERT_FALSE(scalar_bytes.empty());
  EXPECT_EQ(scalar_bytes == batched_bytes, true)
      << "batched uring build diverged from the scalar file build";
  EXPECT_EQ(scalar_bytes == parallel_bytes, true)
      << "8-thread batched build diverged from the scalar build";

  // Demand I/O is engine- and thread-invariant.
  EXPECT_EQ(scalar_io.reads, batched_io.reads);
  EXPECT_EQ(scalar_io.writes, batched_io.writes);
  EXPECT_EQ(scalar_io.reads, parallel_io.reads);
  EXPECT_EQ(scalar_io.writes, parallel_io.writes);
  EXPECT_EQ(scalar_io.write_batches, 0u);
  EXPECT_GT(batched_io.write_batches, 0u);
  EXPECT_EQ(batched_io.write_batches, parallel_io.write_batches);

  for (auto* p : {&spath, &bpath, &ppath}) std::remove(p->c_str());
}

// Every loader calls the device from the calling thread only, in serial
// order, so the thread count changes neither the device file nor any
// counter, write_batches included.
TEST(WritePathTest, EveryLoaderIsThreadCountInvariantOnUring) {
  auto data = testing_util::RandomRects<2>(20000, 17);
  for (LoaderKind kind : AllLoaderKinds()) {
    SCOPED_TRACE(LoaderKindName(kind));
    std::vector<char> bytes[2];
    IoStats io[2];
    const int threads[2] = {1, 8};
    for (int t = 0; t < 2; ++t) {
      const std::string path = TestPath(std::string(LoaderKindName(kind)) +
                                        std::to_string(threads[t]));
      std::remove(path.c_str());
      {
        auto dev = OpenUring(path);
        auto loader = MakeBulkLoader(
            kind, {.memory_bytes = 1u << 20, .threads = threads[t]});
        RTree<2> tree(dev.get());
        dev->ResetStats();
        AbortIfError(loader->Build(dev.get(), data, &tree));
        io[t] = dev->stats();
        AbortIfError(dev->Sync());
      }
      bytes[t] = FileBytes(path);
      std::remove(path.c_str());
    }
    ASSERT_FALSE(bytes[0].empty());
    EXPECT_TRUE(bytes[0] == bytes[1]) << "device files differ";
    ExpectSameStats(io[0], io[1]);
  }
}

// Without O_DIRECT a uring device does not stage: over a page cache a
// pwrite has no latency for the ring to hide.  Its builds take the file
// device's write path, so the device file and every counter equal the
// file device's, write_batches (0) included.
TEST(WritePathTest, BufferedUringBuildMatchesTheFileDevice) {
  auto data = testing_util::RandomRects<2>(6000, 11);
  auto loader = MakeBulkLoader(
      LoaderKind::kPrTree, {.memory_bytes = 1u << 16, .force_grid = true});
  FileDeviceOptions fopts;
  fopts.block_size = 512;
  fopts.truncate = true;

  auto build = [&](BlockDevice* dev, IoStats* io) {
    RTree<2> tree(dev);
    dev->ResetStats();
    AbortIfError(loader->Build(dev, data, &tree));
    *io = dev->stats();
    AbortIfError(dev->Sync());
  };

  const std::string fpath = TestPath("file");
  const std::string upath = TestPath("uring");
  std::remove(fpath.c_str());
  std::remove(upath.c_str());
  IoStats file_io, uring_io;
  {
    std::unique_ptr<FileBlockDevice> dev;
    AbortIfError(FileBlockDevice::Open(fpath, fopts, &dev));
    build(dev.get(), &file_io);
  }
  {
    UringDeviceOptions uopts;
    uopts.file = fopts;
    std::unique_ptr<UringBlockDevice> dev;
    AbortIfError(UringBlockDevice::Open(upath, uopts, &dev));
    EXPECT_EQ(dev->PreferredWriteBatch(), 1u);
    build(dev.get(), &uring_io);
  }
  const std::vector<char> file_bytes = FileBytes(fpath);
  ASSERT_FALSE(file_bytes.empty());
  EXPECT_TRUE(file_bytes == FileBytes(upath)) << "device files differ";
  ExpectSameStats(file_io, uring_io);
  EXPECT_EQ(uring_io.write_batches, 0u);
  std::remove(fpath.c_str());
  std::remove(upath.c_str());
}

// TGS and the pseudo-PR-tree index write their nodes through one
// NodeWriter per level, so on a staging device the nodes drain in batches
// after the build has moved on; every page id and byte must still equal
// the unstaged build's on the memory device.
TEST(WritePathTest, TgsAndPseudoIndexStageTheMemoryDevicesPages) {
  auto data = testing_util::RandomRects<2>(6000, 23);
  for (bool tgs : {true, false}) {
    SCOPED_TRACE(tgs ? "tgs" : "pseudo-PR-tree index");
    auto build = [&](BlockDevice* dev, IoStats* io) {
      RTree<2> tree(dev);
      dev->ResetStats();
      if (tgs) {
        auto loader =
            MakeBulkLoader(LoaderKind::kTgs, {.memory_bytes = 1u << 20});
        AbortIfError(loader->Build(dev, data, &tree));
      } else {
        std::vector<Record2> recs = data;
        BuildPseudoPRTreeIndex(&recs, &tree);
      }
      *io = dev->stats();
      return std::make_pair(tree.root(), tree.height());
    };
    const std::string path = TestPath(tgs ? "tgs" : "pseudo");
    std::remove(path.c_str());
    MemoryBlockDevice mem(512);
    auto staged = OpenUring(path);
    ASSERT_GT(staged->PreferredWriteBatch(), 1u);
    IoStats mem_io, staged_io;
    EXPECT_EQ(build(&mem, &mem_io), build(staged.get(), &staged_io));
    EXPECT_EQ(mem_io.reads, staged_io.reads);
    EXPECT_EQ(mem_io.writes, staged_io.writes);
    EXPECT_EQ(mem_io.write_batches, 0u);
    EXPECT_GT(staged_io.write_batches, 0u);
    ASSERT_EQ(mem.num_pages(), staged->num_pages());
    ASSERT_GT(mem.num_allocated(), 0u);
    EXPECT_EQ(mem.num_allocated(), staged->num_allocated());
    EXPECT_EQ(mem.peak_allocated(), staged->peak_allocated());
    std::vector<std::byte> a(512), b(512);
    for (PageId p = 0; p < mem.num_pages(); ++p) {
      ASSERT_EQ(mem.IsAllocated(p), staged->IsAllocated(p)) << "page " << p;
      if (!mem.IsAllocated(p)) continue;
      AbortIfError(mem.Read(p, a.data()));
      AbortIfError(staged->Read(p, b.data()));
      ASSERT_TRUE(a == b) << "page " << p << " differs";
    }
    staged.reset();
    std::remove(path.c_str());
  }
}

TEST(WritePathTest, NoUringEnvBuildIsByteAndCounterIdentical) {
  // PRTREE_NO_URING=1 swaps the engine under the same staged write path:
  // the fallback serves each WriteBatch as scalar pwrites.  Bytes and every
  // counter — write_batches included, because PreferredWriteBatch() reports
  // the configured depth either way — must be identical to the ring build.
  auto data = testing_util::RandomRects<2>(4000, 13);
  auto loader = MakeBulkLoader(
      LoaderKind::kPrTree, {.memory_bytes = 1u << 16, .force_grid = true});

  auto build = [&](const std::string& path, bool no_uring, IoStats* io) {
    if (no_uring) ::setenv("PRTREE_NO_URING", "1", 1);
    auto dev = OpenUring(path);
    if (no_uring) {
      ::unsetenv("PRTREE_NO_URING");
      EXPECT_FALSE(dev->ring_active());
    }
    RTree<2> tree(dev.get());
    AbortIfError(loader->Build(dev.get(), data, &tree));
    *io = dev->stats();
    AbortIfError(dev->Sync());
  };

  std::string rpath = TestPath("ring");
  std::string npath = TestPath("nouring");
  std::remove(rpath.c_str());
  std::remove(npath.c_str());
  IoStats ring_io, fallback_io;
  build(rpath, false, &ring_io);
  build(npath, true, &fallback_io);

  EXPECT_EQ(FileBytes(rpath), FileBytes(npath));
  EXPECT_EQ(ring_io.reads, fallback_io.reads);
  EXPECT_EQ(ring_io.writes, fallback_io.writes);
  EXPECT_EQ(ring_io.write_batches, fallback_io.write_batches);
  EXPECT_GT(ring_io.write_batches, 0u);
  std::remove(rpath.c_str());
  std::remove(npath.c_str());
}

}  // namespace
}  // namespace prtree
