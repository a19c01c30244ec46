// UringBlockDevice: the io_uring ReadBatch engine and its transparent
// pread fallback.
//
// io_uring availability is a runtime property of the kernel/container, so
// every test here must pass in BOTH modes — the suite asserts behaviour
// (bytes, statuses, counters, on-disk format), never the engine.  The
// fallback itself is exercised deterministically through the
// PRTREE_NO_URING environment variable, which Create() can set around the
// Open, so a CI runner with io_uring still covers the no-io_uring path
// (and one without covers it twice).  CI runs this suite under every
// preset and once more with PRTREE_NO_URING=1.

#include "io/uring_block_device.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "io/buffer_pool.h"
#include "rtree/bulk_loader.h"
#include "rtree/knn.h"
#include "rtree/persist.h"
#include "tests/test_util.h"

namespace prtree {
namespace {

using testing_util::SortedIds;

// Sets PRTREE_NO_URING for its lifetime, then restores the previous value,
// so forcing the fallback never leaks into the rest of the process.
class ScopedNoUring {
 public:
  ScopedNoUring() {
    if (const char* v = std::getenv(kVar)) saved_ = v;
    ::setenv(kVar, "1", 1);
  }
  ~ScopedNoUring() {
    if (saved_) {
      ::setenv(kVar, saved_->c_str(), 1);
    } else {
      ::unsetenv(kVar);
    }
  }
  ScopedNoUring(const ScopedNoUring&) = delete;
  ScopedNoUring& operator=(const ScopedNoUring&) = delete;

 private:
  static constexpr const char* kVar = "PRTREE_NO_URING";
  std::optional<std::string> saved_;
};

class UringBlockDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/prtree_uring_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "." + std::to_string(static_cast<long>(getpid())) + ".dev";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Opens a fresh device; `no_uring` sets PRTREE_NO_URING around the
  /// Open, forcing the pread fallback even where the kernel has io_uring.
  std::unique_ptr<UringBlockDevice> Create(size_t block_size = 512,
                                           bool no_uring = false,
                                           unsigned ring_entries = 64) {
    UringDeviceOptions opts;
    opts.file.block_size = block_size;
    opts.file.truncate = true;
    opts.ring_entries = ring_entries;
    std::optional<ScopedNoUring> scoped;
    if (no_uring) scoped.emplace();
    std::unique_ptr<UringBlockDevice> dev;
    AbortIfError(UringBlockDevice::Open(path_, opts, &dev));
    return dev;
  }

  /// Allocates `n` pages filled with a per-page pattern byte.
  std::vector<PageId> FillPages(BlockDevice* dev, int n) {
    std::vector<PageId> pages;
    std::vector<std::byte> block(dev->block_size());
    for (int i = 0; i < n; ++i) {
      PageId p = dev->Allocate();
      std::memset(block.data(), 0x20 + i, block.size());
      EXPECT_TRUE(dev->Write(p, block.data()).ok());
      pages.push_back(p);
    }
    return pages;
  }

  std::string path_;
};

TEST_F(UringBlockDeviceTest, ScalarReadWriteWorksInEitherMode) {
  auto dev = Create();
  std::printf("io_uring engine: %s\n",
              dev->ring_active() ? "active" : "unavailable, pread fallback");
  auto pages = FillPages(dev.get(), 3);
  std::vector<std::byte> buf(512);
  ASSERT_TRUE(dev->Read(pages[1], buf.data()).ok());
  EXPECT_EQ(buf[0], std::byte{0x21});
  EXPECT_EQ(dev->stats().reads, 1u);
  EXPECT_EQ(dev->stats().prefetch_reads, 0u);
}

TEST_F(UringBlockDeviceTest, ReadBatchMatchesScalarReads) {
  auto dev = Create();
  const int kPages = 16;
  auto pages = FillPages(dev.get(), kPages);
  dev->ResetStats();

  std::vector<std::vector<std::byte>> bufs(kPages,
                                           std::vector<std::byte>(512));
  std::vector<BlockReadRequest> reqs(kPages);
  for (int i = 0; i < kPages; ++i) {
    reqs[i].page = pages[i];
    reqs[i].buf = bufs[i].data();
  }
  ASSERT_TRUE(dev->ReadBatch(reqs.data(), reqs.size()).ok());
  for (int i = 0; i < kPages; ++i) {
    ASSERT_TRUE(reqs[i].status.ok());
    std::vector<std::byte> expect(512);
    ASSERT_TRUE(dev->Read(pages[i], expect.data()).ok());
    EXPECT_EQ(std::memcmp(bufs[i].data(), expect.data(), 512), 0)
        << "page " << pages[i];
  }
  // One demand read per batched request, exactly as scalar reads charge
  // (the verification reads above added another kPages).
  EXPECT_EQ(dev->stats().reads, static_cast<uint64_t>(2 * kPages));
  EXPECT_EQ(dev->stats().prefetch_reads, 0u);
}

TEST_F(UringBlockDeviceTest, PrefetchKindChargesThePrefetchCounter) {
  auto dev = Create();
  auto pages = FillPages(dev.get(), 4);
  dev->ResetStats();
  std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(512));
  std::vector<BlockReadRequest> reqs(4);
  for (int i = 0; i < 4; ++i) {
    reqs[i].page = pages[i];
    reqs[i].buf = bufs[i].data();
  }
  ASSERT_TRUE(
      dev->ReadBatch(reqs.data(), reqs.size(), ReadKind::kPrefetch).ok());
  EXPECT_EQ(dev->stats().reads, 0u);
  EXPECT_EQ(dev->stats().prefetch_reads, 4u);
  EXPECT_EQ(bufs[2][0], std::byte{0x22});
}

// A page Allocate() recycled reads as zeros until a write lands on it,
// although the file still holds its old bytes: a batch read serves it as
// zeros, one demand read per page, and a batch write clears the mark.
TEST_F(UringBlockDeviceTest, RecycledPagesReadZerosUntilABatchWriteLands) {
  for (const bool no_uring : {false, true}) {
    SCOPED_TRACE(no_uring ? "pread fallback" : "ring when available");
    auto dev = Create(512, no_uring);
    for (PageId p : FillPages(dev.get(), 4)) dev->Free(p);
    std::vector<PageId> recycled;
    for (int i = 0; i < 4; ++i) recycled.push_back(dev->Allocate());
    dev->ResetStats();

    std::vector<std::vector<std::byte>> bufs(
        4, std::vector<std::byte>(512, std::byte{0xEE}));
    std::vector<BlockReadRequest> reqs(4);
    for (int i = 0; i < 4; ++i) {
      reqs[i].page = recycled[i];
      reqs[i].buf = bufs[i].data();
    }
    ASSERT_TRUE(dev->ReadBatch(reqs.data(), reqs.size()).ok());
    for (const auto& buf : bufs) {
      for (auto b : buf) ASSERT_EQ(b, std::byte{0});
    }
    EXPECT_EQ(dev->stats().reads, 4u);

    std::vector<std::byte> data(512, std::byte{0x7A});
    BlockWriteRequest writes[2];
    for (int i = 0; i < 2; ++i) {
      writes[i].page = recycled[i];
      writes[i].buf = data.data();
    }
    ASSERT_TRUE(dev->WriteBatch(writes, 2).ok());
    ASSERT_TRUE(dev->ReadBatch(reqs.data(), reqs.size()).ok());
    for (int i = 0; i < 4; ++i) {
      const std::byte want = i < 2 ? std::byte{0x7A} : std::byte{0};
      for (auto b : bufs[i]) ASSERT_EQ(b, want) << "page " << recycled[i];
    }
    EXPECT_EQ(dev->stats().reads, 8u);
    EXPECT_EQ(dev->stats().writes, 2u);
  }
}

TEST_F(UringBlockDeviceTest, ForcedFallbackIsByteAndCounterIdentical) {
  // Run the same sequence through a forced-fallback device and (when the
  // kernel allows) a ring-backed one: bytes and stats must be identical —
  // the engine may only change wall-clock.
  auto run = [&](bool force) {
    auto dev = Create(512, force);
    EXPECT_TRUE(!force || !dev->ring_active());
    auto pages = FillPages(dev.get(), 8);
    dev->ResetStats();
    std::vector<std::vector<std::byte>> bufs(8, std::vector<std::byte>(512));
    std::vector<BlockReadRequest> reqs(8);
    for (int i = 0; i < 8; ++i) {
      reqs[i].page = pages[i];
      reqs[i].buf = bufs[i].data();
    }
    EXPECT_TRUE(dev->ReadBatch(reqs.data(), reqs.size()).ok());
    IoStats io = dev->stats();
    std::vector<std::byte> firsts;
    for (auto& b : bufs) firsts.push_back(b[0]);
    return std::make_tuple(io.reads, io.writes, firsts);
  };
  auto fallback = run(true);
  auto engine = run(false);
  EXPECT_EQ(fallback, engine);
}

TEST_F(UringBlockDeviceTest, EnvVarForcesTheFallback) {
  auto dev = Create(512, /*no_uring=*/true);
  EXPECT_FALSE(dev->ring_active());
  // The fallback must engage cleanly: same semantics, batched reads
  // included.
  auto pages = FillPages(dev.get(), 4);
  std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(512));
  std::vector<BlockReadRequest> reqs(4);
  for (int i = 0; i < 4; ++i) {
    reqs[i].page = pages[i];
    reqs[i].buf = bufs[i].data();
  }
  ASSERT_TRUE(dev->ReadBatch(reqs.data(), reqs.size()).ok());
  EXPECT_EQ(bufs[3][0], std::byte{0x23});
}

TEST_F(UringBlockDeviceTest, BatchLargerThanRingDepthIsChunked) {
  auto dev = Create(512, /*no_uring=*/false, /*ring_entries=*/2);
  const int kPages = 33;  // forces many chunks through a depth-2 ring
  auto pages = FillPages(dev.get(), kPages);
  dev->ResetStats();
  std::vector<std::vector<std::byte>> bufs(kPages,
                                           std::vector<std::byte>(512));
  std::vector<BlockReadRequest> reqs(kPages);
  for (int i = 0; i < kPages; ++i) {
    reqs[i].page = pages[i];
    reqs[i].buf = bufs[i].data();
  }
  ASSERT_TRUE(dev->ReadBatch(reqs.data(), reqs.size()).ok());
  for (int i = 0; i < kPages; ++i) {
    EXPECT_EQ(bufs[i][0], static_cast<std::byte>(0x20 + i)) << i;
  }
  EXPECT_EQ(dev->stats().reads, static_cast<uint64_t>(kPages));
}

TEST_F(UringBlockDeviceTest, PerRequestFailuresDoNotPoisonTheBatch) {
  auto dev = Create();
  auto pages = FillPages(dev.get(), 4);
  PageId dead = dev->Allocate();
  dev->Free(dead);
  dev->InjectReadFault(pages[2]);
  dev->ResetStats();

  std::vector<std::vector<std::byte>> bufs(5, std::vector<std::byte>(512));
  std::vector<BlockReadRequest> reqs(5);
  for (int i = 0; i < 4; ++i) {
    reqs[i].page = pages[i];
    reqs[i].buf = bufs[i].data();
  }
  reqs[4].page = dead;
  reqs[4].buf = bufs[4].data();

  Status st = dev->ReadBatch(reqs.data(), reqs.size());
  EXPECT_FALSE(st.ok());  // first failure is reported...
  EXPECT_TRUE(reqs[0].status.ok());  // ...but the rest were still served
  EXPECT_TRUE(reqs[1].status.ok());
  EXPECT_FALSE(reqs[2].status.ok());  // injected fault
  EXPECT_TRUE(reqs[3].status.ok());
  EXPECT_FALSE(reqs[4].status.ok());  // unallocated page
  EXPECT_EQ(bufs[3][0], std::byte{0x23});
  // Only successes are charged.
  EXPECT_EQ(dev->stats().reads, 3u);
}

TEST_F(UringBlockDeviceTest, SharesTheOnDiskFormatWithFileBlockDevice) {
  // Write through uring, sync, reopen with the plain file backend (and the
  // reverse direction below): one format, two engines.
  std::vector<PageId> pages;
  {
    auto dev = Create();
    pages = FillPages(dev.get(), 4);
    dev->Free(pages[1]);
    ASSERT_TRUE(dev->SetUserMeta("uring", 5).ok());
    ASSERT_TRUE(dev->Sync().ok());
  }
  {
    FileDeviceOptions opts;
    opts.must_exist = true;
    std::unique_ptr<FileBlockDevice> dev;
    ASSERT_TRUE(FileBlockDevice::Open(path_, opts, &dev).ok());
    EXPECT_EQ(dev->num_allocated(), 3u);
    char meta[8] = {};
    EXPECT_EQ(dev->GetUserMeta(meta, sizeof(meta)), 5u);
    EXPECT_STREQ(meta, "uring");
    std::vector<std::byte> buf(512);
    ASSERT_TRUE(dev->Read(pages[3], buf.data()).ok());
    EXPECT_EQ(buf[0], std::byte{0x23});
    // LIFO free list continues across the engine switch.
    EXPECT_EQ(dev->Allocate(), pages[1]);
    ASSERT_TRUE(dev->Sync().ok());
  }
  {
    UringDeviceOptions opts;
    opts.file.must_exist = true;
    std::unique_ptr<UringBlockDevice> dev;
    ASSERT_TRUE(UringBlockDevice::Open(path_, opts, &dev).ok());
    EXPECT_EQ(dev->num_allocated(), 4u);
    std::vector<std::byte> buf(512);
    ASSERT_TRUE(dev->Read(pages[0], buf.data()).ok());
    EXPECT_EQ(buf[0], std::byte{0x20});
  }
}

TEST_F(UringBlockDeviceTest, DirectIoRequestStillReadsCorrectBytes) {
  UringDeviceOptions opts;
  opts.file.block_size = 512;
  opts.file.truncate = true;
  opts.file.direct_io = true;  // best effort; either outcome must work
  std::unique_ptr<UringBlockDevice> dev;
  AbortIfError(UringBlockDevice::Open(path_, opts, &dev));
  auto pages = FillPages(dev.get(), 6);
  std::vector<std::vector<std::byte>> bufs(6, std::vector<std::byte>(512));
  std::vector<BlockReadRequest> reqs(6);
  for (int i = 0; i < 6; ++i) {
    reqs[i].page = pages[i];
    reqs[i].buf = bufs[i].data();
  }
  ASSERT_TRUE(dev->ReadBatch(reqs.data(), reqs.size()).ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(bufs[i][0], static_cast<std::byte>(0x20 + i)) << i;
  }
}

// The acceptance-shaped end-to-end: a PR-tree on the uring device, queried
// through a small pool with readahead — identical answers and visit
// counters to the scalar path, with the prefetch traffic showing up only
// in prefetch_reads.
TEST_F(UringBlockDeviceTest, TreeQueriesWithReadaheadMatchScalar) {
  auto dev = Create(/*block_size=*/512);
  auto data = testing_util::RandomRects<2>(8000, 7);
  RTree<2> tree(dev.get());
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(dev.get(), data, &tree));
  TreeStats ts = tree.ComputeStats();

  Rect2 window = MakeRect(0.2, 0.3, 0.5, 0.6);
  BufferPool scalar_pool(dev.get(), ts.num_nodes / 8 + 4);
  QueryStats scalar_stats;
  auto scalar_ids = SortedIds(tree.QueryToVector(window, &scalar_pool));
  scalar_stats = tree.Query(window, [](const Record2&) {}, &scalar_pool);

  BufferPool ahead_pool(dev.get(), ts.num_nodes / 8 + 4);
  ahead_pool.set_readahead(true);
  dev->ResetStats();
  auto ahead_ids = SortedIds(tree.QueryToVector(window, &ahead_pool));
  QueryStats ahead_stats =
      tree.Query(window, [](const Record2&) {}, &ahead_pool);
  IoStats io = dev->stats();

  EXPECT_EQ(ahead_ids, scalar_ids);
  EXPECT_EQ(ahead_stats.nodes_visited, scalar_stats.nodes_visited);
  EXPECT_EQ(ahead_stats.leaves_visited, scalar_stats.leaves_visited);
  EXPECT_EQ(ahead_stats.results, scalar_stats.results);
  EXPECT_GT(io.prefetch_reads, 0u);  // the frontier was actually prefetched
  EXPECT_GT(ahead_pool.prefetch_useful(), 0u);

  // kNN through the same readahead pool agrees with the pool-less search.
  auto plain = KnnSearch<2>(tree, {0.4, 0.4}, 5);
  auto pooled = KnnSearch<2>(tree, {0.4, 0.4}, 5, nullptr, &ahead_pool);
  ASSERT_EQ(pooled.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(pooled[i].record.id, plain[i].record.id);
  }
}

TEST_F(UringBlockDeviceTest, WriteBatchMatchesScalarWritesInEitherMode) {
  auto dev = Create();
  const int kPages = 16;
  std::vector<PageId> pages;
  for (int i = 0; i < kPages; ++i) pages.push_back(dev->Allocate());
  dev->ResetStats();

  std::vector<std::vector<std::byte>> bufs(kPages,
                                           std::vector<std::byte>(512));
  std::vector<BlockWriteRequest> reqs(kPages);
  for (int i = 0; i < kPages; ++i) {
    std::memset(bufs[i].data(), 0x50 + i, 512);
    reqs[i].page = pages[i];
    reqs[i].buf = bufs[i].data();
  }
  ASSERT_TRUE(dev->WriteBatch(reqs.data(), reqs.size()).ok());
  for (int i = 0; i < kPages; ++i) {
    ASSERT_TRUE(reqs[i].status.ok()) << "page " << pages[i];
  }
  // One demand write per batched request, one audit tick per submission —
  // the same accounting whether the ring engine or the scalar loop served
  // the batch.
  EXPECT_EQ(dev->stats().writes, static_cast<uint64_t>(kPages));
  EXPECT_EQ(dev->stats().write_batches, 1u);

  std::vector<std::byte> r(512);
  for (int i = 0; i < kPages; ++i) {
    ASSERT_TRUE(dev->Read(pages[i], r.data()).ok());
    EXPECT_EQ(std::memcmp(r.data(), bufs[i].data(), 512), 0)
        << "page " << pages[i];
  }
}

TEST_F(UringBlockDeviceTest, WriteBatchPartialFailuresNeverHarderThanScalar) {
  // The same mixed sequence — live pages, an unallocated page, an injected
  // write fault — through WriteBatch on one device and scalar Writes on a
  // twin: identical per-request outcomes, identical final bytes, identical
  // demand counters.
  const std::string twin_path = path_ + ".twin";
  std::remove(twin_path.c_str());
  auto run = [&](const std::string& p, bool batch) {
    UringDeviceOptions opts;
    opts.file.block_size = 512;
    opts.file.truncate = true;
    std::unique_ptr<UringBlockDevice> dev;
    AbortIfError(UringBlockDevice::Open(p, opts, &dev));
    PageId a = dev->Allocate();
    PageId b = dev->Allocate();
    PageId c = dev->Allocate();
    dev->InjectWriteFault(b);
    dev->ResetStats();

    std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(512));
    for (int i = 0; i < 4; ++i) std::memset(bufs[i].data(), 0x60 + i, 512);
    PageId targets[4] = {a, b, PageId{9999}, c};
    std::vector<bool> ok(4);
    if (batch) {
      std::vector<BlockWriteRequest> reqs(4);
      for (int i = 0; i < 4; ++i) {
        reqs[i].page = targets[i];
        reqs[i].buf = bufs[i].data();
      }
      EXPECT_FALSE(dev->WriteBatch(reqs.data(), reqs.size()).ok());
      for (int i = 0; i < 4; ++i) ok[i] = reqs[i].status.ok();
    } else {
      for (int i = 0; i < 4; ++i) {
        ok[i] = dev->Write(targets[i], bufs[i].data()).ok();
      }
    }
    uint64_t writes = dev->stats().writes;
    std::vector<std::byte> first_bytes;
    std::vector<std::byte> r(512);
    for (PageId p2 : {a, c}) {
      EXPECT_TRUE(dev->Read(p2, r.data()).ok());
      first_bytes.push_back(r[0]);
    }
    return std::make_tuple(ok, writes, first_bytes);
  };
  auto batched = run(path_, true);
  auto scalar = run(twin_path, false);
  EXPECT_EQ(std::get<0>(batched),
            (std::vector<bool>{true, false, false, true}));
  EXPECT_EQ(batched, scalar);
  std::remove(twin_path.c_str());
}

TEST_F(UringBlockDeviceTest, WriteBatchLargerThanRingDepthIsChunked) {
  auto dev = Create(512, /*no_uring=*/false, /*ring_entries=*/2);
  const int kPages = 33;  // forces many chunks through a depth-2 ring
  std::vector<PageId> pages;
  for (int i = 0; i < kPages; ++i) pages.push_back(dev->Allocate());
  dev->ResetStats();

  std::vector<std::vector<std::byte>> bufs(kPages,
                                           std::vector<std::byte>(512));
  std::vector<BlockWriteRequest> reqs(kPages);
  for (int i = 0; i < kPages; ++i) {
    std::memset(bufs[i].data(), 0x20 + i, 512);
    reqs[i].page = pages[i];
    reqs[i].buf = bufs[i].data();
  }
  ASSERT_TRUE(dev->WriteBatch(reqs.data(), reqs.size()).ok());
  EXPECT_EQ(dev->stats().writes, static_cast<uint64_t>(kPages));
  std::vector<std::byte> r(512);
  for (int i = 0; i < kPages; ++i) {
    ASSERT_TRUE(dev->Read(pages[i], r.data()).ok());
    EXPECT_EQ(r[0], static_cast<std::byte>(0x20 + i)) << i;
  }
}

TEST_F(UringBlockDeviceTest, UnregisteredRingMatchesRegisteredBytes) {
  // force_unregistered keeps the ring but skips buffer/file registration:
  // plain READ/WRITE opcodes instead of the _FIXED variants, same bytes,
  // same counters.
  auto run = [&](bool force_unregistered) {
    std::string p = path_ + (force_unregistered ? ".plain" : ".fixed");
    std::remove(p.c_str());
    UringDeviceOptions opts;
    opts.file.block_size = 512;
    opts.file.truncate = true;
    opts.force_unregistered = force_unregistered;
    std::unique_ptr<UringBlockDevice> dev;
    AbortIfError(UringBlockDevice::Open(p, opts, &dev));
    if (force_unregistered) {
      EXPECT_FALSE(dev->registered());
    }

    std::vector<PageId> pages;
    for (int i = 0; i < 8; ++i) pages.push_back(dev->Allocate());
    dev->ResetStats();
    std::vector<std::vector<std::byte>> bufs(8, std::vector<std::byte>(512));
    std::vector<BlockWriteRequest> wreqs(8);
    for (int i = 0; i < 8; ++i) {
      std::memset(bufs[i].data(), 0x70 + i, 512);
      wreqs[i].page = pages[i];
      wreqs[i].buf = bufs[i].data();
    }
    EXPECT_TRUE(dev->WriteBatch(wreqs.data(), wreqs.size()).ok());
    std::vector<BlockReadRequest> rreqs(8);
    for (int i = 0; i < 8; ++i) {
      rreqs[i].page = pages[i];
      rreqs[i].buf = bufs[i].data();
    }
    EXPECT_TRUE(dev->ReadBatch(rreqs.data(), rreqs.size()).ok());
    IoStats io = dev->stats();
    std::vector<std::byte> firsts;
    for (auto& b : bufs) firsts.push_back(b[0]);
    std::remove(p.c_str());
    return std::make_tuple(io.reads, io.writes, io.write_batches, firsts);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST_F(UringBlockDeviceTest, DirectIoWriteBatchStillWritesCorrectBytes) {
  UringDeviceOptions opts;
  opts.file.block_size = 512;
  opts.file.truncate = true;
  opts.file.direct_io = true;  // best effort; either outcome must work
  std::unique_ptr<UringBlockDevice> dev;
  AbortIfError(UringBlockDevice::Open(path_, opts, &dev));
  const int kPages = 6;
  std::vector<PageId> pages;
  for (int i = 0; i < kPages; ++i) pages.push_back(dev->Allocate());
  std::vector<std::vector<std::byte>> bufs(kPages,
                                           std::vector<std::byte>(512));
  std::vector<BlockWriteRequest> reqs(kPages);
  for (int i = 0; i < kPages; ++i) {
    std::memset(bufs[i].data(), 0x20 + i, 512);
    reqs[i].page = pages[i];
    reqs[i].buf = bufs[i].data();
  }
  ASSERT_TRUE(dev->WriteBatch(reqs.data(), reqs.size()).ok());
  std::vector<std::byte> r(512);
  for (int i = 0; i < kPages; ++i) {
    ASSERT_TRUE(dev->Read(pages[i], r.data()).ok());
    EXPECT_EQ(r[0], static_cast<std::byte>(0x20 + i)) << i;
  }
}

}  // namespace
}  // namespace prtree
