#include "rtree/persist.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "io/file_block_device.h"
#include "io/uring_block_device.h"
#include "rtree/bulk_loader.h"
#include "rtree/update.h"
#include "rtree/validate.h"
#include "tests/test_util.h"

namespace prtree {
namespace {

using testing_util::BruteForceQuery;
using testing_util::RandomRects;
using testing_util::RandomWindow;
using testing_util::SortedIds;

class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Test-name + pid qualified: ctest runs each TEST as its own process,
    // often concurrently, so an address-based name could collide.
    path_ = ::testing::TempDir() + "/prtree_persist_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "." + std::to_string(static_cast<long>(getpid())) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(PersistTest, RoundTripPreservesEverything) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(5000, 7);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(&dev, data, &tree));
  ASSERT_TRUE(SaveTree(tree, path_).ok());

  // Load onto a completely different device with prior allocations (so
  // page ids cannot possibly coincide).
  MemoryBlockDevice dev2(512);
  for (int i = 0; i < 37; ++i) dev2.Allocate();
  RTree<2> loaded(&dev2);
  ASSERT_TRUE(LoadTree(path_, &loaded).ok());

  EXPECT_EQ(loaded.size(), tree.size());
  EXPECT_EQ(loaded.height(), tree.height());
  ASSERT_TRUE(ValidateTree(loaded).ok());

  auto a = DumpRecords(tree);
  auto b = DumpRecords(loaded);
  CanonicalSort(&a);
  CanonicalSort(&b);
  EXPECT_TRUE(a == b);

  // The saved file is a device file: it also opens in place.
  std::unique_ptr<FileBlockDevice> fdev;
  ASSERT_TRUE(FileBlockDevice::Open(path_, FileDeviceOptions{}, &fdev).ok());
  RTree<2> attached(fdev.get());
  ASSERT_TRUE(AttachTree(fdev.get(), &attached).ok());
  EXPECT_EQ(attached.size(), tree.size());

  Rng rng(11);
  for (int q = 0; q < 20; ++q) {
    Rect2 w = RandomWindow<2>(&rng, 0.2);
    EXPECT_EQ(SortedIds(loaded.QueryToVector(w)),
              SortedIds(tree.QueryToVector(w)));
    EXPECT_EQ(SortedIds(attached.QueryToVector(w)),
              SortedIds(tree.QueryToVector(w)));
  }
}

TEST_F(PersistTest, LoadedTreeRemainsUpdatable) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(1000, 13);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(&dev, data, &tree));
  ASSERT_TRUE(SaveTree(tree, path_).ok());

  MemoryBlockDevice dev2(512);
  RTree<2> loaded(&dev2);
  ASSERT_TRUE(LoadTree(path_, &loaded).ok());
  RTreeUpdater<2> upd(&loaded);
  auto extra = RandomRects<2>(500, 17);
  for (auto rec : extra) {
    rec.id += 1000000;
    upd.Insert(rec);
  }
  EXPECT_EQ(loaded.size(), 1500u);
  ValidateOptions opts;
  opts.min_entries = 1;
  ASSERT_TRUE(ValidateTree(loaded, opts).ok());
}

TEST_F(PersistTest, SingleLeafTree) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<2>(5, 19);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 1u << 20})
                   ->Build(&dev, data, &tree));
  ASSERT_EQ(tree.height(), 0);
  ASSERT_TRUE(SaveTree(tree, path_).ok());
  MemoryBlockDevice dev2(4096);
  RTree<2> loaded(&dev2);
  ASSERT_TRUE(LoadTree(path_, &loaded).ok());
  EXPECT_EQ(loaded.size(), 5u);
  EXPECT_EQ(SortedIds(loaded.QueryToVector(MakeRect(-1, -1, 2, 2))),
            SortedIds(tree.QueryToVector(MakeRect(-1, -1, 2, 2))));
}

TEST_F(PersistTest, RejectsEmptyTreeAndBadTargets) {
  MemoryBlockDevice dev(4096);
  RTree<2> empty(&dev);
  EXPECT_FALSE(SaveTree(empty, path_).ok());

  auto data = RandomRects<2>(100, 23);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 1u << 20})
                   ->Build(&dev, data, &tree));
  ASSERT_TRUE(SaveTree(tree, path_).ok());

  // Non-empty output tree.
  EXPECT_FALSE(LoadTree(path_, &tree).ok());
  // Block size mismatch.
  MemoryBlockDevice dev512(512);
  RTree<2> t512(&dev512);
  Status st = LoadTree(path_, &t512);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // Dimension mismatch.
  MemoryBlockDevice dev3(4096);
  RTree<3> t3(&dev3);
  EXPECT_FALSE(LoadTree(path_, &t3).ok());
  // Missing file.
  MemoryBlockDevice dev4(4096);
  RTree<2> t4(&dev4);
  EXPECT_FALSE(LoadTree("/nonexistent/prtree.bin", &t4).ok());
  // Blocks below the device file's minimum cannot be saved, and the
  // refusal leaves the file already at the path intact.
  MemoryBlockDevice dev128(128);
  RTree<2> t128(&dev128);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 1u << 20})
                   ->Build(&dev128, data, &t128));
  EXPECT_EQ(SaveTree(t128, path_).code(), StatusCode::kInvalidArgument);
  MemoryBlockDevice dev5(4096);
  RTree<2> t5(&dev5);
  ASSERT_TRUE(LoadTree(path_, &t5).ok());
  EXPECT_EQ(t5.size(), tree.size());
}

// Each damaged file is refused with Corruption before LoadTree allocates
// a page on the target: a truncated file (shorter than the page count its
// superblock records) and a damaged superblock fail the device open, and
// a damaged node page fails validation.
TEST_F(PersistTest, DetectsTruncationAndCorruption) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(2000, 29);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(&dev, data, &tree));
  ASSERT_GE(tree.height(), 1);
  const auto expect_refused = [&](const char* what) {
    MemoryBlockDevice target(512);
    RTree<2> loaded(&target);
    const Status st = LoadTree(path_, &loaded);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << what << ": "
                                                  << st.ToString();
    EXPECT_TRUE(loaded.empty()) << what;
    EXPECT_EQ(target.peak_allocated(), 0u) << what;
  };

  ASSERT_TRUE(SaveTree(tree, path_).ok());
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path_.c_str(), size / 2), 0);
  }
  expect_refused("truncated file");

  ASSERT_TRUE(SaveTree(tree, path_).ok());
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    uint32_t junk = 0xDEADBEEF;
    std::fwrite(&junk, sizeof(junk), 1, f);  // the superblock's magic
    std::fclose(f);
  }
  expect_refused("damaged superblock");

  ASSERT_TRUE(SaveTree(tree, path_).ok());
  {
    std::unique_ptr<FileBlockDevice> fdev;
    ASSERT_TRUE(
        FileBlockDevice::Open(path_, FileDeviceOptions{}, &fdev).ok());
    RTree<2> saved(fdev.get());
    ASSERT_TRUE(AttachTree(fdev.get(), &saved).ok());
    std::vector<std::byte> buf(fdev->block_size());
    ASSERT_TRUE(fdev->Read(saved.root(), buf.data()).ok());
    const PageId child = NodeView<2>(buf.data(), buf.size()).GetId(0);
    std::fill(buf.begin(), buf.end(), std::byte{0xAB});
    ASSERT_TRUE(fdev->Write(child, buf.data()).ok());
  }
  expect_refused("damaged node page");
}

// A recorded height other than the root page's level would send every
// traversal the wrong number of levels down (a height of -2 once loaded
// OK and then made ComputeStats ask for a vector of SIZE_MAX counts).
// AttachTree compares the two and refuses the tree, and so LoadTree, which
// attaches the file before it allocates a page, refuses it too.
TEST_F(PersistTest, RejectsARecordedHeightOtherThanTheRootLevel) {
  MemoryBlockDevice dev(512);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 1u << 20})
                   ->Build(&dev, RandomRects<2>(2000, 59), &tree));
  ASSERT_GE(tree.height(), 1);
  for (const int32_t height : {-2, tree.height() - 1, tree.height() + 1}) {
    SCOPED_TRACE(height);
    ASSERT_TRUE(SaveTree(tree, path_).ok());
    {
      std::unique_ptr<FileBlockDevice> fdev;
      ASSERT_TRUE(
          FileBlockDevice::Open(path_, FileDeviceOptions{}, &fdev).ok());
      persist_internal::TreeMetaRecord meta{};
      ASSERT_EQ(fdev->GetUserMeta(&meta, sizeof(meta)), sizeof(meta));
      meta.height = height;
      ASSERT_TRUE(fdev->SetUserMeta(&meta, sizeof(meta)).ok());
      ASSERT_TRUE(fdev->Sync().ok());
    }
    MemoryBlockDevice dev2(512);
    RTree<2> loaded(&dev2);
    EXPECT_EQ(LoadTree(path_, &loaded).code(), StatusCode::kCorruption);
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(dev2.peak_allocated(), 0u);

    std::unique_ptr<FileBlockDevice> fdev;
    ASSERT_TRUE(
        FileBlockDevice::Open(path_, FileDeviceOptions{}, &fdev).ok());
    RTree<2> attached(fdev.get());
    EXPECT_EQ(AttachTree(fdev.get(), &attached).code(),
              StatusCode::kCorruption);
    EXPECT_TRUE(attached.empty());
  }
}

// The in-place reopen path of the file backend: build straight onto a
// FileBlockDevice, persist the root in the superblock, drop every handle,
// reopen from the path alone and query — no snapshot copying involved.
TEST_F(PersistTest, FileDeviceWriteReopenQueryRoundTrip) {
  auto data = RandomRects<2>(4000, 31);
  std::vector<Rect2> windows;
  Rng rng(5);
  for (int q = 0; q < 20; ++q) windows.push_back(RandomWindow<2>(&rng, 0.2));

  std::vector<std::vector<DataId>> expected;
  {
    FileDeviceOptions opts;
    opts.block_size = 512;
    opts.truncate = true;
    std::unique_ptr<FileBlockDevice> dev;
    ASSERT_TRUE(FileBlockDevice::Open(path_, opts, &dev).ok());
    RTree<2> tree(dev.get());
    AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 2u << 20})
                     ->Build(dev.get(), data, &tree));
    for (const auto& w : windows) {
      expected.push_back(SortedIds(tree.QueryToVector(w)));
    }
    ASSERT_TRUE(PersistTree(tree, dev.get()).ok());
  }  // device closed; only the file remains

  std::unique_ptr<FileBlockDevice> dev;
  ASSERT_TRUE(FileBlockDevice::Open(path_, FileDeviceOptions{}, &dev).ok());
  RTree<2> tree(dev.get());
  ASSERT_TRUE(AttachTree(dev.get(), &tree).ok());
  EXPECT_EQ(tree.size(), data.size());
  ASSERT_TRUE(ValidateTree(tree).ok());
  for (size_t q = 0; q < windows.size(); ++q) {
    EXPECT_EQ(SortedIds(tree.QueryToVector(windows[q])), expected[q]);
  }

  // A reopened tree is still updatable, and re-persistable.
  RTreeUpdater<2> upd(&tree);
  auto extra = RandomRects<2>(200, 37);
  for (auto rec : extra) {
    rec.id += 1000000;
    upd.Insert(rec);
  }
  EXPECT_EQ(tree.size(), data.size() + 200);
  ASSERT_TRUE(PersistTree(tree, dev.get()).ok());
  dev.reset();

  // A PersistTree'd file loads with LoadTree as a saved one does.
  MemoryBlockDevice mem(512);
  RTree<2> loaded(&mem);
  ASSERT_TRUE(LoadTree(path_, &loaded).ok());
  EXPECT_EQ(loaded.size(), data.size() + 200);
  ASSERT_TRUE(ValidateTree(loaded).ok());
}

TEST_F(PersistTest, AttachRejectsMissingOrMismatchedMeta) {
  FileDeviceOptions opts;
  opts.block_size = 512;
  opts.truncate = true;
  std::unique_ptr<FileBlockDevice> dev;
  ASSERT_TRUE(FileBlockDevice::Open(path_, opts, &dev).ok());

  // No PersistTree ever ran on this device.
  RTree<2> tree(dev.get());
  EXPECT_EQ(AttachTree(dev.get(), &tree).code(), StatusCode::kNotFound);

  auto data = RandomRects<2>(500, 41);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 1u << 20})
                   ->Build(dev.get(), data, &tree));
  ASSERT_TRUE(PersistTree(tree, dev.get()).ok());

  // Dimension mismatch and non-empty output tree are both rejected.
  RTree<3> t3(dev.get());
  EXPECT_FALSE(AttachTree(dev.get(), &t3).ok());
  EXPECT_FALSE(AttachTree(dev.get(), &tree).ok());
}

TEST_F(PersistTest, AttachRejectsStaleMetadataAfterUpdates) {
  FileDeviceOptions opts;
  opts.block_size = 512;
  opts.truncate = true;
  {
    std::unique_ptr<FileBlockDevice> dev;
    ASSERT_TRUE(FileBlockDevice::Open(path_, opts, &dev).ok());
    RTree<2> tree(dev.get());
    auto data = RandomRects<2>(2000, 47);
    AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 1u << 20})
                     ->Build(dev.get(), data, &tree));
    ASSERT_TRUE(PersistTree(tree, dev.get()).ok());
    // Mutate after the persist: enough inserts to allocate pages (and
    // possibly move the root), then close WITHOUT re-persisting.
    RTreeUpdater<2> upd(&tree);
    auto extra = RandomRects<2>(1500, 53);
    for (auto rec : extra) {
      rec.id += 1000000;
      upd.Insert(rec);
    }
    ASSERT_TRUE(dev->Sync().ok());
  }
  std::unique_ptr<FileBlockDevice> dev;
  ASSERT_TRUE(FileBlockDevice::Open(path_, FileDeviceOptions{}, &dev).ok());
  RTree<2> tree(dev.get());
  Status st = AttachTree(dev.get(), &tree);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

// A free page whose stamp was overwritten after the last Sync makes the
// open count it as leaked, so the recorded tree metadata no longer matches
// and AttachTree and LoadTree refuse the file.  Those refusals only read:
// the device repairs its free list in memory and must not write the
// repair back when nothing else changed.
TEST_F(PersistTest, RefusedAttachAndLoadLeaveTheFileUnchanged) {
  const auto file_bytes = [&] {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<char> bytes;
    if (f == nullptr) return bytes;
    char buf[4096];
    for (size_t got; (got = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
      bytes.insert(bytes.end(), buf, buf + got);
    }
    std::fclose(f);
    return bytes;
  };
  for (const std::string backend : {"file", "uring"}) {
    SCOPED_TRACE(backend);
    std::vector<PageId> freed(8);
    {
      FileDeviceOptions opts;
      opts.block_size = 512;
      opts.truncate = true;
      std::unique_ptr<FileBlockDevice> dev;
      ASSERT_TRUE(OpenFileBackedDevice(backend, path_, opts, &dev).ok());
      for (PageId& p : freed) p = dev->Allocate();
      RTree<2> tree(dev.get());
      AbortIfError(
          MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 1u << 20})
              ->Build(dev.get(), RandomRects<2>(2000, 61), &tree));
      for (PageId p : freed) dev->Free(p);
      ASSERT_TRUE(PersistTree(tree, dev.get()).ok());
    }
    {
      std::FILE* f = std::fopen(path_.c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      // Page p lives at block p + 1, after the superblock.
      std::fseek(f, static_cast<long>((freed[4] + 1) * 512), SEEK_SET);
      const char junk[16] = "not a free page";
      std::fwrite(junk, sizeof(junk), 1, f);
      std::fclose(f);
    }
    const std::vector<char> before = file_bytes();

    MemoryBlockDevice mem(512);
    RTree<2> loaded(&mem);
    EXPECT_EQ(LoadTree(path_, &loaded).code(), StatusCode::kCorruption);
    EXPECT_TRUE(file_bytes() == before) << "LoadTree rewrote the file";

    {
      FileDeviceOptions opts;
      opts.must_exist = true;
      std::unique_ptr<FileBlockDevice> dev;
      ASSERT_TRUE(OpenFileBackedDevice(backend, path_, opts, &dev).ok());
      RTree<2> attached(dev.get());
      EXPECT_EQ(AttachTree(dev.get(), &attached).code(),
                StatusCode::kCorruption);
    }
    EXPECT_TRUE(file_bytes() == before) << "AttachTree rewrote the file";
  }
}

// Saved files are device-agnostic: a tree saved from a memory device loads
// onto a file device with earlier allocations, and the loaded index then
// reopens in place.
TEST_F(PersistTest, SnapshotRestoresOntoFileDevice) {
  MemoryBlockDevice mdev(512);
  auto data = RandomRects<2>(3000, 43);
  RTree<2> tree(&mdev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 2u << 20})
                   ->Build(&mdev, data, &tree));
  ASSERT_TRUE(SaveTree(tree, path_).ok());

  std::string dev_path = path_ + ".dev";
  {
    FileDeviceOptions opts;
    opts.block_size = 512;
    opts.truncate = true;
    std::unique_ptr<FileBlockDevice> fdev;
    ASSERT_TRUE(FileBlockDevice::Open(dev_path, opts, &fdev).ok());
    std::vector<PageId> earlier(37);
    for (PageId& p : earlier) p = fdev->Allocate();
    for (size_t i = 0; i < earlier.size(); i += 2) fdev->Free(earlier[i]);
    RTree<2> loaded(fdev.get());
    ASSERT_TRUE(LoadTree(path_, &loaded).ok());
    ASSERT_TRUE(ValidateTree(loaded).ok());
    ASSERT_TRUE(PersistTree(loaded, fdev.get()).ok());
  }
  std::unique_ptr<FileBlockDevice> fdev;
  ASSERT_TRUE(
      FileBlockDevice::Open(dev_path, FileDeviceOptions{}, &fdev).ok());
  RTree<2> reopened(fdev.get());
  ASSERT_TRUE(AttachTree(fdev.get(), &reopened).ok());
  Rng rng(17);
  for (int q = 0; q < 10; ++q) {
    Rect2 w = RandomWindow<2>(&rng, 0.2);
    EXPECT_EQ(SortedIds(reopened.QueryToVector(w)),
              SortedIds(tree.QueryToVector(w)));
  }
  std::remove(dev_path.c_str());
}

}  // namespace
}  // namespace prtree
