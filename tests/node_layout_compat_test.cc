// On-disk layout compatibility: the v1 (packed AoS) and v2 (SoA) node
// formats must be interchangeable at every seam.  Covers the full
// QueryStats identity matrix (v1/v2 × scalar/SIMD), a committed golden v1
// device file attached read-only and compared against a v2 rebuild, mixed
// v1/v2 trees produced by updating a v1 tree under a v2 default, snapshot
// round-trips that preserve per-node layout, and the zeroed-tail
// determinism contract of BasicNodeView::Format.

#include "rtree/node.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <tuple>
#include <vector>

#include "geom/rect_batch.h"
#include "io/file_block_device.h"
#include "rtree/bulk_loader.h"
#include "rtree/knn.h"
#include "rtree/persist.h"
#include "rtree/update.h"
#include "rtree/validate.h"
#include "tests/test_util.h"

namespace prtree {
namespace {

using testing_util::Bits;
using testing_util::BruteForceQuery;
using testing_util::RandomRects;
using testing_util::RandomWindow;
using testing_util::ScopedLayout;
using testing_util::SortedIds;

// The committed golden file and the parameters it was generated from.
// DISABLED_RegenerateGoldenFile rewrites it in the source tree if the
// format ever changes intentionally; everything here must keep reading
// the old bytes until then.
constexpr char kGoldenName[] = "/golden_v1_tree.bin";
constexpr size_t kGoldenN = 1500;
constexpr uint64_t kGoldenSeed = 71;

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  for (SimdLevel l : {SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (ForceSimdLevel(l) == l) levels.push_back(l);
  }
  ForceSimdLevel(SimdLevel::kScalar);
  return levels;
}

std::tuple<uint64_t, uint64_t, uint64_t, uint64_t> StatsTuple(
    const QueryStats& qs) {
  return {qs.nodes_visited, qs.internal_visited, qs.leaves_visited,
          qs.results};
}

// Counts formatted node pages of each layout on a memory device.
std::pair<int, int> CountLayouts(MemoryBlockDevice* dev) {
  std::vector<std::byte> buf(dev->block_size());
  int v1 = 0, v2 = 0;
  for (PageId p = 0; p < dev->num_allocated(); ++p) {
    if (!dev->Read(p, buf.data()).ok()) continue;
    ConstNodeView<2> node(buf.data(), buf.size());
    if (!node.IsFormatted()) continue;
    (node.layout() == NodeLayout::kAoS ? v1 : v2)++;
  }
  return {v1, v2};
}

class NodeLayoutCompatTest : public ::testing::Test {
 protected:
  void TearDown() override { ForceSimdLevel(SimdLevel::kScalar); }
};

// The tentpole contract as a test: identical data bulk-loaded under v1
// and v2 must yield the same tree shape, and every (layout, simd)
// combination must report byte-identical QueryStats, result sets, and
// kNN distance bits.
TEST_F(NodeLayoutCompatTest, QueryStatsMatrixAcrossLayoutsAndSimd) {
  auto data = RandomRects<2>(6000, 29);

  MemoryBlockDevice dev_v1, dev_v2;
  RTree<2> tree_v1(&dev_v1), tree_v2(&dev_v2);
  {
    ScopedLayout pin(NodeLayout::kAoS);
    AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                     ->Build(&dev_v1, data, &tree_v1));
  }
  {
    ScopedLayout pin(NodeLayout::kSoA);
    AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                     ->Build(&dev_v2, data, &tree_v2));
  }
  ASSERT_EQ(tree_v1.height(), tree_v2.height());
  ASSERT_EQ(dev_v1.num_allocated(), dev_v2.num_allocated());
  ASSERT_TRUE(ValidateTree(tree_v1).ok());
  ASSERT_TRUE(ValidateTree(tree_v2).ok());

  Rng rng(31);
  std::vector<Rect2> windows;
  for (int q = 0; q < 24; ++q) windows.push_back(RandomWindow<2>(&rng, 0.2));
  std::vector<std::array<Real, 2>> points;
  for (int q = 0; q < 16; ++q) {
    points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }

  // Reference leg: v1 + scalar.
  ASSERT_EQ(ForceSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>> ref_stats;
  std::vector<std::vector<DataId>> ref_ids;
  std::vector<std::vector<std::pair<DataId, uint64_t>>> ref_knn;
  for (const auto& w : windows) {
    std::vector<Record2> out;
    QueryStats qs = tree_v1.Query(w, [&](const Record2& r) {
      out.push_back(r);
    });
    ref_stats.push_back(StatsTuple(qs));
    ref_ids.push_back(SortedIds(out));
    EXPECT_EQ(ref_ids.back(), BruteForceQuery(data, w));
  }
  for (const auto& p : points) {
    std::vector<std::pair<DataId, uint64_t>> nn;
    for (const auto& n : KnnSearch<2>(tree_v1, p, 10)) {
      nn.emplace_back(n.record.id, Bits(n.distance));
    }
    ref_knn.push_back(nn);
  }

  for (RTree<2>* tree : {&tree_v1, &tree_v2}) {
    for (SimdLevel level : AvailableLevels()) {
      ASSERT_EQ(ForceSimdLevel(level), level);
      const char* leg = (tree == &tree_v1) ? "v1" : "v2";
      for (size_t q = 0; q < windows.size(); ++q) {
        std::vector<Record2> out;
        QueryStats qs = tree->Query(windows[q], [&](const Record2& r) {
          out.push_back(r);
        });
        EXPECT_EQ(StatsTuple(qs), ref_stats[q])
            << leg << "/" << SimdLevelName(level) << " window " << q;
        EXPECT_EQ(SortedIds(out), ref_ids[q])
            << leg << "/" << SimdLevelName(level) << " window " << q;
      }
      for (size_t q = 0; q < points.size(); ++q) {
        std::vector<std::pair<DataId, uint64_t>> nn;
        for (const auto& n : KnnSearch<2>(*tree, points[q], 10)) {
          nn.emplace_back(n.record.id, Bits(n.distance));
        }
        EXPECT_EQ(nn, ref_knn[q])
            << leg << "/" << SimdLevelName(level) << " knn " << q;
      }
    }
  }
}

// A v1 tree updated while the process default is v2 grows v2 pages next
// to its v1 pages; readers must branch per node and stay correct.
TEST_F(NodeLayoutCompatTest, MixedLayoutTreeAfterUpdates) {
  auto data = RandomRects<2>(2000, 43);
  MemoryBlockDevice dev;
  RTree<2> tree(&dev);
  {
    ScopedLayout pin(NodeLayout::kAoS);
    AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                     ->Build(&dev, data, &tree));
  }
  auto [v1_before, v2_before] = CountLayouts(&dev);
  EXPECT_GT(v1_before, 0);
  EXPECT_EQ(v2_before, 0);

  ScopedLayout pin(NodeLayout::kSoA);
  RTreeUpdater<2> upd(&tree);
  auto all = data;
  auto extra = RandomRects<2>(800, 47);
  for (auto rec : extra) {
    rec.id += 1000000;
    upd.Insert(rec);
    all.push_back(rec);
  }
  // Deletes descend through CoversMask over both layouts.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(upd.Delete(data[i * 7]));
    all.erase(std::find_if(all.begin(), all.end(), [&](const Record2& r) {
      return r.id == data[i * 7].id;
    }));
  }
  ValidateOptions vopts;
  vopts.min_entries = 1;
  ASSERT_TRUE(ValidateTree(tree, vopts).ok());

  auto [v1_after, v2_after] = CountLayouts(&dev);
  EXPECT_GT(v1_after, 0) << "expected surviving v1 pages";
  EXPECT_GT(v2_after, 0) << "expected freshly written v2 pages";

  Rng rng(53);
  for (int q = 0; q < 20; ++q) {
    Rect2 w = RandomWindow<2>(&rng, 0.2);
    EXPECT_EQ(SortedIds(tree.QueryToVector(w)), BruteForceQuery(all, w));
  }
}

// SaveTree and LoadTree copy raw blocks, rewriting only child ids, so a
// mixed-layout tree stays mixed across the round trip, regardless of the
// loader's default.
TEST_F(NodeLayoutCompatTest, SnapshotRoundTripPreservesPerNodeLayout) {
  std::string path = ::testing::TempDir() + "/prtree_layout_snap." +
                     std::to_string(static_cast<long>(getpid())) + ".bin";
  auto data = RandomRects<2>(1200, 59);
  MemoryBlockDevice dev;
  RTree<2> tree(&dev);
  {
    ScopedLayout pin(NodeLayout::kAoS);
    AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                     ->Build(&dev, data, &tree));
  }
  ASSERT_TRUE(SaveTree(tree, path).ok());

  ScopedLayout pin(NodeLayout::kSoA);  // loader default must not rewrite
  MemoryBlockDevice dev2;
  RTree<2> loaded(&dev2);
  ASSERT_TRUE(LoadTree(path, &loaded).ok());
  std::remove(path.c_str());

  auto [v1, v2] = CountLayouts(&dev2);
  EXPECT_GT(v1, 0);
  EXPECT_EQ(v2, 0) << "LoadTree must preserve the stored v1 layout";
  ASSERT_TRUE(ValidateTree(loaded).ok());
  Rng rng(61);
  for (int q = 0; q < 10; ++q) {
    Rect2 w = RandomWindow<2>(&rng, 0.2);
    EXPECT_EQ(SortedIds(loaded.QueryToVector(w)),
              SortedIds(tree.QueryToVector(w)));
  }
}

// Formatting is a determinism contract, not just initialisation: the
// same Format+Append sequence on a garbage-filled recycled buffer must
// produce bytes identical to a fresh buffer, for both layouts (this is
// what makes parallel-build output and persisted files byte-stable).
// v2 additionally re-zeroes the slot RemoveSwap vacates.
TEST_F(NodeLayoutCompatTest, FormatZeroesTailDeterministically) {
  auto data = RandomRects<2>(40, 67);
  for (NodeLayout layout : {NodeLayout::kAoS, NodeLayout::kSoA}) {
    std::vector<std::byte> fresh(kDefaultBlockSize, std::byte{0});
    std::vector<std::byte> dirty(kDefaultBlockSize, std::byte{0xAB});
    for (auto* buf : {&fresh, &dirty}) {
      NodeView<2> node(buf->data(), buf->size());
      node.Format(0, layout);
      for (const auto& rec : data) node.Append(rec.rect, rec.id);
    }
    EXPECT_EQ(std::memcmp(fresh.data(), dirty.data(), fresh.size()), 0)
        << "layout " << static_cast<int>(layout);

    if (layout == NodeLayout::kSoA) {
      // RemoveSwap(i) leaves the same bytes as never having appended the
      // removed entry in that position at all.
      NodeView<2> node(dirty.data(), dirty.size());
      node.RemoveSwap(7);
      NodeView<2> expect(fresh.data(), fresh.size());
      expect.Format(0, layout);
      // Rebuild the post-RemoveSwap logical sequence explicitly: the last
      // entry moves into slot 7 and the count shrinks by one.
      std::vector<Record2> seq;
      for (int i = 0; i < 40; ++i) seq.push_back(data[i]);
      seq[7] = seq.back();
      seq.pop_back();
      for (const auto& rec : seq) expect.Append(rec.rect, rec.id);
      EXPECT_EQ(std::memcmp(fresh.data(), dirty.data(), fresh.size()), 0)
          << "v2 RemoveSwap left stale bytes in the vacated slot";
    }
  }
}

// ---- golden v1 device file --------------------------------------------

class GoldenFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    golden_ = std::string(PRTREE_TEST_DATA_DIR) + kGoldenName;
    copy_ = ::testing::TempDir() + "/prtree_golden_copy." +
            std::to_string(static_cast<long>(getpid())) + ".bin";
  }
  void TearDown() override {
    std::remove(copy_.c_str());
    ForceSimdLevel(SimdLevel::kScalar);
  }

  // The device may dirty its file (superblock rewrites on close), so the
  // committed golden bytes are never opened directly.
  void CopyGoldenToTemp() {
    std::ifstream in(golden_, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << golden_
                           << " — run DISABLED_RegenerateGoldenFile";
    std::ofstream out(copy_, std::ios::binary);
    out << in.rdbuf();
    ASSERT_TRUE(out.good());
  }

  std::string golden_;
  std::string copy_;
};

// A device file persisted by the v1-era writer keeps attaching and keeps
// answering queries identically to a v2 rebuild of the same data — the
// no-migration guarantee for the versioned format.
TEST_F(GoldenFileTest, AttachedV1FileMatchesV2Rebuild) {
  CopyGoldenToTemp();
  std::unique_ptr<FileBlockDevice> dev;
  ASSERT_TRUE(FileBlockDevice::Open(copy_, FileDeviceOptions{}, &dev).ok());
  RTree<2> attached(dev.get());
  ASSERT_TRUE(AttachTree(dev.get(), &attached).ok());
  ASSERT_EQ(attached.size(), kGoldenN);
  ASSERT_TRUE(ValidateTree(attached).ok());

  // Every page in the golden file is v1.
  {
    std::vector<std::byte> buf(attached.block_size());
    ASSERT_TRUE(dev->Read(attached.root(), buf.data()).ok());
    ConstNodeView<2> root(buf.data(), buf.size());
    EXPECT_EQ(root.layout(), NodeLayout::kAoS);
  }

  auto data = RandomRects<2>(kGoldenN, kGoldenSeed);
  MemoryBlockDevice mdev;  // kDefaultBlockSize, same as the golden file
  RTree<2> rebuilt(&mdev);
  {
    ScopedLayout pin(NodeLayout::kSoA);
    AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                     ->Build(&mdev, data, &rebuilt));
  }
  ASSERT_EQ(rebuilt.height(), attached.height());

  Rng rng(73);
  for (SimdLevel level : AvailableLevels()) {
    ASSERT_EQ(ForceSimdLevel(level), level);
    for (int q = 0; q < 12; ++q) {
      Rect2 w = RandomWindow<2>(&rng, 0.25);
      std::vector<Record2> a, b;
      QueryStats qa = attached.Query(w, [&](const Record2& r) {
        a.push_back(r);
      });
      QueryStats qb = rebuilt.Query(w, [&](const Record2& r) {
        b.push_back(r);
      });
      EXPECT_EQ(StatsTuple(qa), StatsTuple(qb))
          << SimdLevelName(level) << " window " << q;
      EXPECT_EQ(SortedIds(a), SortedIds(b));
      EXPECT_EQ(SortedIds(a), BruteForceQuery(data, w));
    }
    std::array<Real, 2> p{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    auto na = KnnSearch<2>(attached, p, 12);
    auto nb = KnnSearch<2>(rebuilt, p, 12);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].record.id, nb[i].record.id);
      EXPECT_EQ(Bits(na[i].distance), Bits(nb[i].distance));
    }
  }
}

// Not a test: regenerates the committed golden file in the source tree.
// Run explicitly after an intentional v1 format change:
//   node_layout_compat_test --gtest_also_run_disabled_tests
//     --gtest_filter='*RegenerateGoldenFile*'
TEST_F(GoldenFileTest, DISABLED_RegenerateGoldenFile) {
  auto data = RandomRects<2>(kGoldenN, kGoldenSeed);
  FileDeviceOptions opts;
  opts.block_size = kDefaultBlockSize;
  opts.truncate = true;
  std::unique_ptr<FileBlockDevice> dev;
  ASSERT_TRUE(FileBlockDevice::Open(golden_, opts, &dev).ok());
  RTree<2> tree(dev.get());
  ScopedLayout pin(NodeLayout::kAoS);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(dev.get(), data, &tree));
  ASSERT_TRUE(PersistTree(tree, dev.get()).ok());
}

}  // namespace
}  // namespace prtree
