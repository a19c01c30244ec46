// The BulkLoader facade and the parallel bulk-load pipeline's determinism
// contract: same input + same options => byte-identical tree for any
// thread count (rtree/bulk_loader.h).  The byte-for-byte walk below is the
// strongest form of the guarantee — it implies equal stats, MBRs, page
// counts and query answers.  The 8-thread builds double as the TSan smoke
// for the pipeline (this suite is tier1, so the TSan CI job runs it).

#include "rtree/bulk_loader.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rtree/validate.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace prtree {
namespace {

using testing_util::BruteForceQuery;
using testing_util::SortedIds;

struct Built {
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<RTree<2>> tree;
  IoStats build_io;
};

Built Build(LoaderKind kind, const std::vector<Record2>& data,
            BuildOptions opts, size_t block_size = 1024) {
  Built out;
  out.device = std::make_unique<MemoryBlockDevice>(block_size);
  out.tree = std::make_unique<RTree<2>>(out.device.get());
  auto loader = MakeBulkLoader<2>(kind, opts);
  Stream<Record2> input(out.device.get());
  input.Append(data);
  input.Flush();
  out.device->ResetStats();
  AbortIfError(loader->Build(out.device.get(), &input, out.tree.get()));
  out.build_io = out.device->stats();
  return out;
}

/// Walks both trees from the root, requiring the same page ids and the
/// same raw bytes in every node block.
void ExpectTreesByteIdentical(const Built& a, const Built& b) {
  ASSERT_EQ(a.tree->empty(), b.tree->empty());
  if (a.tree->empty()) return;
  ASSERT_EQ(a.tree->root(), b.tree->root());
  ASSERT_EQ(a.tree->height(), b.tree->height());
  ASSERT_EQ(a.tree->size(), b.tree->size());
  ASSERT_EQ(a.tree->block_size(), b.tree->block_size());
  const size_t bs = a.tree->block_size();
  std::vector<std::byte> buf_a(bs), buf_b(bs);
  std::vector<PageId> stack{a.tree->root()};
  size_t pages = 0;
  while (!stack.empty()) {
    PageId page = stack.back();
    stack.pop_back();
    AbortIfError(a.device->Read(page, buf_a.data()));
    AbortIfError(b.device->Read(page, buf_b.data()));
    ASSERT_EQ(std::memcmp(buf_a.data(), buf_b.data(), bs), 0)
        << "node page " << page << " differs";
    ConstNodeView<2> node(buf_a.data(), bs);
    ++pages;
    if (!node.is_leaf()) {
      for (int i = 0; i < node.count(); ++i) stack.push_back(node.GetId(i));
    }
  }
  // The whole allocation history matched, not just the tree pages.
  EXPECT_EQ(a.device->num_allocated(), b.device->num_allocated());
  EXPECT_EQ(a.device->peak_allocated(), b.device->peak_allocated());
  EXPECT_EQ(a.build_io.reads, b.build_io.reads);
  EXPECT_EQ(a.build_io.writes, b.build_io.writes);
  SUCCEED() << pages << " pages compared";
}

TEST(BulkLoaderDeterminismTest, PrTreeInMemoryPathThreads8MatchesSerial) {
  auto data = workload::MakeTigerLike(30000, workload::TigerRegion::kWestern,
                                      7);
  BuildOptions serial;
  serial.memory_bytes = 64u << 20;  // whole input in memory
  BuildOptions parallel = serial;
  parallel.threads = 8;
  Built a = Build(LoaderKind::kPrTree, data, serial);
  Built b = Build(LoaderKind::kPrTree, data, parallel);
  ASSERT_TRUE(ValidateTree(*b.tree).ok());
  ExpectTreesByteIdentical(a, b);
}

TEST(BulkLoaderDeterminismTest, PrTreeGridPathThreads8MatchesSerial) {
  auto data = workload::MakeTigerLike(12000, workload::TigerRegion::kEastern,
                                      11);
  BuildOptions serial;
  serial.memory_bytes = 256u << 10;  // tiny budget: deep grid recursion
  serial.force_grid = true;
  BuildOptions parallel = serial;
  parallel.threads = 8;
  Built a = Build(LoaderKind::kPrTree, data, serial, /*block_size=*/512);
  Built b = Build(LoaderKind::kPrTree, data, parallel, /*block_size=*/512);
  ASSERT_TRUE(ValidateTree(*b.tree).ok());
  ExpectTreesByteIdentical(a, b);
}

TEST(BulkLoaderDeterminismTest, DuplicateCoordinatesStillTieBrokenById) {
  // Every rectangle identical: only the id tie-breaks in CoordLess /
  // ExtremeLess / the sort comparators.  Any instability in the parallel
  // sorts or selections would reorder leaves and change bytes.
  std::vector<Record2> data(5000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i].rect.lo = {0.25, 0.25};
    data[i].rect.hi = {0.75, 0.75};
    data[i].id = static_cast<DataId>(i * 7 % data.size());  // shuffled ids
  }
  BuildOptions serial;
  serial.memory_bytes = 128u << 10;
  serial.force_grid = true;
  BuildOptions parallel = serial;
  parallel.threads = 8;
  Built a = Build(LoaderKind::kPrTree, data, serial, /*block_size=*/512);
  Built b = Build(LoaderKind::kPrTree, data, parallel, /*block_size=*/512);
  ExpectTreesByteIdentical(a, b);
}

class AllLoadersParam : public ::testing::TestWithParam<LoaderKind> {};

TEST_P(AllLoadersParam, FactoryBuildsValidTreeAndParallelMatchesSerial) {
  auto data = workload::MakeSize(8000, 0.02, 3);
  BuildOptions serial;
  serial.memory_bytes = 512u << 10;
  BuildOptions parallel = serial;
  parallel.threads = 4;
  Built a = Build(GetParam(), data, serial);
  Built b = Build(GetParam(), data, parallel);
  ASSERT_TRUE(ValidateTree(*a.tree).ok());
  ASSERT_EQ(a.tree->size(), data.size());
  ExpectTreesByteIdentical(a, b);
  // Query answers match brute force through the unified API's product.
  Rng rng(99);
  for (int q = 0; q < 10; ++q) {
    Rect2 w = testing_util::RandomWindow<2>(&rng, 0.2);
    EXPECT_EQ(SortedIds(a.tree->QueryToVector(w)), BruteForceQuery(data, w));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllLoadersParam,
    ::testing::Values(LoaderKind::kPrTree, LoaderKind::kHilbert,
                      LoaderKind::kHilbert4D, LoaderKind::kTgs,
                      LoaderKind::kStr),
    [](const ::testing::TestParamInfo<LoaderKind>& info) {
      return std::string(LoaderKindName(info.param));
    });

TEST(BulkLoaderDeterminismTest, PartialTrailingNodeAloneInPackTask) {
  // Regression from when level packing ran in pool tasks: with block 1024
  // (fan-out 28) and 2773 records, the packed level-1 has exactly 4 nodes,
  // one per task at threads=4, and the last node is partial.  Before
  // NodeView::Format zeroed the entry area, that node's unused slots held
  // the serial NodeWriter's stale bytes but the parallel task's fresh
  // zeros, breaking byte-identity.
  auto data = workload::MakeSize(2773, 0.01, 13);
  BuildOptions serial;
  serial.memory_bytes = 4u << 20;
  BuildOptions parallel = serial;
  parallel.threads = 4;
  for (LoaderKind kind : {LoaderKind::kHilbert, LoaderKind::kStr}) {
    Built a = Build(kind, data, serial);
    Built b = Build(kind, data, parallel);
    ExpectTreesByteIdentical(a, b);
  }
}

TEST(BulkLoaderTest, EightThreadGridBuildSmoke) {
  // TSan target: exercises the nested pseudo-PR forks of the grid base
  // cases and the parallel run sorts in one build.
  auto data = workload::MakeSkewed(20000, 5, 21);
  BuildOptions opts;
  opts.memory_bytes = 256u << 10;
  opts.threads = 8;
  opts.force_grid = true;
  Built b = Build(LoaderKind::kPrTree, data, opts, /*block_size=*/512);
  ASSERT_TRUE(ValidateTree(*b.tree).ok());
  EXPECT_EQ(b.tree->size(), data.size());
  auto dumped = DumpRecords(*b.tree);
  CanonicalSort(&dumped);
  auto expect = data;
  CanonicalSort(&expect);
  ASSERT_EQ(dumped.size(), expect.size());
  for (size_t i = 0; i < dumped.size(); ++i) {
    EXPECT_EQ(dumped[i].id, expect[i].id);
  }
}

// Records may share an id: the forest stores a moved record's old and new
// positions side by side.  With ids i/2, TIGER-like records pair
// consecutive segments of one road, which share an endpoint and so often
// tie on a corner coordinate as well as on the id.  Every loader must
// store the whole multiset, in the same pages at any thread count, both
// in memory and on the grid path.
TEST(BulkLoaderTest, EveryLoaderAcceptsRecordsThatShareIds) {
  auto data = workload::MakeTigerLike(20000, workload::TigerRegion::kEastern,
                                      5);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i].id = static_cast<DataId>(i / 2);
  }
  auto expect = data;
  CanonicalSort(&expect);
  for (LoaderKind kind : AllLoaderKinds()) {
    for (size_t memory : {size_t{256} << 10, size_t{64} << 20}) {
      SCOPED_TRACE(std::string(LoaderKindName(kind)) + " at " +
                   std::to_string(memory >> 10) + " KB");
      BuildOptions serial{.memory_bytes = memory};
      BuildOptions parallel = serial;
      parallel.threads = 4;
      Built a = Build(kind, data, serial);
      ASSERT_TRUE(ValidateTree(*a.tree).ok());
      auto dumped = DumpRecords(*a.tree);
      CanonicalSort(&dumped);
      EXPECT_TRUE(dumped == expect);
      Built b = Build(kind, data, parallel);
      ExpectTreesByteIdentical(a, b);
    }
  }
}

// Every loader shares one set of checks (BulkLoader::Build): each bad call
// below is refused with InvalidArgument, whatever the kind, and leaves the
// tree as it was.  A build onto a device other than the tree's would give
// the tree a root its first query cannot read.
TEST(BulkLoaderTest, EveryLoaderRefusesTheSameBadCalls) {
  struct Case {
    const char* what;
    BuildOptions opts;
    bool tree_elsewhere;  // the tree lives on another device
    bool tree_filled;     // the tree is built once before the bad call
  };
  const Case cases[] = {
      {"non-empty tree", {}, false, true},
      {"priority_fraction 0", {.priority_fraction = 0.0}, false, false},
      {"priority_fraction 1.5", {.priority_fraction = 1.5}, false, false},
      {"tree on another device", {}, true, false},
  };
  auto data = testing_util::RandomRects<2>(50, 5);
  for (LoaderKind kind : AllLoaderKinds()) {
    for (const Case& c : cases) {
      MemoryBlockDevice dev(4096), other(4096);
      RTree<2> tree(c.tree_elsewhere ? &other : &dev);
      if (c.tree_filled) {
        ASSERT_TRUE(MakeBulkLoader(kind)->Build(&dev, data, &tree).ok());
      }
      const size_t size = tree.size();
      Status st = MakeBulkLoader(kind, c.opts)->Build(&dev, data, &tree);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << LoaderKindName(kind) << ": " << c.what;
      EXPECT_EQ(tree.size(), size) << LoaderKindName(kind) << ": " << c.what;
    }
  }
}

TEST(BulkLoaderTest, HilbertCentreCurveIsTwoDOnly) {
  MemoryBlockDevice dev(1024);
  RTree<3> tree(&dev);
  Stream<Record<3>> input(&dev);
  auto loader = MakeBulkLoader<3>(LoaderKind::kHilbert, BuildOptions{});
  EXPECT_FALSE(loader->Build(&dev, &input, &tree).ok());
}

TEST(BulkLoaderTest, KindNamesRoundTrip) {
  for (LoaderKind kind : AllLoaderKinds()) {
    LoaderKind parsed;
    ASSERT_TRUE(ParseLoaderKind(LoaderKindName(kind), &parsed))
        << LoaderKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  LoaderKind k;
  EXPECT_TRUE(ParseLoaderKind("h4", &k));
  EXPECT_EQ(k, LoaderKind::kHilbert4D);
  EXPECT_FALSE(ParseLoaderKind("nope", &k));
}

}  // namespace
}  // namespace prtree
