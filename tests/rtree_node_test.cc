#include "rtree/node.h"

#include <gtest/gtest.h>

#include <vector>

#include "rtree/builder.h"
#include "tests/test_util.h"

namespace prtree {
namespace {

TEST(NodeLayoutTest, PaperRecordSizesAndFanout) {
  // §3.1: 36-byte records, 4 KB blocks, max fan-out 113.
  EXPECT_EQ(NodeEntrySize<2>(), 36u);
  EXPECT_EQ(NodeCapacity<2>(4096), 113u);
  // 3-D entries: 6 coordinates + id = 52 bytes.
  EXPECT_EQ(NodeEntrySize<3>(), 52u);
  EXPECT_EQ(NodeCapacity<3>(4096), 78u);
}

TEST(NodeViewTest, FormatAndHeaderFields) {
  std::vector<std::byte> buf(4096);
  NodeView<2> node(buf.data(), buf.size());
  EXPECT_FALSE(node.IsFormatted());
  node.Format(3);
  EXPECT_TRUE(node.IsFormatted());
  EXPECT_EQ(node.level(), 3);
  EXPECT_FALSE(node.is_leaf());
  EXPECT_EQ(node.count(), 0);
  node.Format(0);
  EXPECT_TRUE(node.is_leaf());
}

TEST(NodeViewTest, EntryRoundTrip) {
  std::vector<std::byte> buf(4096);
  NodeView<2> node(buf.data(), buf.size());
  node.Format(0);
  auto data = testing_util::RandomRects<2>(113, 7);
  for (const auto& rec : data) node.Append(rec.rect, rec.id);
  EXPECT_TRUE(node.full());
  ASSERT_EQ(node.count(), 113);
  for (int i = 0; i < 113; ++i) {
    EXPECT_EQ(node.GetRect(i), data[i].rect);
    EXPECT_EQ(node.GetId(i), data[i].id);
  }
}

TEST(NodeViewTest, SerializationSurvivesDeviceRoundTrip) {
  MemoryBlockDevice dev(4096);
  std::vector<std::byte> buf(4096);
  NodeView<2> node(buf.data(), buf.size());
  node.Format(2);
  auto data = testing_util::RandomRects<2>(50, 11);
  for (const auto& rec : data) node.Append(rec.rect, rec.id);
  PageId p = dev.Allocate();
  ASSERT_TRUE(dev.Write(p, buf.data()).ok());

  std::vector<std::byte> buf2(4096);
  ASSERT_TRUE(dev.Read(p, buf2.data()).ok());
  NodeView<2> node2(buf2.data(), buf2.size());
  EXPECT_TRUE(node2.IsFormatted());
  EXPECT_EQ(node2.level(), 2);
  ASSERT_EQ(node2.count(), 50);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(node2.GetRect(i), data[i].rect);
    EXPECT_EQ(node2.GetId(i), data[i].id);
  }
}

TEST(NodeViewTest, RemoveSwap) {
  std::vector<std::byte> buf(4096);
  NodeView<2> node(buf.data(), buf.size());
  node.Format(0);
  node.Append(MakeRect(0, 0, 1, 1), 10);
  node.Append(MakeRect(1, 1, 2, 2), 11);
  node.Append(MakeRect(2, 2, 3, 3), 12);
  node.RemoveSwap(0);  // last entry (id 12) moves into slot 0
  ASSERT_EQ(node.count(), 2);
  EXPECT_EQ(node.GetId(0), 12u);
  EXPECT_EQ(node.GetId(1), 11u);
  node.RemoveSwap(1);
  ASSERT_EQ(node.count(), 1);
  EXPECT_EQ(node.GetId(0), 12u);
}

TEST(NodeViewTest, ComputeMbr) {
  std::vector<std::byte> buf(4096);
  NodeView<2> node(buf.data(), buf.size());
  node.Format(0);
  EXPECT_TRUE(node.ComputeMbr().IsEmpty());
  node.Append(MakeRect(0.2, 0.3, 0.4, 0.5), 1);
  node.Append(MakeRect(0.1, 0.4, 0.3, 0.9), 2);
  EXPECT_EQ(node.ComputeMbr(), MakeRect(0.1, 0.3, 0.4, 0.9));
}

TEST(NodeViewTest, ThreeDimensionalEntries) {
  std::vector<std::byte> buf(4096);
  NodeView<3> node(buf.data(), buf.size());
  node.Format(0);
  auto data = testing_util::RandomRects<3>(78, 13);
  for (const auto& rec : data) node.Append(rec.rect, rec.id);
  EXPECT_TRUE(node.full());
  for (int i = 0; i < 78; ++i) {
    EXPECT_EQ(node.GetRect(i), data[i].rect);
  }
}

TEST(NodeWriterTest, PacksFullNodes) {
  MemoryBlockDevice dev(4096);
  NodeWriter<2> writer(&dev, /*level=*/0);
  auto data = testing_util::RandomRects<2>(300, 17);
  for (const auto& rec : data) writer.Add(rec.rect, rec.id);
  auto level = writer.Finish();
  // 300 records at 113/leaf -> 3 leaves (113, 113, 74).
  ASSERT_EQ(level.size(), 3u);
  std::vector<std::byte> buf(4096);
  size_t total = 0;
  for (const auto& e : level) {
    ASSERT_TRUE(dev.Read(e.page, buf.data()).ok());
    NodeView<2> node(buf.data(), buf.size());
    EXPECT_EQ(node.ComputeMbr(), e.mbr);
    EXPECT_TRUE(node.is_leaf());
    total += node.count();
  }
  EXPECT_EQ(total, 300u);
}

TEST(NodeWriterTest, EndNodeFinishesAPartialNode) {
  MemoryBlockDevice dev(4096);
  NodeWriter<2> writer(&dev, /*level=*/1);
  auto data = testing_util::RandomRects<2>(25, 19);
  for (size_t i = 0; i < data.size(); ++i) {
    writer.Add(data[i].rect, data[i].id);
    if (i % 10 == 9) writer.EndNode();
  }
  writer.EndNode();
  writer.EndNode();  // an empty node is never written
  auto level = writer.Finish();
  ASSERT_EQ(level.size(), 3u);  // 10 + 10 + 5
  std::vector<std::byte> buf(4096);
  const int expect[] = {10, 10, 5};
  for (size_t i = 0; i < level.size(); ++i) {
    ASSERT_TRUE(dev.Read(level[i].page, buf.data()).ok());
    NodeView<2> node(buf.data(), buf.size());
    EXPECT_EQ(node.count(), expect[i]);
    EXPECT_EQ(node.level(), 1);
    EXPECT_EQ(node.ComputeMbr(), level[i].mbr);
  }
  EXPECT_EQ(dev.num_allocated(), 3u);
}

TEST(PackUpwardTest, BuildsBalancedTreeAndRoot) {
  MemoryBlockDevice dev(512);  // capacity (512-16)/36 = 13 for D=2
  EXPECT_EQ(NodeCapacity<2>(512), 13u);
  RTree<2> tree(&dev);
  auto data = testing_util::RandomRects<2>(1000, 23);
  NodeWriter<2> writer(&dev, 0);
  for (const auto& rec : data) writer.Add(rec.rect, rec.id);
  PackUpward(&tree, writer.Finish(), data.size());
  EXPECT_FALSE(tree.empty());
  EXPECT_EQ(tree.size(), 1000u);
  // 1000/13 = 77 leaves; 77/13 = 6; 6/13 = 1 root -> height 2.
  EXPECT_EQ(tree.height(), 2);
  TreeStats ts = tree.ComputeStats();
  EXPECT_EQ(ts.num_entries, 1000u);
  EXPECT_EQ(ts.nodes_per_level[0], 77u);
  EXPECT_GT(ts.utilization, 0.9);
}

TEST(PackUpwardTest, SingleLeafTree) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  auto data = testing_util::RandomRects<2>(5, 29);
  NodeWriter<2> writer(&dev, 0);
  for (const auto& rec : data) writer.Add(rec.rect, rec.id);
  PackUpward(&tree, writer.Finish(), data.size());
  EXPECT_EQ(tree.height(), 0);
  EXPECT_EQ(tree.size(), 5u);
}

}  // namespace
}  // namespace prtree
