// Shared node-writing helpers for bulk loaders.
//
// All one-dimensional-ordering loaders (packed Hilbert, 4-D Hilbert, STR)
// and the stages of PR construction share the same mechanics: write runs
// of records as leaves, then repeatedly pack each level's (MBR, page)
// entries into parent nodes until a single root remains ("bottom-up
// level-by-level", §1.1 [10, 15, 18]).
//
// Every node a bulk loader writes goes through a NodeWriter on the
// loader's calling thread; the PR loader's one-block root is the only
// exception (a batch of one buys nothing).  A NodeWriter allocates each
// node's page when the node is finished, so pages are allocated in node
// order, and emits the node through a WriteStager, so on a batching
// backend (a uring device opened for O_DIRECT) a train of node writes is a
// few WriteBatch submissions instead of one pwrite each.  The loaders that
// finish nodes of several levels interleaved, TGS (baselines/tgs_rtree.h)
// and the pseudo-PR-tree index (core/pseudo_prtree.h), keep one NodeWriter
// per level and take each node's (MBR, page) from EndNode().  Each page is
// written exactly once and read only after its writer's Finish(), so the
// staged build is byte-identical to a scalar one, and its write_batches
// count is a function of the node sequence alone.

#ifndef PRTREE_RTREE_BUILDER_H_
#define PRTREE_RTREE_BUILDER_H_

#include <vector>

#include "io/write_stager.h"
#include "rtree/rtree.h"

namespace prtree {

/// An entry of a tree level under construction: a finished node and its MBR.
template <int D>
struct LevelEntry {
  Rect<D> mbr;
  PageId page;
};

/// \brief Incrementally packs records (or child entries) into node blocks of
/// a fixed level, emitting a LevelEntry per finished node.
///
/// A node is finished when it is full or when the caller ends it early
/// with EndNode().  Feeding entries in the loader's chosen order and
/// cutting only full nodes yields the near-100 % space utilisation the
/// paper reports (§3.3).
template <int D>
class NodeWriter {
 public:
  /// \param device destination device.
  /// \param level  tree level of the nodes written (0 = leaf).
  NodeWriter(BlockDevice* device, int level)
      : device_(device),
        level_(level),
        buf_(device->block_size()),
        node_(buf_.data(), device->block_size()),
        stager_(device) {
    node_.Format(static_cast<uint16_t>(level_));
  }

  /// Adds one entry, finishing the node once it is full.
  void Add(const Rect<D>& rect, uint32_t id) {
    node_.Append(rect, id);
    if (node_.full()) EndNode();
  }

  /// Finishes the current node, if it holds any entry, and returns the
  /// last finished node: this one, or the one Add() finished when it
  /// filled.  At least one node must have been finished.
  LevelEntry<D> EndNode() {
    if (node_.count() != 0) {
      PageId page = device_->Allocate();
      finished_.push_back(LevelEntry<D>{node_.ComputeMbr(), page});
      stager_.Stage(page, buf_.data());
      node_.Format(static_cast<uint16_t>(level_));
    }
    PRTREE_CHECK(!finished_.empty());
    return finished_.back();
  }

  /// Finishes any partial node, drains every staged node block to the
  /// device, and returns the finished level.
  std::vector<LevelEntry<D>> Finish() {
    if (node_.count() != 0) EndNode();
    stager_.Drain();
    return std::move(finished_);
  }

 private:
  BlockDevice* device_;
  int level_;
  std::vector<std::byte> buf_;
  NodeView<D> node_;
  WriteStager stager_;
  std::vector<LevelEntry<D>> finished_;
};

/// \brief Builds the upper levels of `tree` by repeatedly packing
/// `level0` (finished leaves, in the loader's order) into full parent
/// nodes until one node remains, then installs the root.
///
/// \param tree       destination tree (must be empty).
/// \param level0     the finished leaf level.
/// \param data_count number of data records stored in the leaves.
template <int D>
void PackUpward(RTree<D>* tree, std::vector<LevelEntry<D>> level0,
                size_t data_count) {
  PRTREE_CHECK(tree->empty());
  PRTREE_CHECK(!level0.empty());
  std::vector<LevelEntry<D>> level = std::move(level0);
  int height = 0;
  while (level.size() > 1) {
    ++height;
    NodeWriter<D> writer(tree->device(), height);
    for (const auto& child : level) writer.Add(child.mbr, child.page);
    level = writer.Finish();
  }
  tree->SetRoot(level.front().page, height, data_count);
}

}  // namespace prtree

#endif  // PRTREE_RTREE_BUILDER_H_
