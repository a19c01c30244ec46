// The block-based R-tree container shared by all index variants.
//
// Every bulk loader in this library (PR, packed Hilbert, 4-D Hilbert, TGS,
// STR) produces an instance of this one container: a height-balanced
// multiway tree of node blocks in which each internal entry stores the
// minimal bounding box of its child's subtree (§1.1).  Because the container
// and its query procedure are shared, query-performance comparisons between
// variants measure index quality only.
//
// All node reads flow through PinNode(), which returns a pinned PageGuard:
// with a BufferPool the guard is a zero-copy view over pool memory, without
// one it owns a private copy.  Queries are read-only over const tree state
// plus thread-safe device/pool calls, so any number of threads may query
// one tree concurrently (each gets its own exact QueryStats); mutations
// (bulk loads, updates, FreeAll) still require exclusive access.

#ifndef PRTREE_RTREE_RTREE_H_
#define PRTREE_RTREE_RTREE_H_

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "geom/rect.h"
#include "io/buffer_pool.h"
#include "rtree/node.h"
#include "rtree/node_scan.h"
#include "util/check.h"

namespace prtree {

/// \brief Query-time visit counters.
///
/// `leaves_visited` is the paper's reported query cost: with all internal
/// nodes cached (§3.3), I/Os per query == leaf blocks read.
struct QueryStats {
  uint64_t nodes_visited = 0;
  uint64_t internal_visited = 0;
  uint64_t leaves_visited = 0;
  uint64_t results = 0;

  QueryStats& operator+=(const QueryStats& o) {
    nodes_visited += o.nodes_visited;
    internal_visited += o.internal_visited;
    leaves_visited += o.leaves_visited;
    results += o.results;
    return *this;
  }
};

/// \brief Structural summary of a tree (per-level node counts, packing).
struct TreeStats {
  int height = 0;                      // root level; a leaf-only tree is 0
  uint64_t num_nodes = 0;              // all node blocks
  uint64_t num_leaves = 0;
  uint64_t num_entries = 0;            // data entries in leaves
  std::vector<uint64_t> nodes_per_level;
  double utilization = 0.0;            // filled entry slots / total slots
};

/// \brief A height-balanced R-tree of node blocks on a BlockDevice.
///
/// The object holds the tree's superblock state (root page, height, entry
/// count); the nodes live on the device.  Bulk loaders construct trees via
/// the page-level helpers (AllocateNode/WriteNode), dynamic updates via
/// update.h, and all reads go through Query/PinNode.
template <int D = 2>
class RTree {
 public:
  using RectT = Rect<D>;
  using RecordT = Record<D>;

  explicit RTree(BlockDevice* device) : device_(device) {
    PRTREE_CHECK(device_ != nullptr);
    PRTREE_CHECK(NodeCapacity<D>(device->block_size()) >= 2);
  }

  // Movable so containers of levels (core/dynamic_prtree.h) can grow; not
  // copyable, since a copy would be a second owner of the same pages.
  RTree(RTree&&) noexcept = default;
  RTree& operator=(RTree&&) noexcept = default;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  BlockDevice* device() const { return device_; }
  size_t block_size() const { return device_->block_size(); }

  /// Fan-out: entries per node block (113 for D = 2 with 4 KB blocks).
  size_t capacity() const { return NodeCapacity<D>(block_size()); }

  bool empty() const { return root_ == kInvalidPageId; }
  PageId root() const { return root_; }

  /// Level of the root node; 0 means the root is a leaf.  Undefined for an
  /// empty tree.
  int height() const { return height_; }

  /// Number of data records stored.
  size_t size() const { return size_; }

  /// Installs a bulk-loaded tree.  `size` is the number of data records.
  void SetRoot(PageId root, int height, size_t size) {
    root_ = root;
    height_ = height;
    size_ = size;
  }

  /// Adjusts the record count after updates.
  void set_size(size_t n) { size_ = n; }

  /// \brief Window query (§1.1): reports every stored record whose
  /// rectangle intersects `window` by calling `emit(const RecordT&)`.
  ///
  /// Visits exactly the nodes whose MBR intersects the window — the
  /// standard R-tree procedure the paper analyses.  If `pool` is non-null
  /// all node reads go through it (the paper's internal-node cache);
  /// otherwise nodes are read from the device.  Safe to call from many
  /// threads at once over one shared pool.
  ///
  /// Frontier readahead: when the pool has readahead enabled
  /// (BufferPool::set_readahead), every internal expansion prefetches the
  /// children it just enqueued — one level ahead of the traversal, so by
  /// the time a child is popped (LIFO: the new children come off first)
  /// its block is already staged, and the whole frontier was read as one
  /// batch (one io_uring submission on UringBlockDevice).  Readahead
  /// changes when blocks are read, never what is visited: QueryStats are
  /// byte-identical with it on or off.
  template <typename Emit>
  QueryStats Query(const RectT& window, Emit emit,
                   BufferPool* pool = nullptr) const {
    return QueryFrom(root_, window, emit, pool);
  }

  /// \brief Window query rooted at an explicit page instead of the tree's
  /// current root — the snapshot-read entry point.  A DynamicPRTree
  /// snapshot reader takes a level root from its pinned ForestVersion
  /// under an EpochGuard and traverses it here while the writer builds new
  /// levels on fresh pages; the traversal touches only `root`'s subtree,
  /// never this object's mutable root/height/size fields.  kInvalidPageId
  /// queries the empty tree.
  template <typename Emit>
  QueryStats QueryFrom(PageId root, const RectT& window, Emit emit,
                       BufferPool* pool = nullptr) const {
    QueryStats qs;
    if (root == kInvalidPageId) return qs;
    const bool readahead = pool != nullptr && pool->readahead_enabled();
    // (page, the highest level it may claim); the root's is not bounded.
    std::vector<std::pair<PageId, int>> stack{{root, kAnyLevel}};
    std::vector<PageId> ahead;  // readahead: the children just pushed
    PageGuard guard;  // hoisted: pool-less traversals reuse one buffer
    NodeScanner<D> scan;  // per-traversal scratch for the batched tests
    while (!stack.empty()) {
      const auto [page, max_level] = stack.back();
      stack.pop_back();
      PinNode(page, pool, &guard, max_level);
      ConstNodeView<D> node(guard.data(), block_size());
      ++qs.nodes_visited;
      // One batched intersection test per node (SIMD over SoA runs when
      // the layout and CPU allow — see rtree/node_scan.h); iterating the
      // mask in increasing entry order keeps emit order and QueryStats
      // byte-identical to the historical per-entry loop.
      const uint64_t* mask = scan.IntersectMask(node, window);
      const size_t words = RectMaskWords(node.count());
      if (node.is_leaf()) {
        ++qs.leaves_visited;
        ForEachSetBit(mask, words, [&](int i) {
          ++qs.results;
          emit(RecordT{node.GetRect(i), node.GetId(i)});
        });
      } else {
        ++qs.internal_visited;
        const size_t frontier = stack.size();
        const int child_level = node.level() - 1;
        ForEachSetBit(mask, words, [&](int i) {
          stack.emplace_back(node.GetId(i), child_level);
        });
        if (readahead && stack.size() - frontier >= 2) {
          ahead.clear();
          for (size_t i = frontier; i < stack.size(); ++i) {
            ahead.push_back(stack[i].first);
          }
          pool->Prefetch(ahead);
        }
      }
    }
    return qs;
  }

  /// Window query that materialises matching records.
  std::vector<RecordT> QueryToVector(const RectT& window,
                                     BufferPool* pool = nullptr) const {
    std::vector<RecordT> out;
    Query(window, [&](const RecordT& r) { out.push_back(r); }, pool);
    return out;
  }

  /// \brief Exact-match lookup: true iff a record with `rec`'s id and
  /// rectangle is stored.  Only an entry whose MBR contains rec.rect can
  /// lead to it, so the descent follows those entries alone (the delete
  /// descent's test, NodeScanner::CoversMask) and stops at the first
  /// match.  Reads through `pool` when given, else from the device.
  bool Contains(const RecordT& rec, BufferPool* pool = nullptr) const {
    if (empty()) return false;
    std::vector<std::pair<PageId, int>> stack{{root_, height_}};
    PageGuard guard;
    NodeScanner<D> scan;
    while (!stack.empty()) {
      const auto [page, max_level] = stack.back();
      stack.pop_back();
      PinNode(page, pool, &guard, max_level);
      ConstNodeView<D> node(guard.data(), block_size());
      if (node.is_leaf()) {
        for (int i = 0; i < node.count(); ++i) {
          if (node.GetId(i) == rec.id && node.GetRect(i) == rec.rect) {
            return true;
          }
        }
      } else {
        ForEachSetBit(scan.CoversMask(node, rec.rect),
                      RectMaskWords(node.count()), [&](int i) {
                        stack.emplace_back(node.GetId(i), node.level() - 1);
                      });
      }
    }
    return false;
  }

  /// MBR of the whole tree (Empty() for an empty tree).  Costs one node
  /// read.
  RectT Mbr() const {
    if (empty()) return RectT::Empty();
    PageGuard guard;
    PinNode(root_, nullptr, &guard);
    return ConstNodeView<D>(guard.data(), block_size()).ComputeMbr();
  }

  /// \brief Walks the whole tree and returns structural statistics
  /// (§3.3's space-utilisation numbers).
  TreeStats ComputeStats() const {
    TreeStats ts;
    if (empty()) return ts;
    ts.height = height_;
    ts.nodes_per_level.assign(height_ + 1, 0);
    uint64_t slots = 0;
    uint64_t filled = 0;
    std::vector<std::pair<PageId, int>> stack{{root_, height_}};
    PageGuard guard;
    while (!stack.empty()) {
      const auto [page, max_level] = stack.back();
      stack.pop_back();
      PinNode(page, nullptr, &guard, max_level);
      ConstNodeView<D> node(guard.data(), block_size());
      ++ts.num_nodes;
      ts.nodes_per_level[node.level()] += 1;
      slots += node.capacity();
      filled += node.count();
      if (node.is_leaf()) {
        ++ts.num_leaves;
        ts.num_entries += node.count();
      } else {
        for (int i = 0; i < node.count(); ++i) {
          stack.emplace_back(node.GetId(i), node.level() - 1);
        }
      }
    }
    ts.utilization = slots == 0 ? 0.0 : static_cast<double>(filled) / slots;
    return ts;
  }

  /// \brief Walks the tree depth-first, appends every node page to `out`,
  /// calls `visit(const RecordT&)` on every leaf record in walk order, and
  /// resets to empty *without freeing anything*.  DynamicPRTree streams a
  /// merged level's records into its rebuild this way, reading each page
  /// once, and retires the pages (io/epoch.h) after publishing the version
  /// swap that obsoleted them, so snapshot readers drain before the ids
  /// return to the device free list.
  template <typename Visit>
  void DetachPages(std::vector<PageId>* out, Visit visit) {
    if (empty()) return;
    std::vector<std::pair<PageId, int>> stack{{root_, height_}};
    PageGuard guard;
    while (!stack.empty()) {
      const auto [page, max_level] = stack.back();
      stack.pop_back();
      PinNode(page, nullptr, &guard, max_level);
      ConstNodeView<D> node(guard.data(), block_size());
      for (int i = 0; i < node.count(); ++i) {
        if (node.is_leaf()) {
          visit(RecordT{node.GetRect(i), node.GetId(i)});
        } else {
          stack.emplace_back(node.GetId(i), node.level() - 1);
        }
      }
      out->push_back(page);
    }
    root_ = kInvalidPageId;
    height_ = 0;
    size_ = 0;
  }

  /// Frees every node block of the tree, in DetachPages() order, and
  /// resets to empty.
  void FreeAll() {
    std::vector<PageId> pages;
    DetachPages(&pages, [](const RecordT&) {});
    for (PageId page : pages) device_->Free(page);
  }

  /// The `max_level` to pass PinNode for a node whose level nothing
  /// bounds: the root of a traversal from an explicit page (QueryFrom,
  /// KnnSearchFrom), or a reader that checks levels itself and reports
  /// them as a Status (ValidateTree).
  static constexpr int kAnyLevel = std::numeric_limits<int>::max();

  /// \brief Pins node `page` into `guard`: through `pool` when given
  /// (zero-copy over the cached frame), else a private copy read from the
  /// device (a hoisted guard re-pinned in a loop reuses its buffer, so
  /// pool-less traversals stay allocation-free).  Any previous pin held by
  /// `guard` is dropped.  Aborts on I/O error, on a node whose entry count
  /// exceeds its capacity, and on a node whose level field is above
  /// `max_level`: one below its parent's level for a child, the tree
  /// height for the tree's own root.  Not "exactly one below": the
  /// pseudo-PR-tree index (core/pseudo_prtree.h) keeps leaves on many
  /// levels.  In a height-balanced tree every leaf's parent is at level
  /// 1, so no damaged leaf level gets past the check.  Node pages are
  /// internal pointers, so an unreadable page, one whose entries would run
  /// past the block, or a leaf whose data ids a wrong level would follow
  /// as pages, is index corruption, not a recoverable condition.
  void PinNode(PageId page, BufferPool* pool, PageGuard* guard,
               int max_level = kAnyLevel) const {
    if (pool != nullptr) {
      AbortIfError(pool->Pin(page, guard));
    } else {
      AbortIfError(ReadPage(*device_, page, guard));
    }
    ConstNodeView<D> node(guard->data(), block_size());
    if (node.count() > node.capacity()) {
      AbortIfError(Status::Corruption(
          "page " + std::to_string(page) + " holds " +
          std::to_string(node.count()) + " entries, over its capacity of " +
          std::to_string(node.capacity())));
    }
    if (node.level() > max_level) {
      AbortIfError(Status::Corruption(
          "page " + std::to_string(page) + " claims level " +
          std::to_string(node.level()) +
          ", but its place in the tree allows at most level " +
          std::to_string(max_level)));
    }
  }

  /// \brief Warms `pool` with every internal node — the paper's query setup
  /// ("in all our experiments we cached all internal nodes", §3.3).  Leaves
  /// are deliberately not cached, so query I/O == leaves read.
  /// Returns the number of internal nodes loaded.
  size_t CacheInternalNodes(BufferPool* pool) const {
    if (empty() || height_ == 0) return 0;
    size_t loaded = 0;
    std::vector<std::pair<PageId, int>> stack{{root_, height_}};
    PageGuard guard;
    while (!stack.empty()) {
      auto [page, max_level] = stack.back();
      stack.pop_back();
      PinNode(page, pool, &guard, max_level);
      ConstNodeView<D> node(guard.data(), block_size());
      ++loaded;
      if (node.level() <= 1) continue;  // children are leaves
      for (int i = 0; i < node.count(); ++i) {
        stack.push_back({node.GetId(i), node.level() - 1});
      }
    }
    return loaded;
  }

 private:
  BlockDevice* device_;
  PageId root_ = kInvalidPageId;
  int height_ = 0;
  size_t size_ = 0;
};

using RTree2 = RTree<2>;

}  // namespace prtree

#endif  // PRTREE_RTREE_RTREE_H_
