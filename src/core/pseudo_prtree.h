// The pseudo-PR-tree (§2.1) — the building block of the PR-tree.
//
// A pseudo-PR-tree on a set S of rectangles is a 2D-dimensional kd-tree on
// the corner transformation S*, augmented so that every internal node first
// extracts 2D "priority leaves": the B rectangles that are most extreme in
// each of the 2D directions (leftmost left edges, bottommost bottom edges,
// rightmost right edges, topmost top edges for D = 2).  The remaining
// rectangles are split at the median of one corner coordinate, cycling
// through the 2D coordinates round-robin by depth.
//
// Lemma 2 gives the payoff: a window query visits only
// O((N/B)^(1-1/d) + T/B) nodes — the structure this library exists to
// reproduce.
//
// This header implements the in-memory builder.  It is used directly when a
// construction stage fits in memory (the paper's base case, which also makes
// the "slightly unbalanced" multiple-of-B splits that give ~100 % packing),
// by the I/O-efficient grid builder (core/grid_builder.h) for its recursion
// base, and by tests that check the structural invariants.  Only the leaf
// sets matter for PR-tree construction — §2.2 discards the internal kd
// nodes — so the builder's primary product is a stream of leaf chunks; an
// explicit queryable pseudo-PR-tree index is also provided for §2.1
// experiments and tests.

#ifndef PRTREE_CORE_PSEUDO_PRTREE_H_
#define PRTREE_CORE_PSEUDO_PRTREE_H_

#include <algorithm>
#include <deque>
#include <vector>

#include "core/corner_order.h"
#include "geom/rect.h"
#include "rtree/builder.h"
#include "rtree/rtree.h"
#include "util/check.h"
#include "util/parallel.h"

namespace prtree {

/// Identifies what role a leaf chunk plays in its pseudo-PR-tree node.
/// Values 0..2D-1 are priority leaves for that corner direction; kPlainLeaf
/// marks kd-subdivision leaves (and the chunks of small nodes).
inline constexpr int kPlainLeaf = -1;

/// \brief A leaf chunk emitted by the builder: `count` records starting at
/// `offset` in the (reordered) input array.
///
/// `subtree_end` is the end offset of the pseudo-PR-tree node's whole
/// range; for a priority leaf in direction c, every record in
/// [offset + count, subtree_end) is no more extreme than the chunk's least
/// extreme member — the invariant tests verify.
struct PseudoLeafChunk {
  size_t offset;
  size_t count;
  int dir;           // kPlainLeaf or a direction in [0, 2D)
  int depth;         // kd depth of the emitting node
  size_t subtree_end;
};

/// \brief In-memory pseudo-PR-tree construction over a record array.
///
/// The records vector is permuted in place; leaves are contiguous ranges of
/// the permuted array, reported through a callback in construction order.
template <int D>
class PseudoPRTreeBuilder {
 public:
  using Rec = Record<D>;
  static constexpr int kDirs = 2 * D;

  /// \param capacity      the paper's B: records per leaf (R-tree fan-out).
  /// \param priority_size records per priority leaf; defaults to B (the
  ///        PR-tree).  Values below B move toward Agarwal et al.'s
  ///        structure [2], whose priority "boxes" hold a single rectangle
  ///        (§2.1) — exposed for the ablation benchmark.
  explicit PseudoPRTreeBuilder(size_t capacity, size_t priority_size = 0)
      : capacity_(capacity),
        priority_size_(priority_size == 0 ? capacity : priority_size) {
    PRTREE_CHECK(capacity_ >= 1);
    PRTREE_CHECK(priority_size_ >= 1 && priority_size_ <= capacity_);
  }

  /// \brief Builds the pseudo-PR-tree over `records` (permuted in place),
  /// invoking `emit(const PseudoLeafChunk&)` for every leaf.
  ///
  /// `start_depth` seeds the round-robin split dimension; the grid builder
  /// passes the kd depth already consumed by its top phase.
  ///
  /// When `pool` is non-null the left/right kd recursion runs as pool tasks
  /// down to a depth cutoff.  The permutation and the emitted chunk
  /// sequence are *identical* to the serial build: subtrees permute
  /// disjoint subranges, every selection runs on the same data either way,
  /// and each subtree's chunks are buffered and spliced back in DFS order
  /// before `emit` sees them.  `emit` itself is always invoked on the
  /// calling thread.
  template <typename Emit>
  void EmitLeaves(std::vector<Rec>* records, Emit emit, int start_depth = 0,
                  ThreadPool* pool = nullptr) const {
    const size_t n = records->size();
    if (pool == nullptr || pool->num_threads() <= 1 ||
        n <= ParallelGrain()) {
      Build(records->data(), 0, n, start_depth, emit);
      return;
    }
    // 2x oversubscription of fork leaves keeps the pool busy despite the
    // slightly unbalanced multiple-of-B splits.
    int cutoff = 1;
    while ((size_t{1} << cutoff) < 2 * pool->num_threads()) ++cutoff;
    std::vector<PseudoLeafChunk> chunks;
    BuildParallel(records->data(), 0, n, start_depth, cutoff, pool, &chunks);
    for (const PseudoLeafChunk& c : chunks) emit(c);
  }

 private:
  /// Smallest subproblem worth forking: below this, task overhead beats
  /// the O(n) selection work; also guarantees BuildParallel only ever
  /// splits full nodes.
  size_t ParallelGrain() const {
    return std::max<size_t>(kDirs * priority_size_ + 2 * capacity_, 1u << 13);
  }

  template <typename Emit>
  void Build(Rec* data, size_t offset, size_t n, int depth,
             Emit& emit) const {
    const size_t b = capacity_;
    if (n == 0) return;
    if (n <= b) {
      // Single leaf (the recursion base of the definition).
      emit(PseudoLeafChunk{offset, n, kPlainLeaf, depth, offset + n});
      return;
    }
    if (n <= kDirs * priority_size_ + 2 * b) {
      EmitSmallNode(data, offset, n, depth, emit);
      return;
    }
    size_t skip = 0, left = 0;
    SplitFullNode(data, offset, n, depth, emit, &skip, &left);
    Build(data + skip, offset + skip, left, depth + 1, emit);
    Build(data + skip + left, offset + skip + left, n - skip - left,
          depth + 1, emit);
  }

  /// Forked variant of Build: chunks are appended to `out` in the exact
  /// serial DFS order (priority leaves, then the left subtree's chunks,
  /// then the right's).
  void BuildParallel(Rec* data, size_t offset, size_t n, int depth,
                     int cutoff, ThreadPool* pool,
                     std::vector<PseudoLeafChunk>* out) const {
    auto collect = [out](const PseudoLeafChunk& c) { out->push_back(c); };
    if (cutoff <= 0 || n <= ParallelGrain()) {
      Build(data, offset, n, depth, collect);
      return;
    }
    size_t skip = 0, left = 0;
    SplitFullNode(data, offset, n, depth, collect, &skip, &left);
    std::vector<PseudoLeafChunk> left_chunks;
    ThreadPool::TaskGroup group;
    pool->Submit(&group, [this, data, offset, skip, left, depth, cutoff,
                          pool, &left_chunks] {
      BuildParallel(data + skip, offset + skip, left, depth + 1, cutoff - 1,
                    pool, &left_chunks);
    });
    std::vector<PseudoLeafChunk> right_chunks;
    BuildParallel(data + skip + left, offset + skip + left, n - skip - left,
                  depth + 1, cutoff - 1, pool, &right_chunks);
    pool->WaitFor(&group);
    out->insert(out->end(), left_chunks.begin(), left_chunks.end());
    out->insert(out->end(), right_chunks.begin(), right_chunks.end());
  }

  /// Small node: too few records for 2D full priority leaves plus two
  /// Θ(B) subtrees.  Following §2.1's remark ("we may make the priority
  /// leaves under its parent slightly smaller so that all leaves contain
  /// Θ(B) rectangles"), divide the set evenly into m = ceil(n/B) <= 2D+2
  /// chunks of >= B/2 records, selected most-extreme-first in the
  /// direction cycle.
  template <typename Emit>
  void EmitSmallNode(Rec* data, size_t offset, size_t n, int depth,
                     Emit& emit) const {
    const size_t b = capacity_;
    size_t m = (n + b - 1) / b;
    size_t base = n / m;
    size_t extra = n % m;
    Rec* ptr = data;
    size_t rem = n;
    size_t end = offset + n;
    for (size_t c = 0; c < m; ++c) {
      size_t sz = base + (c < extra ? 1 : 0);
      int dir = static_cast<int>(c % kDirs);
      if (sz < rem) {
        std::nth_element(ptr, ptr + sz, ptr + rem, ExtremeLess<D>{dir});
      }
      emit(PseudoLeafChunk{offset + static_cast<size_t>(ptr - data), sz, dir,
                           depth, end});
      ptr += sz;
      rem -= sz;
    }
    PRTREE_DCHECK(rem == 0);
  }

  /// Full node: emits the 2D priority leaves of exactly priority_size_
  /// extreme records each (= B for the PR-tree) and computes the median
  /// split of the remainder on the round-robin corner coordinate.  On
  /// return the records of [skip, skip + left) / [skip + left, n) are the
  /// left / right kd children.
  template <typename Emit>
  void SplitFullNode(Rec* data, size_t offset, size_t n, int depth,
                     Emit& emit, size_t* skip_out, size_t* left_out) const {
    const size_t b = capacity_;
    const size_t p = priority_size_;
    Rec* ptr = data;
    size_t rem = n;
    size_t end = offset + n;
    for (int c = 0; c < kDirs; ++c) {
      std::nth_element(ptr, ptr + p, ptr + rem, ExtremeLess<D>{c});
      emit(PseudoLeafChunk{offset + static_cast<size_t>(ptr - data), p, c,
                           depth, end});
      ptr += p;
      rem -= p;
    }
    PRTREE_DCHECK(rem >= 2 * b);
    int dim = depth % kDirs;
    // Multiple-of-B left side (§2.1, "slightly unbalanced divisions, so
    // that we have a multiple of B points on one side of each dividing
    // hyperplane"): keeps every kd leaf full except at most one.
    size_t left = (rem / 2 / b) * b;
    PRTREE_DCHECK(left >= b && rem - left >= b);
    std::nth_element(ptr, ptr + left, ptr + rem, CoordLess<D>{dim});
    *skip_out = static_cast<size_t>(ptr - data);
    *left_out = left;
  }

  size_t capacity_;
  size_t priority_size_;
};

/// \brief Builds a queryable pseudo-PR-tree index on a device.
///
/// Unlike the PR-tree, the pseudo-PR-tree is not height-balanced: internal
/// nodes have degree <= 2D + 2 and leaves appear on many levels.  The nodes
/// are stored in the standard block format with each internal node's level
/// set to 1 + max(children levels), so is_leaf and query traversal work
/// unchanged; balance validation does not apply.
///
/// Returned through the shared RTree container so the standard Query is
/// reused; `tree->height()` is the root's level.
template <int D>
void BuildPseudoPRTreeIndex(std::vector<Record<D>>* records,
                            RTree<D>* tree) {
  PRTREE_CHECK(tree->empty());
  if (records->empty()) return;
  PseudoPRTreeBuilder<D> builder(tree->capacity());

  // The emitted chunk stream is in DFS order: a node's priority leaves are
  // emitted before its subtrees, and subtree_end tells when a subtree's
  // range closes.  Reconstruct the node structure from that stream.
  struct Node {
    LevelEntry<D> entry;
    int level;
  };
  struct Frame {
    size_t end;                // subtree range end
    int depth;
    std::vector<Node> kids;    // children collected so far
  };
  std::vector<Frame> stack;

  // Nodes are written on this thread, each through the NodeWriter of its
  // level (rtree/builder.h); nothing reads them before the writers finish.
  std::deque<NodeWriter<D>> writers;
  auto writer = [&](int level) -> NodeWriter<D>& {
    while (writers.size() <= static_cast<size_t>(level)) {
      writers.emplace_back(tree->device(), static_cast<int>(writers.size()));
    }
    return writers[level];
  };
  auto close_frame = [&](const Frame& f) {
    // Write the internal node over the collected children.
    PRTREE_CHECK(!f.kids.empty());
    if (f.kids.size() == 1) return f.kids.front();  // degenerate: hoist
    int level = 0;
    for (const Node& k : f.kids) level = std::max(level, k.level + 1);
    NodeWriter<D>& w = writer(level);
    for (const Node& k : f.kids) w.Add(k.entry.mbr, k.entry.page);
    return Node{w.EndNode(), level};
  };

  builder.EmitLeaves(records, [&](const PseudoLeafChunk& chunk) {
    // Open frames for any nodes this chunk begins (the emission order
    // guarantees a node's first chunk arrives before any of its content).
    if (stack.empty() || chunk.subtree_end != stack.back().end ||
        chunk.depth != stack.back().depth) {
      stack.push_back(Frame{chunk.subtree_end, chunk.depth, {}});
    }
    NodeWriter<D>& leaves = writer(0);
    for (size_t i = chunk.offset; i < chunk.offset + chunk.count; ++i) {
      leaves.Add((*records)[i].rect, (*records)[i].id);
    }
    stack.back().kids.push_back(Node{leaves.EndNode(), 0});
    // Close every frame whose range ends at this chunk's end.
    while (stack.size() > 1 &&
           chunk.offset + chunk.count == stack.back().end) {
      Node done = close_frame(stack.back());
      stack.pop_back();
      stack.back().kids.push_back(done);
    }
  });
  PRTREE_CHECK(stack.size() == 1);
  Node root = close_frame(stack.front());
  for (auto& w : writers) w.Finish();
  tree->SetRoot(root.entry.page, root.level, records->size());
}

}  // namespace prtree

#endif  // PRTREE_CORE_PSEUDO_PRTREE_H_
