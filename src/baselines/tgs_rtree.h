// Top-down Greedy Split (TGS) R-tree bulk loading — the strongest query
// baseline in the paper's evaluation (§1.1 [12], García, López,
// Leutenegger).
//
// To build the root of (a subtree of) an R-tree over a set of rectangles,
// TGS repeatedly bisects the set until it falls into <= B subsets, each of
// which becomes a recursively built child subtree.  Every binary partition
// considers the 2D one-dimensional orderings (by xmin, ymin, xmax, ymax for
// D = 2) and, per ordering, the O(B) cut positions that keep whole
// child-subtree units together; it applies the cut minimising the sum of
// the areas of the two resulting bounding boxes.  Per the paper's footnote,
// subtree sizes are units of B^h (a power of B), so every child except one
// remainder is completely full.
//
// The implementation keeps, for every (sub)set, 2D sorted streams (one per
// ordering).  A binary split scans each stream once to evaluate prefix and
// suffix bounding boxes at unit granularity, then scans again to route
// records by comparing them with the winning cut's record — all
// through the device, so the measured I/O reproduces TGS's characteristic
// O((N/B) log2 (N/B)) build cost and its data-dependence (Figures 9-11).

#ifndef PRTREE_BASELINES_TGS_RTREE_H_
#define PRTREE_BASELINES_TGS_RTREE_H_

#include <deque>
#include <limits>
#include <vector>

#include "core/corner_order.h"
#include "io/external_sort.h"
#include "io/stream.h"
#include "io/work_env.h"
#include "rtree/builder.h"
#include "rtree/rtree.h"
#include "util/status.h"

namespace prtree {

namespace internal {

template <int D>
class TgsLoader {
 public:
  using Rec = Record<D>;
  static constexpr int kOrders = 2 * D;

  TgsLoader(WorkEnv env, size_t capacity) : env_(env), capacity_(capacity) {}

  /// Builds the whole tree; returns the root's level entry.
  LevelEntry<D> Build(Stream<Rec>* input, int* out_height) {
    SortedSet set;
    set.n = input->size();
    for (int c = 0; c < kOrders; ++c) {
      set.lists.push_back(ExternalSort(env_, input, CoordLess<D>{c}));
    }
    // Height: smallest h with capacity^(h+1) >= n.
    int h = 0;
    double subtree = static_cast<double>(capacity_);
    while (subtree < static_cast<double>(set.n)) {
      ++h;
      subtree *= static_cast<double>(capacity_);
    }
    *out_height = h;
    for (int level = 0; level <= h; ++level) {
      writers_.emplace_back(env_.device, level);
    }
    LevelEntry<D> root = BuildNode(std::move(set), h);
    for (auto& writer : writers_) writer.Finish();
    return root;
  }

 private:
  struct SortedSet {
    std::vector<Stream<Rec>> lists;  // kOrders parallel sorted streams
    size_t n = 0;

    void Drop() {
      for (auto& l : lists) l.Clear();
    }
  };

  /// Records a candidate binary cut: ordering `order`, `left_n` records on
  /// the low side, which are exactly those CoordLess(order) than the cut
  /// record `t`, the first of the high side.
  struct Cut {
    int order = -1;
    size_t left_n = 0;
    Rec t{};
    Real cost = std::numeric_limits<Real>::infinity();
  };

  /// Subtree capacity at height h: capacity^(h+1) records.
  size_t UnitSize(int h) const {
    size_t u = capacity_;
    for (int i = 0; i < h; ++i) u *= capacity_;
    return u;
  }

  /// Builds the subtree over `set` and writes its root, a node at
  /// `height`, through that level's NodeWriter once every child is written.
  LevelEntry<D> BuildNode(SortedSet set, int height) {
    NodeWriter<D>& writer = writers_[height];
    if (height == 0) {
      PRTREE_CHECK(set.n <= capacity_);
      std::vector<Rec> recs;
      set.lists[0].ReadAll(&recs);
      set.Drop();
      for (const auto& r : recs) writer.Add(r.rect, r.id);
      return writer.EndNode();
    }

    // Partition into <= capacity units of B^height records, then build
    // each child at height - 1.
    const size_t unit = UnitSize(height - 1);
    PRTREE_CHECK(set.n > 0 && set.n <= unit * capacity_);
    std::vector<SortedSet> groups;
    Partition(std::move(set), unit, &groups);
    PRTREE_CHECK(groups.size() <= capacity_);
    for (auto& g : groups) {
      LevelEntry<D> child = BuildNode(std::move(g), height - 1);
      writer.Add(child.mbr, child.page);
    }
    return writer.EndNode();
  }

  /// Greedy recursive bisection down to single units.
  void Partition(SortedSet set, size_t unit, std::vector<SortedSet>* out) {
    if (set.n <= unit) {
      out->push_back(std::move(set));
      return;
    }
    Cut best = FindBestCut(set, unit);
    PRTREE_CHECK(best.order >= 0);
    SortedSet left, right;
    Split(std::move(set), best, &left, &right);
    Partition(std::move(left), unit, out);
    Partition(std::move(right), unit, out);
  }

  /// Scans every ordering once, evaluating area(bb(prefix)) +
  /// area(bb(suffix)) at each multiple of `unit`, and returns the cheapest
  /// cut ("it applies the binary partition that minimizes that sum").
  Cut FindBestCut(SortedSet& set, size_t unit) {
    const size_t n = set.n;
    const size_t num_units = (n + unit - 1) / unit;
    Cut best;
    for (int c = 0; c < kOrders; ++c) {
      // Segment bounding boxes at unit granularity (in memory: <= B + 1 of
      // them), plus the record that starts each segment.
      std::vector<Rect<D>> seg_mbr(num_units, Rect<D>::Empty());
      std::vector<Rec> seg_first(num_units);
      typename Stream<Rec>::Reader reader(&set.lists[c]);
      size_t i = 0;
      while (!reader.Done()) {
        Rec r = reader.Next();
        size_t seg = i / unit;
        if (i % unit == 0) seg_first[seg] = r;
        seg_mbr[seg].ExtendToCover(r.rect);
        ++i;
      }
      PRTREE_CHECK(i == n);
      // Prefix/suffix sweeps.
      std::vector<Real> suffix_area(num_units + 1, 0);
      Rect<D> acc = Rect<D>::Empty();
      for (size_t s = num_units; s-- > 0;) {
        acc.ExtendToCover(seg_mbr[s]);
        suffix_area[s] = acc.Area();
      }
      acc = Rect<D>::Empty();
      for (size_t s = 0; s + 1 < num_units; ++s) {
        acc.ExtendToCover(seg_mbr[s]);
        Real cost = acc.Area() + suffix_area[s + 1];
        if (cost < best.cost) {
          best.cost = cost;
          best.order = c;
          best.left_n = (s + 1) * unit;
          best.t = seg_first[s + 1];
        }
      }
    }
    return best;
  }

  /// Routes every stream of `set` into left/right halves of the cut; all
  /// orderings stay sorted because routing preserves relative order.
  void Split(SortedSet set, const Cut& cut, SortedSet* left,
             SortedSet* right) {
    left->n = cut.left_n;
    right->n = set.n - cut.left_n;
    for (int c = 0; c < kOrders; ++c) {
      Stream<Rec> lo(env_.device), hi(env_.device);
      typename Stream<Rec>::Reader reader(&set.lists[c]);
      while (!reader.Done()) {
        Rec r = reader.Next();
        if (CoordLess<D>{cut.order}(r, cut.t)) {
          lo.Push(r);
        } else {
          hi.Push(r);
        }
      }
      lo.Flush();
      hi.Flush();
      PRTREE_CHECK(lo.size() == left->n && hi.size() == right->n);
      left->lists.push_back(std::move(lo));
      right->lists.push_back(std::move(hi));
      set.lists[c].Clear();
    }
  }

  WorkEnv env_;
  size_t capacity_;
  std::deque<NodeWriter<D>> writers_;  // writers_[h] writes the level-h nodes
};

/// \brief Bulk-loads the empty `tree` with the Top-down Greedy Split
/// algorithm over the flushed, non-empty `input` (read, not consumed).
template <int D>
void BulkLoadTgs(WorkEnv env, Stream<Record<D>>* input, RTree<D>* tree) {
  TgsLoader<D> loader(env, tree->capacity());
  int height = 0;
  LevelEntry<D> root = loader.Build(input, &height);
  tree->SetRoot(root.page, height, input->size());
}

}  // namespace internal

}  // namespace prtree

#endif  // PRTREE_BASELINES_TGS_RTREE_H_
