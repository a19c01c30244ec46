// k-nearest-neighbour search over the block-based R-tree.
//
// §1.1 notes that "many types of queries can be answered efficiently using
// an R-tree"; besides window queries, distance queries are the other
// workhorse.  This is the best-first traversal of Hjaltason and Samet with
// a k-best bound.  Two structures drive it:
//
//  * a frontier of node entries {MINDIST, page}, popped in (distance, page)
//    order.  Each expansion appends the children it keeps to one array as
//    a batch, and a small min-heap holds one cursor per non-empty batch,
//    keyed on the batch's least remaining entry.  Until leaves are read
//    the bound is loose and an expansion keeps nearly every child, but few
//    of them are ever popped: a child costs one append, and a pop costs
//    one scan of the rest of its batch plus a heap step over the batches.
//    Page ids are unique, so nodes pop in the same order as from one heap
//    of every child;
//  * a max-heap of at most k candidate records ordered by (distance, id),
//    whose top is the current k-th best.
//
// Once k candidates are held, a child or record *strictly* farther than
// the k-th candidate is dropped instead of kept, and the search stops
// when the nearest frontier node is strictly farther.  So a node is
// expanded exactly when its MINDIST (taken from its parent's entry; a root
// counts as 0) is <= the final k-th distance, in (distance, page) order.
// No correct search for the (distance, id) order can skip such a node,
// and the prune is strict for that reason: a node tied with the k-th
// candidate may still hold a record with a smaller id.

#ifndef PRTREE_RTREE_KNN_H_
#define PRTREE_RTREE_KNN_H_

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "rtree/node_scan.h"
#include "rtree/rtree.h"

namespace prtree {

/// \brief One kNN result: a stored record and its distance to the query
/// point (Euclidean distance to the closest point of the rectangle).
template <int D>
struct Neighbor {
  Record<D> record;
  Real distance;
};

/// MINDIST: Euclidean distance from point `p` to rectangle `r` (zero if
/// the point lies inside).
template <int D>
Real MinDist(const std::array<Real, D>& p, const Rect<D>& r) {
  Real d2 = 0;
  for (int d = 0; d < D; ++d) {
    Real delta = 0;
    if (p[d] < r.lo[d]) {
      delta = r.lo[d] - p[d];
    } else if (p[d] > r.hi[d]) {
      delta = p[d] - r.hi[d];
    }
    d2 += delta * delta;
  }
  return std::sqrt(d2);
}

/// \brief The k records closest to `point` among the trees rooted at
/// `roots` and the caller-held records `seeds`, in increasing (distance,
/// id) order; fewer than k if fewer exist.  One bounded best-first search
/// covers every root, so a forest costs one search, not one per tree.
///
/// `keep(rec)` decides whether a record stored under a root is reported
/// (and counted toward `k`); filtered records never become candidates.
/// Seeds are reported as given, without `keep`.  Roots equal to
/// kInvalidPageId (empty trees) are skipped.  Only the pages under
/// `roots` are read — never `tree`'s own root/height/size — so a
/// DynamicPRTree snapshot reader may pass the level roots of a version
/// pinned under an EpochGuard while the writer builds new levels.  `k` may
/// exceed the record count, and `k == 0` returns empty without reading a
/// page.
///
/// `stats` (optional) receives node visit counters for the whole search:
/// every root, plus each non-root node whose MINDIST is <= the k-th
/// returned distance (all nodes if fewer than k records are returned).
/// `pool` (optional) caches node reads.  With pool readahead enabled
/// (BufferPool::set_readahead) each internal expansion prefetches, in one
/// batch, the children it kept for the frontier; a pruned child is never
/// visited and is not prefetched.  Best-first order still makes some of
/// those speculative (the bound may tighten before a kept child is
/// popped), which is the access-adaptive wager the pool's
/// prefetch_useful/prefetch_staged ratio reports on.  Visit counters and
/// results are identical with readahead on or off.
template <int D, typename Keep>
std::vector<Neighbor<D>> KnnSearchFrom(const RTree<D>& tree,
                                       std::span<const PageId> roots,
                                       std::span<const Record<D>> seeds,
                                       const std::array<Real, D>& point,
                                       size_t k, QueryStats* stats,
                                       BufferPool* pool, Keep keep) {
  std::vector<Neighbor<D>> best;  // max-heap: front() is the k-th best
  if (stats != nullptr) *stats = QueryStats{};
  if (k == 0) return best;

  auto closer = [](const Neighbor<D>& a, const Neighbor<D>& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.record.id < b.record.id;
  };
  // False once k candidates are held and `dist` is strictly beyond the
  // k-th: such an entry can neither enter the result nor lead to one.
  auto within = [&](Real dist) {
    return best.size() < k || dist <= best.front().distance;
  };
  auto offer = [&](const Record<D>& rec, Real dist) {
    Neighbor<D> nb{rec, dist};
    if (best.size() < k) {
      best.push_back(nb);
      std::push_heap(best.begin(), best.end(), closer);
    } else if (closer(nb, best.front())) {
      std::pop_heap(best.begin(), best.end(), closer);
      best.back() = nb;
      std::push_heap(best.begin(), best.end(), closer);
    }
  };

  for (const Record<D>& rec : seeds) {
    const Real dist = MinDist<D>(point, rec.rect);
    if (within(dist)) offer(rec, dist);
  }

  // The frontier.  Batch [begin, end) of `entries` holds the children one
  // expansion kept (the roots form the first batch); its cursor's `next`
  // advances over the popped ones, and entries[next] is always the batch's
  // least remaining (distance, page) entry.  `cursors` is a min-heap over
  // those least entries.
  struct Entry {
    Real dist;
    PageId page;
  };
  struct Cursor {
    size_t next;
    size_t end;
    int max_level;  // PinNode's bound for the batch: kAnyLevel for roots
  };
  auto farther = [](const Entry& a, const Entry& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    return a.page > b.page;
  };
  std::vector<Entry> entries;
  std::vector<Cursor> cursors;
  auto cursor_farther = [&](const Cursor& a, const Cursor& b) {
    return farther(entries[a.next], entries[b.next]);
  };
  // Moves the least entry of the batch's rest to entries[c.next].
  auto select_least = [&](const Cursor& c) {
    size_t least = c.next;
    for (size_t i = c.next + 1; i < c.end; ++i) {
      if (farther(entries[least], entries[i])) least = i;
    }
    std::swap(entries[c.next], entries[least]);
  };
  // Closes the batch appended since `begin`; an empty one gets no cursor.
  auto push_batch = [&](size_t begin, int max_level) {
    if (begin == entries.size()) return;
    cursors.push_back(Cursor{begin, entries.size(), max_level});
    select_least(cursors.back());
    std::push_heap(cursors.begin(), cursors.end(), cursor_farther);
  };
  for (PageId root : roots) {
    if (root != kInvalidPageId) entries.push_back(Entry{0.0, root});
  }
  push_batch(0, RTree<D>::kAnyLevel);

  QueryStats local;
  const bool readahead = pool != nullptr && pool->readahead_enabled();
  std::vector<PageId> kept;  // children kept by the current expansion
  PageGuard guard;  // hoisted: pool-less searches reuse one buffer
  NodeScanner<D> scan;  // batched MINDIST scratch (rtree/node_scan.h)
  while (!cursors.empty() && within(entries[cursors.front().next].dist)) {
    // Pop the least entry and re-key its batch's cursor on the next one.
    std::pop_heap(cursors.begin(), cursors.end(), cursor_farther);
    Cursor& popped = cursors.back();
    const Entry top = entries[popped.next];
    const int max_level = popped.max_level;
    if (++popped.next == popped.end) {
      cursors.pop_back();
    } else {
      select_least(popped);
      std::push_heap(cursors.begin(), cursors.end(), cursor_farther);
    }

    tree.PinNode(top.page, pool, &guard, max_level);
    ConstNodeView<D> node(guard.data(), tree.block_size());
    ++local.nodes_visited;
    // One batched squared-MINDIST pass per node; std::sqrt(d2[i]) is
    // bit-identical to the scalar MinDist above, so visit order, visit
    // counters and reported distances are unchanged by layout or SIMD
    // dispatch.
    const Real* d2 = scan.MinDist2(node, point);
    if (node.is_leaf()) {
      ++local.leaves_visited;
      for (int i = 0; i < node.count(); ++i) {
        const Real dist = std::sqrt(d2[i]);
        if (!within(dist)) continue;
        const Record<D> rec{node.GetRect(i), node.GetId(i)};
        if (keep(rec)) offer(rec, dist);
      }
    } else {
      ++local.internal_visited;
      if (readahead) kept.clear();
      const size_t begin = entries.size();
      for (int i = 0; i < node.count(); ++i) {
        const Real dist = std::sqrt(d2[i]);
        if (!within(dist)) continue;
        entries.push_back(Entry{dist, node.GetId(i)});
        if (readahead) kept.push_back(node.GetId(i));
      }
      push_batch(begin, node.level() - 1);
      if (readahead && kept.size() >= 2) {
        pool->Prefetch(std::span<const PageId>(kept));
      }
    }
  }
  std::sort_heap(best.begin(), best.end(), closer);
  local.results = best.size();
  if (stats != nullptr) *stats = local;
  return best;
}

/// \brief Finds the `k` stored records closest to `point`, in increasing
/// distance order (ties broken by id for determinism).  Returns fewer
/// than `k` if the tree is smaller.  KnnSearchFrom over the tree's own
/// root with no seeds and no filter; same counters, pool and readahead
/// contract.  Like window queries, safe to run from many threads over one
/// shared tree and pool.
template <int D>
std::vector<Neighbor<D>> KnnSearch(const RTree<D>& tree,
                                   const std::array<Real, D>& point,
                                   size_t k, QueryStats* stats = nullptr,
                                   BufferPool* pool = nullptr) {
  const PageId root = tree.root();
  return KnnSearchFrom<D>(tree, std::span<const PageId>(&root, 1), {},
                          point, k, stats, pool,
                          [](const Record<D>&) { return true; });
}

}  // namespace prtree

#endif  // PRTREE_RTREE_KNN_H_
