// R*-tree insertion (Beckmann, Kriegel, Schneider, Seeger 1990) — the
// paper's reference [6] and the de-facto standard dynamic R-tree heuristic
// ("the PR-tree can be updated using any known update heuristic for
// R-trees", §4).  Provided alongside Guttman's algorithms so the update
// ablations can compare both heuristics against the logarithmic method.
//
// The three R* ingredients implemented here:
//  * ChooseSubtree — minimise *overlap* enlargement at the leaf level
//    (area enlargement higher up), Guttman minimises area only;
//  * forced reinsertion — on the first overflow per level per insertion,
//    the 30% of entries farthest from the node's centre are removed and
//    re-inserted, letting the tree reorganise without a split;
//  * topological split — split axis chosen by minimal margin sum over all
//    distributions, then the distribution with minimal overlap.

#ifndef PRTREE_RTREE_RSTAR_H_
#define PRTREE_RTREE_RSTAR_H_

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "rtree/rtree.h"
#include "rtree/update.h"
#include "rtree/update_io.h"

namespace prtree {

/// \brief R*-tree dynamic insertion over the shared block container.
///
/// Deletion is identical to Guttman's (the R* paper reuses it), so Delete
/// delegates to RTreeUpdater.
template <int D>
class RStarUpdater {
 public:
  using RectT = Rect<D>;
  using RecordT = Record<D>;

  /// \param min_fill         node fill floor as a fraction of capacity
  ///                         (R* recommends 0.4).
  /// \param reinsert_frac    fraction of entries force-reinserted on the
  ///                         first overflow per level (R* recommends 0.3).
  /// \param pool             optional read cache over the tree's pages,
  ///                         shared with the delegated delete path; every
  ///                         page either path writes or frees is
  ///                         invalidated in it.
  ///
  /// Writes land in place (UpdaterIO's journal-less mode).
  explicit RStarUpdater(RTree<D>* tree, double min_fill = 0.4,
                        double reinsert_frac = 0.3,
                        BufferPool* pool = nullptr)
      : tree_(tree),
        guttman_(tree, SplitPolicy::kQuadratic, min_fill, pool),
        io_(tree, pool, /*journal=*/nullptr) {
    PRTREE_CHECK(min_fill > 0.0 && min_fill <= 0.5);
    PRTREE_CHECK(reinsert_frac > 0.0 && reinsert_frac < 0.5);
    min_entries_ = std::max<size_t>(
        1, static_cast<size_t>(min_fill *
                               static_cast<double>(tree->capacity())));
    reinsert_count_ = std::max<size_t>(
        1, static_cast<size_t>(reinsert_frac *
                               static_cast<double>(tree->capacity())));
  }

  /// Inserts one record with the full R* overflow treatment.
  void Insert(const RecordT& rec) {
    io_.BeginInsert(rec);
    // Work queue of (rect, id, target level): forced reinsertion pushes
    // evicted entries here; each is allowed to trigger one reinsertion
    // per level, then splits take over (the R* rule).
    pending_.clear();
    pending_.push_back(Pending{rec.rect, rec.id, 0});
    reinserted_levels_.assign(
        static_cast<size_t>(std::max(tree_->height() + 2, 2)), false);
    while (!pending_.empty()) {
      Pending p = pending_.back();
      pending_.pop_back();
      InsertEntry(p.rect, p.id, p.level);
    }
    tree_->set_size(tree_->size() + 1);
    io_.EndOp();
  }

  /// Deletes the exactly matching record (Guttman/R* deletion).
  bool Delete(const RecordT& rec) { return guttman_.Delete(rec); }

 private:
  struct Pending {
    RectT rect;
    uint32_t id;
    int level;
  };

  struct InsertResult {
    PageId page;  // id holding the node (written in place)
    RectT mbr;
    std::optional<std::pair<RectT, PageId>> split;
  };

  void InsertEntry(const RectT& rect, uint32_t id, int target_level) {
    if (tree_->empty()) {
      PRTREE_CHECK(target_level == 0);
      std::vector<std::byte> buf(tree_->block_size());
      NodeView<D> node(buf.data(), tree_->block_size());
      node.Format(0);
      node.Append(rect, id);
      PageId page = io_.WriteNew(buf.data());
      tree_->SetRoot(page, 0, tree_->size());
      return;
    }
    PRTREE_CHECK(target_level <= tree_->height());
    InsertResult res =
        InsertRec(tree_->root(), tree_->height(), rect, id, target_level);
    if (res.split.has_value()) GrowRoot(res.page, res.mbr, *res.split);
  }

  InsertResult InsertRec(PageId page, int level, const RectT& rect,
                         uint32_t id, int target_level) {
    std::vector<std::byte> buf(tree_->block_size());
    io_.Read(page, buf.data());
    NodeView<D> node(buf.data(), tree_->block_size());
    PRTREE_CHECK(node.level() == level);

    if (level == target_level) {
      if (!node.full()) {
        node.Append(rect, id);
        PageId out = io_.Write(page, buf.data());
        return InsertResult{out, node.ComputeMbr(), std::nullopt};
      }
      return OverflowTreatment(page, &node, buf.data(), rect, id, level);
    }

    int child_idx = ChooseSubtree(node, rect, level == target_level + 1);
    InsertResult child = InsertRec(node.GetId(child_idx), level - 1, rect,
                                   id, target_level);
    node.SetEntry(child_idx, child.mbr, child.page);
    if (!child.split.has_value()) {
      PageId out = io_.Write(page, buf.data());
      return InsertResult{out, node.ComputeMbr(), std::nullopt};
    }
    const auto& [split_mbr, split_page] = *child.split;
    if (!node.full()) {
      node.Append(split_mbr, split_page);
      PageId out = io_.Write(page, buf.data());
      return InsertResult{out, node.ComputeMbr(), std::nullopt};
    }
    return OverflowTreatment(page, &node, buf.data(), split_mbr, split_page,
                             level);
  }

  /// R* ChooseSubtree: at the level directly above the target, minimise
  /// overlap enlargement; higher up, minimise area enlargement (both with
  /// the R* tie-breaks).
  int ChooseSubtree(const NodeView<D>& node, const RectT& rect,
                    bool leaf_level) const {
    int n = node.count();
    int best = 0;
    if (leaf_level) {
      Real best_overlap = 0, best_enlarge = 0, best_area = 0;
      for (int i = 0; i < n; ++i) {
        RectT r = node.GetRect(i);
        RectT grown = RectT::Cover(r, rect);
        // Overlap enlargement of entry i against its siblings.
        Real overlap_delta = 0;
        for (int j = 0; j < n; ++j) {
          if (j == i) continue;
          RectT other = node.GetRect(j);
          overlap_delta +=
              grown.IntersectionArea(other) - r.IntersectionArea(other);
        }
        Real enlarge = grown.Area() - r.Area();
        Real area = r.Area();
        if (i == 0 || overlap_delta < best_overlap ||
            (overlap_delta == best_overlap &&
             (enlarge < best_enlarge ||
              (enlarge == best_enlarge && area < best_area)))) {
          best = i;
          best_overlap = overlap_delta;
          best_enlarge = enlarge;
          best_area = area;
        }
      }
      return best;
    }
    Real best_enlarge = 0, best_area = 0;
    for (int i = 0; i < n; ++i) {
      RectT r = node.GetRect(i);
      Real enlarge = r.Enlargement(rect);
      Real area = r.Area();
      if (i == 0 || enlarge < best_enlarge ||
          (enlarge == best_enlarge && area < best_area)) {
        best = i;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
    return best;
  }

  /// R* OverflowTreatment: forced reinsertion on the first overflow at
  /// each level (except the root), split otherwise.
  InsertResult OverflowTreatment(PageId page, NodeView<D>* node,
                                 std::byte* buf, const RectT& rect,
                                 uint32_t id, int level) {
    if (level < tree_->height() &&
        level < static_cast<int>(reinserted_levels_.size()) &&
        !reinserted_levels_[level]) {
      reinserted_levels_[level] = true;
      return ForcedReinsert(page, node, buf, rect, id, level);
    }
    return SplitNode(page, node, buf, rect, id);
  }

  /// Removes the reinsert_count_ entries whose centres are farthest from
  /// the overflowing node's centre, queues them for re-insertion, and
  /// appends the new entry (which now fits).
  InsertResult ForcedReinsert(PageId page, NodeView<D>* node, std::byte* buf,
                              const RectT& rect, uint32_t id, int level) {
    struct Entry {
      RectT rect;
      uint32_t id;
      Real dist;
    };
    std::vector<Entry> entries;
    entries.reserve(node->count() + 1);
    RectT mbr = RectT::Cover(node->ComputeMbr(), rect);
    auto center_dist = [&](const RectT& r) {
      Real d2 = 0;
      for (int d = 0; d < D; ++d) {
        Real diff = r.Center(d) - mbr.Center(d);
        d2 += diff * diff;
      }
      return d2;
    };
    for (int i = 0; i < node->count(); ++i) {
      RectT r = node->GetRect(i);
      entries.push_back(Entry{r, node->GetId(i), center_dist(r)});
    }
    entries.push_back(Entry{rect, id, center_dist(rect)});
    // Farthest first.
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.dist > b.dist; });

    size_t evict = std::min(reinsert_count_, entries.size() - min_entries_);
    for (size_t i = 0; i < evict; ++i) {
      pending_.push_back(Pending{entries[i].rect, entries[i].id, level});
    }
    uint16_t lvl = node->level();
    node->Format(lvl);
    for (size_t i = evict; i < entries.size(); ++i) {
      node->Append(entries[i].rect, entries[i].id);
    }
    PageId out = io_.Write(page, buf);
    return InsertResult{out, node->ComputeMbr(), std::nullopt};
  }

  /// R* topological split: axis by minimal margin sum, distribution by
  /// minimal overlap (ties: minimal total area).
  InsertResult SplitNode(PageId page, NodeView<D>* node, std::byte* buf,
                         const RectT& rect, uint32_t id) {
    struct Entry {
      RectT rect;
      uint32_t id;
    };
    std::vector<Entry> entries;
    const int total = node->count() + 1;
    entries.reserve(total);
    for (int i = 0; i < node->count(); ++i) {
      entries.push_back(Entry{node->GetRect(i), node->GetId(i)});
    }
    entries.push_back(Entry{rect, id});
    const int m = static_cast<int>(min_entries_);
    PRTREE_CHECK(total >= 2 * m);

    // For one sorted order, evaluate all legal prefix/suffix distributions.
    auto margins_of_order = [&](const std::vector<int>& order, Real* margin,
                                int* best_k, Real* best_overlap,
                                Real* best_area) {
      const int n = total;
      std::vector<RectT> prefix(n), suffix(n);
      RectT acc = RectT::Empty();
      for (int i = 0; i < n; ++i) {
        acc.ExtendToCover(entries[order[i]].rect);
        prefix[i] = acc;
      }
      acc = RectT::Empty();
      for (int i = n - 1; i >= 0; --i) {
        acc.ExtendToCover(entries[order[i]].rect);
        suffix[i] = acc;
      }
      *margin = 0;
      *best_overlap = std::numeric_limits<Real>::infinity();
      *best_area = std::numeric_limits<Real>::infinity();
      *best_k = m;
      for (int k = m; k <= n - m; ++k) {
        const RectT& a = prefix[k - 1];
        const RectT& b = suffix[k];
        *margin += a.Margin() + b.Margin();
        Real overlap = a.IntersectionArea(b);
        Real area = a.Area() + b.Area();
        if (overlap < *best_overlap ||
            (overlap == *best_overlap && area < *best_area)) {
          *best_overlap = overlap;
          *best_area = area;
          *best_k = k;
        }
      }
    };

    auto make_order = [&](int axis, bool by_hi) {
      std::vector<int> order(total);
      for (int i = 0; i < total; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        Real va = by_hi ? entries[a].rect.hi[axis] : entries[a].rect.lo[axis];
        Real vb = by_hi ? entries[b].rect.hi[axis] : entries[b].rect.lo[axis];
        if (va != vb) return va < vb;
        return entries[a].id < entries[b].id;
      });
      return order;
    };

    // ChooseSplitAxis: minimal margin summed over both orders of the axis.
    int best_axis = 0;
    Real best_axis_margin = std::numeric_limits<Real>::infinity();
    for (int axis = 0; axis < D; ++axis) {
      Real axis_margin = 0;
      for (int by_hi = 0; by_hi < 2; ++by_hi) {
        Real margin, overlap, area;
        int k;
        margins_of_order(make_order(axis, by_hi != 0), &margin, &k, &overlap,
                         &area);
        axis_margin += margin;
      }
      if (axis_margin < best_axis_margin) {
        best_axis_margin = axis_margin;
        best_axis = axis;
      }
    }
    // ChooseSplitIndex: minimal overlap (ties: area) over both orders of
    // the winning axis.
    std::vector<int> best_order;
    int best_k = m;
    Real best_overlap = std::numeric_limits<Real>::infinity();
    Real best_area = std::numeric_limits<Real>::infinity();
    for (int by_hi = 0; by_hi < 2; ++by_hi) {
      std::vector<int> order = make_order(best_axis, by_hi != 0);
      Real margin, overlap, area;
      int k;
      margins_of_order(order, &margin, &k, &overlap, &area);
      if (overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_order = std::move(order);
        best_k = k;
      }
    }

    uint16_t level = node->level();
    node->Format(level);
    for (int i = 0; i < best_k; ++i) {
      node->Append(entries[best_order[i]].rect, entries[best_order[i]].id);
    }
    PageId page_a = io_.Write(page, buf);
    RectT mbr_a = node->ComputeMbr();

    std::vector<std::byte> buf_b(tree_->block_size());
    NodeView<D> node_b(buf_b.data(), tree_->block_size());
    node_b.Format(level);
    for (int i = best_k; i < total; ++i) {
      node_b.Append(entries[best_order[i]].rect, entries[best_order[i]].id);
    }
    PageId page_b = io_.WriteNew(buf_b.data());
    return InsertResult{page_a, mbr_a,
                        std::make_pair(node_b.ComputeMbr(), page_b)};
  }

  void GrowRoot(PageId old_page, const RectT& old_mbr,
                const std::pair<RectT, PageId>& sibling) {
    std::vector<std::byte> buf(tree_->block_size());
    NodeView<D> node(buf.data(), tree_->block_size());
    int new_height = tree_->height() + 1;
    node.Format(static_cast<uint16_t>(new_height));
    node.Append(old_mbr, old_page);
    node.Append(sibling.first, sibling.second);
    PageId page = io_.WriteNew(buf.data());
    tree_->SetRoot(page, new_height, tree_->size());
    if (static_cast<size_t>(new_height) >= reinserted_levels_.size()) {
      reinserted_levels_.resize(new_height + 1, false);
    }
  }

  RTree<D>* tree_;
  RTreeUpdater<D> guttman_;  // deletion path
  UpdaterIO<D> io_;
  size_t min_entries_;
  size_t reinsert_count_;
  std::vector<Pending> pending_;
  std::vector<bool> reinserted_levels_;
};

}  // namespace prtree

#endif  // PRTREE_RTREE_RSTAR_H_
