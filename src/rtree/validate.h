// Structural validation of R-trees.
//
// Checks every invariant the paper's definitions imply (§1.1): all leaves on
// the bottom level, internal entries' MBRs exactly covering their subtrees,
// fan-out within capacity, and the stored record multiset matching the
// input.  Tests run these after every loader and after random update
// sequences; corruption aborts experiments before it can skew results.

#ifndef PRTREE_RTREE_VALIDATE_H_
#define PRTREE_RTREE_VALIDATE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "rtree/rtree.h"
#include "util/status.h"

namespace prtree {

/// Options for ValidateTree.
struct ValidateOptions {
  /// Minimum entries per non-root node (0 disables the check; bulk-loaded
  /// trees are checked for packing separately, update tests pass the
  /// updater's floor).
  size_t min_entries = 0;
  /// If true, every leaf must sit at level 0 and depth must be uniform
  /// (guaranteed by construction via the level field; kept as a check
  /// against corruption).
  bool check_balance = true;
};

/// \brief Verifies structural invariants of `tree`; returns Corruption with
/// a description of the first violation found.
template <int D>
Status ValidateTree(const RTree<D>& tree,
                    const ValidateOptions& opts = ValidateOptions{}) {
  if (tree.empty()) {
    return tree.size() == 0
               ? Status::OK()
               : Status::Corruption("empty tree with nonzero size");
  }
  uint64_t entries_seen = 0;

  struct Item {
    PageId page;
    int expected_level;
    bool is_root;
    Rect<D> expected_mbr;
    bool check_mbr;
  };
  std::vector<Item> stack{{tree.root(), tree.height(), true, Rect<D>::Empty(),
                           false}};
  PageGuard guard;
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    Status st = ReadPage(*tree.device(), item.page, &guard);
    if (!st.ok()) return Status::Corruption("unreadable page: " +
                                            st.ToString());
    ConstNodeView<D> node(guard.data(), tree.block_size());
    if (!node.IsFormatted()) {
      return Status::Corruption("page " + std::to_string(item.page) +
                                " is not a formatted node");
    }
    if (opts.check_balance && node.level() != item.expected_level) {
      return Status::Corruption(
          "page " + std::to_string(item.page) + " at level " +
          std::to_string(node.level()) + ", expected " +
          std::to_string(item.expected_level));
    }
    if (node.count() == 0 && !item.is_root) {
      return Status::Corruption("empty non-root node " +
                                std::to_string(item.page));
    }
    if (!item.is_root && opts.min_entries > 0 &&
        node.count() < opts.min_entries) {
      return Status::Corruption("underfull node " + std::to_string(item.page) +
                                ": " + std::to_string(node.count()) + " < " +
                                std::to_string(opts.min_entries));
    }
    if (item.check_mbr && node.ComputeMbr() != item.expected_mbr) {
      return Status::Corruption("stale parent MBR for page " +
                                std::to_string(item.page));
    }
    for (int i = 0; i < node.count(); ++i) {
      Rect<D> r = node.GetRect(i);
      for (int d = 0; d < D; ++d) {
        if (!(r.lo[d] <= r.hi[d])) {
          return Status::Corruption("inverted rectangle in page " +
                                    std::to_string(item.page));
        }
      }
      if (node.is_leaf()) {
        ++entries_seen;
      } else {
        stack.push_back(Item{node.GetId(i), item.expected_level - 1, false, r,
                             true});
      }
    }
  }
  if (entries_seen != tree.size()) {
    return Status::Corruption("tree.size()=" + std::to_string(tree.size()) +
                              " but leaves hold " +
                              std::to_string(entries_seen) + " records");
  }
  return Status::OK();
}

/// \brief Collects every stored record (for multiset comparison against the
/// loader's input in tests).
template <int D>
std::vector<Record<D>> DumpRecords(const RTree<D>& tree) {
  std::vector<Record<D>> out;
  if (tree.empty()) return out;
  std::vector<PageId> stack{tree.root()};
  PageGuard guard;
  while (!stack.empty()) {
    PageId page = stack.back();
    stack.pop_back();
    tree.PinNode(page, nullptr, &guard);
    ConstNodeView<D> node(guard.data(), tree.block_size());
    for (int i = 0; i < node.count(); ++i) {
      if (node.is_leaf()) {
        out.push_back(Record<D>{node.GetRect(i), node.GetId(i)});
      } else {
        stack.push_back(node.GetId(i));
      }
    }
  }
  return out;
}

/// Sorts records into a canonical order for multiset equality checks.
template <int D>
void CanonicalSort(std::vector<Record<D>>* records) {
  std::sort(records->begin(), records->end(),
            [](const Record<D>& a, const Record<D>& b) {
              if (a.id != b.id) return a.id < b.id;
              for (int d = 0; d < D; ++d) {
                if (a.rect.lo[d] != b.rect.lo[d]) {
                  return a.rect.lo[d] < b.rect.lo[d];
                }
                if (a.rect.hi[d] != b.rect.hi[d]) {
                  return a.rect.hi[d] < b.rect.hi[d];
                }
              }
              return false;
            });
}

}  // namespace prtree

#endif  // PRTREE_RTREE_VALIDATE_H_
