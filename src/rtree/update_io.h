// Node I/O for RTreeUpdater (rtree/update.h), its one client.  The update
// algorithms read, write, allocate and release nodes only through this
// class, so they need not know whether a pool caches the tree or a journal
// makes each op crash-safe.
//
// Two modes:
//
//  * In place (no journal): Write() updates the page in place and
//    invalidates its pool frame; Release() invalidates and frees at once.
//    The device-op sequence (Read/Write/Allocate/Free order) is exactly
//    what the updater's algorithms issue, so page-id layouts and I/O
//    counters follow from them alone.
//
//  * Journaled copy-on-write (JournalWriter attached, io/journal.h): no
//    page the newest COMMITTED version on disk can reach is ever
//    overwritten.  Write() shadows: the new bytes go to a freshly
//    allocated page and the old id is queued for retirement.  Pages
//    allocated within the current op (tracked in `fresh_`) are unknown to
//    every committed version until EndOp(), so they may be rewritten in
//    place — that keeps an op's page count proportional to the path it
//    touches rather than the number of writes it issues.  The updater
//    opens each op with BeginOp(); EndOp() commits the op through the
//    journal — the commit frame's block write is the durable point, and
//    the replaced pages defer into the journal's free list — unless the op
//    never wrote (delete miss), which leaves the journal untouched.  Crash
//    anywhere inside an op and recovery restores the previous committed
//    root, whose pages are all still byte-intact.
//
// Pool discipline: every page an op writes, allocates, shadows out or
// releases has its frame invalidated at once, so the pool never serves
// bytes the tree no longer holds under that id.  No query may overlap an
// op: snapshot reads under writes are DynamicPRTree's (io/epoch.h).

#ifndef PRTREE_RTREE_UPDATE_IO_H_
#define PRTREE_RTREE_UPDATE_IO_H_

#include <cstring>
#include <unordered_set>
#include <vector>

#include "io/journal.h"
#include "rtree/rtree.h"

namespace prtree {

template <int D>
class UpdaterIO {
 public:
  /// \param tree     tree whose nodes are read/written (not owned).
  /// \param pool     optional read cache over the tree's pages.
  /// \param journal  optional: presence switches on copy-on-write for
  ///                 crash consistency and commits every op through the
  ///                 journal.
  UpdaterIO(RTree<D>* tree, BufferPool* pool, JournalWriter* journal)
      : tree_(tree), pool_(pool), journal_(journal) {}

  /// Marks the start of one logical Insert/Delete.
  void BeginOp() {
    PRTREE_CHECK(retired_.empty());  // missing EndOp on the previous op
    fresh_.clear();
    wrote_ = false;
  }

  /// Reads `page` into the private working buffer `buf`, through the pool
  /// when one caches this tree (a pinned guard is copied out — update
  /// paths mutate and write back, so they need an owned buffer either
  /// way).  Without a pool, reads straight from the device into `buf`.
  void Read(PageId page, std::byte* buf) {
    if (pool_ == nullptr) {
      AbortIfError(tree_->device()->Read(page, buf));
      return;
    }
    PageGuard guard;
    tree_->PinNode(page, pool_, &guard);
    std::memcpy(buf, guard.data(), tree_->block_size());
  }

  /// Stores `buf` as the new contents of logical node `page` and returns
  /// the id now holding them: `page` itself when writing in place, or a
  /// fresh shadow page under copy-on-write (the caller must re-point the
  /// parent entry — or the root — at the returned id).
  PageId Write(PageId page, const std::byte* buf) {
    wrote_ = true;
    if (journal_ != nullptr && fresh_.count(page) == 0) {
      PageId shadow = WriteNew(buf);
      Retire(page);
      return shadow;
    }
    AbortIfError(tree_->device()->Write(page, buf));
    if (pool_ != nullptr) pool_->Invalidate(page);
    return page;
  }

  /// Allocates a fresh page, writes `buf` there, returns its id.
  PageId WriteNew(const std::byte* buf) {
    wrote_ = true;
    PageId page = tree_->device()->Allocate();
    AbortIfError(tree_->device()->Write(page, buf));
    if (journal_ != nullptr) fresh_.insert(page);
    // A pool frame from a previous tenant of this id may be stale.
    if (pool_ != nullptr) pool_->Invalidate(page);
    return page;
  }

  /// The node at `page` left the tree (condensed away, shrunk root).
  /// In place it is freed immediately; under copy-on-write a page the
  /// committed version may reference is queued for retirement instead,
  /// while a page allocated within this op — never committed — is freed
  /// eagerly.
  void Release(PageId page) {
    wrote_ = true;
    if (journal_ != nullptr && fresh_.erase(page) == 0) {
      Retire(page);
      return;
    }
    if (pool_ != nullptr) pool_->Invalidate(page);
    tree_->device()->Free(page);
  }

  /// Ends the op.  Journaled, it commits the op with the tree's new root
  /// and hands the replaced pages to the journal's deferred-free list; an
  /// op that wrote nothing (delete miss) has nothing to commit.  In place
  /// it is a no-op.
  void EndOp() {
    if (journal_ == nullptr) return;
    if (wrote_) {
      AbortIfError(journal_->CommitOp(tree_->root(), tree_->height(),
                                      tree_->size(), &retired_));
    }
    retired_.clear();
    fresh_.clear();
  }

 private:
  /// A replaced page under copy-on-write: queued until EndOp() defers it
  /// to the journal.  Its pool frame dies now — the page only waits for
  /// its post-commit free.
  void Retire(PageId page) {
    retired_.push_back(page);
    if (pool_ != nullptr) pool_->Invalidate(page);
  }

  RTree<D>* tree_;
  BufferPool* pool_;
  JournalWriter* journal_;
  std::unordered_set<PageId> fresh_;  // allocated by the op in flight
  std::vector<PageId> retired_;       // replaced pages awaiting EndOp
  bool wrote_ = false;                // op touched the device
};

}  // namespace prtree

#endif  // PRTREE_RTREE_UPDATE_IO_H_
