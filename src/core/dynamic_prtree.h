// Dynamic PR-tree via the external logarithmic method (§1.2, §4; [4, 20]).
//
// The bulk-loaded PR-tree answers queries worst-case optimally, but Guttman
// updates destroy that guarantee.  The logarithmic method instead keeps a
// forest of O(log(N/M)) static PR-trees with geometrically increasing
// capacities plus a small in-memory insertion buffer:
//
//  * Insert appends to the buffer; when it fills, the buffer and the
//    occupied levels 0..i are merged and rebuilt into the smallest level i
//    whose capacity holds them all.  Rebuilds use the optimal bulk loader,
//    giving the paper's O(log_B(N/M) + (1/B) log_{M/B}(N/B) log2(N/M))
//    amortised insertion bound.  A merge pushes the buffer, then each
//    merged level's live leaf records (one depth-first walk per level,
//    reading each page once), into a device Stream that the loader
//    consumes: a rebuild holds no copy of the merged records in memory,
//    so it stays within the loader's budget (WorkEnv::memory_bytes).
//  * Delete finds the exact record, removes it from the buffer or marks a
//    tombstone; once tombstones outnumber live records the whole forest is
//    rebuilt, keeping space linear and deletions O(log_B(N/M)) amortised.
//    The search follows, in each level, only the branches whose MBR
//    contains the record (RTree::Contains) and reads through an attached
//    pool; marking the tombstone costs O(1) amortised.
//  * A window query runs on every level and the buffer and filters
//    tombstones; each level is worst-case optimal, so the total is
//    O(log(N/M)) times the static bound — the paper's "maintaining the
//    optimal query performance".
//  * A kNN query is one best-first search over all levels at once: the
//    frontier starts with every occupied level's root, the buffer's
//    records seed the k-best candidates, and tombstoned records are
//    filtered as leaves are read.  A node of any level is expanded only
//    if it could still hold one of the k nearest live records.
//
// Concurrency — snapshot reads under writes (multi-version concurrency):
// the forest is published as a sequence of immutable, stamped
// ForestVersions (the level roots, a frozen buffer, the version's stamp and
// tombstone count).  A level rebuild happens entirely on freshly allocated
// pages: the merge reads the old trees, the bulk loader writes new ones,
// and a single version-pointer swap publishes the result; the replaced
// pages go to an EpochManager limbo list and return to the device free
// list only once every reader that could still reach them has drained.
// Tombstones are not copied per version: one table, shared by every
// version, records for each tombstone the stamps of the versions that
// added and removed it, and a reader filters by its own version's stamp.
// Readers take a SnapshotHandle (an epoch guard plus a version pointer) and
// see a perfectly frozen record set — and, because nothing they traverse
// is ever overwritten or recycled underneath them, byte-identical
// QueryStats — regardless of concurrent Insert/Delete traffic.  Writers
// serialize among themselves.

#ifndef PRTREE_CORE_DYNAMIC_PRTREE_H_
#define PRTREE_CORE_DYNAMIC_PRTREE_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/prtree.h"
#include "io/epoch.h"
#include "rtree/knn.h"
#include "rtree/validate.h"

namespace prtree {

/// Options for the dynamic PR-tree.
struct DynamicPrTreeOptions {
  /// In-memory insertion buffer capacity; 0 derives it from the node
  /// capacity (one block's worth, the natural M-independent choice).
  size_t buffer_capacity = 0;
};

/// \brief An insert/delete/query spatial index with PR-tree query
/// guarantees, built as a logarithmic forest of bulk-loaded PR-trees.
///
/// Records are identified by their (id, rectangle) pair, which must be
/// unique among live records.  Re-inserting an exactly deleted record
/// cancels its pending tombstone; deleting and re-inserting the same id at
/// a new position (the moving-objects pattern) is fully supported.
///
/// Concurrency: any number of threads may query (each query runs on an
/// internally taken snapshot) while any number of threads insert/delete
/// (writers serialize on an internal mutex).  For a stable multi-query
/// view, hold a SnapshotHandle from Snapshot().  A BufferPool kept across
/// updates should be registered with AttachPool() so frames of reclaimed
/// pages are dropped before their ids are recycled (an attached pool must
/// outlive the forest or be detached); a pool used only between updates
/// needs no registration.  Delete reads through an attached pool.
template <int D = 2>
class DynamicPRTree {
 public:
  using RecordT = Record<D>;
  using RectT = Rect<D>;

  /// One level of a published version: enough to traverse the static tree
  /// without touching the writer's mutable RTree object.
  struct LevelRoot {
    PageId root;
    size_t size;
  };

  /// \brief The tombstone set of every version at once: an open-addressing
  /// table with one writer and lock-free readers.
  ///
  /// An entry names one deleted (id, rect) and the versions that see it
  /// deleted: those whose stamp s has born <= s < died.  `born` is written
  /// once, and its release store publishes the entry (0 marks an empty
  /// slot; stamps start at 1).  `died` starts at kNever and is set once,
  /// when a re-insert cancels the tombstone or a rebuild consumes its
  /// record; a reader's version was published before or after that store,
  /// and either way the stamp comparison gives it the right answer.
  /// Entries are never removed, so the probe run a reader walks only grows.
  /// The table starts with 16 slots and is replaced when half full by a
  /// fresh one holding only the live entries, with at least 4x their count
  /// in slots; versions published earlier keep the old table.
  class TombstoneTable {
   public:
    static constexpr uint64_t kNever = ~uint64_t{0};

    /// An empty table with room for `live` entries and at least as many
    /// again before it is full.
    explicit TombstoneTable(size_t live) {
      int bits = 4;
      while ((size_t{1} << bits) < 4 * live) ++bits;
      slots_ = std::make_unique<Slot[]>(size_t{1} << bits);
      mask_ = (size_t{1} << bits) - 1;
      shift_ = 64 - bits;
    }

    /// True if the version stamped `stamp` sees `rec` deleted.  Safe from
    /// any thread, concurrently with the writer.
    bool Deleted(const RecordT& rec, uint64_t stamp) const {
      for (size_t i = Home(rec.id);; i = (i + 1) & mask_) {
        const Slot& s = slots_[i];
        const uint64_t born = s.born.load(std::memory_order_acquire);
        if (born == 0) return false;  // end of the run
        if (born <= stamp && s.id == rec.id && s.rect == rec.rect &&
            stamp < s.died.load(std::memory_order_relaxed)) {
          return true;
        }
      }
    }

    // ---- writer side ----------------------------------------------------

    /// Whether one more Add() would fill the table past half.
    bool Full() const { return 2 * (used_ + 1) > mask_ + 1; }

    /// Adds a tombstone for `rec` seen from version `stamp` on.  Requires
    /// !Full().
    void Add(const RecordT& rec, uint64_t stamp) {
      size_t i = Home(rec.id);
      while (slots_[i].born.load(std::memory_order_relaxed) != 0) {
        i = (i + 1) & mask_;
      }
      slots_[i].id = rec.id;
      slots_[i].rect = rec.rect;
      slots_[i].born.store(stamp, std::memory_order_release);
      ++used_;
    }

    /// Ends the live tombstone naming `rec` at version `stamp`; false if
    /// there is none.
    bool Kill(const RecordT& rec, uint64_t stamp) {
      for (size_t i = Home(rec.id);; i = (i + 1) & mask_) {
        Slot& s = slots_[i];
        if (s.born.load(std::memory_order_relaxed) == 0) return false;
        if (s.id == rec.id && s.rect == rec.rect &&
            s.died.load(std::memory_order_relaxed) == kNever) {
          s.died.store(stamp, std::memory_order_relaxed);
          return true;
        }
      }
    }

    /// Calls f(record, born) for every live tombstone.
    template <typename F>
    void ForEachLive(F f) const {
      for (size_t i = 0; i <= mask_; ++i) {
        const Slot& s = slots_[i];
        const uint64_t born = s.born.load(std::memory_order_relaxed);
        if (born != 0 && s.died.load(std::memory_order_relaxed) == kNever) {
          f(RecordT{s.rect, s.id}, born);
        }
      }
    }

    /// A fresh table holding this one's `live` live entries, births kept.
    std::shared_ptr<TombstoneTable> Compacted(size_t live) const {
      auto fresh = std::make_shared<TombstoneTable>(live);
      ForEachLive(
          [&](const RecordT& rec, uint64_t born) { fresh->Add(rec, born); });
      return fresh;
    }

   private:
    struct Slot {
      RectT rect{};
      DataId id = 0;
      std::atomic<uint64_t> born{0};
      std::atomic<uint64_t> died{kNever};
    };

    /// Fibonacci hashing: the top bits of id * 2^64/phi.
    size_t Home(DataId id) const {
      return static_cast<size_t>((uint64_t{id} * 0x9E3779B97F4A7C15ull) >>
                                 shift_);
    }

    std::unique_ptr<Slot[]> slots_;
    size_t mask_ = 0;
    int shift_ = 0;
    size_t used_ = 0;  // occupied slots, live or not
  };

  /// An immutable published state of the forest.  Level pages referenced
  /// here are never overwritten (rebuilds are copy-on-write), and never
  /// freed while a snapshot holding this version is alive.
  struct ForestVersion {
    std::vector<LevelRoot> levels;
    std::shared_ptr<const std::vector<RecordT>> buffer;
    std::shared_ptr<const TombstoneTable> tombs;  // shared with the writer
    uint64_t stamp = 0;
    size_t tombstones = 0;  // live tombstones at this stamp
    size_t live = 0;

    /// Whether this version sees the level record `rec` deleted.
    bool Deleted(const RecordT& rec) const {
      return tombstones != 0 && tombs->Deleted(rec, stamp);
    }
  };

  class SnapshotHandle;

  DynamicPRTree(WorkEnv env,
                const DynamicPrTreeOptions& opts = DynamicPrTreeOptions{})
      : env_(env), opts_(opts), epochs_(env.device), view_(env.device) {
    size_t cap = NodeCapacity<D>(env.device->block_size());
    buffer_capacity_ =
        opts_.buffer_capacity != 0 ? opts_.buffer_capacity : cap;
    buffer_snap_ = std::make_shared<const std::vector<RecordT>>();
    tombs_ = std::make_shared<TombstoneTable>(0);
    PublishLocked();  // the first version: the empty forest
  }

  /// Number of live (non-tombstoned) records.
  size_t size() const {
    std::lock_guard<std::mutex> lock(version_mu_);
    return version_->live;
  }

  /// Number of static levels currently allocated (occupied or not).
  size_t num_levels() const {
    std::lock_guard<std::mutex> lock(version_mu_);
    return version_->levels.size();
  }

  /// Pending tombstones (records physically present but deleted).
  size_t tombstones() const {
    std::lock_guard<std::mutex> lock(version_mu_);
    return version_->tombstones;
  }

  /// \brief Inserts `rec`.  Amortised O((1/B) log(N)) block I/Os plus the
  /// buffer append.
  void Insert(const RecordT& rec) {
    std::lock_guard<std::mutex> wl(write_mu_);
    if (tomb_live_ != 0 && tombs_->Kill(rec, stamp_)) {
      // Re-insertion of an exactly deleted record: the physical copy in
      // some level is indistinguishable from the new record, so cancelling
      // the tombstone is the insert.
      --tomb_live_;
      ++live_;
      PublishLocked();
      return;
    }
    buffer_.push_back(rec);
    buffer_dirty_ = true;
    ++live_;
    std::vector<PageId> replaced;
    if (buffer_.size() >= buffer_capacity_) FlushBufferLocked(&replaced);
    PublishLocked();
    epochs_.Retire(std::move(replaced));
  }

  /// \brief Deletes the record matching `rec` exactly.  Returns false if
  /// not present.  Reads one root-to-leaf path per containing branch of
  /// each level, through an attached pool if there is one.
  bool Delete(const RecordT& rec) {
    std::lock_guard<std::mutex> wl(write_mu_);
    for (size_t i = 0; i < buffer_.size(); ++i) {
      if (buffer_[i].id == rec.id && buffer_[i].rect == rec.rect) {
        buffer_[i] = buffer_.back();
        buffer_.pop_back();
        buffer_dirty_ = true;
        --live_;
        PublishLocked();
        return true;
      }
    }
    if (tomb_live_ != 0 && tombs_->Deleted(rec, stamp_)) {
      return false;  // this exact record is already deleted
    }
    // Exact-match probe of the static levels (a writer-private read; the
    // levels only change under write_mu_, which we hold).  Largest level
    // first, since it holds most of the records.  Any attached pool is
    // coherent for the current levels: the epoch drain invalidates every
    // attached pool before a page id is recycled.
    BufferPool* pool = pools_.empty() ? nullptr : pools_.front();
    if (std::none_of(levels_.rbegin(), levels_.rend(),
                     [&](const RTree<D>& level) {
                       return level.Contains(rec, pool);
                     })) {
      return false;
    }
    if (tombs_->Full()) tombs_ = tombs_->Compacted(tomb_live_);
    tombs_->Add(rec, stamp_);
    ++tomb_live_;
    --live_;
    std::vector<PageId> replaced;
    if (tomb_live_ > live_) RebuildAllLocked(&replaced);
    PublishLocked();
    epochs_.Retire(std::move(replaced));
    return true;
  }

  /// \brief Pins the current version: an epoch guard (pages of this
  /// version will not be reclaimed while the handle lives) plus the
  /// version pointer.  Queries through the handle see one frozen record
  /// set no matter how much concurrent update traffic runs.
  SnapshotHandle Snapshot() const {
    // Enter the epoch *before* loading the version pointer: any version
    // observable after entry retires its pages with a later stamp, so
    // whichever version we load, its pages outlive the guard.
    EpochGuard guard = epochs_.Enter();
    std::shared_ptr<const ForestVersion> version;
    {
      std::lock_guard<std::mutex> lock(version_mu_);
      version = version_;
    }
    return SnapshotHandle(this, std::move(guard), std::move(version));
  }

  /// \brief Window query over the forest; emits every live intersecting
  /// record.  Returns aggregate visit statistics (the buffer scan is
  /// memory-resident and costs no I/O).  If `pool` is given, every level's
  /// node reads go through it (one shared pool serves the whole forest).
  ///
  /// Runs on an internally taken snapshot, so it is safe — and sees a
  /// consistent record set with deterministic QueryStats — concurrently
  /// with Insert/Delete from other threads.
  template <typename Emit>
  QueryStats Query(const RectT& window, Emit emit,
                   BufferPool* pool = nullptr) const {
    return Snapshot().Query(window, emit, pool);
  }

  /// Materialising query.
  std::vector<RecordT> QueryToVector(const RectT& window,
                                     BufferPool* pool = nullptr) const {
    std::vector<RecordT> out;
    Query(window, [&](const RecordT& r) { out.push_back(r); }, pool);
    return out;
  }

  /// \brief k-nearest-neighbour search over the forest: the k live records
  /// closest to `point`, in increasing (distance, id) order.  One bounded
  /// best-first search (KnnSearchFrom) covers every occupied level's root
  /// and starts from the buffer's records as candidates; tombstones are
  /// filtered inside the traversal, so they never displace a live
  /// candidate.  `stats` count that one search.  Runs on an internally
  /// taken snapshot.
  std::vector<Neighbor<D>> Knn(const std::array<Real, D>& point, size_t k,
                               QueryStats* stats = nullptr,
                               BufferPool* pool = nullptr) const {
    return Snapshot().Knn(point, k, stats, pool);
  }

  /// Registers `pool` so frames of pages reclaimed by rebuilds are
  /// invalidated before the ids can be recycled.  Required for pools kept
  /// across updates; the pool must outlive the forest or be detached.
  /// Delete's probe reads through an attached pool.  Both calls serialize
  /// with writers, so no Delete still reads a pool once it is detached.
  void AttachPool(BufferPool* pool) const {
    std::lock_guard<std::mutex> wl(write_mu_);
    epochs_.AttachPool(pool);
    if (std::find(pools_.begin(), pools_.end(), pool) == pools_.end()) {
      pools_.push_back(pool);
    }
  }
  void DetachPool(BufferPool* pool) const {
    std::lock_guard<std::mutex> wl(write_mu_);
    epochs_.DetachPool(pool);
    std::erase(pools_, pool);
  }

  /// The reclamation registry (diagnostics: limbo_pages(),
  /// active_readers()).
  const EpochManager& epochs() const { return epochs_; }

  /// Per-level record counts (diagnostics and tests).
  std::vector<size_t> LevelSizes() const {
    std::lock_guard<std::mutex> lock(version_mu_);
    std::vector<size_t> out;
    for (const auto& level : version_->levels) out.push_back(level.size);
    return out;
  }

  /// Validates every level's structure and the record accounting: the
  /// live count is the buffer plus every level minus the live tombstones,
  /// and each live tombstone names a record stored in some level.  Reads
  /// the device, not a pool, like ValidateTree.  Serializes with writers.
  Status Validate() const {
    std::lock_guard<std::mutex> wl(write_mu_);
    size_t stored = buffer_.size();
    for (const auto& level : levels_) {
      stored += level.size();
      if (level.empty()) continue;
      PRTREE_RETURN_NOT_OK(ValidateTree(level));
    }
    if (live_ + tomb_live_ != stored) {
      return Status::Corruption(
          "live " + std::to_string(live_) + " + tombstones " +
          std::to_string(tomb_live_) + " != stored " + std::to_string(stored));
    }
    size_t listed = 0;
    bool all_stored = true;
    tombs_->ForEachLive([&](const RecordT& rec, uint64_t) {
      ++listed;
      all_stored = all_stored &&
                   std::any_of(levels_.begin(), levels_.end(),
                               [&](const RTree<D>& level) {
                                 return level.Contains(rec);
                               });
    });
    if (listed != tomb_live_) {
      return Status::Corruption("tombstone table lists " +
                                std::to_string(listed) + ", count says " +
                                std::to_string(tomb_live_));
    }
    if (!all_stored) {
      return Status::Corruption("a tombstone names a record in no level");
    }
    return Status::OK();
  }

  /// \brief A pinned, immutable view of the forest: queries through the
  /// handle all observe the same record set, and the pages they traverse
  /// are guaranteed untouched (not overwritten, not recycled) until the
  /// handle is released.  Move-only; release early with Release() to let
  /// the writer reclaim pages this snapshot was holding.
  class SnapshotHandle {
   public:
    SnapshotHandle(SnapshotHandle&&) noexcept = default;
    SnapshotHandle& operator=(SnapshotHandle&&) noexcept = default;

    /// Live records in this version.
    size_t size() const { return version_->live; }

    /// Drops the epoch pin (idempotent).  The handle must not be queried
    /// afterwards.
    void Release() {
      guard_.Release();
      version_.reset();
    }

    /// Window query over the pinned version; same contract as
    /// DynamicPRTree::Query.  Stats are byte-identical across re-runs on
    /// one handle, writers or no writers.
    template <typename Emit>
    QueryStats Query(const RectT& window, Emit emit,
                     BufferPool* pool = nullptr) const {
      PRTREE_CHECK(version_ != nullptr);  // queried after Release()
      QueryStats qs;
      uint64_t live_results = 0;
      for (const auto& rec : *version_->buffer) {
        if (rec.rect.Intersects(window)) {
          ++live_results;
          emit(rec);
        }
      }
      const ForestVersion& v = *version_;
      for (const auto& level : v.levels) {
        if (level.size == 0) continue;
        qs += tree_->view_.QueryFrom(level.root, window,
                                     [&](const RecordT& r) {
                                       if (v.Deleted(r)) return;
                                       ++live_results;
                                       emit(r);
                                     },
                                     pool);
      }
      // Per-level stats count physical hits; report live results instead.
      qs.results = live_results;
      return qs;
    }

    std::vector<RecordT> QueryToVector(const RectT& window,
                                       BufferPool* pool = nullptr) const {
      std::vector<RecordT> out;
      Query(window, [&](const RecordT& r) { out.push_back(r); }, pool);
      return out;
    }

    /// kNN over the pinned version; same contract as DynamicPRTree::Knn.
    std::vector<Neighbor<D>> Knn(const std::array<Real, D>& point, size_t k,
                                 QueryStats* stats = nullptr,
                                 BufferPool* pool = nullptr) const {
      PRTREE_CHECK(version_ != nullptr);  // queried after Release()
      std::vector<PageId> roots;
      for (const auto& level : version_->levels) {
        if (level.size != 0) roots.push_back(level.root);
      }
      const ForestVersion& v = *version_;
      return KnnSearchFrom<D>(
          tree_->view_, roots, *v.buffer, point, k, stats, pool,
          [&](const RecordT& r) { return !v.Deleted(r); });
    }

    /// The pinned version's level roots, occupied or not (diagnostics and
    /// tests: every page a query through this handle reads lies under one
    /// of them).
    const std::vector<LevelRoot>& levels() const { return version_->levels; }

   private:
    friend class DynamicPRTree;
    SnapshotHandle(const DynamicPRTree* tree, EpochGuard guard,
                   std::shared_ptr<const ForestVersion> version)
        : tree_(tree), guard_(std::move(guard)),
          version_(std::move(version)) {}

    const DynamicPRTree* tree_;
    EpochGuard guard_;
    std::shared_ptr<const ForestVersion> version_;
  };

 private:
  /// Capacity of level i: buffer_capacity * 2^(i+1).
  size_t LevelCapacity(size_t i) const {
    return buffer_capacity_ << (i + 1);
  }

  /// \brief Publishes the working state as a new immutable version, with
  /// the stamp this operation's tombstone changes were made at.  Caller
  /// holds write_mu_.  The version pointer swap is the atomic commit
  /// point; the caller retires replaced pages *after* this returns
  /// (publish-then-retire: a reader can never load a version whose pages
  /// are already in limbo with an older stamp than its entry epoch).
  void PublishLocked() {
    if (buffer_dirty_) {
      buffer_snap_ = std::make_shared<const std::vector<RecordT>>(buffer_);
      buffer_dirty_ = false;
    }
    auto v = std::make_shared<ForestVersion>();
    v->levels.reserve(levels_.size());
    for (const auto& level : levels_) {
      v->levels.push_back(LevelRoot{level.root(), level.size()});
    }
    v->buffer = buffer_snap_;
    v->tombs = tombs_;
    v->stamp = stamp_++;
    v->tombstones = tomb_live_;
    v->live = live_;
    std::lock_guard<std::mutex> lock(version_mu_);
    version_ = std::move(v);
  }

  /// Merges the buffer into the smallest level that absorbs it, building
  /// the new tree on fresh pages.  The pages of every consumed level land
  /// in `replaced` for the caller to retire after publishing.
  void FlushBufferLocked(std::vector<PageId>* replaced) {
    // Smallest level i whose capacity absorbs the buffer plus levels 0..i.
    size_t total = buffer_.size();
    size_t target = 0;
    while (true) {
      if (target < levels_.size()) total += levels_[target].size();
      if (total <= LevelCapacity(target)) break;
      ++target;
    }
    Stream<RecordT> merged =
        DrainLocked(std::min(target + 1, levels_.size()), replaced);
    while (levels_.size() <= target) levels_.emplace_back(env_.device);
    internal::BulkLoadPrTree<D>(env_, &merged, &levels_[target]);
  }

  void RebuildAllLocked(std::vector<PageId>* replaced) {
    Stream<RecordT> merged = DrainLocked(levels_.size(), replaced);
    PRTREE_CHECK(tomb_live_ == 0);
    PRTREE_CHECK(merged.size() == live_);
    levels_.clear();
    if (merged.empty()) return;
    size_t target = 0;
    while (LevelCapacity(target) < merged.size()) ++target;
    while (levels_.size() <= target) levels_.emplace_back(env_.device);
    internal::BulkLoadPrTree<D>(env_, &merged, &levels_[target]);
  }

  /// \brief Empties the buffer and levels [0, count) into one flushed
  /// stream: the buffer, then each level's records in depth-first leaf
  /// order, in one walk that reads every page once and lists it in
  /// `replaced`.  A tombstoned record is dropped and its tombstone consumed
  /// (versions from this stamp on no longer hold it).
  Stream<RecordT> DrainLocked(size_t count, std::vector<PageId>* replaced) {
    Stream<RecordT> out(env_.device);
    out.Append(buffer_);
    buffer_.clear();
    buffer_dirty_ = true;
    for (size_t i = 0; i < count; ++i) {
      levels_[i].DetachPages(replaced, [&](const RecordT& r) {
        if (tomb_live_ != 0 && tombs_->Kill(r, stamp_)) {
          --tomb_live_;
        } else {
          out.Push(r);
        }
      });
    }
    out.Flush();
    return out;
  }

  WorkEnv env_;
  DynamicPrTreeOptions opts_;
  size_t buffer_capacity_;

  // ---- writer-private working state (guarded by write_mu_) -------------
  std::vector<RecordT> buffer_;
  std::vector<RTree<D>> levels_;
  // Keyed by id with exact-rectangle equality: two records may share an id
  // transiently (a deleted-but-unpurged copy plus a re-inserted one at a
  // new position), so tombstones must identify the full (id, rect) pair.
  // Published versions share it; the writer only adds entries and sets
  // death stamps, and replaces it with a compacted copy when full.
  std::shared_ptr<TombstoneTable> tombs_;
  size_t tomb_live_ = 0;
  size_t live_ = 0;
  // Stamp of the next version to publish: tombstone changes made by the
  // running operation carry it.
  uint64_t stamp_ = 1;
  // Frozen copy of the buffer shared with published versions, re-made only
  // when the working copy changed since the last publish.
  std::shared_ptr<const std::vector<RecordT>> buffer_snap_;
  bool buffer_dirty_ = false;
  // Pools registered by AttachPool; Delete probes through the first.
  mutable std::vector<BufferPool*> pools_;

  // ---- reader-facing state ---------------------------------------------
  mutable EpochManager epochs_;
  // A rootless tree over the same device: snapshot traversals borrow its
  // QueryFrom/KnnSearchFrom (which never touch root/height/size), keeping
  // them independent of the writer's mutable level objects.
  RTree<D> view_;
  // Serializes Insert/Delete, AttachPool/DetachPool and Validate.
  mutable std::mutex write_mu_;
  mutable std::mutex version_mu_;  // guards version_
  std::shared_ptr<const ForestVersion> version_;
};

}  // namespace prtree

#endif  // PRTREE_CORE_DYNAMIC_PRTREE_H_
