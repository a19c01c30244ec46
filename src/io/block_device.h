// The block-device interface and its in-memory backend.
//
// The paper measures algorithms in the standard external-memory model: data
// moves between disk and memory in blocks of B records, and the cost of an
// algorithm is the number of block transfers (I/Os).  BlockDevice is the
// abstract realisation of that model — fixed-size blocks addressed by
// PageId, with exact read/write counters — and every layer above (buffer
// pool, node views, loaders, queries) talks to it, never to a concrete
// backend.  Three backends implement it:
//
//  * MemoryBlockDevice (this header): blocks held in RAM.  Deterministic
//    and free of OS page-cache noise, which the paper itself identifies as
//    the reason to report I/Os instead of seconds (§3.3).  The default for
//    tests and the paper-figure benches.
//  * FileBlockDevice (io/file_block_device.h): blocks mapped onto a single
//    on-disk file via pread/pwrite, with a persistent superblock and an
//    explicit Sync() durability barrier.  Indexes survive the process and
//    may exceed RAM.
//  * UringBlockDevice (io/uring_block_device.h): the file backend with an
//    io_uring engine under ReadBatch() and WriteBatch(), so a batch of
//    block transfers is one syscall with every request in flight at once.
//    Falls back to the pread/pwrite path transparently when the kernel
//    lacks io_uring.
//
// Thread safety contract (all backends): Read()/Write()/ReadBatch()/
// WriteBatch() may be called concurrently from any number of threads;
// Allocate()/Free() serialise internally.  Races on a single page (read
// vs. free of the same page, two writers to one page) remain usage errors,
// exactly as with a real disk.
//
// Determinism contract for parallel bulk loads (all backends): the page id
// returned by Allocate() depends only on the *sequence* of prior
// Allocate()/Free() calls — a LIFO free list over a monotonically grown
// page space.  Loaders make every device call on the calling thread, in
// serial program order (pool workers only sort runs and run the
// pseudo-PR-tree's kd recursion on in-memory arrays, and never see the
// device), which makes an 8-thread build byte-identical to a serial one,
// every I/O counter included, on every backend (docs/ARCHITECTURE.md).

#ifndef PRTREE_IO_BLOCK_DEVICE_H_
#define PRTREE_IO_BLOCK_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "io/io_stats.h"
#include "util/status.h"

namespace prtree {

/// Identifier of a block on the device.  kInvalidPageId is the "null"
/// pointer in on-disk structures.
using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Block size used throughout the paper's experiments (§3.1).
inline constexpr size_t kDefaultBlockSize = 4096;

/// \brief How a read is charged to the I/O counters.
///
/// kDemand is an algorithmic block transfer (the paper's metric, counted in
/// stats().reads).  kPrefetch is a speculative readahead transfer issued
/// before any traversal asked for the page; it is charged to
/// stats().prefetch_reads so readahead changes *when* blocks move, never
/// what the demand counters report (docs/IO_MODEL.md).
enum class ReadKind { kDemand, kPrefetch };

/// \brief How a write is charged to the I/O counters.
///
/// kData is an algorithmic block transfer (stats().writes, part of the
/// paper's metric).  kMeta is metadata-class traffic — the update journal's
/// frames (io/journal.h) — charged to stats().meta_writes so the demand
/// counters stay byte-identical whether or not journaling is on
/// (docs/DURABILITY.md).
enum class WriteKind { kData, kMeta };

/// \brief One request of a batched read.  `buf` must hold block_size()
/// bytes; `status` receives the per-request outcome (a failed request never
/// aborts the rest of the batch).
struct BlockReadRequest {
  PageId page = kInvalidPageId;
  void* buf = nullptr;
  Status status;
};

/// \brief One request of a batched write.  `buf` must hold block_size()
/// bytes and stay valid until WriteBatch returns; `status` receives the
/// per-request outcome (a failed request never aborts the rest of the
/// batch).
struct BlockWriteRequest {
  PageId page = kInvalidPageId;
  const void* buf = nullptr;
  Status status;
};

/// \brief Abstract array of fixed-size blocks with I/O accounting,
/// allocation/free-list management and test-only fault injection.
///
/// See the file comment for the thread-safety and determinism contracts
/// every backend must honour.
class BlockDevice {
 public:
  explicit BlockDevice(size_t block_size);
  virtual ~BlockDevice();

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  size_t block_size() const { return block_size_; }

  /// Allocates a block that reads as zeros and returns its id.  Reuses
  /// freed blocks (LIFO), so the result is a pure function of the
  /// preceding Allocate/Free call sequence.  Writes nothing on any backend
  /// (the file backends defer a reused page's zeroing to its first write
  /// or to Sync).  Thread-safe.
  virtual PageId Allocate() = 0;

  /// Returns `page` to the free list.  The block's contents are discarded.
  /// Writes nothing (the file backends stamp the free list at Sync).
  /// Thread-safe (but freeing a page another thread is reading is a usage
  /// error, as on a real disk).
  virtual void Free(PageId page) = 0;

  /// Copies the block into `buf` (block_size() bytes).  Counts one read.
  /// Safe to call from multiple threads concurrently.  Non-virtual:
  /// backends implement DoRead(); fault injection and accounting live
  /// here, identically for every backend.
  Status Read(PageId page, void* buf) const {
    return ReadImpl(page, buf, &BlockDevice::CountRead);
  }

  /// Copies `buf` (block_size() bytes) into the block.  Counts one write.
  /// Concurrent writes to *distinct* pages are safe.  Non-virtual like
  /// Read(): fault injection and accounting live here, identically for
  /// every backend.
  Status Write(PageId page, const void* buf) {
    return WriteImpl(page, buf, WriteKind::kData);
  }

  /// Same bytes and fault behaviour as Write(), charged to
  /// stats().meta_writes instead of the demand counter.  The update
  /// journal's channel (see WriteKind).
  Status WriteMeta(PageId page, const void* buf) {
    return WriteImpl(page, buf, WriteKind::kMeta);
  }

  /// Same bytes and fault behaviour as Read(), charged to
  /// stats().meta_reads instead of the demand counter (journal recovery
  /// scans and reachability sweeps read through this).
  Status ReadMeta(PageId page, void* buf) const {
    return ReadImpl(page, buf, &BlockDevice::CountMetaRead);
  }

  /// \brief Writes `n` blocks in one call.  Semantically identical to `n`
  /// Write() calls — same bytes on the device, same per-block accounting
  /// (one write per *successful* request) — but a backend may service the
  /// whole batch with every write in flight at once (UringBlockDevice
  /// submits the batch as one io_uring syscall).  Each request's outcome
  /// lands in its `status`; the return value is OK iff every request
  /// succeeded (first failure otherwise).  One audit-only `write_batches`
  /// tick per kData call, on every backend, so counters never depend on
  /// which engine served the batch; kMeta batches charge meta_writes only.
  /// Thread-safe like Write() (distinct pages).
  Status WriteBatch(BlockWriteRequest* reqs, size_t n,
                    WriteKind kind = WriteKind::kData) {
    if (n == 0) return Status::OK();
    if (kind == WriteKind::kData) CountWriteBatch();
    return DoWriteBatch(reqs, n, kind);
  }

  /// \brief The batch size a write stager should coalesce to before
  /// draining into WriteBatch().  1 (the default) means batching buys
  /// nothing here — stagers pass writes straight through.  Only a uring
  /// device opened with O_DIRECT requested reports more: its requested
  /// ring depth, whether or not a ring came up or O_DIRECT was granted, so
  /// staging behaviour (and the write_batches counter) is a function of
  /// configuration, never of kernel capabilities (docs/IO_MODEL.md).
  virtual size_t PreferredWriteBatch() const { return 1; }

  /// \brief Reads `n` blocks in one call.  Semantically identical to `n`
  /// Read() calls — same bytes, same per-block accounting (one
  /// read/prefetch_read per *successful* request) — but a backend may
  /// service the whole batch with every read in flight at once
  /// (UringBlockDevice submits the batch as one io_uring syscall).  Each
  /// request's outcome lands in its `status`; the return value is OK iff
  /// every request succeeded (first failure otherwise).  Thread-safe like
  /// Read().
  virtual Status ReadBatch(BlockReadRequest* reqs, size_t n,
                           ReadKind kind = ReadKind::kDemand) const;

  /// \brief Advisory: the caller expects to read these pages soon.  Never
  /// transfers into caller memory, never touches the counters, may do
  /// nothing (the default).  The file backend forwards the hint to the
  /// kernel (posix_fadvise WILLNEED) so the page cache can read ahead.
  virtual void PrefetchHint(const PageId* pages, size_t n) const {
    (void)pages;
    (void)n;
  }

  /// Number of blocks currently allocated (live).
  virtual size_t num_allocated() const = 0;

  /// High-water mark of live blocks — the paper's "disk blocks occupied".
  virtual size_t peak_allocated() const = 0;

  /// Number of page ids ever created (allocated or later freed): valid ids
  /// are [0, num_pages()).  With IsAllocated() this lets recovery and tests
  /// enumerate the live-page set (the journal's leak sweep).
  virtual size_t num_pages() const = 0;

  /// True iff `page` is currently allocated (live).
  virtual bool IsAllocated(PageId page) const = 0;

  /// Durability barrier: flushes device metadata and data to stable
  /// storage.  A no-op on the in-memory backend; an fsync (plus superblock
  /// write-out) on the file backend.
  virtual Status Sync() { return Status::OK(); }

  /// Point-in-time snapshot of the I/O counters (atomic per counter).
  /// Counts client Read()/Write() calls only — backend-internal metadata
  /// traffic (superblock, free-list maintenance) is never charged, so both
  /// backends report identical I/Os for identical call sequences.
  IoStats stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

  /// Makes every subsequent Read of `page` fail with an IoError, simulating
  /// a bad sector.  Test-only; not safe concurrently with Read().
  void InjectReadFault(PageId page) {
    read_faults_.insert(page);
    fault_count_.store(read_faults_.size(), std::memory_order_release);
  }
  /// Same for Write()/WriteBatch(): every subsequent write of `page` fails
  /// with an IoError, whichever engine would have carried it.  Test-only;
  /// not safe concurrently with Write().
  void InjectWriteFault(PageId page) {
    write_faults_.insert(page);
    write_fault_count_.store(write_faults_.size(), std::memory_order_release);
  }

  /// One-shot torn write: the next block write of `page` lands only its
  /// first `valid_prefix_bytes` bytes — the rest of the block keeps its
  /// previous contents — and reports success, modelling a sector-granular
  /// partial write at power cut.  "Next write" is counted where bytes land
  /// (see ConsumeWriteBudget): a client Write()/WriteMeta()/WriteBatch(),
  /// or the file backends' own zeroing or free-list stamp of the page,
  /// both written by Sync() (or the close).  A page that still reads as
  /// zeros keeps zeros past a torn client write's prefix.  Later writes of
  /// the page behave normally.  Test-only; arm before the writes start.
  void InjectTornWrite(PageId page, size_t valid_prefix_bytes) {
    std::lock_guard<std::mutex> lock(torn_mu_);
    torn_writes_[page] = valid_prefix_bytes;
    torn_count_.store(torn_writes_.size(), std::memory_order_release);
  }

  /// Power-cut simulator: the next `n` block writes land normally — client
  /// writes AND backend-internal metadata writes (superblock, free-list
  /// stamps, page zeroing; on the file backends all three come from
  /// Sync() or the close) alike — and every write after them is silently
  /// dropped while still reporting success, exactly as a dead machine
  /// acknowledges nothing further.  When `tear_prefix_bytes` is given the
  /// n-th (final surviving) write lands torn: only that prefix reaches the
  /// device.  Writes are consumed in device order (batch engines fall back
  /// to the ordered scalar loop while the switch is armed, so the crash
  /// point is deterministic).  Test-only; arm before the writes start.
  static constexpr size_t kNoTear = ~size_t{0};
  void InjectCrashAfterWrites(uint64_t n, size_t tear_prefix_bytes = kNoTear) {
    crash_budget_.store(static_cast<int64_t>(n), std::memory_order_relaxed);
    crash_tear_prefix_ = tear_prefix_bytes;
    dropped_writes_.store(0, std::memory_order_relaxed);
    crash_armed_.store(true, std::memory_order_release);
  }

  /// True iff an armed crash switch has exhausted its budget (every
  /// subsequent write is being dropped).
  bool crash_triggered() const {
    return crash_armed_.load(std::memory_order_acquire) &&
           crash_budget_.load(std::memory_order_relaxed) <= 0;
  }

  /// Writes silently dropped by the armed crash switch so far.
  uint64_t dropped_writes() const {
    return dropped_writes_.load(std::memory_order_relaxed);
  }

  /// Total block-write attempts (landed, torn or dropped; client and
  /// backend-internal alike), counted whether or not a crash switch is
  /// armed.  Deterministic for a deterministic call sequence — the crash
  /// matrix in tests/crash_recovery_test.cc measures a dry run's attempt
  /// count and then crashes at every index below it.
  uint64_t write_attempts() const {
    return write_attempts_.load(std::memory_order_relaxed);
  }

  void ClearFaults() {
    read_faults_.clear();
    fault_count_.store(0, std::memory_order_release);
    write_faults_.clear();
    write_fault_count_.store(0, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(torn_mu_);
      torn_writes_.clear();
      torn_count_.store(0, std::memory_order_release);
    }
    crash_armed_.store(false, std::memory_order_release);
    dropped_writes_.store(0, std::memory_order_relaxed);
  }

 protected:
  /// Backend read/write of one block, *without* fault injection or
  /// accounting — the public Read()/Write()/ReadBatch() wrappers add both.
  virtual Status DoRead(PageId page, void* buf) const = 0;
  virtual Status DoWrite(PageId page, const void* buf) = 0;

  /// Backend half of WriteBatch(): per-request status, one counted write
  /// per success (demand or meta per `kind`), every request attempted,
  /// write faults honoured.  The default (block_device.cc) is the scalar
  /// reference loop of Write() bodies; UringBlockDevice overrides it with
  /// the ring engine.
  virtual Status DoWriteBatch(BlockWriteRequest* reqs, size_t n,
                              WriteKind kind);

  /// True iff a fault was injected for `page`.  The public wrappers call
  /// this before every read (cheap: one relaxed load when no fault is
  /// armed); backends with their own batched paths must do the same.
  bool HasReadFault(PageId page) const {
    return fault_count_.load(std::memory_order_acquire) != 0 &&
           read_faults_.count(page) != 0;
  }
  bool HasWriteFault(PageId page) const {
    return write_fault_count_.load(std::memory_order_acquire) != 0 &&
           write_faults_.count(page) != 0;
  }

  /// True iff any write-path injection (fault, torn write, crash switch)
  /// is armed.  Batch engines whose in-flight ordering is not deterministic
  /// (io_uring) check this and fall back to the ordered scalar loop, so an
  /// injected crash point always lands between the same two writes.
  bool WriteInjectionArmed() const {
    return write_fault_count_.load(std::memory_order_acquire) != 0 ||
           torn_count_.load(std::memory_order_acquire) != 0 ||
           crash_armed_.load(std::memory_order_acquire);
  }

  /// What the armed injections decide for one block write of `page`,
  /// asked at the lowest layer where bytes land (MemoryBlockDevice::DoWrite,
  /// FileBlockDevice::PWriteBlock; the superblock asks as kInvalidPageId).
  /// Takes a one-shot InjectTornWrite() arming of `page`, then consumes the
  /// power-cut budget: a drop wins over any tear, and a write torn twice
  /// keeps the shorter prefix, written to `*tear_prefix` on kTear.  Also
  /// ticks write_attempts().
  enum class WriteOutcome { kLand, kTear, kDrop };
  WriteOutcome ConsumeWriteBudget(PageId page, size_t* tear_prefix);

  /// Attempt tick for engines that bypass ConsumeWriteBudget (the io_uring
  /// ring path, which only runs with no injection armed).
  void CountWriteAttempt() {
    write_attempts_.fetch_add(1, std::memory_order_relaxed);
  }

  void CountRead() const { stats_.CountRead(); }
  void CountWrite() { stats_.CountWrite(); }
  void CountPrefetchRead() const { stats_.CountPrefetchRead(); }
  void CountMetaRead() const { stats_.CountMetaRead(); }
  void CountMetaWrite() { stats_.CountMetaWrite(); }
  void CountBatchedRead(ReadKind kind) const {
    kind == ReadKind::kDemand ? CountRead() : CountPrefetchRead();
  }
  void CountBatchedWrite(WriteKind kind) {
    kind == WriteKind::kData ? CountWrite() : CountMetaWrite();
  }
  void CountWriteBatch() { stats_.CountWriteBatch(); }

 private:
  /// Shared body of Read()/ReadMeta() and the reference ReadBatch(): fault
  /// check, backend read, then `count` on success.
  using ReadCounter = void (BlockDevice::*)() const;
  Status ReadImpl(PageId page, void* buf, ReadCounter count) const {
    if (HasReadFault(page)) {
      return Status::IoError("injected read fault on page " +
                             std::to_string(page));
    }
    Status st = DoRead(page, buf);
    if (st.ok()) (this->*count)();
    return st;
  }

  /// Shared body of Write()/WriteMeta() and the reference DoWriteBatch():
  /// fault check, backend write, per-kind accounting.
  Status WriteImpl(PageId page, const void* buf, WriteKind kind) {
    if (HasWriteFault(page)) {
      return Status::IoError("injected write fault on page " +
                             std::to_string(page));
    }
    Status st = DoWrite(page, buf);
    if (st.ok()) CountBatchedWrite(kind);
    return st;
  }

  const size_t block_size_;
  mutable AtomicIoStats stats_;
  std::unordered_set<PageId> read_faults_;  // test-only, see InjectReadFault
  std::atomic<size_t> fault_count_{0};
  std::unordered_set<PageId> write_faults_;  // test-only, InjectWriteFault
  std::atomic<size_t> write_fault_count_{0};
  std::mutex torn_mu_;  // guards torn_writes_ (armed-path only)
  std::unordered_map<PageId, size_t> torn_writes_;  // page -> valid prefix
  std::atomic<size_t> torn_count_{0};
  std::atomic<bool> crash_armed_{false};
  std::atomic<int64_t> crash_budget_{0};  // writes left before the power cut
  size_t crash_tear_prefix_ = kNoTear;    // set before arming, then stable
  std::atomic<uint64_t> dropped_writes_{0};
  std::atomic<uint64_t> write_attempts_{0};
};

/// \brief The in-memory backend: blocks live in a two-level table of
/// geometrically sized "bricks" published through atomic pointers, so
/// Read()/Write() never take a lock and never observe a moving table;
/// Allocate()/Free() serialise on a mutex.
class MemoryBlockDevice final : public BlockDevice {
 public:
  explicit MemoryBlockDevice(size_t block_size = kDefaultBlockSize);
  ~MemoryBlockDevice() override;

  PageId Allocate() override;
  void Free(PageId page) override;
  size_t num_allocated() const override;
  size_t peak_allocated() const override;
  size_t num_pages() const override;
  bool IsAllocated(PageId page) const override;

 protected:
  Status DoRead(PageId page, void* buf) const override;
  Status DoWrite(PageId page, const void* buf) override;

 private:
  // Two-level stable storage.  Brick 0 holds pages [0, 2^kBrick0Bits);
  // brick k >= 1 holds [2^(kBrick0Bits+k-1), 2^(kBrick0Bits+k)).  Brick
  // pointers are published with release stores and never move, so readers
  // index them without locks while the device grows.
  static constexpr int kBrick0Bits = 10;
  static constexpr int kMaxBricks = 24;  // covers > 2^32 pages

  struct PageSlot {
    std::unique_ptr<std::byte[]> data;  // set once (under mu_), then stable
    std::atomic<bool> live{false};
  };

  static int BrickOf(PageId page, size_t* offset);

  /// Slot lookup for a page id known to be < num_pages_.
  PageSlot& Slot(PageId page) const;

  /// True and yields the slot iff `page` was ever created and is live.
  PageSlot* LiveSlot(PageId page) const;

  mutable std::mutex mu_;  // guards allocation state and brick growth
  std::atomic<PageSlot*> bricks_[kMaxBricks] = {};
  std::atomic<size_t> num_pages_{0};  // pages ever created (monotonic)
  std::vector<PageId> free_list_;     // guarded by mu_
  size_t allocated_ = 0;              // guarded by mu_
  size_t peak_allocated_ = 0;         // guarded by mu_
};

}  // namespace prtree

#endif  // PRTREE_IO_BLOCK_DEVICE_H_
