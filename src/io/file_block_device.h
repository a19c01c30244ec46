// The file-backed block device: pages mapped onto a single on-disk file.
//
// Layout.  File offset 0 holds the superblock (one block); device page p
// lives at offset (p + 1) * block_size.  The superblock records the block
// size, the allocation counters, the head of the free list and a small
// application-metadata region (rtree/persist.h stores the tree root there,
// so an index file is self-describing and reopenable).  The free list is
// threaded through the freed pages themselves — each freed page's first
// eight bytes hold a stamp {kFreePageMagic, next} — so it persists whole
// regardless of length while the superblock stays a single page.
//
// Durability.  Data pages hit the file on every Write() (pwrite).
// Allocation metadata is kept in memory and written out by Sync(), which
// then fsync()s the file, and best-effort on clean close when it changed:
// Free() only pushes the page onto the in-memory LIFO, and Allocate() of
// a recycled page only marks it "reads as zeros" (reads return zeros
// until its first client write lands).  So does Allocate() of a fresh
// page inside the extent the file had at Open: a crash can leave such a
// page, past the recorded page count, holding bytes written before it.  Sync() puts that state on disk in
// an order a crash can cut anywhere: it first zeroes the live pages still
// marked, then stamps the part of the free list that changed since the
// last Sync (entries below the lowest point the list shrank to still hold
// valid stamps), and writes the superblock last.  So at every Sync and on
// close the file holds exactly the bytes the device reads back, and
// between Syncs only client writes touch the file.  There is no
// write-ahead log, so crash recovery is bounded, not perfect: Open()
// restores the allocation metadata recorded by the most recent superblock
// write.  A client write over a page on the recorded free-list chain
// (reused after the Sync) destroys its stamp, and a Sync cut before its
// superblock can leave the recorded chain shortened or extended — Open()
// detects every such state and conservatively treats whatever it cannot
// walk as allocated (a bounded space leak, never reuse of a page that
// might hold data).  That repair is written by the next Sync or by closing
// a session that changed the device, so a session that only reads leaves
// the file as it was.  A page freed after the last Sync keeps its as-of-Sync
// contents until it is reused and written, or until the next Sync stamps
// it; callers that need a consistent reopenable image must Sync() after
// mutating (PersistTree does).  A damaged superblock (bad
// magic/version/bounds, broken chain topology) fails Open() with
// Corruption, and a failed Open() never writes to the file.
//
// I/O accounting.  Only client Read()/Write() calls count toward stats();
// internal metadata traffic (superblock write-out, free-list stamps,
// zeroing of reused pages, all of it inside Sync() or the close) is never
// charged, and a read of a page that still reads as zeros is counted like
// any other read although it moves no bytes.  A build or query therefore
// reports exactly the same I/O numbers on this backend as on
// MemoryBlockDevice — wall-clock time is where the backends differ, which
// is why file-backed bench runs report both (docs/IO_MODEL.md).  Allocate()
// and Free() write nothing, so a build that never syncs makes exactly the
// block writes it is charged for.
//
// O_DIRECT.  FileDeviceOptions::direct_io requests kernel-page-cache bypass
// where the platform supports it (block size must be a multiple of 512;
// transfers go through a sector-aligned bounce buffer).  When the open with
// O_DIRECT fails, the device silently falls back to buffered I/O —
// direct_io() reports what was actually negotiated.
//
// Thread safety matches the BlockDevice contract: Read()/Write() run
// concurrently (liveness check under a shared lock, then a plain
// pread/pwrite); Allocate()/Free()/Sync() take the lock exclusively.

#ifndef PRTREE_IO_FILE_BLOCK_DEVICE_H_
#define PRTREE_IO_FILE_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "io/block_device.h"
#include "util/status.h"

namespace prtree {

/// How to open the backing file.
struct FileDeviceOptions {
  /// 0 (default): a freshly created file uses kDefaultBlockSize and an
  /// existing file's superblock size is accepted as-is.  Non-zero: a fresh
  /// file uses this size, and opening an existing file whose superblock
  /// disagrees fails with InvalidArgument.
  size_t block_size = 0;

  /// True: wipe any existing content and start an empty device.
  /// False: open the existing file (it must have a valid superblock);
  /// create an empty device only if the file does not exist.
  bool truncate = false;

  /// True: fail with NotFound instead of creating a missing file.  Set
  /// this on read paths (reopening an index) so a mistyped path does not
  /// leave a stray empty device behind.
  bool must_exist = false;

  /// Request O_DIRECT (page-cache bypass).  Best effort: silently degrades
  /// to buffered I/O when unsupported; check direct_io() for the outcome.
  bool direct_io = false;
};

/// \brief Block device backed by one on-disk file.  See the file comment
/// for layout, durability and accounting semantics.
///
/// Not final: UringBlockDevice (io/uring_block_device.h) shares the whole
/// on-disk format and scalar I/O path and replaces only the batch engine
/// (ReadBatch() and DoWriteBatch()).  A file written by one opens under the
/// other.
class FileBlockDevice : public BlockDevice {
 public:
  /// Bytes available to SetUserMeta (fits the superblock with room to
  /// spare at the minimum block size).
  static constexpr size_t kUserMetaCapacity = 128;

  /// Smallest supported block size: the superblock header plus the full
  /// user-metadata region must fit in one block.
  static constexpr size_t kMinBlockSize = 256;

  /// Opens (or creates, per `opts`) the device at `path`.
  static Status Open(const std::string& path, const FileDeviceOptions& opts,
                     std::unique_ptr<FileBlockDevice>* out);

  /// Closes the file, first writing out what Sync() would (page zeroing,
  /// free-list stamps, superblock) when metadata changed since the last
  /// write (best effort, no fsync — call Sync() when durability matters).
  /// A device whose Open() failed, or that was only read, never rewrites
  /// the file on close.
  ~FileBlockDevice() override;

  /// BlockDevice interface.  Note Allocate()/Free() have no error channel,
  /// so an unrecoverable backend failure there (e.g. the filesystem runs
  /// out of space mid-ftruncate) aborts, exactly as memory exhaustion
  /// does on MemoryBlockDevice; fallible paths (Open/Read/Write/Sync)
  /// report Status instead.
  PageId Allocate() override;
  void Free(PageId page) override;
  size_t num_allocated() const override;
  size_t peak_allocated() const override;
  size_t num_pages() const override;
  bool IsAllocated(PageId page) const override;

  /// Forwards the readahead hint to the kernel page cache
  /// (posix_fadvise WILLNEED).  A no-op under O_DIRECT, where there is no
  /// page cache to warm.
  void PrefetchHint(const PageId* pages, size_t n) const override;

  /// Zeroes the recycled pages not written since Allocate(), stamps the
  /// changed part of the free list, writes the superblock and fsync()s
  /// the file.  After an OK Sync the device state (pages, free list,
  /// counters, user metadata) survives a crash and is recovered by Open.
  Status Sync() override;

  const std::string& path() const { return path_; }

  /// Whether O_DIRECT is actually in effect (request may have degraded).
  bool direct_io() const { return direct_io_; }

  /// Stores up to kUserMetaCapacity opaque bytes in the superblock
  /// (persisted by the next Sync or clean close).
  Status SetUserMeta(const void* data, size_t len);

  /// Copies the stored metadata into `buf` (capacity `cap`) and returns
  /// its full length; 0 when none was ever set.
  size_t GetUserMeta(void* buf, size_t cap) const;

  /// Crash-recovery aid (rtree/journaled_tree.h).  Pages created after the
  /// last superblock write extended the file but are unknown to a reopened
  /// device — and a journaled update's committed shadow pages can be among
  /// them.  This adopts every page the file's extent covers into the page
  /// space as allocated, so recovery can read them; the recovery
  /// reachability sweep then frees the ones nothing references.  Returns
  /// how many pages were adopted.
  size_t AdoptOrphanPages();

 protected:
  FileBlockDevice(size_t block_size, std::string path, int fd,
                  bool direct_io);

  /// The shared Open() flow, reused by subclasses (UringBlockDevice):
  /// OpenBackingFile() opens/creates the file, validates the superblock
  /// header and settles the block size; FinishOpen() then initialises the
  /// constructed device (fresh superblock or load), negotiates O_DIRECT
  /// and marks the open successful.
  struct OpenedFile {
    int fd = -1;
    size_t block_size = 0;
    bool fresh = false;
  };
  static Status OpenBackingFile(const std::string& path,
                                const FileDeviceOptions& opts,
                                OpenedFile* out);
  Status FinishOpen(const FileDeviceOptions& opts, bool fresh);

  /// Scalar file I/O, shared with subclasses.
  int fd() const { return fd_; }

  /// Per-request liveness screen for a read or write batch, one lock
  /// acquisition for the whole batch: requests whose page is unallocated
  /// get an IoError status; the survivors' statuses are left untouched.
  /// `reads_zero[i]` is set to 1 iff request i's page is live and still
  /// reads as zeros (recycled or stale, and no write has landed on it
  /// since), else 0.  The scalar DoRead()/DoWrite() screen their one
  /// request through here.
  template <typename Request>
  void ScreenBatchLiveness(Request* reqs, size_t n,
                           uint8_t* reads_zero) const {
    const char* verb =
        std::is_same_v<Request, BlockReadRequest> ? "read" : "write";
    std::shared_lock lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      const PageId page = reqs[i].page;
      const uint8_t state = page < num_pages_ ? live_[page] : kFreePage;
      if (state == kFreePage) {
        reqs[i].status = Status::IoError(std::string(verb) +
                                         " of unallocated page " +
                                         std::to_string(page));
      }
      reads_zero[i] = state == kZeroPage;
    }
  }

  /// Clears the "reads as zeros" mark of every request that had it
  /// (`reads_zero`, from the screen) and whose write landed.  One lock
  /// acquisition, and none when no request had the mark.
  void MarkWritten(const BlockWriteRequest* reqs, size_t n,
                   const uint8_t* reads_zero);

  /// BlockDevice backend hooks (liveness screen + pread/pwrite).
  Status DoRead(PageId page, void* buf) const override;
  Status DoWrite(PageId page, const void* buf) override;

  /// Raw full-block file I/O at byte offset `off`, bouncing through an
  /// aligned buffer under O_DIRECT.  Never touches the I/O counters.  A
  /// write over a page that still reads as zeros passes `reads_zero`
  /// (true): a torn write then keeps zeros past its prefix, as the page
  /// reads, and `*reads_zero` turns false once the write lands in whole
  /// or in part (a dropped write leaves it true).
  Status PReadBlock(uint64_t off, void* buf) const;
  Status PWriteBlock(uint64_t off, const void* buf,
                     bool* reads_zero = nullptr);

  uint64_t PageOffset(PageId page) const {
    return (static_cast<uint64_t>(page) + 1) * block_size();
  }

 private:
  /// Initialises an empty device (fresh superblock) or loads an existing
  /// one from the superblock + free chain.
  Status InitFresh();
  Status LoadExisting();

  /// Enables O_DIRECT iff a probe transfer through it succeeds (alignment
  /// rules are enforced at I/O time, not at open time).  Called by Open()
  /// after initialisation, before the device is published.
  void NegotiateDirectIo();

  /// What Sync() and the close write before any fsync: zeroes the live
  /// pages still marked, stamps the free-list entries from stamped_ up,
  /// then writes the superblock.  Caller holds mu_ exclusively (or is
  /// single-threaded, as in the dtor).
  Status WriteMetadataLocked();

  /// Serialises the current metadata into the superblock page.  Caller
  /// holds mu_ exclusively (or is single-threaded, as in Open/dtor).
  Status WriteSuperblockLocked();

  // Per-page state in live_.
  static constexpr uint8_t kFreePage = 0;
  static constexpr uint8_t kLivePage = 1;
  static constexpr uint8_t kZeroPage = 2;  // live; reads as zeros, file stale

  const std::string path_;
  const int fd_;
  bool direct_io_;  // settled by NegotiateDirectIo() before publication

  mutable std::shared_mutex mu_;      // guards all fields below
  std::vector<uint8_t> live_;         // k*Page state per page ever created
  std::vector<PageId> free_list_;     // LIFO; back() == chain head at Sync
  size_t stamped_ = 0;  // free_list_[0, stamped_) hold valid stamps on disk
  size_t num_pages_ = 0;              // pages ever created (monotonic)
  size_t file_pages_ = 0;             // pages the file's extent covers
  size_t stale_pages_ = 0;  // extent at Open: fresh pages below may be stale
  size_t allocated_ = 0;
  size_t peak_allocated_ = 0;
  std::vector<std::byte> user_meta_;  // <= kUserMetaCapacity bytes
  std::vector<std::byte> scratch_;    // zero/stamp block for Sync's writes
  bool init_ok_ = false;              // Open() completed successfully
  bool meta_dirty_ = false;           // metadata changed since last write-out
};

}  // namespace prtree

#endif  // PRTREE_IO_FILE_BLOCK_DEVICE_H_
