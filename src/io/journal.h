// The crash-consistent update journal: a log of commit frames layered over
// the copy-on-write updater.
//
// Why the updaters need one.  The dynamic updaters mutate node pages in
// place (or shadow them under copy-on-write) and only the occasional
// PersistTree/Sync makes the device file reopenable; a crash between Syncs
// loses the tree root and can leave half an update's pages on disk.  The
// journal closes that window: every Insert/Delete appends one commit frame
// carrying the new root, and the block write that lands the commit frame
// is the atomic commit point.  Recovery reads the journal at open,
// restores the root of the newest durable commit and discards (logically
// truncates) a torn tail whose commit never landed.
//
// The COW contract.  The journal does NOT replay page images — it relies
// on the updater running in copy-on-write mode (rtree/update_io.h with a
// journal attached), so no page any committed root can reach is ever
// overwritten; pages a committed version stopped referencing are retired
// into the journal's deferred-free list and only returned to the device
// free list at the next checkpoint.  A committed root therefore stays
// byte-intact on the device until a newer commit supersedes it, and
// recovery is just "point the tree at the last committed root" plus a
// reachability sweep that reclaims every allocated page the recovered tree
// (and the journal region itself) does not reach.
//
// On-device layout.  The journal lives in a preallocated REGION: one head
// page listing the region's frame pages, all allocated — and the head page
// written — BEFORE the checkpoint's superblock Sync, so a crash-reopened
// device (whose superblock predates everything after that Sync) can always
// read every journal page.  A 32-byte anchor in the superblock user-meta
// region (offset kJournalAnchorOffset, after the tree meta record) names
// the head page, the journal epoch and the starting sequence number.
// Frame pages are append-only: a page is rewritten as commits accrete, but
// committed bytes never change, so a torn rewrite can only damage the
// newest (uncommitted) frame — which CRC32 checks and the contiguous
// sequence numbers detect, ending the scan exactly at the torn tail.
//
// Accounting.  Journal I/O is backend-internal metadata, never part of the
// paper's §3.3 demand metric: every journal write goes through WriteMeta
// and every recovery read through ReadMeta, charged to
// stats().meta_writes / meta_reads.  Demand counters — and therefore every
// reported experiment number — are byte-identical with journaling on or
// off (docs/DURABILITY.md, asserted by tests/crash_recovery_test.cc).

#ifndef PRTREE_IO_JOURNAL_H_
#define PRTREE_IO_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "io/file_block_device.h"
#include "util/status.h"

namespace prtree {

/// CRC-32 (IEEE 802.3 polynomial) over `len` bytes — the checksum guarding
/// every journal frame, the region header and the anchor.
uint32_t JournalCrc32(const void* data, size_t len);

/// \brief What a journal frame logs.  The writer appends only kCommit, the
/// op's resulting tree root.  Older writers also logged each op's record
/// (kInsert/kDelete) and the pages it shadowed out (kIntent) before its
/// commit; the scan checks those frames like any other and skips them, so
/// a dirty journal they left still recovers every commit.
enum class JournalFrameType : uint32_t {
  kInsert = 1,
  kDelete = 2,
  kIntent = 3,
  kCommit = 4,
};

/// \brief Journal shape knobs.
struct JournalOptions {
  /// Frame pages per region (the head page is extra).  A commit takes 40
  /// bytes, so a 4 KB frame page holds 102 of them, and the default region
  /// takes about 17 * 102 = 1,734 ops between checkpoints
  /// (JournalWriter::NeedsCheckpoint() keeps two pages in hand).  Must fit
  /// the head page: region_pages <= (block_size - 32) / 4.
  uint32_t region_pages = 19;

  /// Call device->Sync() after every commit write.  Off by default: the
  /// crash model this journal is tested under (process kill / dropped
  /// writes) preserves acknowledged block writes, and a per-op fsync would
  /// dominate update cost.  Turn on when the threat model is power loss
  /// with a volatile disk cache.
  bool sync_on_commit = false;
};

namespace journal_internal {

inline constexpr uint32_t kAnchorMagic = 0x50524A41u;  // "PRJA"
inline constexpr uint32_t kRegionMagic = 0x50524A52u;  // "PRJR"
inline constexpr uint32_t kPageMagic = 0x50524A4Cu;    // "PRJL"
inline constexpr uint32_t kJournalVersion = 1;

/// Region head page prefix, followed by page_count PageIds (the frame
/// pages, in order).  crc covers the header (crc field zeroed) plus the
/// page-id list.
struct RegionHeader {
  uint32_t magic;
  uint32_t version;
  uint32_t epoch;
  uint32_t page_count;
  uint64_t start_seq;
  uint32_t reserved;
  uint32_t crc;
};
static_assert(sizeof(RegionHeader) == 32);

/// Frame-page prefix: identifies the page as frame `index` of the region
/// written in `epoch`.  A frame page this epoch has not written yet fails
/// the check, which is how the scan knows the journal ends before it: it
/// reads as zeros (the checkpoint's Sync zeroes a recycled region page
/// before the superblock names the region), and bytes an older epoch's
/// tenant left on a page carry the wrong epoch.
struct PageHeader {
  uint32_t magic;
  uint32_t epoch;
  uint32_t index;
  uint32_t reserved;
};
static_assert(sizeof(PageHeader) == 16);

/// One frame: this header then `len - sizeof(FrameHeader)` payload bytes
/// (8-byte padded).  len == 0 marks the end of a page's frames; frames
/// never span pages.  crc covers bytes [4, len) of the frame — everything
/// but the crc field itself, padding included.
struct FrameHeader {
  uint32_t crc;
  uint32_t len;
  uint64_t seq;
  uint32_t type;  // JournalFrameType
  uint32_t aux;   // 0 (older record and intent frames used it)
};
static_assert(sizeof(FrameHeader) == 24);

/// kCommit payload: the tree state the op produced.
struct CommitPayload {
  uint32_t root;
  int32_t height;
  uint64_t size;
};
static_assert(sizeof(CommitPayload) == 16);

}  // namespace journal_internal

/// Where the anchor sits in the superblock user-meta region: the tree meta
/// record owns bytes [0, 64), the anchor [64, 96).  Both land inside the
/// superblock's first sector, whose write this format assumes atomic.
inline constexpr size_t kJournalAnchorOffset = 64;
inline constexpr size_t kJournalUserMetaLen =
    kJournalAnchorOffset + 32;  // tree meta + anchor
static_assert(kJournalUserMetaLen <= FileBlockDevice::kUserMetaCapacity);

/// \brief The 32-byte superblock record pointing at the live journal
/// region.  crc covers the first 28 bytes (every field before it).
struct JournalAnchor {
  uint32_t magic;
  uint32_t version;
  uint32_t epoch;
  uint32_t head_page;
  uint64_t start_seq;
  uint32_t reserved;
  uint32_t crc;
};
static_assert(sizeof(JournalAnchor) == 32);

/// \brief Everything a journal scan learns: the region and the newest
/// durable commit to recover to.
struct JournalScan {
  uint32_t epoch = 0;
  uint64_t start_seq = 0;
  uint64_t next_seq = 0;       // one past the last valid frame
  std::vector<PageId> region;  // head page first, then the frame pages

  size_t committed_ops = 0;  // commit frames seen this epoch
  uint32_t commit_root = 0xFFFFFFFFu;  // kInvalidPageId
  int32_t commit_height = 0;
  uint64_t commit_size = 0;
};

/// Reads the journal anchor out of `device`'s user-meta region.
/// *present == false (with OK status) when the device has no anchor — no
/// journal was ever attached, or a plain PersistTree overwrote it.  A
/// present anchor with a bad version or checksum is Corruption.
Status ReadJournalAnchor(const FileBlockDevice& device, JournalAnchor* anchor,
                         bool* present);

/// Scans the region `anchor` points at.  The scan stops at the first
/// invalid frame (bad magic, epoch, checksum, length or non-contiguous
/// sequence number) — everything after a torn write fails one of those
/// checks — and reports the newest durable commit in *out.  Never writes.
Status ScanJournal(const BlockDevice& device, const JournalAnchor& anchor,
                   JournalScan* out);

/// Cheap emptiness probe: *pending == true iff any frame page of the
/// region has been written since its checkpoint (i.e. ops happened that a
/// plain AttachTree would not know how to recover).
Status JournalPending(const BlockDevice& device, const JournalAnchor& anchor,
                      bool* pending);

/// \brief Writer half: appends one commit frame per op at CommitOp() (the
/// durable point) and rotates regions at Checkpoint().  Not thread-safe —
/// callers serialise ops, exactly as the single-writer updaters already do.
class JournalWriter {
 public:
  /// Composes the tree-meta bytes stored before the anchor at checkpoint
  /// time (at most kJournalAnchorOffset of them; returns the length).
  /// `epoch` is the new journal epoch and `allocated`/`peak_allocated`
  /// the device counters as they will read once the checkpoint's deferred
  /// frees complete — record these, not live counters, or AttachTree's
  /// staleness check will reject a cleanly closed file.
  using MetaBuilder = std::function<size_t(
      void* buf, size_t cap, uint32_t epoch, uint64_t allocated,
      uint64_t peak_allocated)>;

  explicit JournalWriter(FileBlockDevice* device,
                         const JournalOptions& opts = JournalOptions{});

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// True once a region exists (after Checkpoint or AdoptRecovered).
  bool attached() const { return !region_.empty(); }

  uint32_t epoch() const { return epoch_; }
  uint64_t next_seq() const { return next_seq_; }
  uint64_t committed_ops() const { return committed_ops_; }
  size_t journal_pages() const { return region_.size(); }

  /// The frame page the next commit appends to, and the committed bytes
  /// already on it — tests tear exactly at this boundary.
  PageId tail_page() const;
  size_t tail_bytes() const { return tail_used_; }

  /// Appends a commit frame carrying the op's resulting tree state to the
  /// tail frame page and writes that page with one WriteMeta(): the commit
  /// point.  A tail page with no room left already holds only durable
  /// frames, so the commit moves to the next frame page without a write.
  /// `retired`'s pages move into the deferred-free list (returned to the
  /// device at the next Checkpoint); the vector is left empty.
  Status CommitOp(PageId root, int32_t height, uint64_t size,
                  std::vector<PageId>* retired);

  /// True when the region is too full to guarantee the next op commits
  /// without running out of frame pages — checkpoint before the next op.
  bool NeedsCheckpoint() const;

  /// Region rotation: allocates and writes a fresh region, durably swaps
  /// the superblock to it (tree meta from `build_meta` + new anchor, one
  /// SetUserMeta + Sync), then frees the old region and every deferred
  /// page.  A crash between the Sync and the frees is the journal's one
  /// bounded-leak window; the next recovery's sweep reclaims it
  /// (docs/DURABILITY.md).  Also the bootstrap: the first Checkpoint on a
  /// fresh writer creates epoch `epoch()+1`'s region from nothing.
  Status Checkpoint(const MetaBuilder& build_meta);

  /// Adopts the state a recovery scan found, so the next Checkpoint
  /// rotates away from (and frees) the scanned region.  The writer is not
  /// appendable until that Checkpoint — NeedsCheckpoint() reports true.
  void AdoptRecovered(const JournalScan& scan);

 private:
  void ResetTailBuf();

  FileBlockDevice* device_;
  JournalOptions opts_;

  uint32_t epoch_ = 0;
  uint64_t next_seq_ = 1;  // monotone across epochs, never reset
  uint64_t committed_ops_ = 0;

  std::vector<PageId> region_;  // [0] head, [1..] frame pages; empty =
                                // detached (pre-bootstrap)
  size_t tail_idx_ = 0;         // index into region_ of the tail frame page
  std::vector<std::byte> tail_buf_;  // tail page image (header + frames)
  size_t tail_used_ = 0;             // bytes of tail_buf_ in use

  std::vector<PageId> deferred_;  // committed-away pages, freed at checkpoint
};

}  // namespace prtree

#endif  // PRTREE_IO_JOURNAL_H_
