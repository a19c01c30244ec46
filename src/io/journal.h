// The crash-consistent update journal: a write-ahead log of logical update
// records layered over the batched write path.
//
// Why the updaters need one.  The dynamic updaters mutate node pages in
// place (or shadow them under copy-on-write) and only the occasional
// PersistTree/Sync makes the device file reopenable; a crash between Syncs
// loses the tree root and can leave half an update's pages on disk.  The
// journal closes that window: every Insert/Delete logs a logical record
// frame (plus an advisory intent frame naming the pages it shadowed out)
// followed by a commit frame carrying the new root, and the block write
// that lands the commit frame is the atomic commit point.  Recovery reads
// the journal at open, restores the root of the newest durable commit and
// discards (logically truncates) any torn tail of frames whose commit
// never landed.
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
// Frame pages are append-only: a page is rewritten as frames accrete, but
// committed bytes never change, so a torn rewrite can only damage the
// newest (uncommitted) frames — which CRC32 checks and the contiguous
// sequence numbers detect, ending the scan exactly at the torn tail.
//
// Accounting.  Journal I/O is backend-internal metadata, never part of the
// paper's §3.3 demand metric: every journal write goes through the
// WriteKind::kMeta channel (WriteMeta / a kMeta WriteStager draining into
// WriteBatch) and every recovery read through ReadMeta, charged to
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
#include "io/write_stager.h"
#include "util/status.h"

namespace prtree {

/// CRC-32 (IEEE 802.3 polynomial) over `len` bytes — the checksum guarding
/// every journal frame, the region header and the anchor.
uint32_t JournalCrc32(const void* data, size_t len);

/// \brief What a journal frame logs.  kInsert/kDelete carry one logical
/// record (dimension in the frame's aux field), kIntent the advisory list
/// of pages the op shadowed out, kCommit the op's resulting tree root.
enum class JournalFrameType : uint32_t {
  kInsert = 1,
  kDelete = 2,
  kIntent = 3,
  kCommit = 4,
};

/// \brief Journal shape knobs.
struct JournalOptions {
  /// Frame pages per region (the head page is extra).  A region holds
  /// roughly region_pages * block_size / ~120 committed ops between
  /// checkpoints; JournalWriter::NeedsCheckpoint() reports when it runs
  /// low.  Must fit the head page: region_pages <= (block_size - 32) / 4.
  uint32_t region_pages = 64;

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
  uint32_t aux;   // record dimension / intent page count / 0
};
static_assert(sizeof(FrameHeader) == 24);

/// kCommit payload: the tree state the op produced.
struct CommitPayload {
  uint32_t root;
  int32_t height;
  uint64_t size;
};
static_assert(sizeof(CommitPayload) == 16);

/// kInsert/kDelete payload prefix: dim lo doubles, dim hi doubles, then
/// this tail.  dim travels in the frame's aux field.
struct RecordTail {
  uint32_t id;
  uint32_t pad;
};

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

/// \brief One committed logical record recovered from a scan.  `payload`
/// is the raw (padded) frame payload; DecodeJournalRecord() extracts the
/// rectangle and id.
struct JournalOpRecord {
  JournalFrameType type;  // kInsert or kDelete
  uint32_t aux;           // record dimension
  uint64_t seq;
  std::vector<std::byte> payload;
};

/// Extracts a `dim`-dimensional record from a kInsert/kDelete frame.
/// False when the payload is malformed (wrong dimension or short).
bool DecodeJournalRecord(const JournalOpRecord& op, uint32_t dim, double* lo,
                         double* hi, uint32_t* id);

/// \brief Everything a journal scan learns: the durable commit to recover
/// to, the committed record stream, and how much torn tail was discarded.
struct JournalScan {
  uint32_t epoch = 0;
  uint64_t start_seq = 0;
  uint64_t next_seq = 0;       // one past the last valid frame
  std::vector<PageId> region;  // head page first, then the frame pages

  std::vector<JournalOpRecord> committed;  // committed records, in order
  std::vector<PageId> intents;             // pages named by committed intents
  size_t committed_ops = 0;                // commit frames seen
  size_t truncated_frames = 0;  // valid frames after the last commit

  bool has_commit = false;  // any commit frame at all this epoch?
  uint32_t commit_root = 0xFFFFFFFFu;  // kInvalidPageId
  int32_t commit_height = 0;
  uint64_t commit_size = 0;
  uint64_t commit_seq = 0;
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
/// checks — and reports the newest durable commit plus the committed
/// record stream in *out.  Never writes.
Status ScanJournal(const BlockDevice& device, const JournalAnchor& anchor,
                   JournalScan* out);

/// Cheap emptiness probe: *pending == true iff any frame page of the
/// region has been written since its checkpoint (i.e. ops happened that a
/// plain AttachTree would not know how to recover).
Status JournalPending(const BlockDevice& device, const JournalAnchor& anchor,
                      bool* pending);

/// \brief Writer half: stages an op's frames, appends them with a commit
/// frame at CommitOp() (the durable point), rotates regions at
/// Checkpoint().  Not thread-safe — callers serialise ops, exactly as the
/// single-writer updaters already do.
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

  /// Stages one logical record frame for the op in flight.  Buffered in
  /// memory only; nothing reaches the device before CommitOp().
  void StageRecord(JournalFrameType type, uint32_t dim, const double* lo,
                   const double* hi, uint32_t id);

  /// Drops the staged frames — the op mutated nothing (delete miss) or
  /// failed before its first page write.
  void AbortOp() { staged_.clear(); }

  /// Appends the staged frames, an intent frame naming `retired` (when
  /// non-empty), and a commit frame carrying the op's resulting tree
  /// state, then flushes every touched frame page through the kMeta write
  /// stager.  The flush of the page holding the commit frame is the commit
  /// point.  `retired`'s pages move into the deferred-free list (returned
  /// to the device at the next Checkpoint); the vector is left empty.
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
  /// Appends one frame to the tail buffer, spilling to the next frame
  /// page when it does not fit; touched pages are staged through stager_.
  Status AppendFrame(JournalFrameType type, uint32_t aux,
                     const void* payload, size_t payload_len);

  void ResetTailBuf();

  FileBlockDevice* device_;
  JournalOptions opts_;
  WriteStager stager_;  // kMeta: journal traffic never moves demand counters

  uint32_t epoch_ = 0;
  uint64_t next_seq_ = 1;  // monotone across epochs, never reset
  uint64_t committed_ops_ = 0;

  std::vector<PageId> region_;  // [0] head, [1..] frame pages; empty =
                                // detached (pre-bootstrap)
  size_t tail_idx_ = 0;         // index into region_ of the tail frame page
  std::vector<std::byte> tail_buf_;  // tail page image (header + frames)
  size_t tail_used_ = 0;             // bytes of tail_buf_ in use
  bool tail_dirty_ = false;          // tail has frames not yet staged

  struct PendingFrame {
    JournalFrameType type;
    uint32_t aux;
    std::vector<std::byte> payload;
  };
  std::vector<PendingFrame> staged_;  // the op in flight's record frames

  std::vector<PageId> deferred_;  // committed-away pages, freed at checkpoint
};

}  // namespace prtree

#endif  // PRTREE_IO_JOURNAL_H_
