#include "io/journal.h"

#include <cstring>

#include "util/check.h"

namespace prtree {

namespace {

using journal_internal::CommitPayload;
using journal_internal::FrameHeader;
using journal_internal::kAnchorMagic;
using journal_internal::kJournalVersion;
using journal_internal::kPageMagic;
using journal_internal::kRegionMagic;
using journal_internal::PageHeader;
using journal_internal::RegionHeader;

constexpr size_t kFrameAlign = 8;
constexpr size_t kCommitFrameLen = sizeof(FrameHeader) + sizeof(CommitPayload);
static_assert(kCommitFrameLen % kFrameAlign == 0);

const uint32_t* Crc32Table() {
  static const auto table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t JournalCrc32(const void* data, size_t len) {
  const uint32_t* table = Crc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Status ReadJournalAnchor(const FileBlockDevice& device, JournalAnchor* anchor,
                         bool* present) {
  *present = false;
  std::byte meta[FileBlockDevice::kUserMetaCapacity];
  const size_t len = device.GetUserMeta(meta, sizeof(meta));
  if (len < kJournalUserMetaLen) return Status::OK();
  std::memcpy(anchor, meta + kJournalAnchorOffset, sizeof(*anchor));
  if (anchor->magic != kAnchorMagic) return Status::OK();
  if (anchor->version != kJournalVersion) {
    return Status::Corruption("unsupported journal anchor version " +
                              std::to_string(anchor->version));
  }
  if (anchor->crc !=
      JournalCrc32(anchor, offsetof(JournalAnchor, crc))) {
    return Status::Corruption("journal anchor checksum mismatch");
  }
  *present = true;
  return Status::OK();
}

namespace {

/// Shared head-page load + validation for ScanJournal/JournalPending.
Status LoadRegion(const BlockDevice& device, const JournalAnchor& anchor,
                  std::vector<std::byte>* buf, RegionHeader* header,
                  std::vector<PageId>* frame_pages) {
  buf->resize(device.block_size());
  Status st = device.ReadMeta(anchor.head_page, buf->data());
  if (!st.ok()) {
    return Status::Corruption("journal head page " +
                              std::to_string(anchor.head_page) +
                              " unreadable: " + st.message());
  }
  std::memcpy(header, buf->data(), sizeof(*header));
  if (header->magic != kRegionMagic ||
      header->version != kJournalVersion ||
      header->epoch != anchor.epoch ||
      header->start_seq != anchor.start_seq) {
    return Status::Corruption("journal head page does not match anchor");
  }
  const size_t max_pages =
      (device.block_size() - sizeof(RegionHeader)) / sizeof(PageId);
  if (header->page_count == 0 || header->page_count > max_pages) {
    return Status::Corruption("journal region page count out of range");
  }
  RegionHeader unsummed = *header;
  unsummed.crc = 0;
  std::memcpy(buf->data(), &unsummed, sizeof(unsummed));
  const uint32_t crc = JournalCrc32(
      buf->data(), sizeof(RegionHeader) + header->page_count * sizeof(PageId));
  if (crc != header->crc) {
    return Status::Corruption("journal head page checksum mismatch");
  }
  frame_pages->resize(header->page_count);
  std::memcpy(frame_pages->data(), buf->data() + sizeof(RegionHeader),
              header->page_count * sizeof(PageId));
  return Status::OK();
}

bool PageHeaderValid(const std::byte* buf, uint32_t epoch, uint32_t index) {
  PageHeader ph;
  std::memcpy(&ph, buf, sizeof(ph));
  return ph.magic == kPageMagic && ph.epoch == epoch && ph.index == index;
}

}  // namespace

Status ScanJournal(const BlockDevice& device, const JournalAnchor& anchor,
                   JournalScan* out) {
  *out = JournalScan{};
  out->epoch = anchor.epoch;
  out->start_seq = anchor.start_seq;
  out->next_seq = anchor.start_seq;

  std::vector<std::byte> buf;
  RegionHeader header;
  std::vector<PageId> frame_pages;
  PRTREE_RETURN_NOT_OK(
      LoadRegion(device, anchor, &buf, &header, &frame_pages));
  out->region.push_back(anchor.head_page);
  out->region.insert(out->region.end(), frame_pages.begin(),
                     frame_pages.end());

  const size_t block = device.block_size();
  bool ended = false;
  for (uint32_t idx = 0; idx < header.page_count && !ended; ++idx) {
    if (!device.ReadMeta(frame_pages[idx], buf.data()).ok()) break;
    if (!PageHeaderValid(buf.data(), header.epoch, idx)) break;
    size_t off = sizeof(PageHeader);
    while (off + sizeof(FrameHeader) <= block) {
      FrameHeader fh;
      std::memcpy(&fh, buf.data() + off, sizeof(fh));
      if (fh.len == 0) break;  // page exhausted; try the next one
      if (fh.len < sizeof(FrameHeader) || fh.len % kFrameAlign != 0 ||
          off + fh.len > block) {
        ended = true;  // torn or garbage length
        break;
      }
      if (fh.crc != JournalCrc32(buf.data() + off + sizeof(uint32_t),
                                 fh.len - sizeof(uint32_t))) {
        ended = true;  // torn frame
        break;
      }
      if (fh.seq != out->next_seq) {
        ended = true;  // stale bytes from an earlier epoch's tenant
        break;
      }
      switch (static_cast<JournalFrameType>(fh.type)) {
        case JournalFrameType::kInsert:
        case JournalFrameType::kDelete:
        case JournalFrameType::kIntent:
          break;  // an older writer's record or intent frame: skipped
        case JournalFrameType::kCommit: {
          if (fh.len < kCommitFrameLen) {
            ended = true;
            break;
          }
          CommitPayload cp;
          std::memcpy(&cp, buf.data() + off + sizeof(FrameHeader),
                      sizeof(cp));
          out->committed_ops += 1;
          out->commit_root = cp.root;
          out->commit_height = cp.height;
          out->commit_size = cp.size;
          break;
        }
        default:
          ended = true;
          break;
      }
      if (ended) break;
      out->next_seq = fh.seq + 1;
      off += fh.len;
    }
  }
  return Status::OK();
}

Status JournalPending(const BlockDevice& device, const JournalAnchor& anchor,
                      bool* pending) {
  *pending = false;
  std::vector<std::byte> buf;
  RegionHeader header;
  std::vector<PageId> frame_pages;
  PRTREE_RETURN_NOT_OK(
      LoadRegion(device, anchor, &buf, &header, &frame_pages));
  // The writer flushes frame pages strictly in region order, so page 0
  // carrying a valid header is exactly "frames were written this epoch".
  Status st = device.ReadMeta(frame_pages[0], buf.data());
  if (!st.ok()) return Status::OK();
  *pending = PageHeaderValid(buf.data(), header.epoch, 0);
  return Status::OK();
}

JournalWriter::JournalWriter(FileBlockDevice* device,
                             const JournalOptions& opts)
    : device_(device), opts_(opts) {
  PRTREE_CHECK(device_ != nullptr);
  PRTREE_CHECK(opts_.region_pages >= 2);
  const size_t max_pages =
      (device_->block_size() - sizeof(RegionHeader)) / sizeof(PageId);
  PRTREE_CHECK(opts_.region_pages <= max_pages);
}

PageId JournalWriter::tail_page() const {
  PRTREE_CHECK(attached() && tail_idx_ < region_.size());
  return region_[tail_idx_];
}

Status JournalWriter::CommitOp(PageId root, int32_t height, uint64_t size,
                               std::vector<PageId>* retired) {
  PRTREE_CHECK(attached() && tail_idx_ < region_.size());
  if (tail_used_ + kCommitFrameLen > device_->block_size()) {
    // The full tail page holds only commits that are already durable, so
    // the next frame page starts without writing it again.
    if (++tail_idx_ >= region_.size()) {
      return Status::IoError(
          "journal region exhausted — checkpoint was overdue");
    }
    ResetTailBuf();
  }
  FrameHeader fh;
  fh.crc = 0;
  fh.len = static_cast<uint32_t>(kCommitFrameLen);
  fh.seq = next_seq_;
  fh.type = static_cast<uint32_t>(JournalFrameType::kCommit);
  fh.aux = 0;
  const CommitPayload cp{root, height, size};
  std::byte* at = tail_buf_.data() + tail_used_;
  std::memcpy(at, &fh, sizeof(fh));
  std::memcpy(at + sizeof(fh), &cp, sizeof(cp));
  fh.crc = JournalCrc32(at + sizeof(uint32_t),
                        kCommitFrameLen - sizeof(uint32_t));
  std::memcpy(at, &fh.crc, sizeof(fh.crc));

  // The write of the page carrying the commit frame is the commit point.
  PRTREE_RETURN_NOT_OK(
      device_->WriteMeta(region_[tail_idx_], tail_buf_.data()));
  tail_used_ += kCommitFrameLen;
  next_seq_ += 1;
  committed_ops_ += 1;
  if (retired != nullptr && !retired->empty()) {
    deferred_.insert(deferred_.end(), retired->begin(), retired->end());
    retired->clear();
  }
  if (opts_.sync_on_commit) return device_->Sync();
  return Status::OK();
}

bool JournalWriter::NeedsCheckpoint() const {
  if (region_.empty() || tail_idx_ >= region_.size()) return true;
  // A commit moves to the next page at most once, so keep two untouched
  // pages in hand.
  return region_.size() - 1 - tail_idx_ < 2;
}

Status JournalWriter::Checkpoint(const MetaBuilder& build_meta) {
  const size_t block = device_->block_size();
  const uint32_t new_epoch = epoch_ + 1;

  // 1. The next epoch's region: head + frame pages, all allocated (and the
  //    head written) before the superblock Sync below, so a crash-reopened
  //    device — whose superblock is exactly that Sync — knows every page.
  std::vector<PageId> fresh(1 + static_cast<size_t>(opts_.region_pages));
  for (PageId& p : fresh) p = device_->Allocate();

  std::vector<std::byte> head(block, std::byte{0});
  RegionHeader rh;
  rh.magic = kRegionMagic;
  rh.version = kJournalVersion;
  rh.epoch = new_epoch;
  rh.page_count = opts_.region_pages;
  rh.start_seq = next_seq_;
  rh.reserved = 0;
  rh.crc = 0;
  std::memcpy(head.data(), &rh, sizeof(rh));
  std::memcpy(head.data() + sizeof(rh), fresh.data() + 1,
              opts_.region_pages * sizeof(PageId));
  rh.crc = JournalCrc32(head.data(),
                        sizeof(rh) + opts_.region_pages * sizeof(PageId));
  std::memcpy(head.data(), &rh, sizeof(rh));
  PRTREE_RETURN_NOT_OK(device_->WriteMeta(fresh[0], head.data()));

  // 2. The durable swap: tree meta + new anchor in one user-meta write,
  //    then Sync.  The counters recorded are what the device will report
  //    once step 3's frees complete — the state a clean reopen sees.
  const uint64_t allocated_after =
      device_->num_allocated() - region_.size() - deferred_.size();
  std::byte meta[kJournalUserMetaLen];
  std::memset(meta, 0, sizeof(meta));
  const size_t meta_len =
      build_meta(meta, kJournalAnchorOffset, new_epoch, allocated_after,
                 device_->peak_allocated());
  PRTREE_CHECK(meta_len <= kJournalAnchorOffset);
  JournalAnchor anchor;
  anchor.magic = kAnchorMagic;
  anchor.version = kJournalVersion;
  anchor.epoch = new_epoch;
  anchor.head_page = fresh[0];
  anchor.start_seq = next_seq_;
  anchor.reserved = 0;
  anchor.crc = JournalCrc32(&anchor, offsetof(JournalAnchor, crc));
  std::memcpy(meta + kJournalAnchorOffset, &anchor, sizeof(anchor));
  PRTREE_RETURN_NOT_OK(device_->SetUserMeta(meta, sizeof(meta)));
  PRTREE_RETURN_NOT_OK(device_->Sync());

  // 3. Reclaim: the old region and every page committed ops retired.  A
  //    crash before these frees finish leaks them until the next
  //    recovery's reachability sweep — the documented bounded-leak window.
  for (PageId p : region_) device_->Free(p);
  for (PageId p : deferred_) device_->Free(p);
  deferred_.clear();

  epoch_ = new_epoch;
  region_ = std::move(fresh);
  tail_idx_ = 1;
  ResetTailBuf();
  return Status::OK();
}

void JournalWriter::AdoptRecovered(const JournalScan& scan) {
  epoch_ = scan.epoch;
  next_seq_ = scan.next_seq;
  committed_ops_ = scan.committed_ops;
  region_ = scan.region;
  deferred_.clear();
  // Not appendable until the adopting caller checkpoints away from the
  // scanned region (its tail may hold a torn frame).
  tail_idx_ = region_.size();
  tail_used_ = 0;
}

void JournalWriter::ResetTailBuf() {
  const size_t block = device_->block_size();
  tail_buf_.assign(block, std::byte{0});
  PageHeader ph;
  ph.magic = kPageMagic;
  ph.epoch = epoch_;
  ph.index = static_cast<uint32_t>(tail_idx_ - 1);
  ph.reserved = 0;
  std::memcpy(tail_buf_.data(), &ph, sizeof(ph));
  tail_used_ = sizeof(PageHeader);
}

}  // namespace prtree
