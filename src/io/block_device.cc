#include "io/block_device.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/check.h"

namespace prtree {

BlockDevice::BlockDevice(size_t block_size) : block_size_(block_size) {
  PRTREE_CHECK(block_size_ >= 64);
}

BlockDevice::~BlockDevice() = default;

Status BlockDevice::ReadBatch(BlockReadRequest* reqs, size_t n,
                              ReadKind kind) const {
  // Reference implementation: one Read() body per request, in order.
  // Backends with a real asynchronous engine (io_uring) override this; the
  // contract — per-request status, per-success accounting, every request
  // attempted — is fixed here.
  const ReadCounter count = kind == ReadKind::kDemand
                                ? &BlockDevice::CountRead
                                : &BlockDevice::CountPrefetchRead;
  Status first;
  for (size_t i = 0; i < n; ++i) {
    reqs[i].status = ReadImpl(reqs[i].page, reqs[i].buf, count);
    if (!reqs[i].status.ok() && first.ok()) first = reqs[i].status;
  }
  return first;
}

Status BlockDevice::DoWriteBatch(BlockWriteRequest* reqs, size_t n,
                                 WriteKind kind) {
  // Reference implementation: one Write() body per request, in order —
  // the mirror of the ReadBatch loop above, with the same contract.  The
  // ordered loop is also the deterministic carrier for injected crash
  // points and torn writes (engines with concurrent in-flight writes fall
  // back here while an injection is armed).
  Status first;
  for (size_t i = 0; i < n; ++i) {
    reqs[i].status = WriteImpl(reqs[i].page, reqs[i].buf, kind);
    if (!reqs[i].status.ok() && first.ok()) first = reqs[i].status;
  }
  return first;
}

BlockDevice::WriteOutcome BlockDevice::ConsumeWriteBudget(
    PageId page, size_t* tear_prefix) {
  write_attempts_.fetch_add(1, std::memory_order_relaxed);
  size_t prefix = kNoTear;
  if (torn_count_.load(std::memory_order_acquire) != 0) {
    std::lock_guard<std::mutex> lock(torn_mu_);
    auto it = torn_writes_.find(page);
    if (it != torn_writes_.end()) {
      prefix = it->second;
      torn_writes_.erase(it);
      torn_count_.store(torn_writes_.size(), std::memory_order_release);
    }
  }
  if (crash_armed_.load(std::memory_order_acquire)) {
    const int64_t prev =
        crash_budget_.fetch_sub(1, std::memory_order_acq_rel);
    if (prev <= 0) {
      dropped_writes_.fetch_add(1, std::memory_order_relaxed);
      return WriteOutcome::kDrop;
    }
    if (prev == 1) prefix = std::min(prefix, crash_tear_prefix_);
  }
  if (prefix == kNoTear) return WriteOutcome::kLand;
  *tear_prefix = prefix;
  return WriteOutcome::kTear;
}

MemoryBlockDevice::MemoryBlockDevice(size_t block_size)
    : BlockDevice(block_size) {}

MemoryBlockDevice::~MemoryBlockDevice() {
  for (auto& brick : bricks_) {
    delete[] brick.load(std::memory_order_relaxed);
  }
}

int MemoryBlockDevice::BrickOf(PageId page, size_t* offset) {
  if (page < (PageId{1} << kBrick0Bits)) {
    *offset = page;
    return 0;
  }
  int msb = std::bit_width(page) - 1;
  *offset = page - (PageId{1} << msb);
  return msb - kBrick0Bits + 1;
}

MemoryBlockDevice::PageSlot& MemoryBlockDevice::Slot(PageId page) const {
  size_t offset = 0;
  int brick = BrickOf(page, &offset);
  PageSlot* base = bricks_[brick].load(std::memory_order_acquire);
  PRTREE_DCHECK(base != nullptr);
  return base[offset];
}

MemoryBlockDevice::PageSlot* MemoryBlockDevice::LiveSlot(PageId page) const {
  if (page >= num_pages_.load(std::memory_order_acquire)) return nullptr;
  PageSlot& slot = Slot(page);
  if (!slot.live.load(std::memory_order_acquire)) return nullptr;
  return &slot;
}

PageId MemoryBlockDevice::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  PageId page;
  if (!free_list_.empty()) {
    page = free_list_.back();
    free_list_.pop_back();
    PageSlot& slot = Slot(page);
    std::memset(slot.data.get(), 0, block_size());
    slot.live.store(true, std::memory_order_release);
  } else {
    size_t next = num_pages_.load(std::memory_order_relaxed);
    PRTREE_CHECK(next < kInvalidPageId);
    page = static_cast<PageId>(next);
    size_t offset = 0;
    int brick = BrickOf(page, &offset);
    if (offset == 0 &&
        bricks_[brick].load(std::memory_order_relaxed) == nullptr) {
      size_t brick_pages = size_t{1}
                           << (brick == 0 ? kBrick0Bits
                                          : kBrick0Bits + brick - 1);
      bricks_[brick].store(new PageSlot[brick_pages],
                           std::memory_order_release);
    }
    PageSlot& slot = Slot(page);
    slot.data = std::make_unique<std::byte[]>(block_size());  // zeroed
    slot.live.store(true, std::memory_order_release);
    num_pages_.store(next + 1, std::memory_order_release);
  }
  ++allocated_;
  peak_allocated_ = std::max(peak_allocated_, allocated_);
  return page;
}

void MemoryBlockDevice::Free(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  PageSlot* slot = LiveSlot(page);
  PRTREE_CHECK(slot != nullptr);
  slot->live.store(false, std::memory_order_release);
  free_list_.push_back(page);
  PRTREE_CHECK(allocated_ > 0);
  --allocated_;
}

size_t MemoryBlockDevice::num_allocated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return allocated_;
}

size_t MemoryBlockDevice::peak_allocated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_allocated_;
}

Status MemoryBlockDevice::DoRead(PageId page, void* buf) const {
  const PageSlot* slot = LiveSlot(page);
  if (slot == nullptr) {
    return Status::IoError("read of unallocated page " + std::to_string(page));
  }
  std::memcpy(buf, slot->data.get(), block_size());
  return Status::OK();
}

Status MemoryBlockDevice::DoWrite(PageId page, const void* buf) {
  PageSlot* slot = LiveSlot(page);
  if (slot == nullptr) {
    return Status::IoError("write of unallocated page " +
                           std::to_string(page));
  }
  size_t prefix = block_size();  // the whole block unless torn
  if (ConsumeWriteBudget(page, &prefix) == WriteOutcome::kDrop) {
    return Status::OK();  // power cut: acknowledged, never landed
  }
  std::memcpy(slot->data.get(), buf, std::min(prefix, block_size()));
  return Status::OK();
}

size_t MemoryBlockDevice::num_pages() const {
  return num_pages_.load(std::memory_order_acquire);
}

bool MemoryBlockDevice::IsAllocated(PageId page) const {
  return LiveSlot(page) != nullptr;
}

}  // namespace prtree
