#include "io/epoch.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace prtree {

void EpochGuard::Release() {
  if (mgr_ != nullptr) {
    mgr_->Exit(epoch_);
    mgr_ = nullptr;
  }
}

EpochManager::EpochManager(BlockDevice* device) : device_(device) {
  PRTREE_CHECK(device_ != nullptr);
}

EpochManager::~EpochManager() {
  std::lock_guard<std::mutex> lock(mu_);
  PRTREE_CHECK(active_.empty());  // a snapshot outlived its structure
  active_.clear();
  DrainLocked();
  PRTREE_CHECK(limbo_.empty());
}

EpochGuard EpochManager::Enter() {
  std::lock_guard<std::mutex> lock(mu_);
  // Readers pin the *current* epoch: any retirement that follows gets a
  // strictly larger stamp, so its pages wait for this guard.
  ++active_[epoch_];
  return EpochGuard(this, epoch_);
}

void EpochManager::Exit(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(epoch);
  PRTREE_CHECK(it != active_.end() && it->second > 0);
  if (--it->second == 0) {
    active_.erase(it);
    // The departing reader may have been the last one pinning old epochs.
    DrainLocked();
  }
}

void EpochManager::Retire(std::vector<PageId> pages) {
  if (pages.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;
  limbo_pages_ += pages.size();
  limbo_.push_back(LimboEntry{epoch_, std::move(pages)});
  DrainLocked();
}

void EpochManager::DrainLocked() {
  // A reader entered at epoch e may still traverse pages stamped with any
  // retire epoch > e; an entry is freeable once the oldest active reader
  // is at least as new as its stamp.
  const uint64_t min_active = active_.empty()
                                  ? std::numeric_limits<uint64_t>::max()
                                  : active_.begin()->first;
  while (!limbo_.empty() && limbo_.front().retire_epoch <= min_active) {
    LimboEntry entry = std::move(limbo_.front());
    limbo_.pop_front();
    limbo_pages_ -= entry.pages.size();
    for (PageId page : entry.pages) {
      // Drop cached frames *before* the id can be recycled: a frame kept
      // past Free() could serve pre-retirement bytes for a reallocated id.
      for (BufferPool* pool : pools_) pool->Invalidate(page);
      device_->Free(page);
    }
  }
}

void EpochManager::AttachPool(BufferPool* pool) {
  PRTREE_CHECK(pool != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  if (std::find(pools_.begin(), pools_.end(), pool) == pools_.end()) {
    pools_.push_back(pool);
  }
}

void EpochManager::DetachPool(BufferPool* pool) {
  std::lock_guard<std::mutex> lock(mu_);
  pools_.erase(std::remove(pools_.begin(), pools_.end(), pool), pools_.end());
}

size_t EpochManager::limbo_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return limbo_pages_;
}

size_t EpochManager::active_readers() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [epoch, count] : active_) total += count;
  return total;
}

}  // namespace prtree
