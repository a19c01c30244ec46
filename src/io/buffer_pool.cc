#include "io/buffer_pool.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "util/check.h"

namespace prtree {

using internal::PoolFrame;
using internal::PoolShard;

namespace {

/// Makes room for one more frame in `shard` (its lock held): true if the
/// shard is below capacity or its least-recently-used unpinned frame was
/// evicted, false if every frame is pinned or the shard has no capacity.
/// Pinned frames are never evicted.  Every insertion, demand or prefetch,
/// goes through here: this is the pool's whole eviction policy.
bool MakeRoom(PoolShard* shard) {
  if (shard->lru.size() < shard->capacity) return true;
  for (auto rit = shard->lru.rbegin(); rit != shard->lru.rend(); ++rit) {
    if (rit->pins == 0) {
      shard->map.erase(rit->page);
      shard->lru.erase(std::next(rit).base());
      return true;
    }
  }
  return false;
}

}  // namespace

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(shard_, frame_);
    pool_ = nullptr;
    shard_ = nullptr;
    frame_ = nullptr;
  }
  owned_.reset();
  owned_size_ = 0;
  data_ = nullptr;
  page_ = kInvalidPageId;
}

BufferPool::BufferPool(BlockDevice* device, size_t capacity,
                       size_t num_shards)
    : device_(device), capacity_(capacity) {
  PRTREE_CHECK(device_ != nullptr);
  if (num_shards == 0) num_shards = kDefaultShards;
  num_shards_ = std::clamp<size_t>(num_shards, 1, std::max<size_t>(capacity, 1));
  shards_ = std::make_unique<PoolShard[]>(num_shards_);
  // Split the capacity as evenly as possible; the first capacity %
  // num_shards shards take the remainder.
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].capacity =
        capacity_ / num_shards_ + (i < capacity_ % num_shards_ ? 1 : 0);
  }
}

BufferPool::~BufferPool() {
  // Guards must not outlive the pool.
  PRTREE_CHECK(pinned() == 0);
}

Status BufferPool::Pin(PageId page, PageGuard* out) {
  PoolShard& shard = ShardFor(page);
  // The new pin is built into a local and only assigned to *out after the
  // shard lock is dropped: assigning earlier would run the caller's old
  // guard's Release() -> Unpin() under the lock, self-deadlocking whenever
  // a reused guard pins two pages of the same shard back to back.
  PageGuard result;
  {
    std::lock_guard<std::mutex> lock(shard.mu);

    auto it = shard.map.find(page);
    if (it != shard.map.end()) {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      PoolFrame& frame = *it->second;
      if (frame.prefetched) {
        frame.prefetched = false;
        ++shard.prefetch_useful;
      }
      if (frame.pins++ == 0) ++shard.pinned_frames;
      result = PageGuard(this, &shard, &frame);
    } else {
      ++shard.misses;
      // The device read happens under the shard lock, which guarantees a
      // page is read at most once however many threads miss on it
      // simultaneously.  On the memory backend a read is one memcpy; on
      // the file backend it is a pread, so concurrent misses on *other*
      // shards still proceed — only same-shard misses queue behind it.
      auto data = std::make_unique<std::byte[]>(device_->block_size());
      PRTREE_RETURN_NOT_OK(device_->Read(page, data.get()));

      // If every frame is pinned (or the shard has no capacity), refuse
      // to cache and hand the caller its own copy.
      if (MakeRoom(&shard)) {
        shard.lru.emplace_front();
        PoolFrame& frame = shard.lru.front();
        frame.page = page;
        frame.data = std::move(data);
        frame.pins = 1;
        ++shard.pinned_frames;
        shard.map[page] = shard.lru.begin();
        result = PageGuard(this, &shard, &frame);
      } else {
        result = PageGuard(std::move(data), page, device_->block_size());
      }
    }
  }
  *out = std::move(result);
  return Status::OK();
}

void BufferPool::Unpin(PoolShard* shard, PoolFrame* frame) {
  std::lock_guard<std::mutex> lock(shard->mu);
  PRTREE_CHECK(frame->pins > 0);
  // Detached frames left pinned_frames when they left the LRU.
  if (--frame->pins == 0 && !frame->detached) --shard->pinned_frames;
  if (frame->pins > 0 || !frame->detached) return;
  // Last pin on an invalidated frame: free it now.
  for (auto it = shard->detached.begin(); it != shard->detached.end(); ++it) {
    if (&*it == frame) {
      shard->detached.erase(it);
      return;
    }
  }
  PRTREE_CHECK(false);  // a detached frame must be on the detached list
}

size_t BufferPool::Prefetch(std::span<const PageId> pages) {
  if (pages.empty() || capacity_ == 0) return 0;
  const size_t block = device_->block_size();

  // Group the candidates by shard, deduplicating, so each shard lock is
  // taken once per phase however many pages the frontier holds.
  std::vector<std::vector<PageId>> by_shard(num_shards_);
  {
    std::unordered_set<PageId> seen;
    seen.reserve(pages.size());
    for (PageId p : pages) {
      if (seen.insert(p).second) by_shard[p % num_shards_].push_back(p);
    }
  }

  // Plan under each shard's lock: pages not already cached, at most what
  // the shard can actually hold right now (capacity minus pinned frames —
  // a transfer for a page with provably nowhere to go is pure waste),
  // remembering the epoch for the insert-time re-check.  The overflow is
  // not read but still hinted to the device, so the kernel page cache can
  // read ahead on its own.
  struct ShardPlan {
    size_t shard = 0;
    uint64_t epoch = 0;
    std::vector<size_t> req_index;  // indexes into reqs/bufs
  };
  std::vector<BlockReadRequest> reqs;
  std::vector<std::unique_ptr<std::byte[]>> bufs;
  std::vector<ShardPlan> plans;
  std::vector<PageId> hint_only;
  for (size_t s = 0; s < num_shards_; ++s) {
    if (by_shard[s].empty()) continue;
    PoolShard& shard = shards_[s];
    ShardPlan sp;
    sp.shard = s;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      sp.epoch = shard.epoch;
      size_t stageable = shard.capacity - shard.pinned_frames;
      for (PageId p : by_shard[s]) {
        if (shard.map.count(p) != 0) continue;  // already cached
        if (sp.req_index.size() >= stageable) {
          hint_only.push_back(p);
          continue;
        }
        sp.req_index.push_back(reqs.size());
        bufs.push_back(std::make_unique<std::byte[]>(block));
        BlockReadRequest req;
        req.page = p;
        req.buf = bufs.back().get();
        reqs.push_back(std::move(req));
      }
    }
    if (!sp.req_index.empty()) plans.push_back(std::move(sp));
  }
  if (!hint_only.empty()) {
    device_->PrefetchHint(hint_only.data(), hint_only.size());
  }
  if (reqs.empty()) return 0;

  // One batched, prefetch-charged device read for everything missing.  The
  // shard locks are NOT held here: this is the long pole (a real pread or
  // io_uring submission on the file backends), and Pin()s must keep
  // flowing meanwhile.  Failed requests simply stay unstaged — a later
  // demand Pin reports the error.
  device_->ReadBatch(reqs.data(), reqs.size(), ReadKind::kPrefetch);

  size_t staged_total = 0;
  for (const ShardPlan& sp : plans) {
    PoolShard& shard = shards_[sp.shard];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.epoch != sp.epoch) {
      // An Invalidate()/Clear() ran since planning; the bytes just read
      // may predate the update that prompted it.  Drop this shard's stage
      // rather than resurrect stale data.
      continue;
    }
    for (size_t ri : sp.req_index) {
      BlockReadRequest& req = reqs[ri];
      if (!req.status.ok()) continue;
      if (shard.map.count(req.page) != 0) continue;  // a Pin raced us in
      if (!MakeRoom(&shard)) continue;  // same rule as a miss
      shard.lru.emplace_front();
      PoolFrame& frame = shard.lru.front();
      frame.page = req.page;
      frame.data = std::move(bufs[ri]);
      frame.pins = 0;
      frame.prefetched = true;
      shard.map[req.page] = shard.lru.begin();
      ++shard.prefetch_staged;
      ++staged_total;
    }
  }
  return staged_total;
}

void BufferPool::Invalidate(PageId page) {
  PoolShard& shard = ShardFor(page);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Unconditional (even when the page is not cached): an in-flight
  // Prefetch may have read this page before the caller's device write, and
  // only the epoch stops it from staging those stale bytes.
  ++shard.epoch;
  auto it = shard.map.find(page);
  if (it == shard.map.end()) return;
  auto frame_it = it->second;
  shard.map.erase(it);
  if (frame_it->pins == 0) {
    shard.lru.erase(frame_it);
  } else {
    // Keep the bytes alive for the guards still reading them; the frame
    // dies on the last Unpin.
    frame_it->detached = true;
    --shard.pinned_frames;  // leaving the LRU while pinned
    shard.detached.splice(shard.detached.begin(), shard.lru, frame_it);
  }
}

void BufferPool::Clear() {
  for (size_t i = 0; i < num_shards_; ++i) {
    PoolShard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.epoch;  // invalidate in-flight prefetches, as in Invalidate()
    shard.map.clear();
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->pins == 0) {
        it = shard.lru.erase(it);
      } else {
        it->detached = true;
        --shard.pinned_frames;  // leaving the LRU while pinned
        auto next = std::next(it);
        shard.detached.splice(shard.detached.begin(), shard.lru, it);
        it = next;
      }
    }
  }
}

size_t BufferPool::size() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].lru.size();
  }
  return total;
}

size_t BufferPool::pinned() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    PoolShard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const PoolFrame& f : shard.lru) total += f.pins > 0 ? 1 : 0;
    total += shard.detached.size();
  }
  return total;
}

uint64_t BufferPool::hits() const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].hits;
  }
  return total;
}

uint64_t BufferPool::misses() const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].misses;
  }
  return total;
}

uint64_t BufferPool::prefetch_staged() const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].prefetch_staged;
  }
  return total;
}

uint64_t BufferPool::prefetch_useful() const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].prefetch_useful;
  }
  return total;
}

void BufferPool::ResetCounters() {
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    shards_[i].hits = 0;
    shards_[i].misses = 0;
    shards_[i].prefetch_staged = 0;
    shards_[i].prefetch_useful = 0;
  }
}

Status ReadPage(const BlockDevice& device, PageId page, PageGuard* out) {
  const size_t size = device.block_size();
  std::unique_ptr<std::byte[]> data;
  if (out->pool_ == nullptr && out->owned_ != nullptr &&
      out->owned_size_ == size) {
    data = std::move(out->owned_);
  } else {
    data = std::make_unique<std::byte[]>(size);
  }
  // Reset before the read so a failure leaves `out` empty rather than
  // pointing at a buffer that was just stolen from it.
  out->Release();
  PRTREE_RETURN_NOT_OK(device.Read(page, data.get()));
  *out = PageGuard(std::move(data), page, size);
  return Status::OK();
}

}  // namespace prtree
