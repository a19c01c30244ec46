// WriteStager: coalesces single-page write emissions into device batches.
//
// Every serializer in the bulk-load pipeline — Stream<T> run emission and
// the NodeWriters of rtree/builder.h, through which the loaders write their
// nodes — produces pages one at a time, in the coordinating thread's
// Allocate() order.  A stager buffers those emissions and drains them
// through BlockDevice::WriteBatch() in ring-depth batches, so an io_uring
// backend turns a train of one-page O_DIRECT pwrites into a few syscalls
// with every write in flight at once.
//
// The batch size comes from BlockDevice::PreferredWriteBatch(): backends
// that gain nothing from batching report 1, and the stager then passes
// every write straight through to Write() — zero buffering, zero extra
// copies, write_batches stays 0.  The memory and file devices report 1,
// and so does a uring device opened without O_DIRECT.  One opened with
// O_DIRECT requested reports its configured ring depth whether or not a
// ring came up or O_DIRECT was granted, so staging behaviour (and the
// write_batches audit counter) is a function of configuration, never of
// kernel capabilities.
//
// Ordering contract.  Stage() never reorders: pages drain in staging order,
// which each serializer keeps equal to its own allocation order.  Each
// page is written exactly once with exactly the bytes staged, so a build
// through a stager produces a byte-identical device file to the same build
// issuing scalar writes (asserted by tests/write_path_test.cc).  The
// caller owns the drain points: a staged page's bytes are not on the
// device until Drain() — so drain before reading a staged page, and
// before Free()ing one: a stale drain after Free would fail the device's
// liveness check (or land on the page's next owner), and the write
// counters must not depend on when a drain happened.
// Stream<T> and NodeWriter hide those rules behind their own Flush/Finish.
//
// Not thread-safe; every serializer stages on the thread that allocated
// its pages.

#ifndef PRTREE_IO_WRITE_STAGER_H_
#define PRTREE_IO_WRITE_STAGER_H_

#include <cstring>
#include <vector>

#include "io/block_device.h"
#include "util/check.h"

namespace prtree {

/// \brief Buffers page writes and drains them as WriteBatch() submissions.
/// See the file comment for the ordering and drain-point contract.
class WriteStager {
 public:
  /// Stages into `device` with batches of `capacity` pages; capacity 0
  /// (the default) asks the device via PreferredWriteBatch().  Every
  /// staged write is a demand write (stats().writes).
  explicit WriteStager(BlockDevice* device, size_t capacity = 0)
      : device_(device),
        capacity_(capacity != 0 ? capacity : device->PreferredWriteBatch()) {}

  ~WriteStager() { Drain(); }

  WriteStager(const WriteStager&) = delete;
  WriteStager& operator=(const WriteStager&) = delete;

  WriteStager(WriteStager&& o) noexcept
      : device_(o.device_),
        capacity_(o.capacity_),
        slab_(std::move(o.slab_)),
        pages_(std::move(o.pages_)) {
    o.pages_.clear();
  }

  WriteStager& operator=(WriteStager&& o) noexcept {
    if (this != &o) {
      Drain();
      device_ = o.device_;
      capacity_ = o.capacity_;
      slab_ = std::move(o.slab_);
      pages_ = std::move(o.pages_);
      o.pages_.clear();
    }
    return *this;
  }

  BlockDevice* device() const { return device_; }
  size_t capacity() const { return capacity_; }
  size_t staged() const { return pages_.size(); }

  /// Writes `buf` (block_size bytes) to `page` — immediately when batching
  /// is pointless (capacity <= 1), otherwise staged until the batch fills
  /// or Drain() is called.  Aborts on I/O failure, like the serializers'
  /// scalar writes did.
  void Stage(PageId page, const void* buf) {
    if (capacity_ <= 1) {
      AbortIfError(device_->Write(page, buf));
      return;
    }
    const size_t block = device_->block_size();
    if (slab_.empty()) slab_.resize(capacity_ * block);
    std::memcpy(slab_.data() + pages_.size() * block, buf, block);
    pages_.push_back(page);
    if (pages_.size() == capacity_) Drain();
  }

  /// Submits everything staged as one WriteBatch (pages in staging order).
  /// Idempotent; cheap when nothing is staged.
  void Drain() {
    if (pages_.empty()) return;
    const size_t block = device_->block_size();
    std::vector<BlockWriteRequest> reqs(pages_.size());
    for (size_t i = 0; i < pages_.size(); ++i) {
      reqs[i].page = pages_[i];
      reqs[i].buf = slab_.data() + i * block;
    }
    Status st = device_->WriteBatch(reqs.data(), reqs.size());
    pages_.clear();
    AbortIfError(st);
  }

  /// Drain() plus releasing the slab's memory.  For long-lived but sealed
  /// owners (a flushed external-sort run keeps its Stream alive for the
  /// merge) so idle stagers do not hold a ring-depth slab each.
  void DrainAndRelease() {
    Drain();
    slab_.clear();
    slab_.shrink_to_fit();
  }

 private:
  BlockDevice* device_;
  size_t capacity_;
  std::vector<std::byte> slab_;  // capacity_ blocks, allocated lazily
  std::vector<PageId> pages_;    // staged pages, in staging order
};

}  // namespace prtree

#endif  // PRTREE_IO_WRITE_STAGER_H_
