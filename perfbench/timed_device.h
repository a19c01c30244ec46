// A forwarding BlockDevice that records a span around every call it passes
// to the device underneath.
//
// The traced run puts it between the library and the real (uring) device,
// so device busy time and call counts are measured from outside the
// library: the library sees an ordinary BlockDevice.  Counters, allocation
// order and PreferredWriteBatch() are the inner device's, so every layer
// above behaves — and counts — exactly as on the bare device.

#ifndef PERFBENCH_TIMED_DEVICE_H_
#define PERFBENCH_TIMED_DEVICE_H_

#include <mutex>

#include "io/block_device.h"
#include "perfbench/trace.h"

namespace perfbench {

class TimedDevice final : public prtree::BlockDevice {
 public:
  TimedDevice(prtree::BlockDevice* inner, Tracer* tracer)
      : BlockDevice(inner->block_size()), inner_(inner), tracer_(tracer) {}

  prtree::PageId Allocate() override { return inner_->Allocate(); }
  void Free(prtree::PageId page) override { inner_->Free(page); }
  size_t num_allocated() const override { return inner_->num_allocated(); }
  size_t peak_allocated() const override { return inner_->peak_allocated(); }
  size_t num_pages() const override { return inner_->num_pages(); }
  bool IsAllocated(prtree::PageId page) const override {
    return inner_->IsAllocated(page);
  }
  prtree::Status Sync() override {
    Call call(this, "io.device.Sync");
    return inner_->Sync();
  }
  size_t PreferredWriteBatch() const override {
    return inner_->PreferredWriteBatch();
  }
  void PrefetchHint(const prtree::PageId* pages, size_t n) const override {
    inner_->PrefetchHint(pages, n);
  }

  /// Read() and ReadBatch() calls so far, spans on or off.
  uint64_t read_calls() const {
    return read_calls_.load(std::memory_order_relaxed);
  }

  /// Wall nanoseconds so far during which at least one call made with spans
  /// on was in flight: the union of the calls' intervals, not their sum, so
  /// calls that overlap on different threads count once and the figure
  /// never exceeds the wall time it is taken over.
  int64_t busy_ns() const {
    std::lock_guard<std::mutex> lock(busy_mu_);
    return busy_ns_;
  }

  prtree::Status ReadBatch(prtree::BlockReadRequest* reqs, size_t n,
                           prtree::ReadKind kind) const override {
    read_calls_.fetch_add(1, std::memory_order_relaxed);
    prtree::Status st;
    {
      Call call(this, "io.device.ReadBatch");
      st = inner_->ReadBatch(reqs, n, kind);
    }
    for (size_t i = 0; i < n; ++i) {
      if (reqs[i].status.ok()) CountBatchedRead(kind);
    }
    return st;
  }

 protected:
  prtree::Status DoRead(prtree::PageId page, void* buf) const override {
    read_calls_.fetch_add(1, std::memory_order_relaxed);
    Call call(this, "io.device.Read");
    return inner_->Read(page, buf);
  }
  prtree::Status DoWrite(prtree::PageId page, const void* buf) override {
    Call call(this, "io.device.Write");
    return inner_->Write(page, buf);
  }
  prtree::Status DoWriteBatch(prtree::BlockWriteRequest* reqs, size_t n,
                              prtree::WriteKind kind) override {
    prtree::Status st;
    {
      Call call(this, "io.device.WriteBatch");
      st = inner_->WriteBatch(reqs, n, kind);
    }
    for (size_t i = 0; i < n; ++i) {
      if (reqs[i].status.ok()) CountBatchedWrite(kind);
    }
    return st;
  }

 private:
  /// One forwarded call: a span, and the call's share of busy_ns().  Both
  /// only while spans are on.
  class Call {
   public:
    Call(const TimedDevice* dev, const char* name)
        : dev_(dev->tracer_->enabled() ? dev : nullptr),
          span_(dev->tracer_, name) {
      if (dev_ != nullptr) dev_->Enter();
    }
    ~Call() {
      if (dev_ != nullptr) dev_->Leave();
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    const TimedDevice* dev_;
    ScopedSpan span_;
  };

  void Enter() const {
    std::lock_guard<std::mutex> lock(busy_mu_);
    if (in_flight_++ == 0) busy_since_ = NowNs();
  }
  void Leave() const {
    std::lock_guard<std::mutex> lock(busy_mu_);
    if (--in_flight_ == 0) busy_ns_ += NowNs() - busy_since_;
  }

  prtree::BlockDevice* inner_;
  Tracer* tracer_;
  mutable std::atomic<uint64_t> read_calls_{0};
  mutable std::mutex busy_mu_;  // guards the three below
  mutable int in_flight_ = 0;
  mutable int64_t busy_since_ = 0;
  mutable int64_t busy_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_DEVICE_H_
