// In-memory span recorder for the benchmark's traced run.
//
// A span is one call the benchmark makes into a library layer: its name
// (the layer-qualified call, e.g. "rtree.query.Query"), start, end, the
// thread that ran it and the span that caused it.  Spans are kept in memory
// up to a cap and written out once, at the end of the run, as Chrome
// trace-event JSON (Perfetto and chrome://tracing open it).  Per-name
// totals — call count, wall time and self time (duration minus the part
// covered by child spans on the same thread) — are kept for every span,
// capped or not, and written with the trace.
//
// A disabled tracer costs one relaxed load per ScopedSpan.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Total {
    uint64_t count = 0;
    int64_t ns = 0;
    int64_t self_ns = 0;
  };

  explicit Tracer(size_t max_spans) : max_spans_(max_spans) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a span on the calling thread.  A span opened on a thread with no
  /// open span (a loader worker's device call) is parented to the newest
  /// top-level span of any thread — the benchmark op that caused it.
  void Begin(const char* name) {
    Frame f{name, NowNs(), 0, next_id_.fetch_add(1), -1};
    if (!stack_.empty()) {
      f.parent = stack_.back().id;
    } else if (root_open_.load(std::memory_order_acquire)) {
      f.parent = root_id_.load(std::memory_order_relaxed);
    }
    if (stack_.empty() && is_client_thread()) {
      root_id_.store(f.id, std::memory_order_relaxed);
      root_open_.store(true, std::memory_order_release);
    }
    stack_.push_back(f);
  }

  void End() {
    Frame f = stack_.back();
    stack_.pop_back();
    const int64_t end = NowNs();
    const int64_t dur = end - f.start;
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
    } else if (is_client_thread()) {
      root_open_.store(false, std::memory_order_release);
    }
    std::lock_guard<std::mutex> lock(mu_);
    Total& t = totals_[f.name];
    ++t.count;
    t.ns += dur;
    t.self_ns += dur - f.child_ns;
    if (spans_.size() < max_spans_) {
      spans_.push_back(
          Span{f.name, f.start, end, f.id, f.parent, ThreadIndex()});
    } else {
      ++dropped_;
    }
  }

  /// Marks the calling thread as the benchmark's client thread (the one
  /// whose top-level spans are ops).
  void SetClientThread() { client_ = ThreadIndex(); }

  /// Writes the kept spans as Chrome trace-event JSON ("X" complete
  /// events, microsecond timestamps) plus the per-name totals.  Returns
  /// false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %lld, \"parent\": %lld}}%s\n",
                   s.name, s.tid, (s.start - t0) / 1e3,
                   (s.end - s.start) / 1e3, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "], \"otherData\": {\"dropped_spans\": %llu, \"totals\": {",
                 static_cast<unsigned long long>(dropped_));
    bool first = true;
    for (const auto& [name, t] : totals_) {
      std::fprintf(f,
                   "%s\n\"%s\": {\"count\": %llu, \"ns\": %lld, "
                   "\"self_ns\": %lld}",
                   first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(t.count),
                   static_cast<long long>(t.ns),
                   static_cast<long long>(t.self_ns));
      first = false;
    }
    std::fprintf(f, "}}}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Frame {
    const char* name;
    int64_t start;
    int64_t child_ns;
    int64_t id;
    int64_t parent;
  };
  struct Span {
    const char* name;
    int64_t start;
    int64_t end;
    int64_t id;
    int64_t parent;
    uint32_t tid;
  };

  static uint32_t ThreadIndex() {
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t index = next.fetch_add(1);
    return index;
  }
  bool is_client_thread() const { return ThreadIndex() == client_; }

  static thread_local std::vector<Frame> stack_;

  const size_t max_spans_;
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{1};
  std::atomic<int64_t> root_id_{-1};
  std::atomic<bool> root_open_{false};
  uint32_t client_ = 0;

  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::map<std::string, Total> totals_;
  uint64_t dropped_ = 0;
};

inline thread_local std::vector<Tracer::Frame> Tracer::stack_;

/// RAII span; a no-op when `tracer` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
