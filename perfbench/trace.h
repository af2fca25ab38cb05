#ifndef CASPER_PERFBENCH_TRACE_H_
#define CASPER_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// In-memory span recorder for the benchmark's traced run. Spans are
/// opened by the benchmark around its own calls into each layer (the
/// program itself is not instrumented); each carries a name, start,
/// end, parent span and request id, is appended to a per-thread buffer,
/// and is only gathered and written out once the run has ended.

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root.
  uint64_t request = 0;
  const char* name = "";  ///< Static string.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Opened on another thread than its parent (a pool worker picking up
  /// a request): the gap from the parent's start is time spent waiting.
  bool detached = false;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span on the calling thread. Its parent is the innermost span
  /// this thread has open, unless `parent` names one explicitly (a
  /// worker's span whose cause sits on another thread). The request id
  /// is inherited from the enclosing span when `request` is 0.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t request = 0,
         uint32_t parent = kInheritParent);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    uint32_t id() const { return record_.id; }
    int64_t start_ns() const { return record_.start_ns; }

   private:
    Tracer* tracer_;
    SpanRecord record_;
    uint64_t saved_request_ = 0;
  };

  static constexpr uint32_t kInheritParent = UINT32_MAX;

  /// Records an already-measured interval (e.g. server compute time
  /// reported back on the wire) as a child of this thread's innermost
  /// open span.
  void Record(const char* name, int64_t start_ns, int64_t end_ns);

  /// Every span recorded so far. Call only when no thread is recording.
  std::vector<SpanRecord> Collect() const;

 private:
  struct Buffer {
    std::vector<SpanRecord> spans;
  };
  Buffer* LocalBuffer();
  void Append(const SpanRecord& record) { LocalBuffer()->spans.push_back(record); }

  const uint64_t generation_;
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // Guarded by mu_.
};

/// Per-name aggregate of a span set: self time is a span's duration
/// minus the part of its interval covered by the union of its
/// children's intervals.
struct LayerStat {
  uint64_t calls = 0;
  double self_seconds = 0.0;
  double total_seconds = 0.0;
  double wait_seconds = 0.0;  ///< Detached spans only.
};

struct SelfTimeReport {
  std::map<std::string, LayerStat> layers;
  double root_seconds = 0.0;          ///< Summed duration of root spans.
  double unattributed_seconds = 0.0;  ///< Summed self time of root spans.
  uint64_t roots = 0;
};

SelfTimeReport ComputeSelfTimes(const std::vector<SpanRecord>& spans);

/// Writes the first `max_rows` spans (in id order) as tab-separated
/// rows, times relative to the earliest start. Returns false if the file
/// cannot be written.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path,
                size_t max_rows);

}  // namespace perfbench

#endif  // CASPER_PERFBENCH_TRACE_H_
