#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_generation{1};

struct ThreadState {
  uint64_t generation = 0;
  void* buffer = nullptr;
  std::vector<uint32_t> open;  ///< Innermost open span last.
  uint64_t request = 0;
};

ThreadState& Local() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

Tracer::Tracer() : generation_(g_generation.fetch_add(1)) {}

Tracer::Buffer* Tracer::LocalBuffer() {
  ThreadState& state = Local();
  if (state.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->spans.reserve(1 << 14);
    state.generation = generation_;
    state.buffer = buffers_.back().get();
  }
  return static_cast<Buffer*>(state.buffer);
}

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t request,
                   uint32_t parent)
    : tracer_(tracer) {
  ThreadState& state = Local();
  record_.id = tracer->next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.detached = parent != kInheritParent;
  record_.parent = record_.detached
                       ? parent
                       : (state.open.empty() ? 0 : state.open.back());
  saved_request_ = state.request;
  if (request != 0) state.request = request;
  record_.request = state.request;
  record_.name = name;
  state.open.push_back(record_.id);
  record_.start_ns = NowNs();
}

Tracer::Span::~Span() {
  record_.end_ns = NowNs();
  ThreadState& state = Local();
  state.open.pop_back();
  state.request = saved_request_;
  tracer_->Append(record_);
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  const ThreadState& state = Local();
  SpanRecord record;
  record.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  record.parent = state.open.empty() ? 0 : state.open.back();
  record.request = state.request;
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  Append(record);
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return all;
}

SelfTimeReport ComputeSelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint32_t, std::vector<const SpanRecord*>> children;
  std::unordered_map<uint32_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) {
    by_id[span.id] = &span;
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  SelfTimeReport report;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const SpanRecord& span : spans) {
    const int64_t duration = span.end_ns - span.start_ns;
    // Union of the children's intervals, clipped to this span.
    int64_t covered = 0;
    auto kids = children.find(span.id);
    if (kids != children.end()) {
      intervals.clear();
      for (const SpanRecord* child : kids->second) {
        const int64_t lo = std::max(child->start_ns, span.start_ns);
        const int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      int64_t run_lo = 0;
      int64_t run_hi = -1;
      for (const auto& [lo, hi] : intervals) {
        if (run_hi < run_lo || lo > run_hi) {
          if (run_hi > run_lo) covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      if (run_hi > run_lo) covered += run_hi - run_lo;
    }
    const double self_seconds = static_cast<double>(duration - covered) * 1e-9;
    LayerStat& stat = report.layers[span.name];
    ++stat.calls;
    stat.self_seconds += self_seconds;
    stat.total_seconds += static_cast<double>(duration) * 1e-9;
    auto parent = by_id.find(span.parent);
    if (span.detached && parent != by_id.end()) {
      stat.wait_seconds +=
          static_cast<double>(span.start_ns - parent->second->start_ns) * 1e-9;
    }
    if (span.parent == 0) {
      ++report.roots;
      report.root_seconds += static_cast<double>(duration) * 1e-9;
      report.unattributed_seconds += self_seconds;
    }
  }
  return report;
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path,
                size_t max_rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const size_t rows = std::min(spans.size(), max_rows);
  int64_t origin = rows == 0 ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < rows; ++i) origin = std::min(origin, spans[i].start_ns);
  std::fprintf(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < rows; ++i) {
    const SpanRecord& span = spans[i];
    std::fprintf(out, "%u\t%u\t%llu\t%s\t%lld\t%lld\n", span.id, span.parent,
                 static_cast<unsigned long long>(span.request), span.name,
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
