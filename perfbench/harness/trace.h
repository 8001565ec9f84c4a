#ifndef DIRECTLOAD_PERFBENCH_HARNESS_TRACE_H_
#define DIRECTLOAD_PERFBENCH_HARNESS_TRACE_H_

// Spans recorded by the benchmark around its calls into each layer. A span
// has a name, start and end (steady clock), the span that caused it, and
// the id of the benchmark op it belongs to; spans of one op share that id
// across every entry point the op is replayed through. Spans are kept in
// per-thread memory buffers and written out when the run ends. Recording
// is off unless enabled, and a disabled SpanScope costs one relaxed load.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace directload::perfbench {

int64_t NowNs();

struct Span {
  const char* name = "";  // Points at a string literal.
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = a root span.
  uint64_t op = 0;      // 0 = work not tied to a benchmark op.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends to the calling thread's buffer.
  void Record(const Span& span);

  /// Moves every buffered span out. Call only while no thread records.
  std::vector<Span> Drain();

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;  // Guarded by mu_.
};

/// The benchmark op the calling thread is working on (0 = none); spans the
/// thread opens carry it.
void SetCurrentOp(uint64_t op);
uint64_t CurrentOp();

/// Records one span over its own lifetime, nested under the thread's
/// innermost open SpanScope.
class SpanScope {
 public:
  explicit SpanScope(const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// The parent's duration minus the part of its interval that its children
/// cover (overlapping children count once; parts outside the parent do not
/// count).
int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children);

/// (op, self time) of every span named `name`, computed against the spans
/// whose parent it is.
std::vector<std::pair<uint64_t, int64_t>> SelfTimesOf(
    const std::vector<Span>& spans, const std::string& name);

/// Writes "name,id,parent,op,start_ns,end_ns" lines; false on I/O failure.
bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans);

}  // namespace directload::perfbench

#endif  // DIRECTLOAD_PERFBENCH_HARNESS_TRACE_H_
