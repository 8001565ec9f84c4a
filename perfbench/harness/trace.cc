#include "harness/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace directload::perfbench {

namespace {

thread_local uint64_t tl_op = 0;
thread_local uint64_t tl_parent = 0;
thread_local std::vector<Span>* tl_buffer = nullptr;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(const Span& span) {
  if (tl_buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<Span>>();
    buffer->reserve(1 << 14);
    tl_buffer = buffer.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  tl_buffer->push_back(span);
}

std::vector<Span> Tracer::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return out;
}

void SetCurrentOp(uint64_t op) { tl_op = op; }
uint64_t CurrentOp() { return tl_op; }

SpanScope::SpanScope(const char* name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.NextId();
  span_.parent = tl_parent;
  span_.op = tl_op;
  tl_parent = span_.id;
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tl_parent = span_.parent;
  Tracer::Get().Record(span_);
}

int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  covered.reserve(children.size());
  for (const Span& c : children) {
    const int64_t lo = std::max(c.start_ns, parent.start_ns);
    const int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t reach = parent.start_ns;
  for (const auto& [lo, hi] : covered) {
    const int64_t from = std::max(lo, reach);
    if (hi > from) {
      union_ns += hi - from;
      reach = hi;
    }
  }
  return parent.duration_ns() - union_ns;
}

std::vector<std::pair<uint64_t, int64_t>> SelfTimesOf(
    const std::vector<Span>& spans, const std::string& name) {
  std::unordered_map<uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  std::vector<std::pair<uint64_t, int64_t>> out;
  static const std::vector<Span> kNone;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    auto it = children.find(s.id);
    out.emplace_back(
        s.op, SelfTimeNs(s, it == children.end() ? kNone : it->second));
  }
  return out;
}

bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,id,parent,op,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%llu,%llu,%llu,%lld,%lld\n", s.name,
                 (unsigned long long)s.id, (unsigned long long)s.parent,
                 (unsigned long long)s.op, (long long)s.start_ns,
                 (long long)s.end_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace directload::perfbench
