#ifndef DIRECTLOAD_PERFBENCH_HARNESS_STATS_H_
#define DIRECTLOAD_PERFBENCH_HARNESS_STATS_H_

// The benchmark's own bookkeeping: exact latency samples with the
// "ten samples beyond" percentile rule, failure accounting against ops
// attempted, and the value oracle every read answer is checked with.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace directload::perfbench {

/// Samples beyond the nearest-rank `p`-th percentile of `n` samples: with
/// the samples sorted, the percentile is element ceil(p/100 * n) - 1 and
/// everything after it lies beyond.
size_t SamplesBeyond(size_t n, double p);

/// The highest percentile <= `want` that has at least `min_beyond` samples
/// beyond it, or a negative value when even the lowest percentile lacks
/// them. A timing is reported at this percentile, never at one the sample
/// cannot support.
double SupportedPercentile(size_t n, double want, size_t min_beyond = 10);

/// Every latency of one kind, kept exactly (a run holds at most a few
/// hundred thousand), so medians and tails carry no bucketing error.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Merge(const Samples& other);
  size_t count() const { return values_.size(); }
  /// Samples [begin, end) in the order they were added.
  Samples Slice(size_t begin, size_t end) const;
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile; 0 on an empty set.
  double Percentile(double p) const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// A timing as reported: the percentile actually used, its value, and the
/// sample count behind it. A median (or lower percentile) is reported from
/// any non-empty sample; a tail percentile falls back to the highest one
/// SupportedPercentile allows.
struct Reported {
  double percentile = -1;  // < 0: the sample supports no percentile.
  double value = 0;
  size_t samples = 0;
  bool ok() const { return percentile >= 0; }
};
Reported Report(const Samples& s, double want);

/// One timing over a whole run, as a median over windows. Each stack's
/// samples, in completion order, are cut into consecutive windows of
/// `per_window` (a shorter remainder joins the window before it; a stack
/// with fewer samples forms one window), each window is reported at `want`,
/// and the figure is the median over every window of the run. A burst of
/// interference from outside then moves only the windows it lands in. Only
/// the windows' values are kept, so memory does not grow with the run.
class WindowedTiming {
 public:
  WindowedTiming(size_t per_window, double want)
      : per_window_(per_window), want_(want) {}
  void AddStack(const Samples& samples);
  /// `percentile` is the lowest any window used, `samples` the total; not
  /// ok when no window was added or one supports no percentile.
  Reported Figure() const;

 private:
  size_t per_window_;
  double want_;
  Samples figures_;
  size_t samples_ = 0;
  double percentile_ = -1;
  bool supported_ = true;
};

/// Throughput over a whole run, the same way: each stack's completion
/// times (ns, any order) are cut into windows of `per_window` completions,
/// and the figure is the median over every window's rate (completions per
/// second); 0 when no stack had two completions.
class WindowedRate {
 public:
  explicit WindowedRate(size_t per_window) : per_window_(per_window) {}
  void AddStack(std::vector<int64_t> done_ns);
  double Figure() const { return rates_.Percentile(50); }

 private:
  size_t per_window_;
  Samples rates_;
};

/// How one answer counts. kMiss is a NotFound for a key no write has
/// reached yet (not a failure); kWrong is an answer that is OK but whose
/// value fails the oracle — that fails the whole run.
enum class Outcome { kOk, kMiss, kFailed, kWrong };

/// Classifies a status answer. Every non-OK answer is a failed op —
/// kUnavailable, kBusy, timeouts and transport errors alike — except a
/// NotFound for a key that was never written.
Outcome Classify(const Status& status, bool key_was_written);

/// Ops attempted and how they ended, per run. Failures are counted, never
/// fatal; wrong answers are counted and make the run incorrect.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t misses = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  // Failed ops by status, for the run's context line.
  uint64_t failed_unavailable = 0;
  uint64_t failed_busy = 0;
  uint64_t failed_timeout = 0;
  uint64_t failed_not_found = 0;
  uint64_t failed_other = 0;

  void Record(Outcome outcome, const Status& status);
  void Merge(const Ledger& other);
};

/// The value of (key, version): a pure function of both, so any reader can
/// recompute it. Layout: "<key>#<version>#" then filler bytes derived from
/// the pair, padded to `size` bytes (longer when the header alone exceeds
/// it).
std::string ValueFor(std::string_view key, uint64_t version, size_t size);

/// Parses a value back to the (key, version) it was written for and checks
/// its full body against ValueFor; false on any mismatch.
bool ParseValue(std::string_view value, std::string* key, uint64_t* version,
                size_t size);

/// The oracle for one read answer: the value must parse to `key` and to a
/// version `allowed(version)` accepts. Returns true when the answer is
/// right.
template <typename AllowedFn>
bool CheckRead(std::string_view value, std::string_view key, size_t size,
               const AllowedFn& allowed, uint64_t* version_out = nullptr) {
  std::string parsed_key;
  uint64_t version = 0;
  if (!ParseValue(value, &parsed_key, &version, size)) return false;
  if (parsed_key != key || !allowed(version)) return false;
  if (version_out != nullptr) *version_out = version;
  return true;
}

}  // namespace directload::perfbench

#endif  // DIRECTLOAD_PERFBENCH_HARNESS_STATS_H_
