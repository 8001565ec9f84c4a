#include "harness/stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/hash.h"

namespace directload::perfbench {

namespace {

size_t RankIndex(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  if (rank < 1) return 0;
  return std::min(n - 1, static_cast<size_t>(rank) - 1);
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, p);
}

double SupportedPercentile(size_t n, double want, size_t min_beyond) {
  if (n <= min_beyond) return -1;
  // Largest p with ceil(p n / 100) - 1 <= n - 1 - min_beyond.
  double p = std::min(want, 100.0 * static_cast<double>(n - min_beyond) /
                                static_cast<double>(n));
  // Floating-point rounding can land one rank high; step down until the
  // rule holds.
  while (p > 0 && SamplesBeyond(n, p) < min_beyond) {
    p = std::nextafter(p, 0.0);
  }
  return SamplesBeyond(n, p) >= min_beyond ? p : -1;
}

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  const size_t index = RankIndex(sorted.size(), p);
  std::nth_element(sorted.begin(), sorted.begin() + index, sorted.end());
  return sorted[index];
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

Reported Report(const Samples& s, double want) {
  Reported r;
  r.samples = s.count();
  if (want <= 50) {
    r.percentile = s.empty() ? -1 : want;
  } else {
    r.percentile = SupportedPercentile(s.count(), want);
  }
  if (r.ok()) r.value = s.Percentile(r.percentile);
  return r;
}

namespace {

/// [begin, end) bounds of the windows `n` items are cut into.
std::vector<std::pair<size_t, size_t>> Windows(size_t n, size_t per_window) {
  std::vector<std::pair<size_t, size_t>> out;
  per_window = std::max<size_t>(per_window, 1);
  for (size_t begin = 0; begin < n; begin += per_window) {
    out.emplace_back(begin, std::min(n, begin + per_window));
  }
  if (out.size() > 1 && out.back().second - out.back().first < per_window) {
    out[out.size() - 2].second = n;
    out.pop_back();
  }
  return out;
}

}  // namespace

Samples Samples::Slice(size_t begin, size_t end) const {
  Samples out;
  out.values_.assign(values_.begin() + begin, values_.begin() + end);
  return out;
}

void WindowedTiming::AddStack(const Samples& samples) {
  samples_ += samples.count();
  for (const auto& [begin, end] : Windows(samples.count(), per_window_)) {
    const Reported r = Report(samples.Slice(begin, end), want_);
    if (!r.ok()) {
      supported_ = false;
      continue;
    }
    percentile_ = figures_.empty() ? r.percentile
                                   : std::min(percentile_, r.percentile);
    figures_.Add(r.value);
  }
}

Reported WindowedTiming::Figure() const {
  if (!supported_ || figures_.empty()) return Reported{-1, 0, samples_};
  return Reported{percentile_, figures_.Percentile(50), samples_};
}

void WindowedRate::AddStack(std::vector<int64_t> done_ns) {
  if (done_ns.size() < 2) return;
  std::sort(done_ns.begin(), done_ns.end());
  // A window of k completions spans the k gaps after the completion
  // before it; the first completion only opens the first window.
  for (const auto& [begin, end] : Windows(done_ns.size() - 1, per_window_)) {
    const int64_t span_ns = done_ns[end] - done_ns[begin];
    if (span_ns > 0) {
      rates_.Add(static_cast<double>(end - begin) * 1e9 /
                 static_cast<double>(span_ns));
    }
  }
}

Outcome Classify(const Status& status, bool key_was_written) {
  if (status.ok()) return Outcome::kOk;
  if (status.IsNotFound() && !key_was_written) return Outcome::kMiss;
  return Outcome::kFailed;
}

void Ledger::Record(Outcome outcome, const Status& status) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      ++ok;
      return;
    case Outcome::kMiss:
      ++misses;
      return;
    case Outcome::kWrong:
      ++wrong;
      return;
    case Outcome::kFailed:
      break;
  }
  ++failed;
  if (status.IsUnavailable()) {
    ++failed_unavailable;
  } else if (status.IsBusy()) {
    ++failed_busy;
  } else if (status.IsTimedOut()) {
    ++failed_timeout;
  } else if (status.IsNotFound()) {
    ++failed_not_found;
  } else {
    ++failed_other;
  }
}

void Ledger::Merge(const Ledger& other) {
  attempted += other.attempted;
  ok += other.ok;
  misses += other.misses;
  failed += other.failed;
  wrong += other.wrong;
  failed_unavailable += other.failed_unavailable;
  failed_busy += other.failed_busy;
  failed_timeout += other.failed_timeout;
  failed_not_found += other.failed_not_found;
  failed_other += other.failed_other;
}

std::string ValueFor(std::string_view key, uint64_t version, size_t size) {
  std::string value;
  value.reserve(std::max(size, key.size() + 24));
  value.append(key);
  value.push_back('#');
  value.append(std::to_string(version));
  value.push_back('#');
  uint64_t x = Hash64(key.data(), key.size(), version);
  while (value.size() < size) {
    value.push_back(static_cast<char>('a' + x % 26));
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return value;
}

bool ParseValue(std::string_view value, std::string* key, uint64_t* version,
                size_t size) {
  const size_t first = value.find('#');
  if (first == std::string_view::npos) return false;
  const size_t second = value.find('#', first + 1);
  if (second == std::string_view::npos || second == first + 1) return false;
  uint64_t v = 0;
  const char* begin = value.data() + first + 1;
  const char* end = value.data() + second;
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) return false;
  const std::string_view k = value.substr(0, first);
  if (value != ValueFor(k, v, size)) return false;
  key->assign(k);
  *version = v;
  return true;
}

}  // namespace directload::perfbench
