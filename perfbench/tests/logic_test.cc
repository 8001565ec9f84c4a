// Tests of the benchmark's own logic: the percentile rule, self-time
// arithmetic, failure accounting and the value oracle.
//
//   python3 perfbench/run.py --selftest

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/stats.h"
#include "harness/trace.h"

namespace directload::perfbench {
namespace {

Samples Range(int n) {
  Samples s;
  for (int i = 1; i <= n; ++i) s.Add(i);
  return s;
}

TEST(PercentileRule, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SupportedPercentile(1000, 99), 99);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  const double p = SupportedPercentile(999, 99);
  EXPECT_LT(p, 99);
  EXPECT_GE(SamplesBeyond(999, p), 10u);
  // Ten samples cannot support any percentile with ten beyond it.
  EXPECT_LT(SupportedPercentile(10, 99), 0);
  EXPECT_GE(SamplesBeyond(11, SupportedPercentile(11, 99)), 10u);
}

TEST(PercentileRule, ReportFallsBackAndKeepsTheMedian) {
  const Reported p99 = Report(Range(1000), 99);
  EXPECT_EQ(p99.percentile, 99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.samples, 1000u);

  const Reported short_tail = Report(Range(500), 99);
  ASSERT_TRUE(short_tail.ok());
  EXPECT_LT(short_tail.percentile, 99);
  EXPECT_EQ(short_tail.value, 490);  // Ten samples (491..500) beyond it.

  EXPECT_FALSE(Report(Range(10), 99).ok());
  const Reported median = Report(Range(3), 50);
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(median.value, 2);
  EXPECT_FALSE(Report(Samples(), 50).ok());
}

Reported Windowed(const std::vector<Samples>& stacks, double want) {
  WindowedTiming timing(1000, want);
  for (const Samples& s : stacks) timing.AddStack(s);
  return timing.Figure();
}

TEST(Windows, TimingIsTheMedianOverWindows) {
  // Five windows of 1000; one of them holds a stall in its tail.
  Samples run;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) run.Add(w == 2 && i > 980 ? 1e6 : i + w);
  }
  const Reported p99 = Windowed({run}, 99);
  ASSERT_TRUE(p99.ok());
  EXPECT_EQ(p99.samples, 5000u);
  EXPECT_EQ(p99.percentile, 99);
  EXPECT_EQ(p99.value, 993);  // Window tails 990, 991, 1e6, 993, 994.
  EXPECT_EQ(Windowed({run}, 50).value, 502);  // Window medians 500..504.
}

TEST(Windows, RemainderJoinsTheLastWindowAndStacksAreWindowedApart) {
  // 2500 samples in windows of 1000: [0, 1000) and [1000, 2500).
  Samples run;
  for (int i = 1; i <= 2500; ++i) run.Add(i);
  const Reported p99 = Windowed({run}, 99);
  ASSERT_TRUE(p99.ok());
  EXPECT_EQ(p99.percentile, 99);
  // Window tails 990 and 2485; the median of two is the lower one.
  EXPECT_EQ(p99.value, 990);
  // A stack of 500 forms one window, whose p99 falls back to what it
  // supports; the run's percentile is the lowest any window used.
  const Reported mixed = Windowed({Range(500), Range(1000), Range(1000)}, 99);
  ASSERT_TRUE(mixed.ok());
  EXPECT_LT(mixed.percentile, 99);
  EXPECT_EQ(mixed.samples, 2500u);
  EXPECT_EQ(mixed.value, 990);  // Window tails 490, 990, 990.
  EXPECT_FALSE(Windowed({Range(1000), Range(10)}, 99).ok());
  EXPECT_FALSE(Windowed({}, 50).ok());
}

TEST(Windows, RateIsTheMedianOverWindowsOfCompletions) {
  // One completion per microsecond, except one 10 ms stall; in any order.
  std::vector<int64_t> stack;
  int64_t t = 0;
  for (int i = 0; i <= 400; ++i) {
    t += i == 150 ? 10'000'000 : 1000;
    stack.push_back(t);
  }
  std::swap(stack[3], stack[300]);
  // 400 gaps in windows of 100: one window holds the stall.
  WindowedRate rate(100);
  rate.AddStack(stack);
  EXPECT_DOUBLE_EQ(rate.Figure(), 1e6);
  // Stacks are windowed apart: the gap between them is no completion's.
  WindowedRate apart(100);
  apart.AddStack({0, 1000});
  apart.AddStack({1'000'000'000, 1'000'001'000});
  EXPECT_DOUBLE_EQ(apart.Figure(), 1e6);
  WindowedRate none(100);
  none.AddStack({5});
  EXPECT_EQ(none.Figure(), 0);
}

Span MakeSpan(const char* name, uint64_t id, uint64_t parent, int64_t start,
              int64_t end) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.op = 7;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  const Span parent = MakeSpan("p", 1, 0, 0, 100);
  const std::vector<Span> children = {
      MakeSpan("a", 2, 1, 10, 30), MakeSpan("b", 3, 1, 20, 50),
      MakeSpan("c", 4, 1, 90, 120)};
  // Covered: [10, 50) and [90, 100).
  EXPECT_EQ(SelfTimeNs(parent, children), 50);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
}

TEST(SelfTime, TreeOfLayers) {
  // wire [0,100) > mint [10,60) > qindb [20,40); wire > mint [70,80).
  const std::vector<Span> spans = {
      MakeSpan("wire", 1, 0, 0, 100), MakeSpan("mint", 2, 1, 10, 60),
      MakeSpan("qindb", 3, 2, 20, 40), MakeSpan("mint", 4, 1, 70, 80)};
  const auto wire = SelfTimesOf(spans, "wire");
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(wire[0].first, 7u);
  EXPECT_EQ(wire[0].second, 100 - 50 - 10);
  const auto mint = SelfTimesOf(spans, "mint");
  ASSERT_EQ(mint.size(), 2u);
  EXPECT_EQ(mint[0].second, 50 - 20);
  EXPECT_EQ(mint[1].second, 10);
  const auto qindb = SelfTimesOf(spans, "qindb");
  ASSERT_EQ(qindb.size(), 1u);
  EXPECT_EQ(qindb[0].second, 20);
}

TEST(SelfTime, ScopesNestAndCarryTheOp) {
  Tracer& tracer = Tracer::Get();
  tracer.Drain();
  tracer.set_enabled(true);
  SetCurrentOp(42);
  {
    SpanScope outer("outer");
    SpanScope inner("inner");
  }
  SetCurrentOp(0);
  tracer.set_enabled(false);
  { SpanScope ignored("off"); }
  const std::vector<Span> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 2u);
  const Span& inner = spans[0];
  const Span& outer = spans[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.op, 42u);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
}

TEST(FailureAccounting, EveryNonOkAnswerFailsExceptAnUnwrittenMiss) {
  EXPECT_EQ(Classify(Status::OK(), true), Outcome::kOk);
  EXPECT_EQ(Classify(Status::NotFound(), /*key_was_written=*/false),
            Outcome::kMiss);
  EXPECT_EQ(Classify(Status::NotFound(), /*key_was_written=*/true),
            Outcome::kFailed);
  EXPECT_EQ(Classify(Status::Unavailable("replica exceeded read timeout"),
                     true),
            Outcome::kFailed);
  EXPECT_EQ(Classify(Status::Busy(), true), Outcome::kFailed);
  EXPECT_EQ(Classify(Status::IOError("connection reset"), true),
            Outcome::kFailed);
}

TEST(FailureAccounting, LedgerCountsAgainstAttempted) {
  Ledger a;
  a.Record(Outcome::kOk, Status::OK());
  a.Record(Outcome::kFailed, Status::Unavailable());
  a.Record(Outcome::kFailed, Status::Busy());
  a.Record(Outcome::kFailed, Status::TimedOut());
  a.Record(Outcome::kFailed, Status::NotFound());
  a.Record(Outcome::kFailed, Status::IOError());
  a.Record(Outcome::kMiss, Status::NotFound());
  Ledger b;
  b.Record(Outcome::kWrong, Status::OK());
  b.Record(Outcome::kOk, Status::OK());
  a.Merge(b);
  EXPECT_EQ(a.attempted, 9u);
  EXPECT_EQ(a.ok, 2u);
  EXPECT_EQ(a.misses, 1u);
  EXPECT_EQ(a.failed, 5u);
  EXPECT_EQ(a.wrong, 1u);
  EXPECT_EQ(a.failed_unavailable, 1u);
  EXPECT_EQ(a.failed_busy, 1u);
  EXPECT_EQ(a.failed_timeout, 1u);
  EXPECT_EQ(a.failed_not_found, 1u);
  EXPECT_EQ(a.failed_other, 1u);
  EXPECT_EQ(a.ok + a.misses + a.failed + a.wrong, a.attempted);
}

TEST(ValueOracle, RoundTrips) {
  const std::string v = ValueFor("pb:k17", 1ull << 41, 1024);
  EXPECT_EQ(v.size(), 1024u);
  std::string key;
  uint64_t version = 0;
  ASSERT_TRUE(ParseValue(v, &key, &version, 1024));
  EXPECT_EQ(key, "pb:k17");
  EXPECT_EQ(version, 1ull << 41);
  uint64_t got = 0;
  EXPECT_TRUE(CheckRead(v, "pb:k17", 1024, [](uint64_t) { return true; },
                        &got));
  EXPECT_EQ(got, 1ull << 41);
}

TEST(ValueOracle, PlantedWrongValuesAreCaught) {
  const auto any = [](uint64_t) { return true; };
  const std::string right = ValueFor("pb:k17", 5, 1024);
  // Another key's value, answered for this key.
  EXPECT_FALSE(CheckRead(ValueFor("pb:k18", 5, 1024), "pb:k17", 1024, any));
  // A version never written for the key.
  EXPECT_FALSE(CheckRead(right, "pb:k17", 1024,
                         [](uint64_t v) { return v != 5; }));
  // One flipped byte in the body.
  std::string flipped = right;
  flipped[700] ^= 1;
  EXPECT_FALSE(CheckRead(flipped, "pb:k17", 1024, any));
  // Truncated, empty and unparsable answers.
  EXPECT_FALSE(CheckRead(right.substr(0, 1000), "pb:k17", 1024, any));
  EXPECT_FALSE(CheckRead("", "pb:k17", 1024, any));
  EXPECT_FALSE(CheckRead("pb:k17#x5#abc", "pb:k17", 1024, any));
  EXPECT_TRUE(CheckRead(right, "pb:k17", 1024, any));
}

}  // namespace
}  // namespace directload::perfbench
