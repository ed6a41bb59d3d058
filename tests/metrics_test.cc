#include "common/metrics.h"

// colt-lint: allow(metric-name): registry unit tests exercise lookup and
// snapshot mechanics with deliberately minimal names ("a", "g", "h"); the
// dotted-namespace convention applies to production registrations.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace colt {
namespace {

// All tests use a local registry: instruments record nothing until
// set_enabled(true), and a private instance keeps tests independent of
// whatever the process-wide Default() registry has accumulated.

TEST(CounterTest, DisabledRegistryDropsUpdates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 0);
}

TEST(CounterTest, EnabledRegistryAccumulates) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  Counter* c = registry.GetCounter("test.counter");
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
}

TEST(CounterTest, ToggleMidRunOnlyCountsEnabledWindow) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  c->Add(100);  // dropped
  registry.set_enabled(true);
  c->Add(7);  // kept
  registry.set_enabled(false);
  c->Add(100);  // dropped
  EXPECT_EQ(c->value(), 7);
}

TEST(GaugeTest, KeepsLastValueWhileEnabled) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.gauge");
  g->Set(3.5);  // dropped: disabled
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  registry.set_enabled(true);
  g->Set(3.5);
  g->Set(0.25);
  EXPECT_DOUBLE_EQ(g->value(), 0.25);
}

TEST(RegistryTest, SameNameReturnsSamePointer) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
  EXPECT_EQ(registry.GetHistogram("h"), registry.GetHistogram("h"));
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("b"));
}

TEST(RegistryTest, ResetZeroesValuesButKeepsPointers) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h");
  c->Add(5);
  g->Set(1.5);
  h->Record(0.5);
  registry.Reset();
  EXPECT_EQ(c->value(), 0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(registry.GetCounter("c"), c);
  EXPECT_EQ(registry.GetGauge("g"), g);
  EXPECT_EQ(registry.GetHistogram("h"), h);
  // Still enabled and usable after Reset.
  c->Increment();
  EXPECT_EQ(c->value(), 1);
}

TEST(HistogramTest, CountSumMinMax) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  Histogram* h = registry.GetHistogram("h");
  EXPECT_EQ(h->count(), 0);
  EXPECT_DOUBLE_EQ(h->min(), 0.0);  // empty reads as 0, not +inf
  EXPECT_DOUBLE_EQ(h->max(), 0.0);
  h->Record(2.0);
  h->Record(0.5);
  h->Record(5.0);
  EXPECT_EQ(h->count(), 3);
  EXPECT_DOUBLE_EQ(h->sum(), 7.5);
  EXPECT_DOUBLE_EQ(h->min(), 0.5);
  EXPECT_DOUBLE_EQ(h->max(), 5.0);
}

TEST(HistogramTest, BucketAssignmentUsesHalfOpenUpperBounds) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  // Buckets: (-inf,1], (1,2], (2,4], overflow (4,inf).
  HistogramOptions options;
  options.upper_bounds = {1.0, 2.0, 4.0};
  Histogram* h = registry.GetHistogram("h", options);
  h->Record(1.0);   // bucket 0 (inclusive upper bound)
  h->Record(1.5);   // bucket 1
  h->Record(2.0);   // bucket 1
  h->Record(4.0);   // bucket 2
  h->Record(100.0);  // overflow
  const HistogramSnapshot snap = h->Snapshot();
  ASSERT_EQ(snap.bucket_counts.size(), 3u);
  EXPECT_EQ(snap.bucket_counts[0], 1);
  EXPECT_EQ(snap.bucket_counts[1], 2);
  EXPECT_EQ(snap.bucket_counts[2], 1);
  EXPECT_EQ(snap.overflow, 1);
}

TEST(HistogramTest, PercentilesOfUniformDistribution) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  // 100 equal-width buckets over (0,100]; record 1..100 once each. The
  // interpolated p-th percentile must land within one bucket width of p.
  Histogram* h =
      registry.GetHistogram("h", HistogramOptions::Linear(0.0, 100.0, 100));
  for (int i = 1; i <= 100; ++i) h->Record(static_cast<double>(i));
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    EXPECT_NEAR(h->Percentile(p), p, 1.0) << "p=" << p;
  }
  // Exact extremes clamp to recorded min/max, not bucket edges.
  EXPECT_DOUBLE_EQ(h->Percentile(100.0), 100.0);
  EXPECT_GE(h->Percentile(0.5), 1.0);
}

TEST(HistogramTest, PercentileOfSingleValueIsThatValue) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  Histogram* h = registry.GetHistogram("h");
  h->Record(3.25e-5);
  EXPECT_DOUBLE_EQ(h->Percentile(50.0), 3.25e-5);
  EXPECT_DOUBLE_EQ(h->Percentile(99.0), 3.25e-5);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  Histogram* h = registry.GetHistogram("h");
  EXPECT_DOUBLE_EQ(h->Percentile(50.0), 0.0);
}

TEST(ScopedTimerTest, RecordsOneSampleOnScopeExit) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  Histogram* h = registry.GetHistogram("h");
  {
    ScopedTimer timer(h);
  }
  EXPECT_EQ(h->count(), 1);
  EXPECT_GE(h->min(), 0.0);
}

TEST(ScopedTimerTest, ExplicitStopIsIdempotent) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  Histogram* h = registry.GetHistogram("h");
  ScopedTimer timer(h);
  const double elapsed = timer.Stop();
  EXPECT_GE(elapsed, 0.0);
  EXPECT_DOUBLE_EQ(timer.Stop(), 0.0);  // second Stop is a no-op
  EXPECT_EQ(h->count(), 1);
}

TEST(ScopedTimerTest, DisabledRegistryRecordsNothing) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  {
    ScopedTimer timer(h);
  }
  EXPECT_EQ(h->count(), 0);
}

TEST(WallTimerTest, MonotonicAndNonNegative) {
  const double a = WallTimer::Now();
  const double b = WallTimer::Now();
  EXPECT_GE(b, a);
  WallTimer timer;
  EXPECT_GE(timer.Seconds(), 0.0);
  timer.Reset();
  EXPECT_GE(timer.Seconds(), 0.0);
}

TEST(SnapshotTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    MetricsRegistry registry;
    registry.set_enabled(true);
    registry.GetCounter("c")->Add(3);
    registry.GetGauge("g")->Set(0.75);
    Histogram* h = registry.GetHistogram("h");
    for (double v : {1e-6, 2e-6, 5e-5, 1e-3}) h->Record(v);
    return registry.Snapshot();
  };
  EXPECT_EQ(run(), run());
}

TEST(SnapshotTest, JsonlRoundTripIsLossless) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("colt.queries")->Add(1234);
  registry.GetGauge("colt.budget_utilization")->Set(0.875);
  Histogram* h = registry.GetHistogram("colt.on_query.seconds");
  for (double v : {3.5e-7, 1.25e-6, 4.2e-5, 0.001, 17.0, 250.0}) {
    h->Record(v);  // 250 lands in overflow under the default bounds
  }
  const MetricsSnapshot snapshot = registry.Snapshot();
  const Result<MetricsSnapshot> reparsed =
      MetricsSnapshot::FromJsonl(snapshot.ToJsonl());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value(), snapshot);
}

// Integer fields never pass through a double: the INT64 bounds and 2^53+1
// (the smallest integer a double cannot hold) come back exactly, and a
// gauge far outside the int64 range stays a valid double.
TEST(SnapshotTest, JsonlIntegersRoundTripExactly) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kPast53 = (int64_t{1} << 53) + 1;
  MetricsSnapshot snapshot;
  snapshot.counters["edge.min"] = kMin;
  snapshot.counters["edge.max"] = kMax;
  snapshot.counters["edge.past53"] = kPast53;
  snapshot.gauges["edge.huge"] = 1e30;
  for (int64_t v : {kMin, kMax, kPast53}) {
    HistogramSnapshot h;
    h.count = v;
    h.overflow = v;
    h.upper_bounds = {1.0, 2.0, 3.0};
    h.bucket_counts = {kMin, kMax, kPast53};
    snapshot.histograms["edge.h" + std::to_string(v)] = h;
  }
  const Result<MetricsSnapshot> reparsed =
      MetricsSnapshot::FromJsonl(snapshot.ToJsonl());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value(), snapshot);
}

TEST(SnapshotTest, FromJsonlRejectsNonIntegerIntegerFields) {
  const std::string counter = R"({"type":"counter","name":"c","value":)";
  const std::string hist = R"({"type":"histogram","name":"h",)";
  // Not int64 integers: an exponent, NaN, infinity, a fraction, and
  // INT64_MAX + 1.
  for (const std::string bad :
       {"1e30", "nan", "inf", "2.5", "9223372036854775808"}) {
    const std::string lines[] = {
        counter + bad + "}",
        hist + R"("count":)" + bad + "}",
        hist + R"("overflow":)" + bad + "}",
        hist + R"("buckets":[1,)" + bad + "]}",
    };
    for (const std::string& line : lines) {
      const Result<MetricsSnapshot> parsed = MetricsSnapshot::FromJsonl(line);
      ASSERT_FALSE(parsed.ok()) << line;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    }
  }
  // A gauge's value is a double.
  const Result<MetricsSnapshot> gauge = MetricsSnapshot::FromJsonl(
      R"({"type":"gauge","name":"g","value":1e30})");
  ASSERT_TRUE(gauge.ok()) << gauge.status().ToString();
  EXPECT_EQ(gauge->gauges.at("g"), 1e30);
}

TEST(SnapshotTest, FromJsonlRejectsNonHexUnicodeEscape) {
  const Result<MetricsSnapshot> good = MetricsSnapshot::FromJsonl(
      R"({"type":"counter","name":"a\u001f","value":1})");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->counters.count("a\x1f"), 1u);
  const Result<MetricsSnapshot> bad = MetricsSnapshot::FromJsonl(
      R"({"type":"counter","name":"a\u12zz","value":1})");
  EXPECT_FALSE(bad.ok());
}

TEST(SnapshotTest, FromJsonlRejectsWideUnicodeEscape) {
  // The writer escapes single bytes; "\u2603" has no one-byte reading and
  // used to load as its low byte, 0x03.
  const Result<MetricsSnapshot> top = MetricsSnapshot::FromJsonl(
      R"({"type":"counter","name":"a\u00ff","value":1})");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->counters.count("a\xff"), 1u);
  for (const char* name : {"a\\u2603", "a\\u0100", "a\\uffff"}) {
    const std::string line = std::string(R"({"type":"counter","name":")") +
                             name + R"(","value":1})";
    EXPECT_FALSE(MetricsSnapshot::FromJsonl(line).ok()) << line;
  }
}

TEST(SnapshotTest, FromJsonlReadsOnlyThePrintfDoubleGrammar) {
  const std::string gauge = R"({"type":"gauge","name":"g","value":)";
  const std::string hist =
      R"({"type":"histogram","name":"h","count":1,"sum":)";
  // What %.17g prints, non-finite gauges included.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, double> good[] = {
      {"0", 0.0},          {"-0", -0.0},
      {"2.5", 2.5},        {"1e+30", 1e30},
      {"-1.5e-07", -1.5e-07}, {"0.10000000000000001", 0.1},
      {"inf", kInf},       {"-inf", -kInf},
  };
  for (const auto& [text, value] : good) {
    const Result<MetricsSnapshot> parsed =
        MetricsSnapshot::FromJsonl(gauge + text + "}");
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed->gauges.at("g")),
              std::bit_cast<uint64_t>(value))
        << text;
  }
  for (const char* text : {"nan", "-nan"}) {
    const Result<MetricsSnapshot> parsed =
        MetricsSnapshot::FromJsonl(gauge + text + "}");
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_TRUE(std::isnan(parsed->gauges.at("g"))) << text;
  }
  // strtod's wider grammar: hex floats, spelled-out or signed infinities,
  // a leading '+', NaN payloads, and fractions or exponents with no
  // digits.
  for (const std::string bad :
       {"0x1p3", "infinity", "-infinity", "+5", "nan(123)", "INF", "NaN",
        "1.", ".5", "1e", "1e+", "-", "--1", "1.5.5", "1_0"}) {
    for (const std::string& line :
         {gauge + bad + "}", hist + bad + R"(,"buckets":[1],"bounds":[]})"}) {
      const Result<MetricsSnapshot> parsed = MetricsSnapshot::FromJsonl(line);
      EXPECT_FALSE(parsed.ok()) << line;
    }
  }
}

TEST(SnapshotTest, FromJsonlRejectsGarbage) {
  EXPECT_FALSE(MetricsSnapshot::FromJsonl("not json at all").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJsonl("{\"kind\":\"wat\"}").ok());
}

TEST(SnapshotTest, EmptySnapshotRoundTrips) {
  const MetricsSnapshot empty;
  EXPECT_TRUE(empty.empty());
  const Result<MetricsSnapshot> reparsed =
      MetricsSnapshot::FromJsonl(empty.ToJsonl());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed.value().empty());
}

TEST(SnapshotTest, FormatDiffShowsCounterDeltas) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  Counter* c = registry.GetCounter("optimizer.whatif.calls");
  c->Add(10);
  const MetricsSnapshot before = registry.Snapshot();
  c->Add(32);
  const MetricsSnapshot after = registry.Snapshot();
  const std::string diff = FormatSnapshotDiff(before, after);
  EXPECT_NE(diff.find("optimizer.whatif.calls"), std::string::npos);
  EXPECT_NE(diff.find("+32"), std::string::npos);
}

TEST(SnapshotTest, FromJsonlRejectsTrailingGarbage) {
  // A valid snapshot line with junk appended must not parse: silently
  // accepting it would let a truncated/concatenated export pass as clean.
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("colt.queries")->Add(7);
  const std::string good = registry.Snapshot().ToJsonl();
  ASSERT_FALSE(good.empty());
  EXPECT_FALSE(MetricsSnapshot::FromJsonl(good + "tail").ok());
  std::string mid_line = good;
  mid_line.insert(mid_line.size() - 1, " extra");
  EXPECT_FALSE(MetricsSnapshot::FromJsonl(mid_line).ok());
}

TEST(SnapshotTest, PrometheusTextExposesAllFamilies) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("colt.queries")->Add(42);
  registry.GetGauge("colt.budget_utilization")->Set(0.5);
  registry.GetHistogram("colt.on_query.seconds")->Record(0.001);
  const std::string text = ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE colt_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("colt_queries_total 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE colt_budget_utilization gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE colt_on_query_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("colt_on_query_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 1"), std::string::npos);
}

}  // namespace
}  // namespace colt
