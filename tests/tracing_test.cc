#include "common/tracing.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_util.h"
#include "common/metrics.h"
#include "harness/experiment.h"
#include "harness/workloads.h"
#include "storage/tpch_schema.h"

namespace colt {
namespace {

// Spans are ScopedTimer readings: each test times scopes against a local
// registry with a local ring attached, except the tuner-level case, which
// needs the process-wide Default() registry the tuning stack records into.

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(TracerTest, DisabledTracerEmitsNothing) {
  MetricsRegistry registry;
  SpanRing ring;
  registry.set_span_ring(&ring);
  Histogram* hist = registry.GetHistogram("test.stage.seconds");
  {
    ScopedTimer timer(hist);
    // A disabled registry's timer never started, so it never reads the
    // clock: its reading is exactly zero.
    EXPECT_EQ(timer.Stop(), 0.0);
  }
  EXPECT_TRUE(ring.Spans().empty());
  EXPECT_EQ(hist->count(), 0);

  // Enabled but with the ring detached: the histogram records, the ring
  // does not.
  registry.set_enabled(true);
  registry.set_span_ring(nullptr);
  { ScopedTimer timer(hist); }
  EXPECT_EQ(hist->count(), 1);
  EXPECT_TRUE(ring.Spans().empty());
  EXPECT_EQ(ring.dropped(), 0);
}

TEST(TracerTest, FinishedSpanIsTheTimersReading) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  SpanRing ring;
  registry.set_span_ring(&ring);
  Histogram* hist = registry.GetHistogram("test.stage.seconds");
  ScopedTimer timer(hist);
  const double reading = timer.Stop();
  const std::vector<Span> spans = ring.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "test.stage.seconds");
  EXPECT_EQ(spans[0].parent, 0);  // root
  EXPECT_GT(spans[0].id, 0);
  EXPECT_GE(spans[0].start_seconds, 0.0);
  EXPECT_GT(reading, 0.0);
  EXPECT_TRUE(SameBits(spans[0].duration_seconds, reading));
  EXPECT_TRUE(SameBits(spans[0].duration_seconds, hist->sum()));
}

TEST(TracerTest, NestedScopesRecordParentLinks) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  SpanRing ring;
  registry.set_span_ring(&ring);
  Histogram* outer_hist = registry.GetHistogram("test.outer.seconds");
  Histogram* inner_hist = registry.GetHistogram("test.inner.seconds");
  {
    ScopedTimer outer(outer_hist);
    { ScopedTimer inner(inner_hist); }
  }
  // Spans finish innermost-first.
  const std::vector<Span> spans = ring.Spans();
  ASSERT_EQ(spans.size(), 2u);
  const Span& inner = spans[0];
  const Span& outer = spans[1];
  EXPECT_EQ(inner.name, "test.inner.seconds");
  EXPECT_EQ(outer.name, "test.outer.seconds");
  EXPECT_EQ(outer.parent, 0);
  EXPECT_EQ(inner.parent, outer.id);
  // The child's time range nests inside the parent's.
  EXPECT_GE(inner.start_seconds, outer.start_seconds);
  EXPECT_LE(inner.start_seconds + inner.duration_seconds,
            outer.start_seconds + outer.duration_seconds + 1e-9);
}

TEST(TracerTest, ClosingOutOfOrderFails) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  SpanRing ring;
  registry.set_span_ring(&ring);
  Histogram* outer_hist = registry.GetHistogram("test.outer.seconds");
  Histogram* inner_hist = registry.GetHistogram("test.inner.seconds");
  EXPECT_DEATH(
      {
        ScopedTimer outer(outer_hist);
        ScopedTimer inner(inner_hist);
        outer.Stop();
      },
      "innermost-first");
}

TEST(TracerTest, ExplicitEndIsIdempotent) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  SpanRing ring;
  registry.set_span_ring(&ring);
  {
    ScopedTimer timer(registry.GetHistogram("test.stage.seconds"));
    timer.Stop();
    EXPECT_EQ(timer.Stop(), 0.0);  // no-op
  }
  EXPECT_EQ(ring.Spans().size(), 1u);
}

TEST(TracerTest, RingKeepsNewestSpansAndCountsDrops) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  SpanRing ring(/*capacity=*/4);
  registry.set_span_ring(&ring);
  for (int i = 0; i < 6; ++i) {
    ScopedTimer timer(
        registry.GetHistogram("test.span" + std::to_string(i) + ".seconds"));
  }
  const std::vector<Span> spans = ring.Spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2);
  // Oldest retained first: span2..span5 survive.
  EXPECT_EQ(spans[0].name, "test.span2.seconds");
  EXPECT_EQ(spans[3].name, "test.span5.seconds");
}

TEST(TracerTest, ClearForgetsSpansAndRestartsEpoch) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  SpanRing ring(/*capacity=*/1);
  registry.set_span_ring(&ring);
  Histogram* hist = registry.GetHistogram("test.stage.seconds");
  { ScopedTimer timer(hist); }
  { ScopedTimer timer(hist); }
  EXPECT_EQ(ring.dropped(), 1);
  ring.Clear();
  EXPECT_TRUE(ring.Spans().empty());
  EXPECT_EQ(ring.dropped(), 0);
  { ScopedTimer timer(hist); }
  const std::vector<Span> spans = ring.Spans();
  ASSERT_EQ(spans.size(), 1u);
  // Fresh epoch: the first post-Clear span starts near zero.
  EXPECT_GE(spans[0].start_seconds, 0.0);
  EXPECT_LT(spans[0].start_seconds, 1.0);
}

// Reads `"key":` with the project's JSON reader, after the ',' that
// separates it from the previous field unless it opens the object.
bool Key(json::Reader* r, std::string_view key, bool first = false) {
  std::string got;
  if (!first && !r->Consume(',')) return false;
  return r->ReadString(&got) && got == key && r->Consume(':');
}

struct ParsedSpan {
  int64_t id = 0;
  int64_t parent = 0;
  std::string name;
  double start = 0.0;
  double dur = 0.0;
};

// One line of SpanRing::ToJsonl.
bool ParseJsonlSpan(std::string_view line, ParsedSpan* span) {
  json::Reader r(line);
  if (!r.Consume('{')) return false;
  if (!Key(&r, "id", /*first=*/true) || !r.ReadInt(&span->id)) return false;
  if (!Key(&r, "parent") || !r.ReadInt(&span->parent)) return false;
  if (!Key(&r, "name") || !r.ReadString(&span->name)) return false;
  if (!Key(&r, "start") || !r.ReadDouble(&span->start)) return false;
  if (!Key(&r, "dur") || !r.ReadDouble(&span->dur)) return false;
  return r.Consume('}') && r.AtEnd();
}

// One complete ("X") event of SpanRing::ToChromeTrace.
bool ParseChromeEvent(json::Reader* r, ParsedSpan* span) {
  std::string text;
  int64_t id = 0;
  if (!r->Consume('{')) return false;
  if (!Key(r, "name", /*first=*/true) || !r->ReadString(&span->name)) {
    return false;
  }
  if (!Key(r, "cat") || !r->ReadString(&text)) return false;
  if (!Key(r, "ph") || !r->ReadString(&text) || text != "X") return false;
  if (!Key(r, "pid") || !r->ReadInt(&id)) return false;
  if (!Key(r, "tid") || !r->ReadInt(&id)) return false;
  if (!Key(r, "ts") || !r->ReadDouble(&span->start)) return false;
  if (!Key(r, "dur") || !r->ReadDouble(&span->dur)) return false;
  if (!Key(r, "args") || !r->Consume('{')) return false;
  if (!Key(r, "id", /*first=*/true) || !r->ReadInt(&span->id)) return false;
  if (!Key(r, "parent") || !r->ReadInt(&span->parent)) return false;
  return r->Consume('}') && r->Consume('}');
}

/// Records a nested pair of spans and returns the ring's spans.
std::vector<Span> RecordNestedPair(MetricsRegistry* registry, SpanRing* ring) {
  registry->set_enabled(true);
  registry->set_span_ring(ring);
  {
    ScopedTimer outer(registry->GetHistogram("colt.on_query.seconds"));
    ScopedTimer inner(registry->GetHistogram("optimizer.whatif.seconds"));
  }
  return ring->Spans();
}

TEST(TracerTest, JsonlRoundTripPreservesEveryField) {
  MetricsRegistry registry;
  SpanRing ring;
  const std::vector<Span> spans = RecordNestedPair(&registry, &ring);
  const std::string jsonl = ring.ToJsonl();
  std::vector<ParsedSpan> parsed;
  size_t pos = 0;
  while (pos < jsonl.size()) {
    const size_t end = jsonl.find('\n', pos);
    ASSERT_NE(end, std::string::npos) << "every line ends in a newline";
    ParsedSpan span;
    ASSERT_TRUE(ParseJsonlSpan(jsonl.substr(pos, end - pos), &span));
    parsed.push_back(span);
    pos = end + 1;
  }
  ASSERT_EQ(parsed.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].id, spans[i].id);
    EXPECT_EQ(parsed[i].parent, spans[i].parent);
    EXPECT_EQ(parsed[i].name, spans[i].name);
    // %.17g round-trips every double exactly.
    EXPECT_TRUE(SameBits(parsed[i].start, spans[i].start_seconds));
    EXPECT_TRUE(SameBits(parsed[i].dur, spans[i].duration_seconds));
  }
}

TEST(TracerTest, ChromeTraceContainsCompleteEvents) {
  MetricsRegistry registry;
  SpanRing ring;
  const std::vector<Span> spans = RecordNestedPair(&registry, &ring);
  const std::string chrome = ring.ToChromeTrace();
  ASSERT_EQ(chrome.back(), '\n');
  json::Reader reader(std::string_view(chrome).substr(0, chrome.size() - 1));
  ASSERT_TRUE(reader.Consume('{'));
  ASSERT_TRUE(Key(&reader, "traceEvents", /*first=*/true));
  ASSERT_TRUE(reader.Consume('['));
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) {
      ASSERT_TRUE(reader.Consume(','));
    }
    ParsedSpan event;
    ASSERT_TRUE(ParseChromeEvent(&reader, &event));
    EXPECT_EQ(event.name, spans[i].name);
    EXPECT_EQ(event.id, spans[i].id);
    EXPECT_EQ(event.parent, spans[i].parent);
    EXPECT_DOUBLE_EQ(event.dur, spans[i].duration_seconds * 1e6);
  }
  EXPECT_TRUE(reader.Consume(']'));
  EXPECT_TRUE(reader.Consume('}'));
  EXPECT_TRUE(reader.AtEnd());
}

// A short Fig. 4-style run (4 shifting phases of 60 queries) traced
// through the Default() registry: every timed stage of the tuner lands
// in the ring, and each histogram's sum is its spans' durations added in
// ring order, bit for bit.
TEST(TracerTest, TunerSpansSumToEachHistogram) {
  Catalog catalog = MakeTpchCatalog();
  std::vector<WorkloadPhase> phases;
  for (const auto& d : ExperimentWorkloads::ShiftingPhases(&catalog)) {
    phases.push_back({d, 60});
  }
  WorkloadGenerator gen(&catalog, /*seed=*/99);
  const std::vector<Query> workload =
      GeneratePhasedWorkload(gen, phases, /*transition_length=*/20);
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;

  MetricsRegistry& registry = MetricsRegistry::Default();
  SpanRing ring(/*capacity=*/1 << 16);
  registry.Reset();
  registry.set_enabled(true);
  registry.set_span_ring(&ring);
  const ColtRunResult run = RunColtWorkload(&catalog, workload, config);
  registry.set_enabled(false);
  registry.set_span_ring(nullptr);
  const MetricsSnapshot snapshot = registry.Snapshot();
  registry.Reset();

  ASSERT_EQ(ring.dropped(), 0);
  std::map<std::string, double> span_sums;
  std::map<std::string, int64_t> span_counts;
  for (const Span& span : ring.Spans()) {
    span_sums[std::string(span.name)] += span.duration_seconds;
    ++span_counts[std::string(span.name)];
  }
  for (const char* stage :
       {"colt.on_query.seconds", "optimizer.plan.seconds",
        "profiler.profile.seconds", "optimizer.whatif.seconds",
        "self_organizer.epoch_end.seconds", "self_organizer.knapsack.seconds",
        "scheduler.apply.seconds"}) {
    EXPECT_GT(span_counts[stage], 0) << stage;
  }
  EXPECT_EQ(span_counts["colt.on_query.seconds"],
            static_cast<int64_t>(workload.size()));
  for (const auto& [name, hist] : snapshot.histograms) {
    EXPECT_EQ(span_counts[name], hist.count) << name;
    EXPECT_TRUE(SameBits(span_sums[name], hist.sum))
        << name << ": spans " << span_sums[name] << " vs histogram "
        << hist.sum;
  }
  EXPECT_FALSE(run.epochs.empty());
}

}  // namespace
}  // namespace colt
