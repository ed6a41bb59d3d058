#include "common/provenance.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/persist/serializer.h"

namespace colt {
namespace {

// Builders sink on destruction, so helpers emit inside their own full
// expression / scope.

TEST(ProvenanceRecorderTest, RecordsEventsWithContextAndMonotonicIds) {
  ProvenanceRecorder recorder(16);
  recorder.SetContext(/*epoch=*/3, /*query_seq=*/31);
  recorder.RecordEvent("scheduler.install").Index(7).Attr("cause", "reorg");
  recorder.SetContext(/*epoch=*/4, /*query_seq=*/40);
  recorder.RecordEvent("scheduler.drop").Index(7).Attr("net_benefit", 1.5);

  ASSERT_EQ(recorder.events().size(), 2u);
  const ProvenanceEvent& first = recorder.events()[0];
  EXPECT_EQ(first.id, 0);
  EXPECT_EQ(first.epoch, 3);
  EXPECT_EQ(first.query_seq, 31);
  EXPECT_EQ(first.name, "scheduler.install");
  EXPECT_EQ(first.index, 7);
  ASSERT_NE(first.FindAttr("cause"), nullptr);
  EXPECT_EQ(first.FindAttr("cause")->string_value, "reorg");
  EXPECT_EQ(first.FindAttr("nope"), nullptr);
  const ProvenanceEvent& second = recorder.events()[1];
  EXPECT_EQ(second.id, 1);
  EXPECT_EQ(second.epoch, 4);
  ASSERT_NE(second.FindAttr("net_benefit"), nullptr);
  EXPECT_DOUBLE_EQ(second.FindAttr("net_benefit")->double_value, 1.5);
  EXPECT_EQ(recorder.total_recorded(), 2);
  EXPECT_EQ(recorder.dropped(), 0);
}

TEST(ProvenanceRecorderTest, RingDropsOldestAndKeepsCounting) {
  ProvenanceRecorder recorder(3);
  for (int i = 0; i < 5; ++i) {
    recorder.RecordEvent("profiler.whatif_estimate").Index(i);
  }
  EXPECT_EQ(recorder.events().size(), 3u);
  EXPECT_EQ(recorder.dropped(), 2);
  EXPECT_EQ(recorder.total_recorded(), 5);
  // Oldest first; ids 0 and 1 were dropped.
  EXPECT_EQ(recorder.events().front().id, 2);
  EXPECT_EQ(recorder.events().back().id, 4);
  EXPECT_EQ(recorder.counts_by_name().at("profiler.whatif_estimate"), 5);
}

TEST(ProvenanceRecorderTest, DrainKeepsIdSequenceAndCounts) {
  ProvenanceRecorder recorder(8);
  recorder.RecordEvent("scheduler.install").Index(1);
  const std::vector<ProvenanceEvent> drained = recorder.Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_TRUE(recorder.events().empty());
  recorder.RecordEvent("scheduler.drop").Index(1);
  // The id sequence continues across the drain: one logical stream.
  EXPECT_EQ(recorder.events().front().id, 1);
  EXPECT_EQ(recorder.total_recorded(), 2);
  EXPECT_EQ(recorder.counts_by_name().at("scheduler.install"), 1);
}

TEST(ProvenanceJsonlTest, RoundTripIsLossless) {
  ProvenanceRecorder recorder(8);
  recorder.SetContext(1, 12);
  recorder.RecordEvent("self_organizer.knapsack")
      .Attr("kind", "reorg")
      .Attr("pool", 16)
      .Attr("value", 123.25)
      .Attr("chosen", "1,2,9");
  recorder.RecordEvent("scheduler.install")
      .Index(9)
      .Cluster(2)
      .Attr("cause", "reorg");
  const std::vector<ProvenanceEvent> events = recorder.Drain();
  const std::string jsonl = ProvenanceToJsonl(events);
  const auto reparsed = ProvenanceFromJsonl(jsonl);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value(), events);
  // Byte-stable, not just value-stable: the determinism gates compare
  // exports with cmp.
  EXPECT_EQ(ProvenanceToJsonl(reparsed.value()), jsonl);
}

// Integer fields never pass through a double: the INT64 bounds and 2^53+1
// (the smallest integer a double cannot hold) come back exactly.
TEST(ProvenanceJsonlTest, IntegersRoundTripExactly) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kPast53 = (int64_t{1} << 53) + 1;
  std::vector<ProvenanceEvent> events;
  for (int64_t v : {kMin, kMax, kPast53}) {
    ProvenanceEvent event;
    event.id = v;
    event.epoch = v;
    event.query_seq = v;
    event.name = "scheduler.install";
    event.index = v;
    event.cluster = v;
    ProvenanceAttr attr;
    attr.key = "bytes";
    attr.kind = ProvenanceAttr::Kind::kInt;
    attr.int_value = v;
    event.attrs.push_back(attr);
    events.push_back(event);
  }
  const auto reparsed = ProvenanceFromJsonl(ProvenanceToJsonl(events));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value(), events);
}

TEST(ProvenanceJsonlTest, RejectsNonIntegerIntegerFields) {
  // Not int64 integers: an exponent, NaN, infinity, a fraction, and
  // INT64_MAX + 1.
  for (const std::string bad :
       {"1e30", "nan", "inf", "2.5", "9223372036854775808"}) {
    const std::string lines[] = {
        R"({"id":)" + bad + R"(,"ep":0,"q":0,"name":"scheduler.install"})",
        R"({"id":0,"ep":)" + bad + R"(,"q":0,"name":"scheduler.install"})",
        R"({"id":0,"ep":0,"q":)" + bad + R"(,"name":"scheduler.install"})",
    };
    for (const std::string& line : lines) {
      const auto parsed = ProvenanceFromJsonl(line);
      ASSERT_FALSE(parsed.ok()) << line;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    }
  }
}

TEST(ProvenanceJsonlTest, AttrValuesFollowTheWritersGrammar) {
  const std::string head =
      R"({"id":0,"ep":0,"q":0,"name":"scheduler.install","attrs":{"v":)";
  // A double attr as %.17g prints it, non-finite values included.
  for (const char* good : {"2.5", "-1e-300", "inf", "-inf", "nan"}) {
    const auto parsed = ProvenanceFromJsonl(head + good + "}}");
    ASSERT_TRUE(parsed.ok()) << good << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed->size(), 1u);
    EXPECT_EQ((*parsed)[0].attrs.at(0).kind, ProvenanceAttr::Kind::kDouble)
        << good;
  }
  // Spellings only strtod takes, and a \u escape wider than one byte.
  for (const std::string bad :
       {"0x1p3", "infinity", "+5", "nan(123)", "1.", "1e", R"("\u2603")"}) {
    const std::string line = head + bad + "}}";
    const auto parsed = ProvenanceFromJsonl(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
  EXPECT_FALSE(ProvenanceFromJsonl(
                   R"({"id":0,"ep":0,"q":0,"name":"scheduler.\u2603"})")
                   .ok());
}

TEST(ProvenanceJsonlTest, RejectsGarbage) {
  EXPECT_FALSE(ProvenanceFromJsonl("not json").ok());
  EXPECT_FALSE(ProvenanceFromJsonl("{\"id\":0}").ok());
  const std::string good =
      "{\"id\":0,\"ep\":0,\"q\":0,\"name\":\"scheduler.install\"}\n";
  EXPECT_TRUE(ProvenanceFromJsonl(good).ok());
  EXPECT_FALSE(ProvenanceFromJsonl(good + "junk").ok());
}

TEST(ProvenancePrometheusTest, ExposesLifetimeCountsAndDrops) {
  ProvenanceRecorder recorder(1);
  recorder.RecordEvent("scheduler.install").Index(1);
  recorder.RecordEvent("scheduler.install").Index(2);  // drops the first
  const std::string text = recorder.PrometheusText();
  EXPECT_NE(
      text.find("colt_provenance_events_total{event=\"scheduler.install\"} 2"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("colt_provenance_dropped_total 1"), std::string::npos)
      << text;
}

TEST(ProvenancePersistTest, SaveLoadRoundTripsStreamState) {
  ProvenanceRecorder recorder(4);
  recorder.SetContext(2, 25);
  recorder.RecordEvent("scheduler.install").Index(3).Attr("cause", "reorg");
  recorder.RecordEvent("colt.epoch_end").Attr("whatif_used", 5);
  BinaryWriter writer;
  recorder.SaveState(&writer);

  ProvenanceRecorder restored(4);
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(restored.LoadState(&reader).ok());
  EXPECT_EQ(restored.events().size(), recorder.events().size());
  EXPECT_EQ(restored.total_recorded(), recorder.total_recorded());
  EXPECT_EQ(restored.counts_by_name(), recorder.counts_by_name());
  ASSERT_EQ(restored.events().size(), 2u);
  EXPECT_EQ(restored.events()[0], recorder.events()[0]);
  // The restored recorder continues the same id stream.
  restored.RecordEvent("scheduler.drop").Index(3);
  EXPECT_EQ(restored.events().back().id, 2);
}

TEST(ProvenanceTimelineTest, ExplainReplaysInstallDropHistory) {
  ProvenanceRecorder recorder(32);
  recorder.SetContext(1, 10);
  recorder.RecordEvent("self_organizer.hot_promote").Index(4).Attr(
      "benefit", 9.0);
  recorder.RecordEvent("self_organizer.schedule_install")
      .Index(4)
      .Attr("net_benefit", 8.5);
  recorder.RecordEvent("scheduler.install").Index(4).Attr("cause", "reorg");
  recorder.SetContext(6, 60);
  recorder.RecordEvent("self_organizer.schedule_drop")
      .Index(4)
      .Attr("net_benefit", 0.25);
  recorder.RecordEvent("scheduler.drop").Index(4).Attr("cause", "emergency");
  recorder.RecordEvent("scheduler.install").Index(5).Attr("cause", "reorg");
  const std::vector<ProvenanceEvent> events = recorder.Drain();

  const std::vector<ProvenanceEvent> timeline = BuildIndexTimeline(events, 4);
  ASSERT_EQ(timeline.size(), 5u);
  for (const ProvenanceEvent& e : timeline) EXPECT_EQ(e.index, 4);

  const IndexEpochState mid = ExplainIndexAtEpoch(events, 4, 1);
  EXPECT_TRUE(mid.materialized);
  EXPECT_TRUE(mid.hot);
  EXPECT_EQ(mid.last_action, "scheduler.install");
  EXPECT_EQ(mid.last_cause, "reorg");
  EXPECT_DOUBLE_EQ(mid.last_net_benefit, 8.5);

  const IndexEpochState end = ExplainIndexAtEpoch(events, 4, 6);
  EXPECT_FALSE(end.materialized);
  EXPECT_EQ(end.last_action, "scheduler.drop");
  EXPECT_EQ(end.last_cause, "emergency");
  EXPECT_EQ(end.last_action_epoch, 6);
  EXPECT_DOUBLE_EQ(end.last_net_benefit, 0.25);

  const std::string rendered = FormatIndexTimeline(timeline);
  EXPECT_NE(rendered.find("scheduler.install"), std::string::npos);
  EXPECT_NE(rendered.find("cause=emergency"), std::string::npos);
}

}  // namespace
}  // namespace colt
