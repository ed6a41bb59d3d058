#ifndef COLT_COMMON_PROVENANCE_H_
#define COLT_COMMON_PROVENANCE_H_

/// Decision-provenance flight recorder (DESIGN.md §13).
///
/// The tuning pipeline can already report *what* it measured (metrics,
/// tracing); this layer records *why* it acted: every consequential
/// decision — gain-level promotion/demotion, knapsack solve, what-if
/// estimate, install/drop/quarantine, emergency eviction — is emitted as
/// a typed event into a ring buffer owned by the tuner. Events carry the
/// epoch, the query sequence number and a monotonic decision id, export
/// as JSONL and Prometheus text, persist through the checkpoint layer,
/// and replay into per-index decision timelines (tools/colt_explain).
///
/// Determinism contract: the recorder is single-writer like the metrics
/// registry. All pipeline emission happens on the tuning thread in
/// replay-stable order (what-if gains are recorded in probe order), so a
/// run's event stream is a function of its inputs and seed alone.

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/persist/serializer.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace colt {

/// One typed key/value annotation on a provenance event.
struct ProvenanceAttr {
  enum class Kind : uint8_t { kInt = 0, kDouble = 1, kString = 2 };

  std::string key;
  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  double double_value = 0.0;
  std::string string_value;

  bool operator==(const ProvenanceAttr&) const = default;
};

/// One recorded decision. `id` is the monotonic decision id assigned when
/// the event is sunk into the recorder; `epoch`/`query_seq` come from the
/// recorder's context (set by ColtTuner at the top of OnQuery). `index`
/// and `cluster` are -1 when the event has no single subject.
struct ProvenanceEvent {
  int64_t id = 0;
  int64_t epoch = 0;
  int64_t query_seq = -1;
  std::string name;  // dotted snake_case, e.g. "scheduler.install"
  int64_t index = -1;
  int64_t cluster = -1;
  std::vector<ProvenanceAttr> attrs;

  /// The attr named `key`, or nullptr.
  const ProvenanceAttr* FindAttr(std::string_view key) const;

  bool operator==(const ProvenanceEvent&) const = default;
};

/// Ring-buffered single-writer event log. Decision ids keep counting when
/// the ring wraps, so a drained stream always exposes whether (and how
/// many) events were dropped.
class ProvenanceRecorder {
 public:
  /// Builder returned by RecordEvent(); the event is sunk into the
  /// recorder when the builder goes out of scope (end of the full
  /// expression at a typical call site). Inert when detached.
  class EventBuilder {
   public:
    EventBuilder(const EventBuilder&) = delete;
    EventBuilder& operator=(const EventBuilder&) = delete;
    EventBuilder(EventBuilder&& other) noexcept;
    EventBuilder& operator=(EventBuilder&&) = delete;
    ~EventBuilder();

    EventBuilder& Index(int64_t id);
    EventBuilder& Cluster(int64_t id);
    EventBuilder& Attr(std::string_view key, int64_t value);
    EventBuilder& Attr(std::string_view key, int value) {
      return Attr(key, static_cast<int64_t>(value));
    }
    EventBuilder& Attr(std::string_view key, double value);
    EventBuilder& Attr(std::string_view key, std::string_view value);

   private:
    friend class ProvenanceRecorder;
    EventBuilder(ProvenanceRecorder* recorder, std::string_view name);

    ProvenanceRecorder* recorder_;  // null = inert
    ProvenanceEvent event_;
  };

  /// `capacity` is the maximum number of buffered events; the oldest are
  /// dropped (and counted) once it is exceeded. Clamped to at least 1.
  explicit ProvenanceRecorder(int64_t capacity);
  ProvenanceRecorder(const ProvenanceRecorder&) = delete;
  ProvenanceRecorder& operator=(const ProvenanceRecorder&) = delete;

  /// Stamps the context carried by subsequently recorded events.
  void SetContext(int64_t epoch, int64_t query_seq);

  /// Starts a new event; annotate via the returned builder. The event
  /// name must be a dotted snake_case string literal at the call site
  /// (enforced by colt_lint, same policy as metric names).
  /// Owner-only: the flight recorder is single-writer (DESIGN.md §13).
  COLT_OWNER_ONLY EventBuilder RecordEvent(std::string_view name);

  /// Moves the buffered events out (oldest first). Lifetime counters and
  /// the id sequence survive, so a drained recorder keeps appending to
  /// the same logical stream.
  std::vector<ProvenanceEvent> Drain();

  /// Buffered events, oldest first.
  const std::deque<ProvenanceEvent>& events() const { return ring_; }
  int64_t capacity() const { return capacity_; }
  int64_t dropped() const { return dropped_; }
  /// Events recorded over the recorder's lifetime (buffered + dropped +
  /// drained).
  int64_t total_recorded() const { return next_id_; }
  int64_t epoch() const { return epoch_; }
  int64_t query_seq() const { return query_seq_; }
  /// Lifetime per-event-name counts (survive Drain()).
  const std::map<std::string, int64_t>& counts_by_name() const {
    return counts_;
  }

  /// Prometheus text exposition of the lifetime event counts:
  /// colt_provenance_events_total{event="..."} plus the dropped counter.
  std::string PrometheusText() const;

  /// Checkpoint integration (DESIGN.md §12): serializes the id sequence,
  /// lifetime counts and buffered ring so a recovered tuner resumes the
  /// same decision-id stream.
  void SaveState(BinaryWriter* writer) const;
  Status LoadState(BinaryReader* reader);

 private:
  void Sink(ProvenanceEvent event);

  int64_t capacity_;
  int64_t epoch_ = 0;
  int64_t query_seq_ = -1;
  int64_t next_id_ = 0;
  int64_t dropped_ = 0;
  std::deque<ProvenanceEvent> ring_;
  std::map<std::string, int64_t> counts_;
};

/// JSONL export: one event object per line, in stream order. Integers
/// round-trip exactly; a double attr that prints without a fraction or an
/// exponent (an integral value below 1e17 in magnitude) re-parses as an
/// int attr of equal value (the kinds normalize, the numbers do not
/// change).
std::string ProvenanceToJsonl(const std::vector<ProvenanceEvent>& events);
Result<std::vector<ProvenanceEvent>> ProvenanceFromJsonl(
    std::string_view text);

/// The sub-stream of events about one index (matching `index`), in
/// stream order — the raw material of a per-index decision timeline.
std::vector<ProvenanceEvent> BuildIndexTimeline(
    const std::vector<ProvenanceEvent>& events, int64_t index);

/// Replayed state of one index as of the end of epoch `epoch` (all
/// events with event.epoch <= epoch applied in stream order).
struct IndexEpochState {
  bool materialized = false;  // installed and not since dropped
  bool hot = false;           // promoted to level-2 profiling
  int64_t last_action_id = -1;
  std::string last_action;  // name of the deciding install/drop event
  std::string last_cause;   // its "cause" attr, if any
  int64_t last_action_epoch = -1;
  /// Net benefit the SelfOrganizer attributed at the most recent
  /// schedule decision covering this index (0 when never scheduled).
  double last_net_benefit = 0.0;
};

/// Answers "why does index I exist / not exist at epoch E" by replaying
/// the event stream. Events after `epoch` are ignored; pass the last
/// epoch in the stream (or INT64_MAX) for the end-of-run verdict.
IndexEpochState ExplainIndexAtEpoch(const std::vector<ProvenanceEvent>& events,
                                    int64_t index, int64_t epoch);

/// Human-readable rendering of one event / of a timeline, used by
/// tools/colt_explain.
std::string FormatProvenanceEvent(const ProvenanceEvent& event);
std::string FormatIndexTimeline(const std::vector<ProvenanceEvent>& timeline);

}  // namespace colt

#endif  // COLT_COMMON_PROVENANCE_H_
