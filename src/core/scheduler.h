#ifndef COLT_CORE_SCHEDULER_H_
#define COLT_CORE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/persist/serializer.h"
#include "common/provenance.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/config.h"
#include "optimizer/cost_model.h"
#include "storage/database.h"

namespace colt {

/// What the Scheduler did to the physical configuration.
enum class IndexActionType {
  kMaterialize,
  kDrop,
  /// A build attempt failed; its build_seconds were wasted (charged to the
  /// timeline so the chaos accounting stays honest).
  kBuildFailed,
  /// The index exhausted max_build_retries and is excluded from builds
  /// until its cooldown elapses (build_seconds = 0, informational).
  kQuarantine,
};

struct IndexAction {
  IndexActionType type = IndexActionType::kMaterialize;
  IndexId index = kInvalidIndexId;
  /// Simulated build time charged to the timeline (0 for drops, quarantine
  /// markers, and builds performed during idle time).
  double build_seconds = 0.0;
};

/// Retry/quarantine policy for failed index builds (defaults mirror
/// ColtConfig). The backoff between retries is kBuildBackoffBaseRounds,
/// doubled per consecutive failure up to kMaxBuildBackoffRounds.
struct SchedulerRetryPolicy {
  int max_build_retries = 3;
  int quarantine_cooldown_rounds = 24;
};

/// Applies Self-Organizer decisions to the physical configuration.
/// When attached to a Database (physical mode), builds and drops real
/// B+-trees; in statistics-only mode it just tracks the configuration.
///
/// Failure handling: transient build failures (injected via the
/// `index.build` fault site or kInternal/kResourceExhausted errors from
/// the Database) are retried with capped exponential backoff measured in
/// reorganization rounds (one ApplyConfiguration call = one round). An
/// index that fails `max_build_retries` consecutive attempts is
/// quarantined: builds are refused and callers should exclude it from
/// planning until the cooldown elapses, after which its failure history is
/// forgotten. Non-transient errors (kFailedPrecondition etc.) propagate to
/// the caller unchanged — they indicate misuse, not substrate weather.
class Scheduler {
 public:
  using RetryPolicy = SchedulerRetryPolicy;

  /// `db` may be null (statistics-only mode). `faults` may be null (no
  /// fault injection); it must outlive the scheduler. `provenance` may be
  /// null (no decision recording); installs, drops, build failures,
  /// backoffs and quarantines emit typed events when set (DESIGN.md §13).
  Scheduler(const Catalog* catalog, const CostModel* cost_model, Database* db,
            SchedulingStrategy strategy = SchedulingStrategy::kImmediate,
            FaultInjector* faults = nullptr, RetryPolicy retry = {},
            ProvenanceRecorder* provenance = nullptr);

  /// Transitions toward `desired`. Drops take effect immediately (and
  /// cancel pending builds that are no longer wanted). Builds take effect
  /// immediately under kImmediate (returned with their cost) or are queued
  /// under kIdleTime. Indexes in backoff or quarantine are skipped; they
  /// are retried automatically on a later call once eligible. `cause`
  /// labels the install/drop provenance events with what triggered the
  /// transition ("reorg" for ordinary epoch-end reorganizations,
  /// "emergency" for budget-shrink evictions).
  COLT_OWNER_ONLY Result<std::vector<IndexAction>> ApplyConfiguration(
      const IndexConfiguration& desired, std::string_view cause = "reorg");

  /// kIdleTime only: spends `seconds` of idle time on the build queue
  /// (FIFO); returns the builds that completed (build_seconds = 0 — idle
  /// work is free for the query stream). Zero-cost builds complete even
  /// when `seconds` is 0. A build whose final Materialize fails is removed
  /// from the queue (its idle work is lost) and handed to the
  /// retry/backoff machinery.
  COLT_OWNER_ONLY Result<std::vector<IndexAction>> OnIdle(double seconds);

  const IndexConfiguration& materialized() const { return materialized_; }

  /// Indexes queued for building (kIdleTime), FIFO order.
  std::vector<IndexId> PendingBuilds() const;

  /// Total bytes occupied by the materialized set.
  int64_t MaterializedBytes() const;

  /// Simulated build time for one index in seconds.
  double BuildSeconds(IndexId id) const;

  SchedulingStrategy strategy() const { return strategy_; }

  /// True while `id` is quarantined (cooldown not yet elapsed).
  bool IsQuarantined(IndexId id) const;
  /// Currently quarantined indexes, ascending. Callers (Self-Organizer)
  /// must exclude these from configuration picks.
  std::vector<IndexId> QuarantinedIndexes() const;

  /// Lifetime counters for chaos reporting.
  int64_t build_failures() const { return build_failures_; }
  int64_t quarantine_events() const { return quarantine_events_; }

  /// Simulated seconds charged to the timeline by failed immediate-mode
  /// build attempts (kBuildFailed actions). Kept apart from successful
  /// build time so reports can show wasted vs. useful work.
  double wasted_build_seconds() const { return wasted_build_seconds_; }
  /// Idle seconds sunk into queued builds that were later cancelled or
  /// whose final materialization failed (kIdleTime only).
  double wasted_idle_seconds() const { return wasted_idle_seconds_; }
  /// Total idle seconds consumed from OnIdle budgets (productive or not).
  double idle_seconds_spent() const { return idle_seconds_spent_; }

  /// Crash-safe persistence: the materialized set (ids only — physical
  /// trees are rebuilt from the base tables on load, never page-imaged),
  /// the pending build queue, the retry/backoff/quarantine map, the round
  /// counter, and the lifetime accounting. LoadState rebuilds real
  /// B+-trees via the attached Database and therefore may fail with the
  /// substrate's error.
  void SaveState(BinaryWriter* writer) const;
  Status LoadState(BinaryReader* reader);

 private:
  struct PendingBuild {
    IndexId index = kInvalidIndexId;
    double remaining_seconds = 0.0;
    /// Idle seconds already sunk into this build (lost if it is cancelled
    /// or its materialization fails).
    double spent_seconds = 0.0;
  };

  /// Per-index failure bookkeeping; erased on success or cooldown expiry.
  struct FailureState {
    int consecutive_failures = 0;
    /// Builds blocked while round_ < retry_after_round.
    int64_t retry_after_round = 0;
    /// >= 0 while quarantined; builds blocked while round_ < this.
    int64_t quarantine_until_round = -1;
  };

  /// Runs the fault check plus the physical build. Transient errors are
  /// the retryable ones; everything else is caller misuse.
  Status TryBuild(IndexId id);
  static bool IsTransient(StatusCode code) {
    return code == StatusCode::kInternal ||
           code == StatusCode::kResourceExhausted;
  }

  /// True when a build of `id` may not be attempted this round.
  bool BuildBlocked(IndexId id) const;

  /// Records one failed attempt; appends kQuarantine to `actions` when the
  /// retry budget is exhausted.
  void RecordBuildFailure(IndexId id, std::vector<IndexAction>* actions);

  /// Drops failure records whose quarantine cooldown has elapsed.
  void ExpireQuarantines();

  const Catalog* catalog_;
  const CostModel* cost_model_;
  Database* db_;
  SchedulingStrategy strategy_;
  FaultInjector* faults_;
  RetryPolicy retry_;
  ProvenanceRecorder* provenance_;
  IndexConfiguration materialized_;
  std::deque<PendingBuild> pending_;
  std::unordered_map<IndexId, FailureState> failures_;
  /// Reorganization round counter; advanced by ApplyConfiguration.
  int64_t round_ = 0;
  int64_t build_failures_ = 0;
  int64_t quarantine_events_ = 0;
  double wasted_build_seconds_ = 0.0;
  double wasted_idle_seconds_ = 0.0;
  double idle_seconds_spent_ = 0.0;

  struct Instruments {
    Counter* builds_completed;
    Counter* builds_failed;
    Counter* drops;
    Counter* backoff_events;
    Counter* quarantine_events;
    Gauge* pending_builds;
    Histogram* apply_seconds;
  };
  Instruments metrics_;
};

}  // namespace colt

#endif  // COLT_CORE_SCHEDULER_H_
