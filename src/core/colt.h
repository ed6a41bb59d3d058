#ifndef COLT_CORE_COLT_H_
#define COLT_CORE_COLT_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/persist/checkpoint.h"
#include "common/persist/serializer.h"
#include "common/provenance.h"
#include "common/thread_annotations.h"
#include "core/candidates.h"
#include "core/clustering.h"
#include "core/config.h"
#include "core/forecasting.h"
#include "core/gain_stats.h"
#include "core/profiler.h"
#include "core/scheduler.h"
#include "core/self_organizer.h"
#include "core/write_stats.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "query/query.h"
#include "storage/database.h"

namespace colt {

/// Everything that happened while COLT observed one query.
struct TuningStep {
  /// The plan chosen by the normal optimization under the current
  /// materialized set (the plan the system would execute).
  PlanResult plan;
  /// Simulated execution time of that plan, in seconds.
  double execution_seconds = 0.0;
  /// For write statements: the slice of execution_seconds spent keeping
  /// the materialized indexes on the target table fresh (DESIGN.md §16).
  /// Informational split — already included in execution_seconds, never
  /// added on top. Always 0 for reads.
  double maintenance_seconds = 0.0;
  /// Profiling overhead charged for this query (what-if calls), seconds.
  double profiling_seconds = 0.0;
  /// Index build time charged at this query (epoch boundaries) for builds
  /// that succeeded, seconds.
  double build_seconds = 0.0;
  /// Build time charged for attempts that failed (kBuildFailed), seconds.
  /// Wasted work: it still occupies the timeline, but produced no index.
  double wasted_build_seconds = 0.0;
  /// For a write the tuner applied to its database: the executor's
  /// measured result, or the error that stopped it. Unset for reads and
  /// for writes the tuner only priced (no database attached, or the
  /// target table holds no data).
  std::optional<Result<ExecutionResult>> applied_write;
  /// Configuration changes performed after this query.
  std::vector<IndexAction> actions;
  int whatif_calls = 0;
  /// What-if probes that degraded to the crude level-1 estimate (what-if
  /// failure or per-query deadline), this query.
  int degraded_whatif_calls = 0;
  bool epoch_ended = false;
};

/// Per-epoch diagnostics (drives the paper's Fig. 5).
struct EpochReport {
  int epoch = 0;
  int whatif_used = 0;
  int whatif_limit = 0;
  int next_whatif_limit = 0;
  double rebudget_ratio = 1.0;
  int64_t candidate_count = 0;
  int64_t cluster_count = 0;
  std::vector<IndexId> hot_ids;
  std::vector<IndexId> materialized_ids;
  int64_t materialized_bytes = 0;
  /// Robustness diagnostics (all zero in fault-free runs).
  /// What-if probes that fell back to the crude estimate this epoch.
  int degraded_whatif = 0;
  /// Build attempts that failed this epoch.
  int build_failures = 0;
  /// Indexes under quarantine at the epoch boundary, ascending.
  std::vector<IndexId> quarantined_ids;
  /// Storage budget in force at the epoch boundary (tracks mid-run
  /// `budget.shrink` faults).
  int64_t storage_budget_bytes = 0;
  /// Materialized indexes dropped by emergency eviction this epoch.
  int emergency_evictions = 0;
  /// Simulated seconds charged for failed build attempts this epoch.
  double wasted_build_seconds = 0.0;
  /// Point-in-time metrics at the epoch boundary (empty unless
  /// MetricsRegistry::Default() is enabled).
  MetricsSnapshot metrics;
  /// Decision-provenance summary (all zero unless the flight recorder is
  /// enabled via ColtConfig::provenance_events): lifetime events recorded,
  /// events recorded during this epoch, and ring-capacity drops.
  int64_t provenance_events_total = 0;
  int64_t provenance_events_epoch = 0;
  int64_t provenance_dropped = 0;
  /// Write statements observed this epoch (0 on read-only workloads).
  int64_t write_queries = 0;
  /// Total maintenance charge subtracted from index benefits at this
  /// epoch's boundary, cost units (0 on read-only epochs or with
  /// ColtConfig::charge_index_maintenance off). DESIGN.md §16.
  double maintenance_charged = 0.0;
};

/// COLT — Continuous On-Line Tuning (the paper's primary contribution).
///
/// Feed every query through OnQuery(); COLT clusters it, profiles candidate
/// indexes at two levels of detail under a self-regulated what-if budget,
/// and at each epoch boundary reorganizes the materialized index set within
/// the storage budget.
///
/// The tuner works against catalog statistics by default; pass a Database
/// to also build/drop physical B+-trees as the configuration evolves.
class ColtTuner {
 public:
  /// `catalog` and `optimizer` must outlive the tuner. `db` may be null.
  ColtTuner(Catalog* catalog, QueryOptimizer* optimizer, ColtConfig config,
            Database* db = nullptr, uint64_t seed = 7);

  ColtTuner(const ColtTuner&) = delete;
  ColtTuner& operator=(const ColtTuner&) = delete;

  /// Observes (and "executes") one query; returns everything needed for
  /// timeline accounting.
  COLT_OWNER_ONLY TuningStep OnQuery(const Query& q);

  const IndexConfiguration& materialized() const {
    return scheduler_.materialized();
  }
  const std::vector<IndexId>& hot_set() const { return hot_set_; }
  const std::vector<EpochReport>& epoch_reports() const {
    return epoch_reports_;
  }
  int current_epoch() const { return epoch_; }
  int whatif_limit() const { return whatif_limit_; }
  int whatif_used_this_epoch() const { return whatif_used_; }
  const ColtConfig& config() const { return config_; }
  /// Queries observed over the tuner's lifetime, surviving recovery; a
  /// resumed run continues the stream at offset queries_observed().
  int64_t queries_observed() const { return queries_observed_; }

  /// Storage budget currently in force (differs from the constructed
  /// config's budget after a `budget.shrink` fault).
  int64_t storage_budget_bytes() const {
    return config_.storage_budget_bytes;
  }
  /// The tuner's fault injector (disabled unless ColtConfig::fault was
  /// enabled) and the Scheduler, for chaos harness introspection.
  const FaultInjector& fault_injector() const { return faults_; }
  const Scheduler& scheduler() const { return scheduler_; }
  /// Lifetime robustness counters.
  int64_t degraded_whatif_total() const { return degraded_whatif_total_; }
  int64_t emergency_evictions_total() const {
    return emergency_evictions_total_;
  }

  /// Distinct indexes ever probed through the what-if interface (paper
  /// §6.2 reports COLT profiles ~11% of the relevant indexes).
  int64_t distinct_indexes_profiled() const {
    return static_cast<int64_t>(ever_probed_.size());
  }

  /// One row of ExplainState(): why an index is (not) materialized.
  struct IndexExplanation {
    IndexId index = kInvalidIndexId;
    std::string name;
    /// "materialized", "hot", or "candidate".
    std::string role;
    /// Smoothed crude BenefitC (per-query average, cost units).
    double crude_benefit = 0.0;
    /// Sum of PredBenefit over the next h epochs (cost units).
    double forecast_benefit = 0.0;
    /// Materialization cost still owed (0 when materialized).
    double mat_cost = 0.0;
    /// forecast_benefit - mat_cost: the KNAPSACK value.
    double net_benefit = 0.0;
    int64_t size_bytes = 0;
  };

  /// Snapshot of the Self-Organizer's view of every tracked index,
  /// ordered by net benefit. Diagnostic: explains the current
  /// configuration in the same terms §5 uses to choose it.
  std::vector<IndexExplanation> ExplainState();

  // ---- Crash-safe persistence (DESIGN.md §12) ----

  /// Recovers the tuner's state from ColtConfig::state_dir. Must be called
  /// before the first OnQuery on a freshly constructed tuner (whose
  /// catalog/config match the crashed run's). Returns true when a valid
  /// checkpoint was restored, false for a clean cold start — persistence
  /// disabled, no usable checkpoint on disk, or a checkpoint rejected by
  /// the config/catalog fingerprint guards (logged; the tuner is untouched
  /// in every false case). Errors mean the restore failed midway and the
  /// tuner must be discarded.
  Result<bool> RecoverFromStateDir();

  /// Serializes the complete tuning state; only meaningful at an epoch
  /// boundary (OnQuery checkpoints there automatically). Exposed for tests.
  COLT_OWNER_ONLY void SaveState(BinaryWriter* writer) const;
  /// Restores state saved by SaveState. Fails with kFailedPrecondition —
  /// before mutating anything — when the snapshot's config or catalog
  /// fingerprint differs from this tuner's, or when the tuner has already
  /// observed queries.
  COLT_OWNER_ONLY Status LoadState(BinaryReader* reader);

  /// Installs the crash hook invoked when an injected persist crash point
  /// fires (benches install _Exit to die for real). No-op when persistence
  /// is disabled.
  void set_persist_crash_hook(std::function<void()> hook);

  /// The checkpoint store, or null when persistence is disabled (exposed
  /// for tests that corrupt on-disk state on purpose).
  CheckpointStore* checkpoint_store() { return checkpoint_.get(); }

  /// The decision-provenance flight recorder (DESIGN.md §13), or null
  /// when ColtConfig::provenance_events == 0. Events are drained/exported
  /// by the harness; the recorder itself never alters tuning decisions.
  ProvenanceRecorder* provenance() { return provenance_.get(); }
  const ProvenanceRecorder* provenance() const { return provenance_.get(); }

  // White-box access for tests and diagnostics.
  ClusterManager& clusters() { return clusters_; }
  CandidateSet& candidates() { return candidates_; }
  Profiler& profiler() { return profiler_; }
  SelfOrganizer& self_organizer() { return self_organizer_; }
  BenefitForecaster& forecaster() { return forecaster_; }
  const WriteStatsStore& write_stats() const { return write_stats_; }

 private:
  /// Checks the `budget.shrink` fault site; on a shrink, drops the
  /// lowest-net-benefit materialized indexes until the configuration fits
  /// the new budget, appending the drop actions to `step`.
  void MaybeShrinkBudget(TuningStep* step);

  /// Serializes the full state and commits it to the checkpoint store.
  /// A commit failure is logged and counted, never fatal: the tuner keeps
  /// running and the previous checkpoint stays recoverable.
  void PersistEpochState();

  /// Fingerprint of every ColtConfig field that shapes tuning decisions
  /// (the fault plan and state_dir are excluded: a resumed run may
  /// legitimately drop the crash rules that killed its predecessor).
  uint64_t ConfigFingerprint() const;

  Catalog* catalog_;
  QueryOptimizer* optimizer_;
  /// Physical database, or null for statistics-only tuning. Write
  /// statements are physically applied through it (when the target table
  /// is materialized) in addition to being priced by the cost model.
  Database* db_;
  ColtConfig config_;
  FaultInjector faults_;
  /// Decision-provenance flight recorder (null when disabled or compiled
  /// out). Declared before the Profiler / Self-Organizer / Scheduler,
  /// which hold raw pointers into it.
  std::unique_ptr<ProvenanceRecorder> provenance_;

  ClusterManager clusters_;
  GainStatsStore hot_stats_;
  GainStatsStore mat_stats_;
  CandidateSet candidates_;
  BenefitForecaster forecaster_;
  /// Per-epoch write volumes (DESIGN.md §16). Declared before the
  /// Self-Organizer, which reads it at every epoch end.
  WriteStatsStore write_stats_;
  Profiler profiler_;
  SelfOrganizer self_organizer_;
  Scheduler scheduler_;

  /// Durable checkpoint store; null unless ColtConfig::state_dir is set.
  std::unique_ptr<CheckpointStore> checkpoint_;

  std::vector<IndexId> hot_set_;
  int epoch_ = 0;
  int queries_in_epoch_ = 0;
  int whatif_limit_ = 0;
  int whatif_used_ = 0;
  int64_t queries_observed_ = 0;
  std::vector<EpochReport> epoch_reports_;
  std::vector<IndexId> ever_probed_;

  // Per-epoch and lifetime robustness counters.
  int degraded_whatif_epoch_ = 0;
  int emergency_evictions_epoch_ = 0;
  int64_t build_failures_reported_ = 0;
  int64_t degraded_whatif_total_ = 0;
  int64_t emergency_evictions_total_ = 0;
  /// Scheduler wasted-build seconds already attributed to a past epoch.
  double wasted_build_reported_ = 0.0;
  /// Provenance events already attributed to a past epoch's report.
  int64_t provenance_reported_ = 0;

  struct Instruments {
    Counter* queries;
    Counter* epochs;
    Counter* emergency_evictions;
    Gauge* budget_utilization;
    Histogram* on_query_seconds;
  };
  Instruments metrics_;
};

}  // namespace colt

#endif  // COLT_CORE_COLT_H_
