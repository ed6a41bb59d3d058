#ifndef COLT_CORE_CONFIG_H_
#define COLT_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/fault_injector.h"

namespace colt {

/// Materialization scheduling strategies (paper §3):
///  (1) kImmediate — carry out requests immediately; the build cost is
///      charged to the timeline and the index is usable from the next
///      query. The paper's implementation choice.
///  (2) kIdleTime — queue builds and make progress only during system idle
///      time (the gaps between queries); nothing is charged to query
///      latency but indexes become available later.
/// (Strategy (3), piggy-backing on query intermediate results, is future
/// work in the paper and here.)
enum class SchedulingStrategy { kImmediate, kIdleTime };

// ---- Fixed tuning constants ----
// These hold for every run; ColtConfig below carries what a caller varies.

/// Smoothing factor for the across-epoch smoothing of crude BenefitC.
inline constexpr double kCrudeSmoothingAlpha = 0.4;
/// Floor for the adaptive sampling probability of a well-profiled pair.
inline constexpr double kMinSampleRate = 0.05;
/// Pairs with fewer than this many measurements always sample (rate 1).
inline constexpr int kMinMeasurementsForInterval = 2;

/// Re-budgeting threshold (§5): profiling is suspended when the
/// optimistic-to-current NetBenefit ratio r <= kRebudgetLow, maximized
/// (#WI_lim = #WI_max) when r >= kRebudgetHigh, and linear in between.
inline constexpr double kRebudgetLow = 1.0;
/// Upper re-budgeting threshold; see kRebudgetLow.
inline constexpr double kRebudgetHigh = 1.3;

/// Simulated wall-clock charge per what-if optimizer call, in seconds.
inline constexpr double kWhatIfCallSeconds = 0.02;

/// Minimum #WI_lim granted when the hot set contains indexes that have
/// never been profiled (re-budgeting needs at least some evidence about
/// fresh hot indexes before it can judge their potential).
inline constexpr int kMinBudgetForFreshHot = 5;
/// Minimum #WI_lim for the epoch right after the materialized set
/// changed. A configuration change invalidates the gain statistics of
/// every index on the affected tables (the consistency rule of §4.1);
/// without a re-validation budget those benefits would decay to zero and
/// good indexes would be dropped and expensively rebuilt.
inline constexpr int kMinBudgetAfterChange = 10;

/// Backoff before a failed build may be retried, in reorganization
/// rounds (one round = one epoch under COLT). Doubles after each
/// consecutive failure, capped at kMaxBuildBackoffRounds.
inline constexpr int kBuildBackoffBaseRounds = 1;
/// Cap on the doubled build backoff; see kBuildBackoffBaseRounds.
inline constexpr int kMaxBuildBackoffRounds = 8;

/// Floor for the conservative gain estimate as a fraction of the sample
/// mean. With 2-3 samples and high within-cluster variance the Student-t
/// lower bound collapses to 0, which (under a starved what-if budget)
/// makes genuinely useful indexes decay and get dropped; the floor keeps
/// the estimate conservative without letting it vanish entirely.
inline constexpr double kConservativeFloorFraction = 0.25;

/// Tuning parameters of the COLT framework. Defaults are the paper's
/// experimental settings (§6.1): w = 10, h = 12, #WI_max = 20, 90%
/// confidence intervals.
struct ColtConfig {
  /// Epoch length w: queries per profiling epoch.
  int epoch_length = 10;
  /// History depth h: epochs of system memory; also the forecast horizon.
  int history_depth = 12;
  /// #WI_max: hard cap on what-if calls per epoch.
  int max_whatif_per_epoch = 20;
  /// Confidence level for CLT-style gain intervals.
  double confidence = 0.90;
  /// On-line storage budget B in bytes for the materialized set.
  int64_t storage_budget_bytes = 512LL * 1024 * 1024;

  /// Upper bound on the size of the hot set (the two-means top cluster is
  /// truncated to this many indexes if larger).
  int max_hot_set_size = 10;

  /// Materialization scheduling (paper §3): immediate asynchronous builds
  /// (the paper's implementation) or builds progressed only during idle
  /// time between queries.
  SchedulingStrategy scheduling_strategy = SchedulingStrategy::kImmediate;
  /// Simulated idle seconds available between consecutive queries (used by
  /// the kIdleTime strategy only).
  double idle_seconds_per_query = 2.0;

  /// After the two-means top cluster is taken, fill the remaining hot
  /// slots with the best candidates by benefit *density* (BenefitC per
  /// byte). Without this, cheap small-table indexes — exactly the ones the
  /// KNAPSACK likes — can be starved forever by large-table candidates
  /// whose absolute benefit dominates the two-means split.
  bool fill_hot_by_density = true;

  /// Extension (the paper's stated future work): also mine two-column
  /// composite index candidates from queries with multiple selection
  /// predicates on one table. Statistics-only mode (physical builds of
  /// composite indexes are not implemented).
  bool mine_multicolumn_candidates = false;

  /// Extension (DESIGN.md §16): subtract each index's per-epoch maintenance
  /// cost — priced from the epoch's INSERT/UPDATE/DELETE volumes — from its
  /// observed benefit before the observation enters the forecaster. This is
  /// what lets COLT drop (or refuse to build) indexes on write-hot tables.
  /// When false, writes still execute and pay their own maintenance at the
  /// timeline, but index benefits ignore maintenance (the "maintenance-
  /// blind" ablation). No effect on read-only workloads either way.
  bool charge_index_maintenance = true;

  // ---- Robustness (DESIGN.md "Robustness & fault injection") ----
  /// Deterministic fault-injection plan for chaos experiments. Disabled by
  /// default: a disabled injector is never consulted, so fault-free runs
  /// are bit-identical to builds without the robustness layer.
  FaultConfig fault;
  /// Consecutive failed build attempts of one index before it is
  /// quarantined (excluded from Self-Organizer picks for a cooldown).
  int max_build_retries = 3;
  /// Rounds a quarantined index stays excluded before its failure history
  /// is forgotten and builds may be attempted again.
  int quarantine_cooldown_rounds = 24;
  /// Per-query deadline on what-if profiling time, in seconds; 0 disables.
  /// Calls that would push a query's profiling time past the deadline are
  /// not issued — the Profiler degrades them to the crude level-1
  /// estimate instead (counted in EpochReport::degraded_whatif).
  double whatif_deadline_seconds = 0.0;

  // ---- Ablation switches (not in the paper; default = paper behavior) ----
  /// When false, #WI_lim is pinned to max_whatif_per_epoch (no
  /// self-regulation).
  bool enable_rebudgeting = true;
  /// When false, every relevant pair is sampled with a fixed uniform
  /// probability instead of the error-contribution heuristic.
  bool enable_adaptive_sampling = true;
  /// Fixed rate used when adaptive sampling is disabled.
  double uniform_sample_rate = 0.5;
  /// When false, unprofiled queries use the interval midpoint (mean)
  /// instead of the conservative lower bound.
  bool conservative_estimates = true;
  /// When true, reorganization uses the greedy value-density heuristic
  /// instead of the KNAPSACK DP.
  bool use_greedy_knapsack = false;

  // ---- Crash-safe persistence (DESIGN.md §12) ----
  /// State directory for checkpoint/WAL persistence of the tuner's
  /// statistical state. Empty (the default) disables persistence entirely:
  /// no files are touched and tuning output is bit-identical to builds
  /// without the persistence layer. When set, the tuner commits a durable
  /// checkpoint at every epoch boundary and RecoverFromStateDir() resumes
  /// from the newest valid one after a crash.
  std::string state_dir;

  // ---- Observability ----
  /// When true (and MetricsRegistry::Default() is enabled), each
  /// EpochReport carries a full metrics snapshot taken at the epoch
  /// boundary. Off by default: a registry snapshot is orders of magnitude
  /// more expensive than the always-on counters/timers, so per-epoch
  /// snapshots are an explicitly requested diagnostic.
  bool epoch_metrics_snapshot = false;
  /// Ring capacity (in events) of the decision-provenance flight recorder
  /// (DESIGN.md §13). 0 (the default) disables it entirely: no recorder
  /// is constructed and every emission site reduces to a null test, so
  /// tuning output is bit-identical with provenance on or off. When
  /// positive, the tuner records a typed event for every consequential
  /// decision (promotions, knapsack solves, what-if estimates,
  /// install/drop/quarantine, emergency evictions), drainable as JSONL
  /// via ColtRunResult::provenance.
  int64_t provenance_events = 0;
};

}  // namespace colt

#endif  // COLT_CORE_CONFIG_H_
