#ifndef COLT_CORE_SELF_ORGANIZER_H_
#define COLT_CORE_SELF_ORGANIZER_H_

#include <vector>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/provenance.h"
#include "core/candidates.h"
#include "core/clustering.h"
#include "core/config.h"
#include "core/forecasting.h"
#include "core/gain_stats.h"
#include "core/knapsack.h"
#include "core/profiler.h"
#include "core/write_stats.h"
#include "optimizer/optimizer.h"

namespace colt {

/// The Self-Organizer (paper §5). Invoked at the end of each epoch, it
/// (a) reorganizes — picks the new materialized set by solving KNAPSACK
/// over NetBenefit predictions and selects the next hot set by two-means
/// clustering of smoothed crude benefits — and (b) re-budgets — sets the
/// next epoch's what-if budget #WI_lim from the ratio between the
/// best-case (optimistic) and current configurations.
class SelfOrganizer {
 public:
  /// `provenance` may be null (no decision recording). When given, every
  /// epoch-end decision — knapsack solves, hot-set promotions/demotions,
  /// schedule requests, re-budgeting — emits a typed event (DESIGN.md §13).
  /// `write_stats` may be null (read-only tuner: no maintenance charging).
  SelfOrganizer(Catalog* catalog, QueryOptimizer* optimizer,
                ClusterManager* clusters, GainStatsStore* hot_stats,
                GainStatsStore* mat_stats, CandidateSet* candidates,
                BenefitForecaster* forecaster, Profiler* profiler,
                const ColtConfig* config,
                ProvenanceRecorder* provenance = nullptr,
                const WriteStatsStore* write_stats = nullptr);

  struct Outcome {
    IndexConfiguration new_materialized;
    std::vector<IndexId> new_hot;
    int next_whatif_limit = 0;
    /// r = NetBenefit(M') / NetBenefit(M) (>= 1; clamped for reporting).
    double rebudget_ratio = 1.0;
    double net_benefit_current = 0.0;
    double net_benefit_optimistic = 0.0;
    /// Total maintenance charge subtracted from observed benefits this
    /// epoch, across all charged indexes (0 on read-only epochs or with
    /// charging disabled). Cost units; feeds the per-epoch CSVs.
    double maintenance_charged = 0.0;
  };

  /// Runs reorganization + re-budgeting for the epoch that just finished.
  /// `quarantined` (sorted ascending) lists indexes the Scheduler refuses
  /// to build; they are excluded from both the knapsack pool and the new
  /// hot set until their cooldown elapses.
  Outcome RunEpochEnd(const IndexConfiguration& materialized,
                      const std::vector<IndexId>& hot_set,
                      const std::vector<IndexId>& quarantined = {});

  /// Observed benefit of `index` over the finished epoch (total cost-unit
  /// savings across the epoch's queries), from profiled gains plus
  /// conservative interval bounds for unprofiled queries, summed over
  /// `live` (ClusterManager::LiveClusters(), which RunEpochEnd takes once
  /// for all of its calls). Exposed for tests.
  double EpochBenefit(IndexId index, bool is_materialized,
                      const IndexConfiguration& materialized,
                      const std::vector<ClusterId>& live) const;

  /// Optimistic (interval-upper-bound) epoch benefit for a hot index over
  /// `live`; unknown pairs fall back to the crude candidate estimate.
  double OptimisticEpochBenefit(IndexId index,
                                const IndexConfiguration& materialized,
                                const std::vector<ClusterId>& live) const;

  /// NetBenefit(I) = sum_j PredBenefit_j(I) - MatCost(I) (MatCost = 0 when
  /// already materialized).
  double NetBenefit(IndexId index,
                    const IndexConfiguration& materialized) const;

  /// Materialization cost of `index` in cost units.
  double MatCost(IndexId index) const;

  /// Maintenance cost `index` would have paid over the finished epoch,
  /// priced from the epoch's recorded write volumes (DESIGN.md §16).
  /// Charged whether or not the index is materialized — a hot (hypothetical)
  /// index on a write-hot table must prove it earns more than its upkeep
  /// before the knapsack is allowed to want it. Zero when charging is
  /// disabled, no write statistics are attached, or the epoch wrote nothing
  /// that touches the index.
  double MaintenanceCharge(IndexId index) const;

 private:
  /// True if `index` is relevant to `cluster` (its column is a selection
  /// or join column of the cluster's signature).
  bool RelevantToCluster(IndexId index, ClusterId cluster) const;

  Catalog* catalog_;
  QueryOptimizer* optimizer_;
  ClusterManager* clusters_;
  GainStatsStore* hot_stats_;
  GainStatsStore* mat_stats_;
  CandidateSet* candidates_;
  BenefitForecaster* forecaster_;
  Profiler* profiler_;
  const ColtConfig* config_;
  ProvenanceRecorder* provenance_;
  const WriteStatsStore* write_stats_;

  struct Instruments {
    Counter* hot_churn;
    Gauge* hot_set_size;
    Histogram* epoch_end_seconds;
    Histogram* knapsack_seconds;
  };
  Instruments metrics_;
};

}  // namespace colt

#endif  // COLT_CORE_SELF_ORGANIZER_H_
