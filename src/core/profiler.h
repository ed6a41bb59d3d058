#ifndef COLT_CORE_PROFILER_H_
#define COLT_CORE_PROFILER_H_

#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/persist/serializer.h"
#include "common/provenance.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "core/candidates.h"
#include "core/clustering.h"
#include "core/config.h"
#include "core/gain_stats.h"
#include "optimizer/optimizer.h"

namespace colt {

/// Signature of the materialized indexes of `config` that live on `table`;
/// the Profiler's consistency tag for gain measurements (paper §4.1: "a
/// past measurement for a hot index is consistent if the relevant indices
/// on the same table have not changed in M").
uint64_t TableConfigSignature(const Catalog& catalog,
                              const IndexConfiguration& config, TableId table);

/// The Profiler (paper §4): gathers two-level performance statistics per
/// query. Level 1 — crude BenefitC for every candidate; level 2 — what-if
/// measured gains with confidence intervals for hot and materialized
/// indexes, under the per-epoch what-if budget, with adaptive sampling
/// proportional to each pair's error contribution.
class Profiler {
 public:
  /// `faults` may be null (no fault injection); it must outlive the
  /// profiler. `provenance` may be null (no decision recording); gain
  /// estimates are emitted in probe order (DESIGN.md §13).
  Profiler(Catalog* catalog, QueryOptimizer* optimizer,
           ClusterManager* clusters, GainStatsStore* hot_stats,
           GainStatsStore* mat_stats, CandidateSet* candidates,
           const ColtConfig* config, uint64_t seed,
           FaultInjector* faults = nullptr,
           ProvenanceRecorder* provenance = nullptr);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  struct ProfileOutcome {
    ClusterId cluster = kInvalidClusterId;
    /// Indexes probed for this query — through the what-if interface, or
    /// (under faults/deadline pressure) via the degraded crude path.
    std::vector<IndexId> probed;
    /// What-if calls issued (and charged), including ones that failed.
    int whatif_calls = 0;
    /// Probation entries that fell back to the crude level-1 estimate
    /// because the what-if call failed or the per-query deadline was hit.
    int degraded_calls = 0;
    /// Simulated profiling time for this query (reflects `*.slow` latency
    /// faults; equals whatif_calls * kWhatIfCallSeconds without them).
    double charged_seconds = 0.0;
  };

  /// One invocation per query (paper Fig. 2). `plan` is the query's normal
  /// optimized plan under `materialized`; `whatif_used` is the epoch's
  /// running what-if counter (#WI_cur), updated in place against
  /// `whatif_limit` (#WI_lim).
  COLT_OWNER_ONLY ProfileOutcome ProfileQuery(
      const Query& q, const PlanResult& plan,
      const IndexConfiguration& materialized,
      const std::vector<IndexId>& hot_set, int whatif_limit,
      int* whatif_used, int current_epoch);

  /// Queries of the in-progress epoch, per cluster, in which a given
  /// materialized index was used by the normal plan (drives BenefitM).
  int64_t EpochUsageCount(IndexId index, ClusterId cluster) const;

  /// Clears per-epoch usage counts.
  COLT_OWNER_ONLY void AdvanceEpoch();

  /// The adaptive sampling probability for pair (index, cluster) given the
  /// largest error contribution among this query's competing pairs
  /// (exposed for testing).
  double SampleRate(IndexId index, ClusterId cluster,
                    const IndexConfiguration& materialized,
                    double max_error) const;

  /// Error contribution of a pair: Count(Q_i) * sqrt(Var / n); the paper's
  /// allocation heuristic weights pairs by this quantity. Unmeasured pairs
  /// return +infinity (always sampled).
  double ErrorContribution(IndexId index, ClusterId cluster,
                           const IndexConfiguration& materialized) const;

  /// Crash-safe persistence of the sampling RNG stream. Must be called at
  /// an epoch boundary (after AdvanceEpoch): per-epoch usage counts are
  /// empty there by construction and are not serialized.
  void SaveState(BinaryWriter* writer) const;
  Status LoadState(BinaryReader* reader);

 private:
  /// Degraded (level-1) fallback for a probation index whose what-if call
  /// failed or was skipped: records the crude standard-formula gain into
  /// the interval statistics so the benefit is estimated coarsely instead
  /// of silently zeroed.
  void RecordCrudeFallback(const Query& q, IndexId index, ClusterId cluster,
                           const IndexConfiguration& materialized);

  Catalog* catalog_;
  QueryOptimizer* optimizer_;
  ClusterManager* clusters_;
  GainStatsStore* hot_stats_;
  GainStatsStore* mat_stats_;
  CandidateSet* candidates_;
  const ColtConfig* config_;
  Rng rng_;
  FaultInjector* faults_;
  ProvenanceRecorder* provenance_;

  struct PairKey {
    IndexId index;
    ClusterId cluster;
    bool operator==(const PairKey&) const = default;
  };
  struct PairKeyHash {
    size_t operator()(const PairKey& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.index) << 32) ^
                                   static_cast<uint32_t>(k.cluster));
    }
  };
  std::unordered_map<PairKey, int64_t, PairKeyHash> epoch_usage_;

  struct Instruments {
    Counter* whatif_issued;
    Counter* degraded_fault;
    Counter* degraded_deadline;
    Counter* level1_records;
    Counter* level2_records;
    Histogram* profile_seconds;
  };
  Instruments metrics_;
};

}  // namespace colt

#endif  // COLT_CORE_PROFILER_H_
