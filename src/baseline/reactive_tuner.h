#ifndef COLT_BASELINE_REACTIVE_TUNER_H_
#define COLT_BASELINE_REACTIVE_TUNER_H_

#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "core/scheduler.h"
#include "optimizer/optimizer.h"
#include "query/query.h"

namespace colt {

/// What a reactive step did / cost.
struct ReactiveStep {
  PlanResult plan;
  double execution_seconds = 0.0;
  double profiling_seconds = 0.0;
  double build_seconds = 0.0;
  int whatif_calls = 0;
  std::vector<IndexAction> actions;
};

/// REACTIVE — an unregulated on-line tuner in the mold of the prior work
/// the paper positions against (QUIET, Hammer & Chan): it profiles *every*
/// relevant candidate of *every* query through the what-if interface,
/// materializes an index as soon as its accumulated measured gain exceeds
/// its materialization cost, and evicts the least-recently-beneficial index
/// when over budget. There is no budget on what-if calls, no clustering or
/// sampling, no forecasting and no self-regulation — exactly the
/// "operates with the same intensity [...] not straightforward to control
/// the number of what-if calls" behaviour §1 describes.
class ReactiveTuner {
 public:
  struct Options {
    int64_t storage_budget_bytes = 512LL * 1024 * 1024;
    /// Gains older than this many queries decay away (sliding window), so
    /// the tuner eventually drops indexes the workload abandoned.
    int gain_window_queries = 120;
  };

  ReactiveTuner(Catalog* catalog, QueryOptimizer* optimizer, Options options)
      : catalog_(catalog),
        optimizer_(optimizer),
        options_(options),
        scheduler_(catalog, &optimizer->cost_model(), nullptr) {}

  /// Observes one query: plans it, what-ifs every relevant candidate, and
  /// reacts immediately if any candidate has paid for itself.
  ReactiveStep OnQuery(const Query& q);

  const IndexConfiguration& materialized() const {
    return scheduler_.materialized();
  }
  int64_t total_whatif_calls() const { return total_whatif_calls_; }

 private:
  struct CandidateState {
    /// (query number, measured gain) pairs within the window.
    std::vector<std::pair<int64_t, double>> gains;
    int64_t last_useful_query = 0;
  };

  void ExpireOldGains(CandidateState* state) const;
  double WindowGain(const CandidateState& state) const;

  Catalog* catalog_;
  QueryOptimizer* optimizer_;
  Options options_;
  Scheduler scheduler_;
  std::unordered_map<IndexId, CandidateState> candidates_;
  int64_t query_number_ = 0;
  int64_t total_whatif_calls_ = 0;
};

}  // namespace colt

#endif  // COLT_BASELINE_REACTIVE_TUNER_H_
