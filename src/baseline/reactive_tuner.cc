#include "baseline/reactive_tuner.h"

#include <algorithm>

#include "common/logging.h"
#include "core/config.h"

namespace colt {

void ReactiveTuner::ExpireOldGains(CandidateState* state) const {
  const int64_t horizon = query_number_ - options_.gain_window_queries;
  auto& gains = state->gains;
  gains.erase(std::remove_if(gains.begin(), gains.end(),
                             [&](const std::pair<int64_t, double>& g) {
                               return g.first < horizon;
                             }),
              gains.end());
}

double ReactiveTuner::WindowGain(const CandidateState& state) const {
  double total = 0.0;
  for (const auto& entry : state.gains) total += entry.second;
  return total;
}

ReactiveStep ReactiveTuner::OnQuery(const Query& q) {
  ++query_number_;
  ReactiveStep step;
  const IndexConfiguration& materialized = scheduler_.materialized();
  step.plan = optimizer_->Optimize(q, materialized);
  step.execution_seconds = optimizer_->cost_model().ToSeconds(step.plan.cost);

  // Profile EVERY candidate implied by this query's selections, plus every
  // materialized index it could use — no budget, no sampling.
  std::vector<IndexId> probation;
  for (const auto& pred : q.selections()) {
    const Result<IndexId> id = catalog_->IndexIdOn(pred.column);
    if (id.ok()) probation.push_back(*id);
  }
  std::sort(probation.begin(), probation.end());
  probation.erase(std::unique(probation.begin(), probation.end()),
                  probation.end());
  if (!probation.empty()) {
    const auto gains = optimizer_->WhatIfOptimize(q, materialized, probation);
    step.whatif_calls = static_cast<int>(gains.size());
    total_whatif_calls_ += step.whatif_calls;
    step.profiling_seconds = step.whatif_calls * kWhatIfCallSeconds;
    for (const auto& g : gains) {
      CandidateState& state = candidates_[g.index];
      state.gains.emplace_back(query_number_, std::max(0.0, g.gain));
      if (g.gain > 0.0) state.last_useful_query = query_number_;
      ExpireOldGains(&state);
    }
  }

  // React immediately: materialize any candidate whose windowed gain has
  // exceeded its build cost, evicting stale indexes to make room.
  IndexConfiguration desired = materialized;
  for (auto& [id, state] : candidates_) {
    if (desired.Contains(id)) continue;
    ExpireOldGains(&state);
    const IndexDescriptor& desc = catalog_->index(id);
    const double mat_cost = optimizer_->cost_model().MaterializationCost(
        catalog_->table(desc.column.table), desc);
    if (WindowGain(state) <= mat_cost) continue;
    // Evict least-recently-useful indexes until it fits.
    int64_t used = 0;
    for (IndexId m : desired.ids()) used += catalog_->index(m).size_bytes;
    while (used + desc.size_bytes > options_.storage_budget_bytes &&
           !desired.empty()) {
      IndexId coldest = kInvalidIndexId;
      int64_t coldest_seen = INT64_MAX;
      for (IndexId m : desired.ids()) {
        const int64_t seen = candidates_[m].last_useful_query;
        if (seen < coldest_seen) {
          coldest_seen = seen;
          coldest = m;
        }
      }
      if (coldest == kInvalidIndexId) break;
      used -= catalog_->index(coldest).size_bytes;
      desired.Remove(coldest);
    }
    if (used + desc.size_bytes <= options_.storage_budget_bytes) {
      desired.Add(id);
    }
  }
  // Also drop indexes with no useful gain inside the window at all.
  for (IndexId m : materialized.ids()) {
    auto it = candidates_.find(m);
    if (it != candidates_.end() &&
        query_number_ - it->second.last_useful_query >
            options_.gain_window_queries) {
      desired.Remove(m);
    }
  }

  if (!(desired == materialized)) {
    Result<std::vector<IndexAction>> actions =
        scheduler_.ApplyConfiguration(desired);
    if (actions.ok()) {
      for (auto& action : *actions) {
        step.build_seconds += action.build_seconds;
        step.actions.push_back(action);
      }
    } else {
      // Keep serving queries under the previous configuration rather than
      // aborting the tuner on a substrate error.
      COLT_LOG(Error) << "ApplyConfiguration failed: "
                      << actions.status().ToString()
                      << "; keeping previous configuration";
    }
  }
  return step;
}

}  // namespace colt
