#include "baseline/offline_tuner.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"

namespace colt {

Result<std::vector<IndexId>> OfflineTuner::MineRelevantIndexes(
    const std::vector<Query>& workload) {
  std::vector<ColumnRef> columns;
  for (const auto& q : workload) {
    for (const auto& s : q.selections()) columns.push_back(s.column);
    if (include_join_columns_) {
      for (const auto& j : q.joins()) {
        columns.push_back(j.left);
        columns.push_back(j.right);
      }
    }
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  std::vector<IndexId> out;
  for (const ColumnRef& col : columns) {
    COLT_ASSIGN_OR_RETURN(const IndexId id, catalog_->IndexIdOn(col));
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<OfflineResult> OfflineTuner::Tune(const std::vector<Query>& workload,
                                         int64_t budget_bytes) {
  OfflineResult result;
  COLT_ASSIGN_OR_RETURN(result.relevant_indexes,
                        MineRelevantIndexes(workload));
  const std::vector<IndexId>& relevant = result.relevant_indexes;
  const size_t n = relevant.size();

  // Base cost (empty configuration).
  IndexConfiguration empty;
  for (const auto& q : workload) {
    result.base_cost += optimizer_->Optimize(q, empty).cost;
  }
  if (n == 0) {
    result.total_cost = result.base_cost;
    result.configurations_evaluated = 1;
    return result;
  }

  std::vector<int64_t> sizes(n);
  for (size_t i = 0; i < n; ++i) {
    sizes[i] = catalog_->index(relevant[i]).size_bytes;
  }
  auto config_for_mask = [&](uint64_t mask) {
    IndexConfiguration config;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1ull << i)) config.Add(relevant[i]);
    }
    return config;
  };
  auto size_of_mask = [&](uint64_t mask) {
    int64_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1ull << i)) total += sizes[i];
    }
    return total;
  };

  if (static_cast<int>(n) > max_exhaustive_indexes_) {
    // Greedy forward selection fallback (non-exhaustive, flagged).
    result.exhaustive = false;
    IndexConfiguration config;
    int64_t used = 0;
    double best_cost = result.base_cost;
    bool improved = true;
    while (improved) {
      improved = false;
      IndexId best_id = kInvalidIndexId;
      double best_candidate_cost = best_cost;
      for (size_t i = 0; i < n; ++i) {
        if (config.Contains(relevant[i])) continue;
        if (used + sizes[i] > budget_bytes) continue;
        const IndexConfiguration candidate = config.With(relevant[i]);
        double cost = 0.0;
        for (const auto& q : workload) {
          cost += optimizer_->Optimize(q, candidate).cost;
        }
        ++result.configurations_evaluated;
        if (cost < best_candidate_cost) {
          best_candidate_cost = cost;
          best_id = relevant[i];
        }
      }
      if (best_id != kInvalidIndexId) {
        config.Add(best_id);
        used += catalog_->index(best_id).size_bytes;
        best_cost = best_candidate_cost;
        improved = true;
      }
    }
    result.configuration = config;
    result.total_cost = best_cost;
    return result;
  }

  // ---- Exhaustive sweep with per-query memoization. ----
  // A query's cost depends only on config ∩ relevant(q). Group queries by
  // their relevant mask; memoize each group's total cost per submask.
  struct Group {
    uint64_t relevant_mask = 0;
    std::vector<const Query*> queries;
    std::unordered_map<uint64_t, double> cost_by_submask;
  };
  std::unordered_map<uint64_t, Group> groups;
  auto index_pos = [&](IndexId id) -> int {
    const auto it = std::lower_bound(relevant.begin(), relevant.end(), id);
    return (it != relevant.end() && *it == id)
               ? static_cast<int>(it - relevant.begin())
               : -1;
  };
  IndexConfiguration all_config = config_for_mask((n == 64)
                                                      ? ~0ull
                                                      : (1ull << n) - 1);
  for (const auto& q : workload) {
    uint64_t mask = 0;
    for (IndexId id : optimizer_->RelevantIndexes(q, all_config)) {
      const int pos = index_pos(id);
      if (pos >= 0) mask |= 1ull << pos;
    }
    groups[mask].relevant_mask = mask;
    groups[mask].queries.push_back(&q);
  }
  auto group_cost = [&](Group& g, uint64_t config_mask) {
    const uint64_t submask = config_mask & g.relevant_mask;
    auto it = g.cost_by_submask.find(submask);
    if (it != g.cost_by_submask.end()) return it->second;
    const IndexConfiguration config = config_for_mask(submask);
    double total = 0.0;
    for (const Query* q : g.queries) {
      total += optimizer_->Optimize(*q, config).cost;
    }
    g.cost_by_submask.emplace(submask, total);
    return total;
  };

  const uint64_t full = (n == 64) ? ~0ull : (1ull << n) - 1;
  double best_cost = result.base_cost;
  uint64_t best_mask = 0;
  for (uint64_t mask = 0; mask <= full; ++mask) {
    if (size_of_mask(mask) > budget_bytes) continue;
    double total = 0.0;
    for (auto& entry : groups) {
      total += group_cost(entry.second, mask);
      if (total >= best_cost) break;  // early bail
    }
    ++result.configurations_evaluated;
    if (total < best_cost) {
      best_cost = total;
      best_mask = mask;
    }
  }
  result.configuration = config_for_mask(best_mask);
  result.total_cost = best_cost;
  return result;
}

}  // namespace colt
