#include "core/self_organizer.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>

namespace colt {

namespace {

/// Chosen-set rendering for knapsack provenance events: comma-joined ids
/// in solution order (the solvers emit ids deterministically, so the
/// string is replay-stable).
std::string JoinIds(const std::vector<int64_t>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(ids[i]);
  }
  return out;
}

}  // namespace

SelfOrganizer::SelfOrganizer(Catalog* catalog, QueryOptimizer* optimizer,
                             ClusterManager* clusters,
                             GainStatsStore* hot_stats,
                             GainStatsStore* mat_stats,
                             CandidateSet* candidates,
                             BenefitForecaster* forecaster, Profiler* profiler,
                             const ColtConfig* config,
                             ProvenanceRecorder* provenance,
                             const WriteStatsStore* write_stats)
    : catalog_(catalog),
      optimizer_(optimizer),
      clusters_(clusters),
      hot_stats_(hot_stats),
      mat_stats_(mat_stats),
      candidates_(candidates),
      forecaster_(forecaster),
      profiler_(profiler),
      config_(config),
      provenance_(provenance),
      write_stats_(write_stats) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  metrics_.hot_churn = reg.GetCounter("self_organizer.hot_churn");
  metrics_.hot_set_size = reg.GetGauge("self_organizer.hot_set_size");
  metrics_.epoch_end_seconds =
      reg.GetHistogram("self_organizer.epoch_end.seconds");
  metrics_.knapsack_seconds =
      reg.GetHistogram("self_organizer.knapsack.seconds");
}

bool SelfOrganizer::RelevantToCluster(IndexId index, ClusterId cluster) const {
  const ColumnRef col = catalog_->index(index).column;
  const auto& cols = clusters_->RelevantColumns(cluster);
  return std::binary_search(cols.begin(), cols.end(), col);
}

double SelfOrganizer::MatCost(IndexId index) const {
  const IndexDescriptor& desc = catalog_->index(index);
  return optimizer_->cost_model().MaterializationCost(
      catalog_->table(desc.column.table), desc);
}

double SelfOrganizer::MaintenanceCharge(IndexId index) const {
  if (write_stats_ == nullptr || !config_->charge_index_maintenance) {
    return 0.0;
  }
  const IndexDescriptor& desc = catalog_->index(index);
  const double entries = write_stats_->EpochEntryOps(desc);
  if (entries <= 0.0) return 0.0;
  return optimizer_->cost_model().IndexMaintenanceCost(
      catalog_->table(desc.column.table), desc, entries);
}

double SelfOrganizer::EpochBenefit(IndexId index, bool is_materialized,
                                   const IndexConfiguration& materialized,
                                   const std::vector<ClusterId>& live) const {
  // Expected benefit per epoch under the S_h-window query distribution:
  // sum over relevant clusters of (expected occurrences per epoch) x
  // (conservative gain estimate). Using the window rate instead of the raw
  // single-epoch count removes the large population variance of 10-query
  // epochs that would otherwise dominate the forecast (see DESIGN.md).
  //
  // The distinction between hot and materialized indexes (§4.1) is carried
  // by the statistics themselves: materialized indexes are only ever probed
  // for queries whose plan used them, so clusters that do not use the index
  // have no consistent measurements and contribute zero.
  const GainStatsStore* store = is_materialized ? mat_stats_ : hot_stats_;
  const TableId table = catalog_->index(index).column.table;
  const uint64_t sig = TableConfigSignature(*catalog_, materialized, table);
  double total = 0.0;
  for (ClusterId cluster : live) {
    if (!RelevantToCluster(index, cluster)) continue;
    const ConfidenceInterval ci = store->Interval(index, cluster, sig);
    if (ci.low <= -kUnknownHalfWidth) continue;  // no consistent knowledge
    const double mean = (ci.low + ci.high) / 2.0;
    // The floor only kicks in once the pair has real support; with 2-3
    // samples the Student-t lower bound IS the paper's "strong evidence"
    // gate and flooring it would trigger materialization on noise.
    const int64_t n = store->MeasurementCount(index, cluster, sig);
    const double floor = n >= 4 ? kConservativeFloorFraction * mean : 0.0;
    const double estimate =
        config_->conservative_estimates
            ? std::max(0.0, std::max(ci.low, floor))
            : std::max(0.0, mean);
    total += estimate * clusters_->WindowRate(cluster);
  }
  return total;
}

double SelfOrganizer::OptimisticEpochBenefit(
    IndexId index, const IndexConfiguration& materialized,
    const std::vector<ClusterId>& live) const {
  const TableId table = catalog_->index(index).column.table;
  const uint64_t sig = TableConfigSignature(*catalog_, materialized, table);
  double total = 0.0;
  double unknown_population = 0.0;
  for (ClusterId cluster : live) {
    if (!RelevantToCluster(index, cluster)) continue;
    const double population = clusters_->WindowRate(cluster);
    const ConfidenceInterval ci = hot_stats_->Interval(index, cluster, sig);
    if (ci.high >= kUnknownHalfWidth) {
      unknown_population += population;
    } else {
      total += std::max(0.0, ci.high) * population;
    }
  }
  if (unknown_population > 0) {
    // Best-case estimate for never-profiled pairs: the crude (already
    // optimistic) candidate benefit, scaled to the unknown population.
    const double crude_per_query = candidates_->SmoothedBenefit(index);
    total += std::max(0.0, crude_per_query) *
             static_cast<double>(config_->epoch_length);
  }
  return total;
}

double SelfOrganizer::NetBenefit(IndexId index,
                                 const IndexConfiguration& materialized) const {
  const double gross = forecaster_->TotalPredictedBenefit(index);
  const double mat_cost = materialized.Contains(index) ? 0.0 : MatCost(index);
  return gross - mat_cost;
}

SelfOrganizer::Outcome SelfOrganizer::RunEpochEnd(
    const IndexConfiguration& materialized,
    const std::vector<IndexId>& hot_set,
    const std::vector<IndexId>& quarantined) {
  ScopedTimer timer(metrics_.epoch_end_seconds);
  Outcome outcome;
  const auto is_quarantined = [&](IndexId id) {
    return std::binary_search(quarantined.begin(), quarantined.end(), id);
  };
  const auto record_knapsack = [&](std::string_view kind,
                                   const std::vector<KnapsackItem>& pool_items,
                                   const KnapsackSolution& solution) {
    if (provenance_ == nullptr) return;
    int64_t chosen_bytes = 0;
    for (int64_t id : solution.chosen_ids) {
      chosen_bytes += catalog_->index(static_cast<IndexId>(id)).size_bytes;
    }
    const double budget = static_cast<double>(config_->storage_budget_bytes);
    provenance_->RecordEvent("self_organizer.knapsack")
        .Attr("kind", kind)
        .Attr("pool", static_cast<int64_t>(pool_items.size()))
        .Attr("budget", config_->storage_budget_bytes)
        .Attr("chosen", JoinIds(solution.chosen_ids))
        .Attr("value", solution.total_value)
        .Attr("utilization",
              budget > 0 ? static_cast<double>(chosen_bytes) / budget : 0.0);
  };

  // Nothing below changes the clustering, so one sorted list of the live
  // clusters serves every benefit estimate of this epoch end.
  const std::vector<ClusterId> live = clusters_->LiveClusters();

  // ---- 1. Fold the finished epoch's observations into the forecaster,
  // net of each index's maintenance charge (DESIGN.md §16). Negative net
  // observations are recorded as-is: an index whose upkeep exceeds its
  // benefit must see its forecast sink below the drop threshold. On
  // read-only epochs every charge is exactly 0 and this reduces to the
  // paper's benefit fold, bit for bit.
  const auto record_observation = [&](IndexId id, bool is_materialized) {
    const double benefit =
        EpochBenefit(id, is_materialized, materialized, live);
    const double charge = MaintenanceCharge(id);
    if (charge > 0.0) {
      outcome.maintenance_charged += charge;
      if (provenance_ != nullptr) {
        provenance_->RecordEvent("self_organizer.maintenance_charge")
            .Index(id)
            .Attr("benefit", benefit)
            .Attr("charge", charge)
            .Attr("materialized", is_materialized ? 1 : 0);
      }
    }
    forecaster_->RecordEpoch(id, benefit - charge);
  };
  for (IndexId id : materialized.ids()) record_observation(id, true);
  for (IndexId id : hot_set) {
    if (materialized.Contains(id)) continue;
    record_observation(id, false);
  }

  // ---- 2. Reorganization: KNAPSACK over H u M with NetBenefit values.
  std::vector<IndexId> pool = hot_set;
  for (IndexId id : materialized.ids()) pool.push_back(id);
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  // Quarantined indexes cannot be built, so spending budget on them would
  // waste capacity the knapsack could give to healthy indexes.
  pool.erase(std::remove_if(pool.begin(), pool.end(), is_quarantined),
             pool.end());

  std::vector<KnapsackItem> items;
  items.reserve(pool.size());
  for (IndexId id : pool) {
    KnapsackItem item;
    item.id = id;
    item.size = catalog_->index(id).size_bytes;
    item.value = NetBenefit(id, materialized);
    items.push_back(item);
  }
  ScopedTimer knapsack_timer(metrics_.knapsack_seconds);
  const KnapsackSolution current =
      config_->use_greedy_knapsack
          ? SolveKnapsackGreedy(items, config_->storage_budget_bytes)
          : SolveKnapsack(items, config_->storage_budget_bytes);
  knapsack_timer.Stop();
  for (int64_t id : current.chosen_ids) {
    outcome.new_materialized.Add(static_cast<IndexId>(id));
  }
  outcome.net_benefit_current = current.total_value;
  record_knapsack("reorg", items, current);
  if (provenance_ != nullptr) {
    // Schedule requests are the diff between the knapsack pick and the
    // current materialized set; net_benefit is the item's value at solve
    // time, i.e. the number the decision was actually made on.
    const auto item_value = [&](IndexId id) {
      for (const KnapsackItem& item : items) {
        if (item.id == static_cast<int64_t>(id)) return item.value;
      }
      return 0.0;
    };
    for (IndexId id : outcome.new_materialized.ids()) {
      if (materialized.Contains(id)) continue;
      provenance_->RecordEvent("self_organizer.schedule_install")
          .Index(id)
          .Attr("net_benefit", item_value(id));
    }
    for (IndexId id : materialized.ids()) {
      if (outcome.new_materialized.Contains(id)) continue;
      provenance_->RecordEvent("self_organizer.schedule_drop")
          .Index(id)
          .Attr("net_benefit", item_value(id));
    }
  }

  // ---- 3. New hot set: two-means over smoothed BenefitC of the remaining
  // candidates; the top cluster becomes H.
  std::vector<std::pair<double, IndexId>> scored;
  for (IndexId id : candidates_->All()) {
    if (outcome.new_materialized.Contains(id)) continue;
    if (is_quarantined(id)) continue;  // pointless to profile: unbuildable
    const double b = candidates_->SmoothedBenefit(id);
    if (b > 0.0) scored.emplace_back(b, id);
  }
  double split_threshold = 0.0;
  if (!scored.empty()) {
    std::vector<double> values;
    values.reserve(scored.size());
    for (const auto& entry : scored) values.push_back(entry.first);
    const TwoMeansSplit split = ComputeTwoMeansSplit(values);
    split_threshold = split.threshold;
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [v, id] : scored) {
      if (v < split.threshold) break;
      if (static_cast<int>(outcome.new_hot.size()) >=
          config_->max_hot_set_size) {
        break;
      }
      outcome.new_hot.push_back(id);
    }
    if (config_->fill_hot_by_density &&
        static_cast<int>(outcome.new_hot.size()) <
            config_->max_hot_set_size) {
      // Fill spare hot slots by benefit density (value per byte), so small
      // cheap indexes with modest absolute benefit still get profiled.
      std::vector<std::pair<double, IndexId>> by_density;
      for (const auto& [v, id] : scored) {
        if (std::find(outcome.new_hot.begin(), outcome.new_hot.end(), id) !=
            outcome.new_hot.end()) {
          continue;
        }
        const int64_t size = catalog_->index(id).size_bytes;
        by_density.emplace_back(
            v / static_cast<double>(std::max<int64_t>(1, size)), id);
      }
      std::sort(by_density.begin(), by_density.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      for (const auto& entry : by_density) {
        if (static_cast<int>(outcome.new_hot.size()) >=
            config_->max_hot_set_size) {
          break;
        }
        outcome.new_hot.push_back(entry.second);
      }
    }
    std::sort(outcome.new_hot.begin(), outcome.new_hot.end());
  }

  // Hot-set churn: indexes entering or leaving H this epoch (both sets
  // are sorted, so the two set differences run in one pass each).
  {
    std::vector<IndexId> old_sorted = hot_set;
    std::sort(old_sorted.begin(), old_sorted.end());
    std::vector<IndexId> entering;
    std::vector<IndexId> leaving;
    std::set_difference(outcome.new_hot.begin(), outcome.new_hot.end(),
                        old_sorted.begin(), old_sorted.end(),
                        std::back_inserter(entering));
    std::set_difference(old_sorted.begin(), old_sorted.end(),
                        outcome.new_hot.begin(), outcome.new_hot.end(),
                        std::back_inserter(leaving));
    const int64_t churn =
        static_cast<int64_t>(entering.size() + leaving.size());
    metrics_.hot_churn->Add(churn);
    metrics_.hot_set_size->Set(static_cast<double>(outcome.new_hot.size()));
    if (provenance_ != nullptr) {
      // `threshold` is the two-means split that gated this epoch's hot
      // picks (0 when no candidate scored, i.e. demote-only epochs).
      for (IndexId id : entering) {
        provenance_->RecordEvent("self_organizer.hot_promote")
            .Index(id)
            .Attr("benefit", candidates_->SmoothedBenefit(id))
            .Attr("threshold", split_threshold);
      }
      for (IndexId id : leaving) {
        provenance_->RecordEvent("self_organizer.hot_demote")
            .Index(id)
            .Attr("benefit", candidates_->SmoothedBenefit(id))
            .Attr("threshold", split_threshold);
      }
    }
  }

  // ---- 4. Re-budgeting: best-case scenario for the hot indexes.
  if (!config_->enable_rebudgeting) {
    outcome.next_whatif_limit = config_->max_whatif_per_epoch;
    outcome.rebudget_ratio = std::numeric_limits<double>::quiet_NaN();
    return outcome;
  }
  std::vector<KnapsackItem> optimistic_items;
  std::vector<IndexId> opt_pool = outcome.new_hot;
  for (IndexId id : outcome.new_materialized.ids()) opt_pool.push_back(id);
  std::sort(opt_pool.begin(), opt_pool.end());
  opt_pool.erase(std::unique(opt_pool.begin(), opt_pool.end()),
                 opt_pool.end());
  for (IndexId id : opt_pool) {
    KnapsackItem item;
    item.id = id;
    item.size = catalog_->index(id).size_bytes;
    if (outcome.new_materialized.Contains(id)) {
      // Metrics of materialized indexes are left untouched (§5).
      item.value = NetBenefit(id, materialized);
    } else {
      // Even the best case pays upkeep: the optimistic observation is net
      // of the same maintenance charge the pessimistic fold used, so a
      // write-hot epoch cannot inflate the rebudget ratio with benefits
      // the index could never keep.
      const double optimistic_latest =
          OptimisticEpochBenefit(id, materialized, live) -
          MaintenanceCharge(id);
      item.value =
          forecaster_->TotalPredictedBenefitWithLatest(id, optimistic_latest) -
          MatCost(id);
    }
    optimistic_items.push_back(item);
  }
  ScopedTimer opt_knapsack_timer(metrics_.knapsack_seconds);
  const KnapsackSolution best_case =
      config_->use_greedy_knapsack
          ? SolveKnapsackGreedy(optimistic_items,
                                config_->storage_budget_bytes)
          : SolveKnapsack(optimistic_items, config_->storage_budget_bytes);
  opt_knapsack_timer.Stop();
  outcome.net_benefit_optimistic = best_case.total_value;
  record_knapsack("optimistic", optimistic_items, best_case);

  double r;
  if (outcome.net_benefit_current <= 1e-9) {
    r = outcome.net_benefit_optimistic > 1e-9
            ? std::numeric_limits<double>::infinity()
            : 1.0;
  } else {
    r = outcome.net_benefit_optimistic / outcome.net_benefit_current;
  }
  r = std::max(r, 1.0);
  outcome.rebudget_ratio = r;
  if (r <= kRebudgetLow) {
    outcome.next_whatif_limit = 0;
  } else if (r >= kRebudgetHigh) {
    outcome.next_whatif_limit = config_->max_whatif_per_epoch;
  } else {
    const double f = (r - kRebudgetLow) / (kRebudgetHigh - kRebudgetLow);
    outcome.next_whatif_limit = static_cast<int>(
        std::ceil(f * config_->max_whatif_per_epoch));
  }
  // Fresh hot indexes carry no profiled evidence, so r cannot yet reflect
  // their potential: guarantee a minimal budget to gather it.
  bool fresh_hot = false;
  for (IndexId id : outcome.new_hot) {
    if (forecaster_->HistoryLength(id) == 0) fresh_hot = true;
  }
  if (fresh_hot) {
    outcome.next_whatif_limit =
        std::min(config_->max_whatif_per_epoch,
                 std::max(outcome.next_whatif_limit, kMinBudgetForFreshHot));
  }
  if (provenance_ != nullptr) {
    ProvenanceRecorder::EventBuilder event =
        provenance_->RecordEvent("self_organizer.rebudget");
    event.Attr("next_limit", static_cast<int64_t>(outcome.next_whatif_limit))
        .Attr("current", outcome.net_benefit_current)
        .Attr("optimistic", outcome.net_benefit_optimistic);
    // r is infinite when the current configuration has no net benefit but
    // the optimistic one does; infinities have no JSON rendering, so the
    // attr is simply absent then (the limit attr already tells the story).
    if (std::isfinite(outcome.rebudget_ratio)) {
      event.Attr("ratio", outcome.rebudget_ratio);
    }
  }
  return outcome;
}

}  // namespace colt
