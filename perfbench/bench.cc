#include "bench.h"

#include <algorithm>
#include <cstdio>

#include "baseline/offline_tuner.h"
#include "common/metrics.h"
#include "core/knapsack.h"
#include "harness/experiment.h"

namespace perfbench {

std::string Digest::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "sim_total_s=%.17g index_actions=%lld epochs=%lld "
                "output_rows=%lld pages=%lld",
                sim_total_s, static_cast<long long>(index_actions),
                static_cast<long long>(epochs),
                static_cast<long long>(output_rows),
                static_cast<long long>(pages));
  return buf;
}

int64_t MineBudget(colt::Catalog* catalog,
                   const std::vector<colt::QueryDistribution>& dists) {
  colt::QueryOptimizer probe(catalog);
  colt::OfflineTuner miner(catalog, &probe);
  colt::WorkloadGenerator gen(catalog, /*seed=*/1234);
  std::vector<colt::Query> sample;
  for (const auto& d : dists) {
    for (int i = 0; i < 200; ++i) {
      colt::Query q = gen.Sample(d);
      // The miner reasons about SELECT plans (as in fig_htap).
      if (!q.is_write()) sample.push_back(std::move(q));
    }
  }
  colt::Result<std::vector<colt::IndexId>> relevant =
      miner.MineRelevantIndexes(sample);
  if (!relevant.ok()) {
    std::fprintf(stderr, "budget mining failed: %s\n",
                 relevant.status().ToString().c_str());
    return 0;
  }
  return colt::BudgetForIndexes(*catalog, *relevant, 4.0);
}

std::vector<colt::Query> ShiftingTrace(
    const colt::Catalog& catalog,
    const std::vector<colt::QueryDistribution>& dists, int cycles,
    uint64_t seed) {
  std::vector<colt::WorkloadPhase> phases;
  for (int c = 0; c < cycles; ++c) {
    for (const auto& d : dists) phases.push_back({d, 300});
  }
  colt::WorkloadGenerator gen(&catalog, seed);
  return colt::GeneratePhasedWorkload(gen, phases, /*transition_length=*/50);
}

void TunerLayer::Add(const colt::Query& q, const colt::TuningStep& step,
                     double seconds) {
  all_.push_back(seconds);
  (step.epoch_ended ? epoch_end_ : steady_).push_back(seconds);
  (q.is_write() ? write_ : read_).push_back(seconds);
  bool built = false;
  for (const colt::IndexAction& action : step.actions) {
    if (action.type == colt::IndexActionType::kMaterialize) {
      ++builds_;
      built = true;
    }
  }
  if (built) build_query_s_ += seconds;
  actions_ += static_cast<int64_t>(step.actions.size());
  whatif_calls_ += step.whatif_calls;
}

void TunerLayer::Report(const colt::ColtTuner& tuner, Round* out) {
  double total = 0.0;
  double epoch_end = 0.0;
  for (double s : all_) total += s;
  for (double s : epoch_end_) epoch_end += s;
  out->samples["core.on_query"] = std::move(all_);
  out->samples["core.on_query_steady"] = std::move(steady_);
  out->samples["core.on_query_epoch_end"] = std::move(epoch_end_);
  out->samples["core.on_query_read"] = std::move(read_);
  out->samples["core.on_query_write"] = std::move(write_);
  const double queries =
      static_cast<double>(out->samples["core.on_query"].size());
  out->values["core.epoch_end_share"] = total > 0.0 ? epoch_end / total : 0.0;
  out->values["core.whatif_calls_per_query"] =
      queries > 0.0 ? static_cast<double>(whatif_calls_) / queries : 0.0;
  out->values["core.index_actions"] = static_cast<double>(actions_);
  out->values["core.build_query_s"] = build_query_s_;
  out->values["index.builds"] = static_cast<double>(builds_);
  double charged = 0.0;
  for (const colt::EpochReport& e : tuner.epoch_reports()) {
    charged += e.maintenance_charged;
  }
  out->values["core.maintenance_charged"] = charged;
}

void AddStep(const colt::TuningStep& step, Digest* digest) {
  digest->sim_total_s += step.execution_seconds + step.profiling_seconds +
                         step.build_seconds + step.wasted_build_seconds;
  digest->index_actions += static_cast<int64_t>(step.actions.size());
}

void AddRead(const colt::ExecutionResult& r, Digest* digest, Round* out) {
  const int64_t pages =
      r.pages_seq + r.pages_random + r.pages_bitmap + r.pages_index;
  digest->output_rows += r.output_rows;
  digest->pages += pages;
  out->values["exec.reads"] += 1.0;
  if (r.pages_seq > 0) out->values["exec.seqscan_reads"] += 1.0;
}

void CheckBuiltIndexes(const colt::Database& db, Round* out) {
  for (colt::IndexId id : db.BuiltIndexIds()) {
    const colt::BTreeIndex& tree = db.index(id);
    const colt::IndexDescriptor& desc = db.catalog().index(id);
    const int64_t live = db.data(desc.column.table).live_row_count();
    out->CheckThat(tree.entry_count() == live,
                   "index " + desc.name + " has " +
                       std::to_string(tree.entry_count()) +
                       " entries for " + std::to_string(live) + " live rows");
    const colt::Status st = tree.CheckInvariants();
    out->CheckThat(st.ok(), "index " + desc.name + " fails CheckInvariants: " +
                                st.ToString());
  }
}

void KnapsackProbe(const colt::Catalog& catalog, colt::ColtTuner* tuner,
                   SpanRecorder* spans, int64_t trace_index, Round* out) {
  ScopedSpan probe(spans, "bench.knapsack_probe", trace_index);
  const colt::IndexConfiguration& materialized = tuner->materialized();
  std::vector<colt::IndexId> pool = tuner->hot_set();
  for (colt::IndexId id : materialized.ids()) pool.push_back(id);
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::vector<colt::KnapsackItem> items;
  items.reserve(pool.size());
  for (colt::IndexId id : pool) {
    colt::KnapsackItem item;
    item.id = id;
    item.size = catalog.index(id).size_bytes;
    item.value = tuner->self_organizer().NetBenefit(id, materialized);
    items.push_back(item);
  }
  const int64_t capacity = tuner->storage_budget_bytes();
  colt::KnapsackSolution solution;
  out->samples["core.knapsack"].push_back(
      Timed(spans, "core.knapsack", trace_index,
            [&] { solution = colt::SolveKnapsack(items, capacity); }));
}

void TakeCacheHitRatio(Round* out) {
  colt::MetricsRegistry& reg = colt::MetricsRegistry::Default();
  const double hits = static_cast<double>(
      reg.GetCounter("optimizer.whatif_cache.hits")->value());
  const double misses = static_cast<double>(
      reg.GetCounter("optimizer.whatif_cache.misses")->value());
  const double shortcircuit = static_cast<double>(
      reg.GetCounter("profiler.whatif_cache.shortcircuit_hits")->value());
  const double lookups = hits + misses + shortcircuit;
  out->values["optimizer.whatif_cache_hit_ratio"] =
      lookups > 0.0 ? (hits + shortcircuit) / lookups : 0.0;
  out->values["optimizer.whatif_cache_lookups"] = lookups;
  reg.Reset();
}

}  // namespace perfbench
