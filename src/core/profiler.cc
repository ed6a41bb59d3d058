#include "core/profiler.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace colt {

uint64_t TableConfigSignature(const Catalog& catalog,
                              const IndexConfiguration& config,
                              TableId table) {
  uint64_t h = 1469598103934665603ULL;
  for (IndexId id : config.ids()) {
    if (catalog.index(id).column.table != table) continue;
    h ^= static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
    h *= 1099511628211ULL;
  }
  return h;
}

Profiler::Profiler(Catalog* catalog, QueryOptimizer* optimizer,
                   ClusterManager* clusters, GainStatsStore* hot_stats,
                   GainStatsStore* mat_stats, CandidateSet* candidates,
                   const ColtConfig* config, uint64_t seed,
                   FaultInjector* faults, ProvenanceRecorder* provenance)
    : catalog_(catalog),
      optimizer_(optimizer),
      clusters_(clusters),
      hot_stats_(hot_stats),
      mat_stats_(mat_stats),
      candidates_(candidates),
      config_(config),
      rng_(seed),
      faults_(faults),
      provenance_(provenance) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  metrics_.whatif_issued = reg.GetCounter("profiler.whatif.issued");
  metrics_.degraded_fault = reg.GetCounter("profiler.degraded.fault");
  metrics_.degraded_deadline = reg.GetCounter("profiler.degraded.deadline");
  metrics_.level1_records = reg.GetCounter("profiler.level1.records");
  metrics_.level2_records = reg.GetCounter("profiler.level2.records");
  metrics_.profile_seconds = reg.GetHistogram("profiler.profile.seconds");
}

void Profiler::RecordCrudeFallback(const Query& q, IndexId index,
                                   ClusterId cluster,
                                   const IndexConfiguration& materialized) {
  const IndexDescriptor& desc = catalog_->index(index);
  double crude = 0.0;
  bool have_predicate = false;
  for (const auto& pred : q.selections()) {
    if (pred.column == desc.column) {
      crude = std::max(crude, optimizer_->CrudeGain(pred, desc));
      have_predicate = true;
    }
  }
  if (!have_predicate) {
    // Materialized index probed through plan usage with no matching
    // selection (e.g. join support): fall back to its smoothed crude
    // benefit so the record is coarse but non-zero.
    crude = std::max(0.0, candidates_->SmoothedBenefit(index));
  }
  const TableId table = desc.column.table;
  const uint64_t sig = TableConfigSignature(*catalog_, materialized, table);
  GainStatsStore* store =
      materialized.Contains(index) ? mat_stats_ : hot_stats_;
  store->Record(index, cluster, std::max(0.0, crude), sig);
  if (provenance_ != nullptr) {
    provenance_->RecordEvent("profiler.whatif_estimate")
        .Index(index)
        .Cluster(cluster)
        .Attr("gain", crude)
        .Attr("src", "degraded_crude");
  }
}

double Profiler::ErrorContribution(IndexId index, ClusterId cluster,
                                   const IndexConfiguration& materialized) const {
  const TableId table = catalog_->index(index).column.table;
  const uint64_t sig = TableConfigSignature(*catalog_, materialized, table);
  const GainStatsStore* store =
      materialized.Contains(index) ? mat_stats_ : hot_stats_;
  const int64_t n = store->MeasurementCount(index, cluster, sig);
  if (n < kMinMeasurementsForInterval) {
    return std::numeric_limits<double>::infinity();
  }
  const double var = store->Variance(index, cluster, sig);
  const double count = static_cast<double>(clusters_->Count(cluster));
  return count * std::sqrt(var / static_cast<double>(n));
}

double Profiler::SampleRate(IndexId index, ClusterId cluster,
                            const IndexConfiguration& materialized,
                            double max_error) const {
  if (!config_->enable_adaptive_sampling) {
    return config_->uniform_sample_rate;
  }
  const double e = ErrorContribution(index, cluster, materialized);
  if (std::isinf(e)) return 1.0;  // unmeasured: top priority
  if (max_error <= 0.0 || std::isinf(max_error)) {
    // All competing pairs are unmeasured or error-free; keep a floor so a
    // measured pair still refreshes occasionally.
    return e > 0.0 ? 1.0 : kMinSampleRate;
  }
  return std::clamp(e / max_error, kMinSampleRate, 1.0);
}

Profiler::ProfileOutcome Profiler::ProfileQuery(
    const Query& q, const PlanResult& plan,
    const IndexConfiguration& materialized,
    const std::vector<IndexId>& hot_set, int whatif_limit, int* whatif_used,
    int current_epoch) {
  ScopedTimer timer(metrics_.profile_seconds);
  ProfileOutcome outcome;
  // 1. Cluster assignment (efficient, on-line).
  outcome.cluster = clusters_->Assign(q);
  const ClusterId cluster = outcome.cluster;

  // 2. I_M: materialized indexes used in the normal plan.
  std::vector<IndexId> used = plan.UsedIndexes();
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  std::vector<IndexId> im;
  for (IndexId id : used) {
    if (materialized.Contains(id)) {
      im.push_back(id);
      ++epoch_usage_[PairKey{id, cluster}];
    }
  }

  // 3. I_H: hot indexes relevant to this query's cluster.
  const auto& relevant_cols = clusters_->RelevantColumns(cluster);
  std::vector<IndexId> ih;
  for (IndexId id : hot_set) {
    const ColumnRef col = catalog_->index(id).column;
    if (std::binary_search(relevant_cols.begin(), relevant_cols.end(), col)) {
      ih.push_back(id);
    }
  }

  // 4. Form the probation set P: materialized first (they take precedence
  // in spending the budget), then hot, each group randomly permuted;
  // include an index with its adaptive sampling probability while
  // #WI_cur + |P| < #WI_lim.
  auto shuffle = [this](std::vector<IndexId>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng_.NextBelow(i)]);
    }
  };
  shuffle(im);
  shuffle(ih);

  // Max error contribution across competing pairs normalizes the rates.
  double max_error = 0.0;
  for (const auto& group : {im, ih}) {
    for (IndexId id : group) {
      const double e = ErrorContribution(id, cluster, materialized);
      if (!std::isinf(e)) max_error = std::max(max_error, e);
    }
  }

  std::vector<IndexId> probation;
  auto consider = [&](IndexId id) {
    if (*whatif_used + static_cast<int>(probation.size()) >= whatif_limit) {
      return;
    }
    const double rate = SampleRate(id, cluster, materialized, max_error);
    if (rng_.NextBool(rate)) probation.push_back(id);
  };
  for (IndexId id : im) consider(id);
  for (IndexId id : ih) consider(id);

  // 5-6. Call the what-if optimizer and update interval statistics.
  // Under fault injection or a per-query deadline, individual probation
  // entries can degrade to the crude level-1 estimate: a failed call still
  // consumed its (possibly inflated) time and budget, a deadline-skipped
  // call consumed neither.
  if (!probation.empty()) {
    const bool faulty = faults_ != nullptr && faults_->enabled();
    const double deadline = config_->whatif_deadline_seconds;
    std::vector<IndexId> live;
    live.reserve(probation.size());
    int issued = 0;
    double charged = 0.0;
    for (IndexId id : probation) {
      double call_seconds = kWhatIfCallSeconds;
      if (faulty) {
        call_seconds *= faults_->Multiplier(fault_sites::kWhatIfSlow);
      }
      if (deadline > 0.0 && charged + call_seconds > deadline) {
        RecordCrudeFallback(q, id, cluster, materialized);
        ++outcome.degraded_calls;
        metrics_.degraded_deadline->Increment();
        continue;
      }
      charged += call_seconds;
      ++issued;
      if (faulty &&
          !faults_->MaybeFail(fault_sites::kWhatIfOptimize).ok()) {
        RecordCrudeFallback(q, id, cluster, materialized);
        ++outcome.degraded_calls;
        metrics_.degraded_fault->Increment();
        continue;
      }
      live.push_back(id);
    }
    if (!live.empty()) {
      const std::vector<IndexGain> gains =
          optimizer_->WhatIfOptimize(q, materialized, live);
      for (const auto& g : gains) {
        const TableId table = catalog_->index(g.index).column.table;
        const uint64_t sig =
            TableConfigSignature(*catalog_, materialized, table);
        if (materialized.Contains(g.index)) {
          // BenefitM statistics: average positive benefit per use.
          mat_stats_->Record(g.index, cluster, std::max(0.0, g.gain), sig);
        } else {
          hot_stats_->Record(g.index, cluster, std::max(0.0, g.gain), sig);
        }
        metrics_.level2_records->Increment();
        if (provenance_ != nullptr) {
          provenance_->RecordEvent("profiler.whatif_estimate")
              .Index(g.index)
              .Cluster(cluster)
              .Attr("gain", g.gain)
              .Attr("src", "whatif");
        }
      }
    }
    *whatif_used += issued;
    metrics_.whatif_issued->Add(issued);
    outcome.whatif_calls = issued;
    outcome.charged_seconds = charged;
    outcome.probed = probation;
  }

  // 7. Crude statistics for every candidate relevant to q (line 13-14 of
  // the paper's Fig. 2): QueryGainC(q, I) = u_{q,I} * Δcost(R, σ, I).
  for (const auto& pred : q.selections()) {
    const Result<IndexId> index_id = catalog_->IndexIdOn(pred.column);
    if (!index_id.ok()) continue;  // non-indexable attribute
    const IndexId id = *index_id;
    double u = 1.0;  // optimistic default
    if (materialized.Contains(id)) {
      u = std::binary_search(used.begin(), used.end(), id) ? 1.0 : 0.0;
    } else if (std::find(outcome.probed.begin(), outcome.probed.end(), id) !=
               outcome.probed.end()) {
      // Just measured: trust the what-if verdict on whether it is used.
      double sum = 0.0;
      int64_t cnt = 0;
      hot_stats_->EpochMeasurements(id, cluster, &sum, &cnt);
      u = (cnt > 0 && sum <= 0.0) ? 0.0 : 1.0;
    }
    const double crude = u * optimizer_->CrudeGain(pred, catalog_->index(id));
    candidates_->Observe(id, crude, current_epoch);
    metrics_.level1_records->Increment();
  }

  // Multi-column extension (off by default): mine one composite candidate
  // per table with 2+ selections. Column order follows the B+-tree prefix
  // rule's sweet spot: equality predicates first (each extends the usable
  // prefix), then ranges; ties broken by selectivity.
  if (config_->mine_multicolumn_candidates) {
    for (TableId table : q.tables()) {
      std::vector<SelectionPredicate> preds = q.SelectionsOn(table);
      if (preds.size() < 2) continue;
      std::sort(preds.begin(), preds.end(),
                [&](const SelectionPredicate& a, const SelectionPredicate& b) {
                  if (a.is_equality() != b.is_equality()) {
                    return a.is_equality();
                  }
                  return EstimateSelectivity(*catalog_, a) <
                         EstimateSelectivity(*catalog_, b);
                });
      Result<IndexDescriptor> desc = catalog_->CompositeIndexOn(
          {preds[0].column, preds[1].column});
      if (!desc.ok()) continue;
      const double crude = optimizer_->CompositeCrudeGain(preds, *desc);
      candidates_->Observe(desc->id, crude, current_epoch);
    }
  }
  return outcome;
}

int64_t Profiler::EpochUsageCount(IndexId index, ClusterId cluster) const {
  auto it = epoch_usage_.find(PairKey{index, cluster});
  return it == epoch_usage_.end() ? 0 : it->second;
}

void Profiler::AdvanceEpoch() { epoch_usage_.clear(); }

namespace {
constexpr uint32_t kProfilerSectionTag = 0x464F5250;  // "PROF"
}  // namespace

void Profiler::SaveState(BinaryWriter* writer) const {
  writer->WriteU32(kProfilerSectionTag);
  const std::array<uint64_t, 4> rng_state = rng_.state();
  for (uint64_t word : rng_state) writer->WriteU64(word);
}

Status Profiler::LoadState(BinaryReader* reader) {
  COLT_RETURN_IF_ERROR(reader->ExpectTag(kProfilerSectionTag));
  std::array<uint64_t, 4> rng_state = {};
  for (uint64_t& word : rng_state) {
    COLT_RETURN_IF_ERROR(reader->ReadU64(&word));
  }
  rng_.set_state(rng_state);
  return Status::OK();
}

}  // namespace colt
