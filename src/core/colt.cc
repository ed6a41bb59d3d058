#include "core/colt.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/executor.h"

namespace colt {

namespace {

/// Routes one scheduler action's charged time into the step's successful
/// vs. wasted build accounting (kBuildFailed time is wasted by
/// definition; everything else is useful work).
void ChargeAction(const IndexAction& action, TuningStep* step) {
  if (action.type == IndexActionType::kBuildFailed) {
    step->wasted_build_seconds += action.build_seconds;
  } else {
    step->build_seconds += action.build_seconds;
  }
  step->actions.push_back(action);
}

}  // namespace

ColtTuner::ColtTuner(Catalog* catalog, QueryOptimizer* optimizer,
                     ColtConfig config, Database* db, uint64_t seed)
    : catalog_(catalog),
      optimizer_(optimizer),
      db_(db),
      config_(config),
      faults_(config.fault),
      provenance_(config.provenance_events > 0
                      ? std::make_unique<ProvenanceRecorder>(
                            config.provenance_events)
                      : nullptr),
      clusters_(catalog, config.history_depth),
      hot_stats_(config.confidence),
      mat_stats_(config.confidence),
      candidates_(config.history_depth, kCrudeSmoothingAlpha),
      forecaster_(config.history_depth),
      profiler_(catalog, optimizer, &clusters_, &hot_stats_, &mat_stats_,
                &candidates_, &config_, seed, &faults_, provenance_.get()),
      self_organizer_(catalog, optimizer, &clusters_, &hot_stats_,
                      &mat_stats_, &candidates_, &forecaster_, &profiler_,
                      &config_, provenance_.get(), &write_stats_),
      scheduler_(catalog, &optimizer->cost_model(), db,
                 config.scheduling_strategy, &faults_,
                 Scheduler::RetryPolicy{config.max_build_retries,
                                        config.quarantine_cooldown_rounds},
                 provenance_.get()),
      whatif_limit_(config.max_whatif_per_epoch) {
  if (!config_.state_dir.empty()) {
    CheckpointStore::Options options;
    options.faults = &faults_;
    checkpoint_ =
        std::make_unique<CheckpointStore>(config_.state_dir, options);
  }
  MetricsRegistry& reg = MetricsRegistry::Default();
  metrics_.queries = reg.GetCounter("colt.queries");
  metrics_.epochs = reg.GetCounter("colt.epochs");
  metrics_.emergency_evictions = reg.GetCounter("colt.emergency_evictions");
  metrics_.budget_utilization = reg.GetGauge("colt.budget_utilization");
  metrics_.on_query_seconds = reg.GetHistogram("colt.on_query.seconds");
}

void ColtTuner::MaybeShrinkBudget(TuningStep* step) {
  const double factor = faults_.Multiplier(fault_sites::kBudgetShrink);
  if (factor >= 1.0) return;
  config_.storage_budget_bytes = static_cast<int64_t>(
      static_cast<double>(config_.storage_budget_bytes) * factor);
  COLT_LOG(Warning) << "storage budget shrunk to "
                    << config_.storage_budget_bytes << " bytes";
  // Emergency eviction: drop the lowest-net-benefit materialized indexes
  // until the configuration fits again. The knapsack would converge at the
  // next epoch boundary anyway, but the budget invariant must hold for
  // every query in between.
  IndexConfiguration desired = scheduler_.materialized();
  int64_t bytes = scheduler_.MaterializedBytes();
  while (bytes > config_.storage_budget_bytes && !desired.empty()) {
    IndexId victim = kInvalidIndexId;
    double victim_benefit = 0.0;
    for (IndexId id : desired.ids()) {
      const double net = self_organizer_.NetBenefit(id, desired);
      if (victim == kInvalidIndexId || net < victim_benefit) {
        victim = id;
        victim_benefit = net;
      }
    }
    bytes -= catalog_->index(victim).size_bytes;
    desired.Remove(victim);
  }
  if (desired == scheduler_.materialized()) return;
  const int dropped = static_cast<int>(scheduler_.materialized().size()) -
                      static_cast<int>(desired.size());
  if (provenance_ != nullptr) {
    // The per-victim scheduler.drop events carry cause "emergency"; this
    // event records the trigger itself.
    provenance_->RecordEvent("colt.emergency_eviction")
        .Attr("new_budget", config_.storage_budget_bytes)
        .Attr("dropped", static_cast<int64_t>(dropped));
  }
  Result<std::vector<IndexAction>> actions =
      scheduler_.ApplyConfiguration(desired, "emergency");
  if (!actions.ok()) {
    COLT_LOG(Error) << "emergency eviction failed: "
                    << actions.status().ToString();
    return;
  }
  for (const auto& action : *actions) ChargeAction(action, step);
  emergency_evictions_epoch_ += dropped;
  emergency_evictions_total_ += dropped;
  metrics_.emergency_evictions->Add(dropped);
}

std::vector<ColtTuner::IndexExplanation> ColtTuner::ExplainState() {
  const IndexConfiguration& materialized = scheduler_.materialized();
  std::vector<IndexExplanation> out;
  auto add = [&](IndexId id, const std::string& role) {
    IndexExplanation e;
    e.index = id;
    e.name = catalog_->index(id).name;
    e.role = role;
    e.crude_benefit = candidates_.SmoothedBenefit(id);
    e.forecast_benefit = forecaster_.TotalPredictedBenefit(id);
    e.mat_cost =
        materialized.Contains(id) ? 0.0 : self_organizer_.MatCost(id);
    e.net_benefit = self_organizer_.NetBenefit(id, materialized);
    e.size_bytes = catalog_->index(id).size_bytes;
    out.push_back(std::move(e));
  };
  for (IndexId id : materialized.ids()) add(id, "materialized");
  for (IndexId id : hot_set_) {
    if (!materialized.Contains(id)) add(id, "hot");
  }
  for (IndexId id : candidates_.All()) {
    if (materialized.Contains(id)) continue;
    if (std::find(hot_set_.begin(), hot_set_.end(), id) != hot_set_.end()) {
      continue;
    }
    add(id, "candidate");
  }
  std::sort(out.begin(), out.end(),
            [](const IndexExplanation& a, const IndexExplanation& b) {
              return a.net_benefit > b.net_benefit;
            });
  return out;
}

TuningStep ColtTuner::OnQuery(const Query& q) {
  metrics_.queries->Increment();
  ++queries_observed_;
  // Context for every event recorded while this query is observed: the
  // 0-based lifetime sequence number survives recovery, so a resumed run
  // stamps exactly the ids an uninterrupted one would.
  if (provenance_ != nullptr) {
    provenance_->SetContext(epoch_, queries_observed_ - 1);
  }
  ScopedTimer on_query_timer(metrics_.on_query_seconds);
  TuningStep step;
  // Substrate weather first: a mid-run budget shrink must be honoured
  // before this query's plan and invariant checks.
  if (faults_.enabled()) MaybeShrinkBudget(&step);
  // Idle-time scheduling: the gap before this query makes progress on any
  // queued builds; completed indexes are visible to this query's plan.
  if (config_.scheduling_strategy == SchedulingStrategy::kIdleTime) {
    Result<std::vector<IndexAction>> completed =
        scheduler_.OnIdle(config_.idle_seconds_per_query);
    if (completed.ok()) {
      for (const auto& action : *completed) ChargeAction(action, &step);
    } else {
      COLT_LOG(Error) << "idle build failed: "
                      << completed.status().ToString();
    }
  }
  const IndexConfiguration& materialized = scheduler_.materialized();

  // Normal optimization: this is the plan the engine executes.
  step.plan = optimizer_->Optimize(q, materialized);
  step.execution_seconds = optimizer_->cost_model().ToSeconds(step.plan.cost);
  if (faults_.enabled()) {
    // Degraded-storage weather: scans take longer than the plan predicts.
    step.execution_seconds *= faults_.Multiplier(fault_sites::kStorageScan);
  }

  if (q.is_write()) {
    // Write statement (DESIGN.md §16). The plan cost already includes the
    // maintenance of every materialized index on the target table; surface
    // the split for timeline reporting and record the optimizer-estimated
    // volumes the Self-Organizer will convert into per-index maintenance
    // charges at the epoch boundary. Estimated (not executed) rows keep
    // the charge in model currency, identical with or without a physical
    // database attached.
    step.maintenance_seconds =
        optimizer_->cost_model().ToSeconds(step.plan.maintenance_cost);
    switch (q.kind()) {
      case StatementKind::kInsert:
        write_stats_.RecordInsert(q.write_table(), step.plan.rows);
        break;
      case StatementKind::kUpdate: {
        std::vector<ColumnId> columns;
        for (const SetClause& s : q.set_clauses()) columns.push_back(s.column);
        std::sort(columns.begin(), columns.end());
        columns.erase(std::unique(columns.begin(), columns.end()),
                      columns.end());
        write_stats_.RecordUpdate(q.write_table(), columns, step.plan.rows);
        break;
      }
      case StatementKind::kDelete:
        write_stats_.RecordDelete(q.write_table(), step.plan.rows);
        break;
      case StatementKind::kSelect:
        break;
    }
    if (db_ != nullptr && db_->HasData(q.write_table())) {
      // Physically apply the statement so table data and built B+-trees
      // stay consistent with the statement stream. The measured page
      // counts are the executor's concern; tuning statistics above use
      // only the model estimates.
      Executor executor(db_);
      step.applied_write = executor.ExecuteWrite(db_, q, step.plan.plan.get());
      if (!step.applied_write->ok()) {
        COLT_LOG(Error) << "write application failed: "
                        << step.applied_write->status().ToString();
      }
    }
  } else {
    // Profiling (paper Fig. 2). Writes are never profiled: index benefit
    // for reads is a search problem (what-if probes), while maintenance
    // cost for writes is closed-form — the deterministic charge above.
    const Profiler::ProfileOutcome profile = profiler_.ProfileQuery(
        q, step.plan, materialized, hot_set_, whatif_limit_, &whatif_used_,
        epoch_);
    step.whatif_calls = profile.whatif_calls;
    step.degraded_whatif_calls = profile.degraded_calls;
    step.profiling_seconds = profile.charged_seconds;
    degraded_whatif_epoch_ += profile.degraded_calls;
    degraded_whatif_total_ += profile.degraded_calls;
    for (IndexId id : profile.probed) {
      if (!std::binary_search(ever_probed_.begin(), ever_probed_.end(), id)) {
        ever_probed_.insert(
            std::lower_bound(ever_probed_.begin(), ever_probed_.end(), id),
            id);
      }
    }
  }

  // Epoch boundary: reorganization + re-budgeting.
  if (++queries_in_epoch_ >= config_.epoch_length) {
    step.epoch_ended = true;
    const SelfOrganizer::Outcome outcome = self_organizer_.RunEpochEnd(
        materialized, hot_set_, scheduler_.QuarantinedIndexes());

    EpochReport report;
    report.epoch = epoch_;
    report.whatif_used = whatif_used_;
    report.whatif_limit = whatif_limit_;
    report.next_whatif_limit = outcome.next_whatif_limit;
    report.rebudget_ratio = outcome.rebudget_ratio;
    report.candidate_count = static_cast<int64_t>(candidates_.size());
    report.cluster_count = clusters_.live_cluster_count();
    report.hot_ids = outcome.new_hot;
    report.materialized_ids = outcome.new_materialized.ids();
    report.write_queries = write_stats_.epoch_write_queries();
    report.maintenance_charged = outcome.maintenance_charged;

    Result<std::vector<IndexAction>> actions =
        scheduler_.ApplyConfiguration(outcome.new_materialized);
    if (actions.ok()) {
      for (const auto& action : *actions) ChargeAction(action, &step);
    } else {
      // Keep tuning under the previous configuration; crashing the tuner
      // over a substrate error would defeat the self-regulation premise.
      COLT_LOG(Error) << "ApplyConfiguration failed: "
                      << actions.status().ToString()
                      << "; keeping previous configuration";
    }
    report.materialized_bytes = scheduler_.MaterializedBytes();
    report.degraded_whatif = degraded_whatif_epoch_;
    report.build_failures = static_cast<int>(scheduler_.build_failures() -
                                             build_failures_reported_);
    build_failures_reported_ = scheduler_.build_failures();
    report.quarantined_ids = scheduler_.QuarantinedIndexes();
    report.storage_budget_bytes = config_.storage_budget_bytes;
    report.emergency_evictions = emergency_evictions_epoch_;
    report.wasted_build_seconds =
        scheduler_.wasted_build_seconds() - wasted_build_reported_;
    wasted_build_reported_ = scheduler_.wasted_build_seconds();
    metrics_.epochs->Increment();
    metrics_.budget_utilization->Set(
        config_.storage_budget_bytes > 0
            ? static_cast<double>(report.materialized_bytes) /
                  static_cast<double>(config_.storage_budget_bytes)
            : 0.0);
    if (config_.epoch_metrics_snapshot &&
        MetricsRegistry::Default().enabled()) {
      report.metrics = MetricsRegistry::Default().Snapshot();
    }
    if (provenance_ != nullptr) {
      provenance_->RecordEvent("colt.epoch_end")
          .Attr("whatif_used", static_cast<int64_t>(whatif_used_))
          .Attr("whatif_limit", static_cast<int64_t>(whatif_limit_))
          .Attr("next_limit", static_cast<int64_t>(outcome.next_whatif_limit))
          .Attr("materialized_bytes", report.materialized_bytes)
          .Attr("budget", config_.storage_budget_bytes);
      report.provenance_events_total = provenance_->total_recorded();
      report.provenance_events_epoch =
          provenance_->total_recorded() - provenance_reported_;
      provenance_reported_ = provenance_->total_recorded();
      report.provenance_dropped = provenance_->dropped();
    }
    degraded_whatif_epoch_ = 0;
    emergency_evictions_epoch_ = 0;
    epoch_reports_.push_back(std::move(report));

    hot_set_ = outcome.new_hot;
    whatif_limit_ = outcome.next_whatif_limit;
    if (!step.actions.empty()) {
      // The configuration changed: statistics on the affected tables are
      // now inconsistent, so guarantee enough budget to re-validate.
      whatif_limit_ = std::min(
          config_.max_whatif_per_epoch,
          std::max(whatif_limit_, kMinBudgetAfterChange));
    }
    whatif_used_ = 0;
    queries_in_epoch_ = 0;

    // Roll the statistical state into the next epoch.
    profiler_.AdvanceEpoch();
    hot_stats_.AdvanceEpoch();
    mat_stats_.AdvanceEpoch();
    write_stats_.AdvanceEpoch();
    candidates_.AdvanceEpoch(epoch_, config_.epoch_length);
    clusters_.AdvanceEpoch();
    const std::vector<ClusterId> live = clusters_.LiveClusters();
    hot_stats_.RetainClusters(live);
    mat_stats_.RetainClusters(live);
    ++epoch_;

    // Durability point: every component is at its epoch-boundary rest
    // state (usage counts cleared), so the serialized snapshot is exactly
    // the state an uninterrupted run carries into epoch_.
    if (checkpoint_ != nullptr) PersistEpochState();
  }
  return step;
}

namespace {
constexpr uint32_t kTunerSectionTag = 0x544C4F43;  // "COLT"
}  // namespace

uint64_t ColtTuner::ConfigFingerprint() const {
  BinaryWriter w;
  w.WriteI64(config_.epoch_length);
  w.WriteI64(config_.history_depth);
  w.WriteI64(config_.max_whatif_per_epoch);
  w.WriteDouble(config_.confidence);
  w.WriteI64(config_.max_hot_set_size);
  w.WriteI64(static_cast<int64_t>(config_.scheduling_strategy));
  w.WriteDouble(config_.idle_seconds_per_query);
  w.WriteBool(config_.fill_hot_by_density);
  w.WriteBool(config_.mine_multicolumn_candidates);
  w.WriteBool(config_.charge_index_maintenance);
  w.WriteI64(config_.max_build_retries);
  w.WriteI64(config_.quarantine_cooldown_rounds);
  w.WriteDouble(config_.whatif_deadline_seconds);
  w.WriteBool(config_.enable_rebudgeting);
  w.WriteBool(config_.enable_adaptive_sampling);
  w.WriteDouble(config_.uniform_sample_rate);
  w.WriteBool(config_.conservative_estimates);
  w.WriteBool(config_.use_greedy_knapsack);
  // Deliberately excluded: storage_budget_bytes (mutable at runtime via
  // budget.shrink faults; persisted as live state instead),
  // epoch_metrics_snapshot and provenance_events (bit-identical tuning
  // results at any value — a resumed run may toggle observability
  // freely), the fault plan (a resumed run may drop the crash rules that
  // killed its predecessor), and state_dir itself.
  return Fnv1a64(w.buffer());
}

void ColtTuner::SaveState(BinaryWriter* writer) const {
  writer->WriteU32(kTunerSectionTag);
  writer->WriteU64(ConfigFingerprint());
  writer->WriteU64(catalog_->Fingerprint());
  writer->WriteI64(epoch_);
  writer->WriteI64(queries_in_epoch_);
  writer->WriteI64(queries_observed_);
  writer->WriteI64(whatif_limit_);
  writer->WriteI64(whatif_used_);
  writer->WriteI64(config_.storage_budget_bytes);
  writer->WriteU64(hot_set_.size());
  for (IndexId id : hot_set_) writer->WriteI64(id);
  writer->WriteU64(ever_probed_.size());
  for (IndexId id : ever_probed_) writer->WriteI64(id);
  writer->WriteI64(degraded_whatif_epoch_);
  writer->WriteI64(emergency_evictions_epoch_);
  writer->WriteI64(build_failures_reported_);
  writer->WriteI64(degraded_whatif_total_);
  writer->WriteI64(emergency_evictions_total_);
  writer->WriteDouble(wasted_build_reported_);
  faults_.SaveState(writer);
  catalog_->SaveState(writer);
  clusters_.SaveState(writer);
  hot_stats_.SaveState(writer);
  mat_stats_.SaveState(writer);
  candidates_.SaveState(writer);
  forecaster_.SaveState(writer);
  profiler_.SaveState(writer);
  scheduler_.SaveState(writer);
  write_stats_.SaveState(writer);
  writer->WriteBool(provenance_ != nullptr);
  if (provenance_ != nullptr) {
    writer->WriteI64(provenance_reported_);
    provenance_->SaveState(writer);
  }
}

Status ColtTuner::LoadState(BinaryReader* reader) {
  if (epoch_ != 0 || queries_in_epoch_ != 0 || queries_observed_ != 0) {
    return Status::FailedPrecondition(
        "LoadState requires a freshly constructed tuner");
  }
  COLT_RETURN_IF_ERROR(reader->ExpectTag(kTunerSectionTag));
  uint64_t config_fp = 0;
  uint64_t catalog_fp = 0;
  COLT_RETURN_IF_ERROR(reader->ReadU64(&config_fp));
  COLT_RETURN_IF_ERROR(reader->ReadU64(&catalog_fp));
  // Both guards run before any mutation: a false return from
  // RecoverFromStateDir must leave the tuner usable for a cold start.
  if (config_fp != ConfigFingerprint()) {
    return Status::FailedPrecondition(
        "snapshot was taken under a different ColtConfig");
  }
  if (catalog_fp != catalog_->Fingerprint()) {
    return Status::FailedPrecondition(
        "snapshot was taken against a different catalog");
  }
  int64_t epoch = 0;
  int64_t queries_in_epoch = 0;
  int64_t queries_observed = 0;
  int64_t whatif_limit = 0;
  int64_t whatif_used = 0;
  int64_t storage_budget = 0;
  COLT_RETURN_IF_ERROR(reader->ReadI64(&epoch));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&queries_in_epoch));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&queries_observed));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&whatif_limit));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&whatif_used));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&storage_budget));
  uint64_t hot_count = 0;
  COLT_RETURN_IF_ERROR(reader->ReadU64(&hot_count));
  std::vector<IndexId> hot_set;
  for (uint64_t i = 0; i < hot_count; ++i) {
    int64_t id = 0;
    COLT_RETURN_IF_ERROR(reader->ReadI64(&id));
    hot_set.push_back(static_cast<IndexId>(id));
  }
  uint64_t probed_count = 0;
  COLT_RETURN_IF_ERROR(reader->ReadU64(&probed_count));
  std::vector<IndexId> ever_probed;
  for (uint64_t i = 0; i < probed_count; ++i) {
    int64_t id = 0;
    COLT_RETURN_IF_ERROR(reader->ReadI64(&id));
    ever_probed.push_back(static_cast<IndexId>(id));
  }
  int64_t degraded_epoch = 0;
  int64_t evictions_epoch = 0;
  int64_t build_failures_reported = 0;
  int64_t degraded_total = 0;
  int64_t evictions_total = 0;
  double wasted_build_reported = 0.0;
  COLT_RETURN_IF_ERROR(reader->ReadI64(&degraded_epoch));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&evictions_epoch));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&build_failures_reported));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&degraded_total));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&evictions_total));
  COLT_RETURN_IF_ERROR(reader->ReadDouble(&wasted_build_reported));

  COLT_RETURN_IF_ERROR(faults_.LoadState(reader));
  COLT_RETURN_IF_ERROR(catalog_->LoadState(reader));
  COLT_RETURN_IF_ERROR(clusters_.LoadState(reader));
  COLT_RETURN_IF_ERROR(hot_stats_.LoadState(reader));
  COLT_RETURN_IF_ERROR(mat_stats_.LoadState(reader));
  COLT_RETURN_IF_ERROR(candidates_.LoadState(reader));
  COLT_RETURN_IF_ERROR(forecaster_.LoadState(reader));
  COLT_RETURN_IF_ERROR(profiler_.LoadState(reader));
  COLT_RETURN_IF_ERROR(scheduler_.LoadState(reader));
  COLT_RETURN_IF_ERROR(write_stats_.LoadState(reader));
  bool snapshot_has_provenance = false;
  COLT_RETURN_IF_ERROR(reader->ReadBool(&snapshot_has_provenance));
  int64_t provenance_reported = 0;
  if (snapshot_has_provenance) {
    COLT_RETURN_IF_ERROR(reader->ReadI64(&provenance_reported));
    if (provenance_ != nullptr) {
      COLT_RETURN_IF_ERROR(provenance_->LoadState(reader));
    } else {
      // The crashed run recorded provenance, this one does not: skip the
      // section so toggling observability never blocks recovery (the
      // knobs are excluded from the config fingerprint for the same
      // reason). Conversely, a recorder this run owns but the snapshot
      // lacks simply starts empty, ids from 0.
      ProvenanceRecorder scratch(1);
      COLT_RETURN_IF_ERROR(scratch.LoadState(reader));
    }
  }
  if (!reader->AtEnd()) {
    return Status::InvalidArgument("trailing bytes after tuner snapshot");
  }
  // Ids were read before the catalog section replayed the index
  // definitions, so they can only be checked now.
  for (IndexId id : hot_set) {
    if (!catalog_->HasIndex(id)) {
      return Status::InvalidArgument("hot set index id " +
                                     std::to_string(id) +
                                     " is not in the catalog");
    }
  }
  for (IndexId id : ever_probed) {
    if (!catalog_->HasIndex(id)) {
      return Status::InvalidArgument("probed index id " + std::to_string(id) +
                                     " is not in the catalog");
    }
  }

  epoch_ = static_cast<int>(epoch);
  queries_in_epoch_ = static_cast<int>(queries_in_epoch);
  queries_observed_ = queries_observed;
  whatif_limit_ = static_cast<int>(whatif_limit);
  whatif_used_ = static_cast<int>(whatif_used);
  config_.storage_budget_bytes = storage_budget;
  hot_set_ = std::move(hot_set);
  ever_probed_ = std::move(ever_probed);
  degraded_whatif_epoch_ = static_cast<int>(degraded_epoch);
  emergency_evictions_epoch_ = static_cast<int>(evictions_epoch);
  build_failures_reported_ = build_failures_reported;
  degraded_whatif_total_ = degraded_total;
  emergency_evictions_total_ = evictions_total;
  wasted_build_reported_ = wasted_build_reported;
  if (provenance_ != nullptr && snapshot_has_provenance) {
    provenance_reported_ = provenance_reported;
  }
  return Status::OK();
}

Result<bool> ColtTuner::RecoverFromStateDir() {
  if (checkpoint_ == nullptr) return false;
  Result<CheckpointData> data = checkpoint_->LoadLatest();
  if (!data.ok()) {
    if (data.status().code() == StatusCode::kNotFound) return false;
    return data.status();
  }
  BinaryReader reader(data->payload);
  const Status loaded = LoadState(&reader);
  if (!loaded.ok()) {
    if (loaded.code() == StatusCode::kFailedPrecondition) {
      // Fingerprint guard: the environment changed under the state dir.
      // The tuner is untouched, so a cold start is safe and preferable to
      // resuming statistics that no longer describe this catalog/config.
      COLT_LOG(Warning) << "checkpoint rejected: " << loaded.ToString()
                        << "; cold-starting";
      MetricsRegistry::Default()
          .GetCounter("persist.recovery.rejected")
          ->Increment();
      return false;
    }
    return loaded;
  }
  MetricsRegistry::Default()
      .GetCounter("persist.recovery.restored")
      ->Increment();
  COLT_LOG(Info) << "recovered tuner state at epoch " << epoch_ << " ("
                 << queries_observed_ << " queries observed)";
  return true;
}

void ColtTuner::PersistEpochState() {
  BinaryWriter writer;
  SaveState(&writer);
  const Status committed = checkpoint_->Commit(epoch_, writer.buffer());
  if (!committed.ok()) {
    // Never fatal: the previous checkpoint stays recoverable and the tuner
    // keeps serving queries — durability degrades, tuning does not.
    COLT_LOG(Warning) << "checkpoint commit failed: "
                      << committed.ToString();
    MetricsRegistry::Default()
        .GetCounter("persist.commit.failures")
        ->Increment();
  }
}

void ColtTuner::set_persist_crash_hook(std::function<void()> hook) {
  if (checkpoint_ != nullptr) checkpoint_->set_crash_hook(std::move(hook));
}

}  // namespace colt
