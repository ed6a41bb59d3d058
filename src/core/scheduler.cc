#include "core/scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace colt {

Scheduler::Scheduler(const Catalog* catalog, const CostModel* cost_model,
                     Database* db, SchedulingStrategy strategy,
                     FaultInjector* faults, RetryPolicy retry,
                     ProvenanceRecorder* provenance)
    : catalog_(catalog),
      cost_model_(cost_model),
      db_(db),
      strategy_(strategy),
      faults_(faults),
      retry_(retry),
      provenance_(provenance) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  metrics_.builds_completed = reg.GetCounter("scheduler.builds.completed");
  metrics_.builds_failed = reg.GetCounter("scheduler.builds.failed");
  metrics_.drops = reg.GetCounter("scheduler.drops");
  metrics_.backoff_events = reg.GetCounter("scheduler.backoff.events");
  metrics_.quarantine_events = reg.GetCounter("scheduler.quarantine.events");
  metrics_.pending_builds = reg.GetGauge("scheduler.pending_builds");
  metrics_.apply_seconds = reg.GetHistogram("scheduler.apply.seconds");
}

double Scheduler::BuildSeconds(IndexId id) const {
  const IndexDescriptor& desc = catalog_->index(id);
  const TableSchema& table = catalog_->table(desc.column.table);
  return cost_model_->ToSeconds(
      cost_model_->MaterializationCost(table, desc));
}

Status Scheduler::TryBuild(IndexId id) {
  if (faults_ != nullptr) {
    COLT_RETURN_IF_ERROR(faults_->MaybeFail(fault_sites::kIndexBuild));
  }
  if (db_ == nullptr) return Status::OK();
  return db_->BuildIndex(id);
}

bool Scheduler::IsQuarantined(IndexId id) const {
  auto it = failures_.find(id);
  return it != failures_.end() && it->second.quarantine_until_round >= 0 &&
         round_ < it->second.quarantine_until_round;
}

std::vector<IndexId> Scheduler::QuarantinedIndexes() const {
  std::vector<IndexId> out;
  for (const auto& [id, state] : failures_) {
    if (state.quarantine_until_round >= 0 &&
        round_ < state.quarantine_until_round) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool Scheduler::BuildBlocked(IndexId id) const {
  auto it = failures_.find(id);
  if (it == failures_.end()) return false;
  const FailureState& state = it->second;
  if (state.quarantine_until_round >= 0) {
    return round_ < state.quarantine_until_round;
  }
  return round_ < state.retry_after_round;
}

void Scheduler::RecordBuildFailure(IndexId id,
                                   std::vector<IndexAction>* actions) {
  FailureState& state = failures_[id];
  ++state.consecutive_failures;
  ++build_failures_;
  if (provenance_ != nullptr) {
    provenance_->RecordEvent("scheduler.build_failed")
        .Index(id)
        .Attr("consecutive",
              static_cast<int64_t>(state.consecutive_failures));
  }
  if (state.consecutive_failures >= retry_.max_build_retries) {
    state.quarantine_until_round =
        round_ + retry_.quarantine_cooldown_rounds;
    ++quarantine_events_;
    metrics_.quarantine_events->Increment();
    IndexAction action;
    action.type = IndexActionType::kQuarantine;
    action.index = id;
    actions->push_back(action);
    if (provenance_ != nullptr) {
      provenance_->RecordEvent("scheduler.quarantine")
          .Index(id)
          .Attr("cooldown_rounds",
                static_cast<int64_t>(retry_.quarantine_cooldown_rounds))
          .Attr("failures",
                static_cast<int64_t>(state.consecutive_failures));
    }
    COLT_LOG(Warning) << "index " << catalog_->index(id).name
                      << " quarantined after "
                      << state.consecutive_failures
                      << " failed builds (cooldown "
                      << retry_.quarantine_cooldown_rounds << " rounds)";
  } else {
    const int shift = state.consecutive_failures - 1;
    const int64_t backoff = std::min<int64_t>(
        kMaxBuildBackoffRounds,
        static_cast<int64_t>(kBuildBackoffBaseRounds) << shift);
    state.retry_after_round = round_ + std::max<int64_t>(1, backoff);
    metrics_.backoff_events->Increment();
    if (provenance_ != nullptr) {
      provenance_->RecordEvent("scheduler.backoff")
          .Index(id)
          .Attr("retry_after_round", state.retry_after_round);
    }
  }
}

void Scheduler::ExpireQuarantines() {
  for (auto it = failures_.begin(); it != failures_.end();) {
    const FailureState& state = it->second;
    if (state.quarantine_until_round >= 0 &&
        round_ >= state.quarantine_until_round) {
      // Cooldown over: forget the history so the index gets a fresh retry
      // budget next time the Self-Organizer wants it.
      it = failures_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<std::vector<IndexAction>> Scheduler::ApplyConfiguration(
    const IndexConfiguration& desired, std::string_view cause) {
  ScopedTimer apply_timer(metrics_.apply_seconds);
  ++round_;
  ExpireQuarantines();
  std::vector<IndexAction> actions;
  // Drops first (free budget immediately, costless).
  for (IndexId id : materialized_.ids()) {
    if (desired.Contains(id)) continue;
    IndexAction action;
    action.type = IndexActionType::kDrop;
    action.index = id;
    actions.push_back(action);
  }
  for (const auto& action : actions) {
    if (db_ != nullptr) db_->DropIndex(action.index);
    materialized_.Remove(action.index);
    metrics_.drops->Increment();
    if (provenance_ != nullptr) {
      provenance_->RecordEvent("scheduler.drop")
          .Index(action.index)
          .Attr("cause", cause)
          .Attr("name", catalog_->index(action.index).name);
    }
  }
  // Cancel queued builds that are no longer desired. Idle seconds already
  // spent on them are lost — never transferred to the remaining queue.
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&](const PendingBuild& b) {
                                  if (desired.Contains(b.index)) return false;
                                  wasted_idle_seconds_ += b.spent_seconds;
                                  return true;
                                }),
                 pending_.end());

  for (IndexId id : desired.ids()) {
    if (materialized_.Contains(id)) continue;
    if (BuildBlocked(id)) continue;  // backoff or quarantine
    if (strategy_ == SchedulingStrategy::kImmediate) {
      double build_seconds = BuildSeconds(id);
      if (faults_ != nullptr) {
        build_seconds *= faults_->Multiplier(fault_sites::kIndexBuildSlow);
      }
      const Status built = TryBuild(id);
      if (built.ok()) {
        failures_.erase(id);
        materialized_.Add(id);
        IndexAction action;
        action.type = IndexActionType::kMaterialize;
        action.index = id;
        action.build_seconds = build_seconds;
        actions.push_back(action);
        metrics_.builds_completed->Increment();
        if (provenance_ != nullptr) {
          provenance_->RecordEvent("scheduler.install")
              .Index(id)
              .Attr("cause", cause)
              .Attr("name", catalog_->index(id).name)
              .Attr("build_seconds", build_seconds);
        }
      } else if (IsTransient(built.code())) {
        // The attempt consumed its build time before failing; charge it.
        IndexAction action;
        action.type = IndexActionType::kBuildFailed;
        action.index = id;
        action.build_seconds = build_seconds;
        actions.push_back(action);
        wasted_build_seconds_ += build_seconds;
        metrics_.builds_failed->Increment();
        RecordBuildFailure(id, &actions);
      } else {
        return built;
      }
    } else {
      const bool queued =
          std::any_of(pending_.begin(), pending_.end(),
                      [&](const PendingBuild& b) { return b.index == id; });
      if (!queued) {
        PendingBuild build;
        build.index = id;
        build.remaining_seconds = BuildSeconds(id);
        pending_.push_back(build);
      }
    }
  }
  metrics_.pending_builds->Set(static_cast<double>(pending_.size()));
  return actions;
}

Result<std::vector<IndexAction>> Scheduler::OnIdle(double seconds) {
  std::vector<IndexAction> completed;
  while (!pending_.empty()) {
    PendingBuild& build = pending_.front();
    // Zero-cost builds must complete even with no idle time left; paid
    // builds stop consuming once the idle budget is exhausted.
    if (build.remaining_seconds > 1e-12 && seconds <= 0.0) break;
    const double spent = std::min(seconds, build.remaining_seconds);
    build.remaining_seconds -= spent;
    build.spent_seconds += spent;
    idle_seconds_spent_ += spent;
    seconds -= spent;
    if (build.remaining_seconds > 1e-12) break;  // out of idle time
    const IndexId id = build.index;
    const double sunk = build.spent_seconds;
    pending_.pop_front();
    const Status built = TryBuild(id);
    if (built.ok()) {
      failures_.erase(id);
      materialized_.Add(id);
      IndexAction action;
      action.type = IndexActionType::kMaterialize;
      action.index = id;
      action.build_seconds = 0.0;  // performed during idle time
      completed.push_back(action);
      metrics_.builds_completed->Increment();
      if (provenance_ != nullptr) {
        provenance_->RecordEvent("scheduler.install")
            .Index(id)
            .Attr("cause", "idle")
            .Attr("name", catalog_->index(id).name)
            .Attr("build_seconds", 0.0);
      }
    } else if (IsTransient(built.code())) {
      // The idle work is lost; the retry machinery decides when (and
      // whether) ApplyConfiguration may queue the index again.
      IndexAction action;
      action.type = IndexActionType::kBuildFailed;
      action.index = id;
      action.build_seconds = 0.0;
      completed.push_back(action);
      wasted_idle_seconds_ += sunk;
      metrics_.builds_failed->Increment();
      RecordBuildFailure(id, &completed);
    } else {
      return built;
    }
  }
  metrics_.pending_builds->Set(static_cast<double>(pending_.size()));
  return completed;
}

std::vector<IndexId> Scheduler::PendingBuilds() const {
  std::vector<IndexId> out;
  out.reserve(pending_.size());
  for (const auto& b : pending_) out.push_back(b.index);
  return out;
}

int64_t Scheduler::MaterializedBytes() const {
  int64_t total = 0;
  for (IndexId id : materialized_.ids()) {
    total += catalog_->index(id).size_bytes;
  }
  return total;
}

namespace {
constexpr uint32_t kSchedulerSectionTag = 0x44484353;  // "SCHD"
}  // namespace

void Scheduler::SaveState(BinaryWriter* writer) const {
  writer->WriteU32(kSchedulerSectionTag);
  const std::vector<IndexId>& materialized = materialized_.ids();
  writer->WriteU64(materialized.size());
  for (IndexId id : materialized) writer->WriteI64(id);
  writer->WriteU64(pending_.size());
  for (const PendingBuild& build : pending_) {
    writer->WriteI64(build.index);
    writer->WriteDouble(build.remaining_seconds);
    writer->WriteDouble(build.spent_seconds);
  }
  std::vector<IndexId> failed_ids;
  failed_ids.reserve(failures_.size());
  for (const auto& [id, state] : failures_) failed_ids.push_back(id);
  std::sort(failed_ids.begin(), failed_ids.end());
  writer->WriteU64(failed_ids.size());
  for (IndexId id : failed_ids) {
    const FailureState& state = failures_.at(id);
    writer->WriteI64(id);
    writer->WriteI64(state.consecutive_failures);
    writer->WriteI64(state.retry_after_round);
    writer->WriteI64(state.quarantine_until_round);
  }
  writer->WriteI64(round_);
  writer->WriteI64(build_failures_);
  writer->WriteI64(quarantine_events_);
  writer->WriteDouble(wasted_build_seconds_);
  writer->WriteDouble(wasted_idle_seconds_);
  writer->WriteDouble(idle_seconds_spent_);
}

Status Scheduler::LoadState(BinaryReader* reader) {
  COLT_RETURN_IF_ERROR(reader->ExpectTag(kSchedulerSectionTag));
  uint64_t materialized_count = 0;
  COLT_RETURN_IF_ERROR(reader->ReadU64(&materialized_count));
  IndexConfiguration materialized;
  for (uint64_t i = 0; i < materialized_count; ++i) {
    int64_t id = 0;
    COLT_RETURN_IF_ERROR(reader->ReadI64(&id));
    if (!catalog_->HasIndex(static_cast<IndexId>(id))) {
      return Status::InvalidArgument("materialized index id " +
                                     std::to_string(id) +
                                     " is not in the catalog");
    }
    materialized.Add(static_cast<IndexId>(id));
  }
  uint64_t pending_count = 0;
  COLT_RETURN_IF_ERROR(reader->ReadU64(&pending_count));
  std::deque<PendingBuild> pending;
  for (uint64_t i = 0; i < pending_count; ++i) {
    PendingBuild build;
    int64_t id = 0;
    COLT_RETURN_IF_ERROR(reader->ReadI64(&id));
    if (!catalog_->HasIndex(static_cast<IndexId>(id))) {
      return Status::InvalidArgument("pending build index id " +
                                     std::to_string(id) +
                                     " is not in the catalog");
    }
    build.index = static_cast<IndexId>(id);
    COLT_RETURN_IF_ERROR(reader->ReadDouble(&build.remaining_seconds));
    COLT_RETURN_IF_ERROR(reader->ReadDouble(&build.spent_seconds));
    pending.push_back(build);
  }
  uint64_t failure_count = 0;
  COLT_RETURN_IF_ERROR(reader->ReadU64(&failure_count));
  std::unordered_map<IndexId, FailureState> failures;
  for (uint64_t i = 0; i < failure_count; ++i) {
    int64_t id = 0;
    int64_t consecutive = 0;
    FailureState state;
    COLT_RETURN_IF_ERROR(reader->ReadI64(&id));
    COLT_RETURN_IF_ERROR(reader->ReadI64(&consecutive));
    COLT_RETURN_IF_ERROR(reader->ReadI64(&state.retry_after_round));
    COLT_RETURN_IF_ERROR(reader->ReadI64(&state.quarantine_until_round));
    if (!catalog_->HasIndex(static_cast<IndexId>(id))) {
      return Status::InvalidArgument("failure state index id " +
                                     std::to_string(id) +
                                     " is not in the catalog");
    }
    state.consecutive_failures = static_cast<int>(consecutive);
    failures.emplace(static_cast<IndexId>(id), state);
  }
  int64_t round = 0;
  int64_t build_failures = 0;
  int64_t quarantine_events = 0;
  double wasted_build = 0.0;
  double wasted_idle = 0.0;
  double idle_spent = 0.0;
  COLT_RETURN_IF_ERROR(reader->ReadI64(&round));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&build_failures));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&quarantine_events));
  COLT_RETURN_IF_ERROR(reader->ReadDouble(&wasted_build));
  COLT_RETURN_IF_ERROR(reader->ReadDouble(&wasted_idle));
  COLT_RETURN_IF_ERROR(reader->ReadDouble(&idle_spent));
  // Physical trees are never page-imaged: rebuild each materialized index
  // from its base table.
  if (db_ != nullptr) {
    const std::vector<IndexId> built = db_->BuiltIndexIds();
    for (IndexId id : materialized.ids()) {
      if (std::find(built.begin(), built.end(), id) != built.end()) continue;
      COLT_RETURN_IF_ERROR(db_->BuildIndex(id));
    }
  }
  materialized_ = std::move(materialized);
  pending_ = std::move(pending);
  failures_ = std::move(failures);
  round_ = round;
  build_failures_ = build_failures;
  quarantine_events_ = quarantine_events;
  wasted_build_seconds_ = wasted_build;
  wasted_idle_seconds_ = wasted_idle;
  idle_seconds_spent_ = idle_spent;
  metrics_.pending_builds->Set(static_cast<double>(pending_.size()));
  return Status::OK();
}

}  // namespace colt
