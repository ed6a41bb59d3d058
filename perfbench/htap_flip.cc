/// htap_flip: reads beside writes. ExperimentWorkloads::HtapPhases
/// (read-heavy, then bulk-INSERT-heavy, then read-heavy again) over one
/// TPC-H instance at scale 0.25, driven by one client. Reads are planned
/// with QueryOptimizer::Optimize, executed with Executor::Execute and then
/// passed to OnQuery; writes go through OnQuery alone, which applies them
/// to the heap and every built B+-tree. Here index and core do upkeep
/// (B+-tree inserts, maintenance charging) rather than lookups, so a
/// change that speeds reads but slows maintenance, or the reverse, shows.
///
/// The loop is the benchmark's own because ServeWorkload cannot take
/// writes: an INSERT's PlanResult::plan is null, and ServeClientEpoch
/// dereferences every plan.
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "harness/workloads.h"
#include "storage/tpch_schema.h"

namespace perfbench {
namespace {

/// Phases of 500/1,500/500 statements give about 1,300 reads and 1,300
/// writes per round, enough for a p99 of each from a single round, and
/// enough decisions per round that the figures vary little with the seed
/// (shorter phases made read_p99_us swing 5x between seeds).
constexpr int kReadPhase = 500;
constexpr int kWritePhase = 1500;
constexpr int kTransition = 50;

class HtapFlip : public Workload {
 public:
  explicit HtapFlip(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    state_ = std::make_unique<State>();
    State& s = *state_;
    colt::TpchOptions options;
    options.instances = 1;
    options.scale = 0.25;
    s.db = std::make_unique<colt::Database>(colt::MakeTpchCatalog(options),
                                            kDataSeed);
    const double start = Now();
    const colt::Status st = s.db->MaterializeAll(/*refresh_stats=*/true);
    s.materialize_s = Now() - start;
    s.setup_error = st.ok() ? "" : st.ToString();
    const std::vector<colt::QueryDistribution> dists =
        colt::ExperimentWorkloads::HtapPhases(&s.db->mutable_catalog());
    const std::vector<colt::WorkloadPhase> phases = {{dists[0], kReadPhase},
                                                     {dists[1], kWritePhase},
                                                     {dists[2], kReadPhase}};
    colt::WorkloadGenerator gen(&s.db->catalog(), seed_);
    s.trace = colt::GeneratePhasedWorkload(gen, phases, kTransition);
    colt::ColtConfig config;
    config.storage_budget_bytes =
        MineBudget(&s.db->mutable_catalog(), dists);
    s.optimizer = std::make_unique<colt::QueryOptimizer>(&s.db->catalog());
    s.tuner = std::make_unique<colt::ColtTuner>(
        &s.db->mutable_catalog(), s.optimizer.get(), config, s.db.get());
  }

  void Run(bool traced, Round* out) override {
    State& s = *state_;
    out->CheckThat(s.setup_error.empty(),
                   "MaterializeAll failed: " + s.setup_error);
    SpanRecorder* spans = traced ? &out->spans : nullptr;
    if (traced) {
      colt::MetricsRegistry::Default().Reset();
      colt::MetricsRegistry::Default().set_enabled(true);
    }
    const colt::TableId lineitem = s.db->catalog().FindTable("lineitem_0");
    const int64_t initial_rows = s.db->data(lineitem).row_count();
    int64_t inserted = 0;
    for (const colt::Query& q : s.trace) {
      if (q.kind() == colt::StatementKind::kInsert &&
          q.write_table() == lineitem) {
        inserted += q.insert_rows();
      }
    }

    colt::Executor executor(s.db.get());
    TunerLayer layer;
    std::vector<double> read_s;
    std::vector<double> write_s;
    std::vector<double>& plan_s = out->samples["optimizer.plan"];
    std::vector<double>& execute_s = out->samples["exec.execute"];
    int64_t entry_ops = 0;

    const double start = Now();
    for (size_t i = 0; i < s.trace.size(); ++i) {
      const colt::Query& q = s.trace[i];
      const int64_t at = static_cast<int64_t>(i);
      colt::TuningStep step;
      double on_query_s = 0.0;
      if (q.is_write()) {
        std::map<colt::IndexId, int64_t> before;
        if (traced) before = EntryCounts(q.write_table());
        on_query_s = Timed(spans, "core.on_query", at,
                           [&] { step = s.tuner->OnQuery(q); });
        write_s.push_back(on_query_s);
        if (traced) {
          for (const auto& [id, count] : EntryCounts(q.write_table())) {
            auto it = before.find(id);
            if (it != before.end()) entry_ops += std::abs(count - it->second);
          }
        }
      } else {
        double plan_t = 0.0;
        double execute_t = 0.0;
        std::optional<colt::Result<colt::ExecutionResult>> result;
        read_s.push_back(Timed(spans, "htap.read", at, [&] {
          colt::PlanResult plan;
          plan_t = Timed(spans, "optimizer.plan", at, [&] {
            plan = s.optimizer->Optimize(q, s.tuner->materialized());
          });
          execute_t = Timed(spans, "exec.execute", at, [&] {
            result.emplace(executor.Execute(*plan.plan));
          });
          on_query_s = Timed(spans, "core.on_query", at,
                             [&] { step = s.tuner->OnQuery(q); });
        }));
        if (result->ok()) {
          AddRead(**result, &out->digest, out);
        } else {
          if (out->failed == 0) {
            out->CheckThat(false, "read " + std::to_string(i) + " failed: " +
                                      result->status().ToString());
          }
          ++out->failed;
        }
        if (traced) {
          plan_s.push_back(plan_t);
          execute_s.push_back(execute_t);
        }
      }
      AddStep(step, &out->digest);
      if (traced) {
        layer.Add(q, step, on_query_s);
        if (step.epoch_ended) {
          KnapsackProbe(s.db->catalog(), s.tuner.get(), spans, at, out);
        }
      }
    }
    out->loop_s = Now() - start;

    out->attempted = static_cast<int64_t>(s.trace.size());
    out->digest.epochs =
        static_cast<int64_t>(s.tuner->epoch_reports().size());
    out->values["stmt_per_s"] =
        static_cast<double>(s.trace.size()) / out->loop_s;
    out->values["storage.materialize_s"] = s.materialize_s;
    out->values["storage.rows_inserted"] = static_cast<double>(inserted);
    out->values["index.entry_ops_per_write"] =
        write_s.empty() ? 0.0
                        : static_cast<double>(entry_ops) /
                              static_cast<double>(write_s.size());
    out->samples["htap_read"] = std::move(read_s);
    out->samples["htap_write"] = std::move(write_s);

    const int64_t final_rows = s.db->data(lineitem).row_count();
    out->CheckThat(final_rows == initial_rows + inserted,
                   "lineitem_0 has " + std::to_string(final_rows) +
                       " rows, expected " + std::to_string(initial_rows) +
                       " + " + std::to_string(inserted));
    CheckBuiltIndexes(*s.db, out);
    if (traced) {
      layer.Report(*s.tuner, out);
      TakeCacheHitRatio(out);
      colt::MetricsRegistry::Default().set_enabled(false);
    }
    state_.reset();
  }

  void Teardown() override { state_.reset(); }

 private:
  struct State {
    std::unique_ptr<colt::Database> db;
    double materialize_s = 0.0;
    std::string setup_error;
    std::vector<colt::Query> trace;
    std::unique_ptr<colt::QueryOptimizer> optimizer;
    std::unique_ptr<colt::ColtTuner> tuner;
  };

  /// entry_count() of every built index on `table`.
  std::map<colt::IndexId, int64_t> EntryCounts(colt::TableId table) const {
    std::map<colt::IndexId, int64_t> counts;
    const colt::Database& db = *state_->db;
    for (colt::IndexId id : db.BuiltIndexIds()) {
      if (db.catalog().index(id).column.table == table) {
        counts[id] = db.index(id).entry_count();
      }
    }
    return counts;
  }

  uint64_t seed_;
  std::unique_ptr<State> state_;
};

}  // namespace

std::unique_ptr<Workload> MakeHtapFlip(uint64_t seed) {
  return std::make_unique<HtapFlip>(seed);
}

}  // namespace perfbench
