/// serve_shift: serving on physical data while COLT tunes live. The Fig. 4
/// schedule over three cycles (4,150 queries) against four TPC-H instances
/// at scale 0.25 (about 1.7M rows), served by ServeWorkload with three
/// client threads plus the tuning owner thread (4 threads in all). Most of
/// the time goes to executor scans and the per-epoch join barrier; the
/// owner also bulk-loads real B+-trees. Tuning overlaps the clients, so a
/// tuner speed-up should not move this workload, and an executor speed-up
/// should not move tune_shift.
///
/// The traced round cannot see inside ServeWorkload, so it drives the same
/// trace through a copy of its epoch loop built from the same public
/// calls, with a span on each step. Its deterministic outputs (actions,
/// epochs, rows and pages) must equal the untraced round's.
#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "bench.h"
#include "common/epoch.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/serve.h"
#include "harness/workloads.h"
#include "storage/tpch_schema.h"

namespace perfbench {
namespace {

constexpr int kCycles = 3;
constexpr int kClients = 3;
constexpr double kScale = 0.25;

class ServeShift : public Workload {
 public:
  explicit ServeShift(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    state_ = std::make_unique<State>();
    State& s = *state_;
    colt::TpchOptions options;
    options.instances = 4;
    options.scale = kScale;
    s.db = std::make_unique<colt::Database>(colt::MakeTpchCatalog(options),
                                            kDataSeed);
    const double start = Now();
    const colt::Status st = s.db->MaterializeAll(/*refresh_stats=*/true);
    s.materialize_s = Now() - start;
    s.setup_error = st.ok() ? "" : st.ToString();
    const std::vector<colt::QueryDistribution> dists =
        colt::ExperimentWorkloads::ShiftingPhases(&s.db->mutable_catalog());
    s.trace = ShiftingTrace(s.db->catalog(), dists, kCycles, seed_);
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
    out->values["storage.materialize_s"] = s.materialize_s;
    std::vector<colt::ServedQuery> served;
    if (traced) {
      colt::MetricsRegistry::Default().Reset();
      colt::MetricsRegistry::Default().set_enabled(true);
      served = RunTracedLoop(out);
      TakeCacheHitRatio(out);
      colt::MetricsRegistry::Default().set_enabled(false);
    } else {
      colt::ServeOptions options;
      options.client_threads = kClients;
      const double start = Now();
      colt::ServeResult result = colt::ServeWorkload(
          s.db.get(), s.optimizer.get(), s.tuner.get(), s.trace, options);
      out->loop_s = Now() - start;
      out->values["stmt_per_s"] = result.aggregate_qps;
      out->digest.index_actions = result.tuner_actions;
      served = std::move(result.queries);
    }

    out->attempted = static_cast<int64_t>(served.size());
    out->CheckThat(served.size() == s.trace.size(),
                   "served " + std::to_string(served.size()) + " of " +
                       std::to_string(s.trace.size()) + " queries");
    std::vector<double>& latency = out->samples["serve"];
    latency.reserve(served.size());
    for (const colt::ServedQuery& q : served) {
      if (!q.ok) {
        if (out->failed == 0) {
          out->CheckThat(false, "query " + std::to_string(q.trace_index) +
                                    " failed: " + q.error);
        }
        ++out->failed;
        continue;
      }
      latency.push_back(q.latency_seconds);
      AddRead(q.result, &out->digest, out);
    }
    if (traced) out->samples["exec.execute"] = latency;
    out->digest.epochs =
        static_cast<int64_t>(s.tuner->epoch_reports().size());
    CheckBuiltIndexes(*s.db, out);
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

  /// ServeWorkload's epoch loop, rebuilt from the same public calls with a
  /// span on each step.
  std::vector<colt::ServedQuery> RunTracedLoop(Round* out) {
    State& s = *state_;
    SpanRecorder* spans = &out->spans;
    colt::ThreadPool pool(kClients, /*pin_workers=*/true);
    std::vector<std::unique_ptr<colt::MetricsRegistry>> registries;
    std::vector<std::unique_ptr<colt::Executor>> executors;
    for (int c = 0; c < kClients; ++c) {
      registries.push_back(std::make_unique<colt::MetricsRegistry>());
      registries.back()->set_enabled(
          colt::MetricsRegistry::Default().enabled());
      executors.push_back(std::make_unique<colt::Executor>(
          s.db.get(), registries.back().get()));
    }
    const size_t epoch_queries =
        static_cast<size_t>(std::max(1, s.tuner->config().epoch_length));

    TunerLayer layer;
    std::vector<double>& plan_s = out->samples["optimizer.plan"];
    std::vector<colt::ServedQuery> served;
    served.reserve(s.trace.size());
    double client_busy_s = 0.0;
    double barrier_wall_s = 0.0;
    double owner_wait_s = 0.0;

    const double start = Now();
    for (size_t pos = 0; pos < s.trace.size();) {
      const size_t end = std::min(pos + epoch_queries, s.trace.size());
      const int32_t epoch_id =
          spans->Open("serve.epoch", static_cast<int64_t>(pos));

      // 1. Plan the epoch against the current configuration.
      std::vector<colt::PlanResult> plan_storage;
      std::vector<colt::ServeEpochContext::PlannedQuery> plans;
      plan_storage.reserve(end - pos);
      plans.reserve(end - pos);
      for (size_t i = pos; i < end; ++i) {
        plan_s.push_back(
            Timed(spans, "optimizer.plan", static_cast<int64_t>(i), [&] {
              plan_storage.push_back(
                  s.optimizer->Optimize(s.trace[i], s.tuner->materialized()));
            }));
        plans.push_back({static_cast<int64_t>(i),
                         plan_storage.back().plan.get(),
                         plan_storage.back().cost});
      }

      // 2. Pin the planning-time snapshot for the whole epoch.
      std::optional<colt::EpochGuard> pin;
      colt::ServeEpochContext ctx;
      Timed(spans, "core.snapshot_pin", -1, [&] {
        pin.emplace();
        ctx.snapshot = s.db->index_snapshot();
      });
      ctx.plans = &plans;
      ctx.client_count = kClients;
      ctx.executors = &executors;

      // 3. Submit the clients; each times its own share of the epoch.
      const double barrier_start = Now();
      std::vector<Span> client_spans(kClients);
      std::vector<std::future<std::vector<colt::ServedQuery>>> futures;
      Timed(spans, "core.submit", -1, [&] {
        for (int c = 0; c < kClients; ++c) {
          Span* slot = &client_spans[static_cast<size_t>(c)];
          futures.push_back(pool.Submit([&ctx, c, slot] {
            slot->start = Now();
            std::vector<colt::ServedQuery> part =
                colt::ServeClientEpoch(ctx, c);
            slot->end = Now();
            return part;
          }));
        }
      });

      // 4. The owner tunes on the same queries, in trace order.
      for (size_t i = pos; i < end; ++i) {
        const int64_t at = static_cast<int64_t>(i);
        colt::TuningStep step;
        const double seconds = Timed(spans, "core.on_query", at, [&] {
          step = s.tuner->OnQuery(s.trace[i]);
        });
        out->digest.index_actions += static_cast<int64_t>(step.actions.size());
        layer.Add(s.trace[i], step, seconds);
        if (step.epoch_ended) {
          KnapsackProbe(s.db->catalog(), s.tuner.get(), spans, at, out);
        }
      }

      // 5. Join, back in trace order.
      std::vector<colt::ServedQuery> epoch_served;
      owner_wait_s += Timed(spans, "core.join", -1, [&] {
        for (auto& future : futures) {
          std::vector<colt::ServedQuery> part = future.get();
          epoch_served.insert(epoch_served.end(),
                              std::make_move_iterator(part.begin()),
                              std::make_move_iterator(part.end()));
        }
      });
      barrier_wall_s += Now() - barrier_start;
      std::sort(epoch_served.begin(), epoch_served.end(),
                [](const colt::ServedQuery& a, const colt::ServedQuery& b) {
                  return a.trace_index < b.trace_index;
                });
      served.insert(served.end(), std::make_move_iterator(epoch_served.begin()),
                    std::make_move_iterator(epoch_served.end()));
      pin.reset();
      for (Span& span : client_spans) {
        span.name = "exec.client_epoch";
        span.parent = epoch_id;
        client_busy_s += span.seconds();
        spans->Add(span);
      }

      // 6. Fold the client metrics buffers into the main registry.
      Timed(spans, "core.metrics_merge", -1, [&] {
        for (auto& registry : registries) {
          colt::MetricsRegistry::Default().MergeFrom(*registry);
          registry->Reset();
        }
      });
      spans->Close(epoch_id);
      pos = end;
    }
    out->loop_s = Now() - start;

    layer.Report(*s.tuner, out);
    out->values["exec.client_busy_s"] = client_busy_s;
    out->values["core.serve_owner_wait_s"] = owner_wait_s;
    out->values["core.serve_idle_frac"] =
        barrier_wall_s > 0.0 ? 1.0 - client_busy_s / (kClients * barrier_wall_s)
                             : 0.0;
    out->values["stmt_per_s"] =
        static_cast<double>(served.size()) / out->loop_s;
    return served;
  }

  uint64_t seed_;
  std::unique_ptr<State> state_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeShift(uint64_t seed) {
  return std::make_unique<ServeShift>(seed);
}

}  // namespace perfbench
