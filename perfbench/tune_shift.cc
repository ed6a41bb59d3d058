/// tune_shift: the tuner alone. The paper's Fig. 4 schedule, cycled, over
/// the statistics-only Table-1 catalog, with one caller running
/// ColtTuner::OnQuery. No data exists, so exec, index and storage do no
/// work and every microsecond is optimizer + core: planning, profiling,
/// what-if calls and the epoch-end Self-Organizer. Phase shifts drive
/// what-if peaks and reorganizations.
#include <memory>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "harness/workloads.h"
#include "storage/tpch_schema.h"

namespace perfbench {
namespace {

/// 40 cycles = 55,950 queries: about a second of OnQuery calls, long
/// enough that the per-call p99 rests on hundreds of epoch ends.
constexpr int kCycles = 40;

class TuneShift : public Workload {
 public:
  explicit TuneShift(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    state_ = std::make_unique<State>();
    State& s = *state_;
    s.catalog = colt::MakeTpchCatalog();
    const std::vector<colt::QueryDistribution> dists =
        colt::ExperimentWorkloads::ShiftingPhases(&s.catalog);
    s.trace = ShiftingTrace(s.catalog, dists, kCycles, seed_);
    colt::ColtConfig config;
    config.storage_budget_bytes = MineBudget(&s.catalog, dists);
    s.optimizer = std::make_unique<colt::QueryOptimizer>(&s.catalog);
    s.tuner = std::make_unique<colt::ColtTuner>(&s.catalog, s.optimizer.get(),
                                                config);
    s.plan_probe = std::make_unique<colt::QueryOptimizer>(&s.catalog);
  }

  void Run(bool traced, Round* out) override {
    State& s = *state_;
    SpanRecorder* spans = traced ? &out->spans : nullptr;
    colt::MetricsRegistry& registry = colt::MetricsRegistry::Default();
    if (traced) {
      // Only so the program's what-if cache counters can be read.
      registry.Reset();
      registry.set_enabled(true);
    }
    TunerLayer layer;
    std::vector<double>& plan_s = out->samples["optimizer.plan"];
    std::vector<double> latency;
    latency.reserve(s.trace.size());

    const double start = Now();
    for (size_t i = 0; i < s.trace.size(); ++i) {
      const colt::Query& q = s.trace[i];
      const int64_t at = static_cast<int64_t>(i);
      if (traced) {
        // Planning cost under the tuner's current configuration, on a
        // bench-owned optimizer so the tuner's own state is untouched.
        plan_s.push_back(Timed(spans, "optimizer.plan", at, [&] {
          colt::PlanResult plan =
              s.plan_probe->Optimize(q, s.tuner->materialized());
        }));
      }
      colt::TuningStep step;
      const double seconds = Timed(spans, "core.on_query", at,
                                   [&] { step = s.tuner->OnQuery(q); });
      latency.push_back(seconds);
      AddStep(step, &out->digest);
      if (traced) {
        layer.Add(q, step, seconds);
        if (step.epoch_ended) {
          KnapsackProbe(s.catalog, s.tuner.get(), spans, at, out);
        }
      }
    }
    out->loop_s = Now() - start;

    out->attempted = static_cast<int64_t>(s.trace.size());
    out->digest.epochs =
        static_cast<int64_t>(s.tuner->epoch_reports().size());
    out->values["stmt_per_s"] =
        static_cast<double>(latency.size()) / out->loop_s;
    out->samples["tune"] = std::move(latency);
    for (const colt::EpochReport& e : s.tuner->epoch_reports()) {
      out->CheckThat(e.materialized_bytes <= s.tuner->storage_budget_bytes(),
                     "epoch " + std::to_string(e.epoch) + " materialized " +
                         std::to_string(e.materialized_bytes) +
                         " bytes over the budget");
    }
    if (traced) {
      layer.Report(*s.tuner, out);
      TakeCacheHitRatio(out);
      registry.set_enabled(false);
    }
    state_.reset();
  }

  void Teardown() override { state_.reset(); }

 private:
  struct State {
    colt::Catalog catalog;
    std::vector<colt::Query> trace;
    std::unique_ptr<colt::QueryOptimizer> optimizer;
    std::unique_ptr<colt::ColtTuner> tuner;
    std::unique_ptr<colt::QueryOptimizer> plan_probe;
  };

  uint64_t seed_;
  std::unique_ptr<State> state_;
};

}  // namespace

std::unique_ptr<Workload> MakeTuneShift(uint64_t seed) {
  return std::make_unique<TuneShift>(seed);
}

}  // namespace perfbench
