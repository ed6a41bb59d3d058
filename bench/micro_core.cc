/// Microbenchmarks for the COLT core: per-query tuner overhead (the cost of
/// monitoring itself), the selectivity and forecast inputs it recomputes,
/// knapsack solves, clustering assignment, and the observability
/// primitives the pipeline is instrumented with.
#include <benchmark/benchmark.h>

#include "micro_json_main.h"

#include "catalog/column_stats.h"
#include "common/metrics.h"
#include "common/tracing.h"
#include "core/colt.h"
#include "core/forecasting.h"
#include "core/knapsack.h"
#include "harness/workloads.h"
#include "storage/tpch_schema.h"

namespace colt {
namespace {

void BM_ColtOnQuery(benchmark::State& state) {
  static Catalog* catalog = new Catalog(MakeTpchCatalog());
  QueryOptimizer optimizer(catalog);
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  ColtTuner tuner(catalog, &optimizer, config);
  const QueryDistribution dist = ExperimentWorkloads::Focused(catalog, 0);
  WorkloadGenerator gen(catalog, 3);
  std::vector<Query> queries;
  for (int i = 0; i < 256; ++i) queries.push_back(gen.Sample(dist));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tuner.OnQuery(queries[i % queries.size()]).execution_seconds);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColtOnQuery);

/// One RangeSelectivity call, the optimizer's most frequent estimate
/// (several per query). zipf:0 reads a 32-bucket equi-width Uniform
/// histogram, zipf:1 a 64-bucket equi-depth Zipf one, both over a million
/// values; whole:0 asks for a range inside one middle bucket, whole:1 for
/// the whole domain.
void BM_RangeSelectivity(benchmark::State& state) {
  const bool zipf = state.range(0) == 1;
  const ColumnStats stats = zipf
                                ? ColumnStats::Zipf(1'000'000, 6'000'000, 1.0)
                                : ColumnStats::Uniform(1'000'000, 6'000'000);
  int64_t lo = stats.min_value();
  int64_t hi = stats.max_value();
  if (state.range(1) == 0) {
    const int mid = stats.bucket_count() / 2;
    if (zipf) {
      lo = stats.bucket_upper()[mid - 1] + 1;
      hi = stats.bucket_upper()[mid];
    } else {
      lo = static_cast<int64_t>(mid * stats.bucket_width()) + 1;
      hi = lo + static_cast<int64_t>(stats.bucket_width() / 4);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats.RangeSelectivity(lo, hi));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeSelectivity)
    ->ArgNames({"zipf", "whole"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

/// NetBenefit's gross forecast for one index at h = 12, with a full
/// history and with the 3 epochs of a freshly promoted index.
void BM_TotalPredictedBenefit(benchmark::State& state) {
  BenefitForecaster forecaster(12);
  Rng rng(5);
  for (int64_t e = 0; e < state.range(0); ++e) {
    forecaster.RecordEpoch(1, rng.NextDouble() * 1000.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(forecaster.TotalPredictedBenefit(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TotalPredictedBenefit)->ArgName("epochs")->Arg(12)->Arg(3);

void BM_KnapsackDp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(9);
  std::vector<KnapsackItem> items;
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    const int64_t size = 1 + static_cast<int64_t>(rng.NextBelow(64 << 20));
    total += size;
    items.push_back({i, size, static_cast<double>(rng.NextBelow(100000))});
  }
  const int64_t capacity = total / 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveKnapsack(items, capacity).total_value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KnapsackDp)->Arg(8)->Arg(12)->Arg(32)->Arg(128);

void BM_ClusterAssign(benchmark::State& state) {
  static Catalog* catalog = new Catalog(MakeTpchCatalog());
  ClusterManager clusters(catalog, 12);
  const QueryDistribution dist = ExperimentWorkloads::Focused(catalog, 0);
  WorkloadGenerator gen(catalog, 3);
  std::vector<Query> queries;
  for (int i = 0; i < 256; ++i) queries.push_back(gen.Sample(dist));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clusters.Assign(queries[i % queries.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterAssign);

void BM_SignatureCompute(benchmark::State& state) {
  static Catalog* catalog = new Catalog(MakeTpchCatalog());
  const QueryDistribution dist = ExperimentWorkloads::Focused(catalog, 0);
  WorkloadGenerator gen(catalog, 3);
  std::vector<Query> queries;
  for (int i = 0; i < 256; ++i) queries.push_back(gen.Sample(dist));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        QuerySignatureHash()(ComputeSignature(*catalog,
                                              queries[i % queries.size()])));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignatureCompute);

void BM_TwoMeansSplit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(17);
  std::vector<double> values;
  for (int i = 0; i < n; ++i) values.push_back(rng.NextDouble() * 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTwoMeansSplit(values).threshold);
  }
}
BENCHMARK(BM_TwoMeansSplit)->Arg(20)->Arg(200);

// ---- Observability primitives: the per-update cost every instrumented
// call site pays. range(0) selects registry state (0 = disabled — the
// default for production runs — 1 = enabled), so the disabled numbers
// bound the overhead instrumentation adds to an untraced run.

void BM_MetricsCounterAdd(benchmark::State& state) {
  MetricsRegistry registry;
  registry.set_enabled(state.range(0) != 0);
  Counter* counter = registry.GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Increment();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterAdd)->Arg(0)->Arg(1);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  MetricsRegistry registry;
  registry.set_enabled(state.range(0) != 0);
  Histogram* hist = registry.GetHistogram("bench.hist");
  double v = 1e-7;
  for (auto _ : state) {
    hist->Record(v);
    v = v < 1.0 ? v * 1.0001 : 1e-7;
    benchmark::DoNotOptimize(hist);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramRecord)->Arg(0)->Arg(1);

// range(0) == 2 also attaches a span ring, so every scope records a span
// too: the cost of one traced stage.
void BM_MetricsScopedTimer(benchmark::State& state) {
  MetricsRegistry registry;
  SpanRing ring;
  registry.set_enabled(state.range(0) != 0);
  if (state.range(0) == 2) registry.set_span_ring(&ring);
  Histogram* hist = registry.GetHistogram("bench.timer.seconds");
  for (auto _ : state) {
    ScopedTimer timer(hist);
    benchmark::DoNotOptimize(hist);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsScopedTimer)->Arg(0)->Arg(1)->Arg(2);

void BM_WallTimerNow(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(WallTimer::Now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WallTimerNow);

}  // namespace
}  // namespace colt

COLT_MICRO_BENCH_MAIN("micro_core");
