/// Microbenchmarks for the Extended Query Optimizer: normal optimization,
/// and what-if calls (the quantity COLT budgets), both at a fixed probe
/// count and over the indexes the Profiler would probe for each query.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "micro_json_main.h"

#include "harness/workloads.h"
#include "optimizer/optimizer.h"
#include "storage/tpch_schema.h"

namespace colt {
namespace {

struct Fixture {
  Fixture() : catalog(MakeTpchCatalog()), gen(&catalog, 5) {
    const QueryDistribution dist =
        ExperimentWorkloads::Focused(&catalog, 0);
    for (int i = 0; i < 64; ++i) queries.push_back(gen.Sample(dist));
    for (const ColumnRef& col :
         ExperimentWorkloads::RelevantColumns(&catalog, 0)) {
      ids.push_back(catalog.IndexOn(col)->id);
    }
    for (size_t i = 0; i < 4 && i < ids.size(); ++i) config.Add(ids[i]);
  }
  Catalog catalog;
  WorkloadGenerator gen;
  std::vector<Query> queries;
  std::vector<IndexId> ids;
  IndexConfiguration config;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_OptimizeSingleTable(benchmark::State& state) {
  Fixture& f = GetFixture();
  QueryOptimizer optimizer(&f.catalog);
  size_t i = 0;
  for (auto _ : state) {
    // Skip join queries to isolate single-table planning.
    while (f.queries[i % f.queries.size()].tables().size() != 1) ++i;
    benchmark::DoNotOptimize(
        optimizer.Optimize(f.queries[i % f.queries.size()], f.config).cost);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OptimizeSingleTable);

void BM_OptimizeJoin(benchmark::State& state) {
  Fixture& f = GetFixture();
  QueryOptimizer optimizer(&f.catalog);
  size_t i = 0;
  for (auto _ : state) {
    while (f.queries[i % f.queries.size()].tables().size() < 2) ++i;
    benchmark::DoNotOptimize(
        optimizer.Optimize(f.queries[i % f.queries.size()], f.config).cost);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OptimizeJoin);

/// Probes the first k relevant indexes, whatever tables the query reads, so
/// most probes leave every access path of the query unchanged.
void BM_WhatIfCall(benchmark::State& state) {
  Fixture& f = GetFixture();
  QueryOptimizer optimizer(&f.catalog);
  const int probes = static_cast<int>(state.range(0));
  std::vector<IndexId> probation(f.ids.begin(), f.ids.begin() + probes);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimizer
            .WhatIfOptimize(f.queries[i % f.queries.size()], f.config,
                            probation)
            .size());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * probes);
}
BENCHMARK(BM_WhatIfCall)->Arg(1)->Arg(4)->Arg(8);

/// Probes what the Profiler probes: for each query, only the fixture
/// indexes on that query's own selection and join columns, picked before
/// the timed loop. Items are probes.
void BM_WhatIfCallOwnColumns(benchmark::State& state) {
  Fixture& f = GetFixture();
  QueryOptimizer optimizer(&f.catalog);
  IndexConfiguration all;
  for (IndexId id : f.ids) all.Add(id);
  std::vector<std::pair<const Query*, std::vector<IndexId>>> work;
  for (const Query& q : f.queries) {
    std::vector<IndexId> own = optimizer.RelevantIndexes(q, all);
    if (!own.empty()) work.emplace_back(&q, std::move(own));
  }
  if (work.empty()) {
    state.SkipWithError("no query reads an indexed column");
    return;
  }
  int64_t probes = 0;
  size_t i = 0;
  for (auto _ : state) {
    const auto& [q, own] = work[i % work.size()];
    benchmark::DoNotOptimize(
        optimizer.WhatIfOptimize(*q, f.config, own).size());
    probes += static_cast<int64_t>(own.size());
    ++i;
  }
  state.SetItemsProcessed(probes);
}
BENCHMARK(BM_WhatIfCallOwnColumns);

void BM_CrudeGain(benchmark::State& state) {
  Fixture& f = GetFixture();
  QueryOptimizer optimizer(&f.catalog);
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = f.queries[i % f.queries.size()];
    double total = 0;
    for (const auto& pred : q.selections()) {
      auto desc = f.catalog.IndexOn(pred.column);
      total += optimizer.CrudeGain(pred, *desc);
    }
    benchmark::DoNotOptimize(total);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrudeGain);

}  // namespace
}  // namespace colt

COLT_MICRO_BENCH_MAIN("micro_optimizer");
