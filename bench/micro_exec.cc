/// Microbenchmarks for the physical execution engine (reduced-scale data),
/// and for the load that materializes its data with exact statistics.
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "micro_json_main.h"

#include "catalog/column_stats.h"
#include "common/rng.h"
#include "common/status.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "storage/tpch_schema.h"

namespace colt {
namespace {

struct Fixture {
  Fixture() : db(MakeCatalog(), 7) {
    ColtIgnoreStatus(db.MaterializeAll(/*refresh_stats=*/true));
    li = db.catalog().FindTable("lineitem_0");
    shipdate = db.catalog().table(li).FindColumn("l_shipdate");
    auto desc = db.mutable_catalog().IndexOn(ColumnRef{li, shipdate});
    index_id = desc->id;
    ColtIgnoreStatus(db.BuildIndex(index_id));
  }
  static Catalog MakeCatalog() {
    TpchOptions options;
    options.instances = 1;
    options.scale = 0.05;
    return MakeTpchCatalog(options);
  }
  Database db;
  TableId li = kInvalidTableId;
  ColumnId shipdate = kInvalidColumnId;
  IndexId index_id = kInvalidIndexId;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_ExecSeqScan(benchmark::State& state) {
  Fixture& f = GetFixture();
  QueryOptimizer optimizer(&f.db.catalog());
  Executor executor(&f.db);
  Query q({f.li}, {},
          {SelectionPredicate{{f.li, f.shipdate}, 100, 160}});
  const PlanResult plan = optimizer.Optimize(q, {});
  for (auto _ : state) {
    auto result = executor.Execute(*plan.plan);
    benchmark::DoNotOptimize(result->output_rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          f.db.catalog().table(f.li).row_count());
}
BENCHMARK(BM_ExecSeqScan);

void BM_ExecIndexScan(benchmark::State& state) {
  Fixture& f = GetFixture();
  QueryOptimizer optimizer(&f.db.catalog());
  Executor executor(&f.db);
  Query q({f.li}, {},
          {SelectionPredicate{{f.li, f.shipdate}, 100, 110}});
  IndexConfiguration config;
  config.Add(f.index_id);
  const PlanResult plan = optimizer.Optimize(q, config);
  for (auto _ : state) {
    auto result = executor.Execute(*plan.plan);
    benchmark::DoNotOptimize(result->output_rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecIndexScan);

void BM_ExecBitmapScan(benchmark::State& state) {
  Fixture& f = GetFixture();
  QueryOptimizer optimizer(&f.db.catalog());
  Executor executor(&f.db);
  // Mid selectivity (the BM_ExecSeqScan range): index TIDs, put in row
  // order through a bitmap, then one heap visit per distinct page.
  Query q({f.li}, {},
          {SelectionPredicate{{f.li, f.shipdate}, 100, 160}});
  IndexConfiguration config;
  config.Add(f.index_id);
  const PlanResult plan = optimizer.Optimize(q, config);
  if (plan.plan->type != PlanNodeType::kBitmapScan) {
    state.SkipWithError("optimizer did not choose a bitmap scan");
    return;
  }
  for (auto _ : state) {
    auto result = executor.Execute(*plan.plan);
    benchmark::DoNotOptimize(result->output_rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecBitmapScan);

void BM_ExecHashJoin(benchmark::State& state) {
  Fixture& f = GetFixture();
  QueryOptimizer optimizer(&f.db.catalog());
  Executor executor(&f.db);
  const TableId od = f.db.catalog().FindTable("orders_0");
  const ColumnId okey = f.db.catalog().table(od).FindColumn("o_orderkey");
  const ColumnId odate = f.db.catalog().table(od).FindColumn("o_orderdate");
  const ColumnId lokey =
      f.db.catalog().table(f.li).FindColumn("l_orderkey");
  // The p1_od_li_join shape: a filtered orders build side, probed by the
  // unfiltered lineitem scan, which streams through the probe.
  Query q({od, f.li}, {JoinPredicate{{od, okey}, {f.li, lokey}}},
          {SelectionPredicate{{od, odate}, 0, 30}});
  const PlanResult plan = optimizer.Optimize(q, {});
  for (auto _ : state) {
    auto result = executor.Execute(*plan.plan);
    benchmark::DoNotOptimize(result->output_rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecHashJoin);

// The hash join's worst case: every probe matches, so the bit filter in
// front of the slots passes every probe and only adds work. No shipped
// join template has this shape; each one filters its build side. Both
// inputs are unfiltered scans, so the larger, lineitem, streams.
void BM_ExecHashJoinAllMatch(benchmark::State& state) {
  Fixture& f = GetFixture();
  Executor executor(&f.db);
  const Catalog& catalog = f.db.catalog();
  const TableId od = catalog.FindTable("orders_0");
  auto scan = [](TableId table) {
    auto node = std::make_unique<PlanNode>();
    node->type = PlanNodeType::kSeqScan;
    node->table = table;
    return node;
  };
  // Builds on every order (o_orderkey is their primary key) and probes
  // with every lineitem, each of which has exactly one order.
  PlanNode join;
  join.type = PlanNodeType::kHashJoin;
  join.join_predicate =
      JoinPredicate{{od, catalog.table(od).FindColumn("o_orderkey")},
                    {f.li, catalog.table(f.li).FindColumn("l_orderkey")}};
  join.left = scan(od);
  join.right = scan(f.li);
  for (auto _ : state) {
    auto result = executor.Execute(join);
    if (!result.ok() ||
        result->output_rows != f.db.data(f.li).live_row_count()) {
      state.SkipWithError("not every probe matched");
      return;
    }
    benchmark::DoNotOptimize(result->output_rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecHashJoinAllMatch);

// The set-up every physical bench pays: generate one TPC-H instance at
// scale 0.25 and compute every column's exact statistics. Each iteration
// loads a fresh Database and frees it untimed.
void BM_MaterializeAll(benchmark::State& state) {
  TpchOptions options;
  options.instances = 1;
  options.scale = 0.25;
  for (auto _ : state) {
    state.PauseTiming();
    auto db = std::make_unique<Database>(MakeTpchCatalog(options), 7);
    state.ResumeTiming();
    benchmark::DoNotOptimize(db->MaterializeAll(/*refresh_stats=*/true).ok());
    state.PauseTiming();
    db.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_MaterializeAll)->Unit(benchmark::kMillisecond);

// Exact statistics of one column of range(0) rows over range(1) values: a
// key (a shuffled permutation), a low-NDV column, and a 2^40-wide span,
// whose NDV is counted in a sorted copy rather than a bitmap.
void BM_ColumnStatsFromValues(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t ndv = state.range(1);
  Rng rng(11);
  std::vector<int64_t> values(static_cast<size_t>(rows));
  if (ndv == rows) {
    std::iota(values.begin(), values.end(), 0);
    for (size_t i = values.size() - 1; i > 0; --i) {
      std::swap(values[i], values[rng.NextBelow(i + 1)]);
    }
  } else {
    for (int64_t& v : values) {
      v = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(ndv)));
    }
  }
  for (auto _ : state) {
    const ColumnStats stats = ColumnStats::FromValues(values);
    benchmark::DoNotOptimize(stats.ndv());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ColumnStatsFromValues)
    ->Args({300'000, 300'000})
    ->Args({300'000, 2'500})
    ->Args({300'000, int64_t{1} << 40});

}  // namespace
}  // namespace colt

COLT_MICRO_BENCH_MAIN("micro_exec");
