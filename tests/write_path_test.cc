/// Differential tests for the write path (DESIGN.md §16): INSERT/UPDATE/
/// DELETE statements flow through the tuner, their estimated volumes are
/// charged as per-index maintenance at epoch boundaries, and none of the
/// surrounding contracts regress — read-only runs are untouched by the
/// charging knob, parallel and persistent runs stay bit-identical to their
/// serial/ephemeral references, and a statistics-only run makes the exact
/// decisions a physically-applied run makes (model-currency invariant).
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/offline_tuner.h"
#include "common/persist/serializer.h"
#include "common/rng.h"
#include "core/colt.h"
#include "core/write_stats.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/workloads.h"
#include "query/workload.h"
#include "storage/database.h"
#include "storage/tpch_schema.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeRangeQuery;
using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

// ---------------------------------------------------------------------------
// WriteStatsStore units: estimated volumes -> B+-tree entry operations.
// ---------------------------------------------------------------------------

IndexDescriptor IndexOver(const std::vector<ColumnRef>& columns) {
  IndexDescriptor idx;
  idx.columns = columns;
  idx.column = columns.front();
  return idx;
}

TEST(WriteStats, InsertAndDeleteDriveOneOpPerRow) {
  WriteStatsStore store;
  store.RecordInsert(/*table=*/1, 100.0);
  store.RecordDelete(/*table=*/1, 40.0);
  const IndexDescriptor on_table = IndexOver({{1, 0}});
  const IndexDescriptor elsewhere = IndexOver({{2, 0}});
  EXPECT_DOUBLE_EQ(store.EpochEntryOps(on_table), 140.0);
  EXPECT_DOUBLE_EQ(store.EpochEntryOps(elsewhere), 0.0);
  EXPECT_EQ(store.epoch_write_queries(), 2);
  EXPECT_DOUBLE_EQ(store.epoch_rows_written(), 140.0);
}

TEST(WriteStats, UpdateChargesOnlyIndexesOverAssignedColumns) {
  WriteStatsStore store;
  store.RecordUpdate(/*table=*/1, {/*column=*/5}, 30.0);
  // Key column assigned: erase + re-insert, 2 ops per row.
  EXPECT_DOUBLE_EQ(store.EpochEntryOps(IndexOver({{1, 5}})), 60.0);
  // Index whose key the UPDATE never touches: heap-only change, 0 ops.
  EXPECT_DOUBLE_EQ(store.EpochEntryOps(IndexOver({{1, 6}})), 0.0);
}

TEST(WriteStats, CompositeIndexSumsPerKeyColumnTerms) {
  WriteStatsStore store;
  store.RecordUpdate(/*table=*/1, {/*column=*/2}, 10.0);
  store.RecordUpdate(/*table=*/1, {/*column=*/3}, 5.0);
  // (2 * 10) for the first key column + (2 * 5) for the second.
  EXPECT_DOUBLE_EQ(store.EpochEntryOps(IndexOver({{1, 2}, {1, 3}})), 30.0);
}

TEST(WriteStats, AdvanceEpochClearsVolumesAndKeepsLifetimeTotals) {
  WriteStatsStore store;
  EXPECT_FALSE(store.any_writes());
  store.RecordInsert(/*table=*/1, 25.0);
  store.RecordInsert(/*table=*/1, 25.0);
  EXPECT_EQ(store.epoch_write_queries(), 2);
  store.AdvanceEpoch();
  EXPECT_DOUBLE_EQ(store.EpochEntryOps(IndexOver({{1, 0}})), 0.0);
  EXPECT_DOUBLE_EQ(store.epoch_rows_written(), 0.0);
  EXPECT_EQ(store.epoch_write_queries(), 0);
  EXPECT_EQ(store.total_write_queries(), 2);
  EXPECT_TRUE(store.any_writes());
}

TEST(WriteStats, SaveLoadRoundTripPreservesEpochAndLifetimeState) {
  WriteStatsStore store;
  store.RecordInsert(/*table=*/1, 100.0);
  store.RecordUpdate(/*table=*/1, {/*column=*/5}, 30.0);
  store.AdvanceEpoch();
  store.RecordDelete(/*table=*/2, 7.0);

  BinaryWriter writer;
  store.SaveState(&writer);
  BinaryReader reader(writer.buffer());
  WriteStatsStore loaded;
  ASSERT_TRUE(loaded.LoadState(&reader).ok());
  EXPECT_EQ(loaded.epoch_write_queries(), store.epoch_write_queries());
  EXPECT_EQ(loaded.total_write_queries(), store.total_write_queries());
  EXPECT_DOUBLE_EQ(loaded.epoch_rows_written(), store.epoch_rows_written());
  EXPECT_DOUBLE_EQ(loaded.EpochEntryOps(IndexOver({{2, 0}})),
                   store.EpochEntryOps(IndexOver({{2, 0}})));
}

// ---------------------------------------------------------------------------
// Run-level differentials.
// ---------------------------------------------------------------------------

std::string EpochCsv(const ColtRunResult& run) {
  std::ostringstream out;
  EXPECT_TRUE(WriteEpochReportCsv(run.epochs, out).ok());
  return out.str();
}

std::string PerQueryCsv(const ColtRunResult& run) {
  std::ostringstream out;
  EXPECT_TRUE(WritePerQueryCsv(run, /*offline_seconds=*/{}, out).ok());
  return out.str();
}

/// EXPECT_EQ on doubles is deliberate: the contract is bit-identity.
void ExpectRunsBitIdentical(const ColtRunResult& a, const ColtRunResult& b) {
  ASSERT_EQ(a.per_query.size(), b.per_query.size());
  for (size_t i = 0; i < a.per_query.size(); ++i) {
    EXPECT_EQ(a.per_query[i].execution, b.per_query[i].execution)
        << "query " << i;
    EXPECT_EQ(a.per_query[i].maintenance, b.per_query[i].maintenance)
        << "query " << i;
    EXPECT_EQ(a.per_query[i].write, b.per_query[i].write) << "query " << i;
    EXPECT_EQ(a.per_query[i].profiling, b.per_query[i].profiling)
        << "query " << i;
    EXPECT_EQ(a.per_query[i].build, b.per_query[i].build) << "query " << i;
  }
  EXPECT_EQ(a.final_materialized.ids(), b.final_materialized.ids());
  EXPECT_EQ(EpochCsv(a), EpochCsv(b));
  EXPECT_EQ(PerQueryCsv(a), PerQueryCsv(b));
}

double TotalMaintenanceCharged(const ColtRunResult& run) {
  double total = 0.0;
  for (const auto& e : run.epochs) total += e.maintenance_charged;
  return total;
}

int64_t TotalWriteQueries(const ColtRunResult& run) {
  int64_t total = 0;
  for (const auto& e : run.epochs) total += e.write_queries;
  return total;
}

/// The fig_htap workload at smoke scale: read-heavy / write-heavy (3x) /
/// read-heavy phases over TPC-H instance 0, with gradual transitions.
std::vector<Query> HtapWorkload(Catalog* catalog) {
  const std::vector<QueryDistribution> dists =
      ExperimentWorkloads::HtapPhases(catalog);
  std::vector<WorkloadPhase> phases;
  for (const auto& d : dists) phases.push_back({d, 100});
  phases[1].length = 300;
  WorkloadGenerator gen(catalog, /*seed=*/77);
  return GeneratePhasedWorkload(gen, phases, /*transition_length=*/20);
}

/// Budget sized like bench/fig_htap.cc: mined from the phases' read shapes
/// on a scratch catalog so the run catalogs start identical.
int64_t HtapBudget() {
  Catalog catalog = MakeTpchCatalog();
  const std::vector<QueryDistribution> dists =
      ExperimentWorkloads::HtapPhases(&catalog);
  QueryOptimizer opt(&catalog);
  OfflineTuner miner(&catalog, &opt);
  WorkloadGenerator gen(&catalog, 1234);
  std::vector<Query> sample;
  for (const auto& d : dists) {
    for (int i = 0; i < 200; ++i) {
      Query q = gen.Sample(d);
      if (!q.is_write()) sample.push_back(std::move(q));
    }
  }
  Result<std::vector<IndexId>> relevant = miner.MineRelevantIndexes(sample);
  EXPECT_TRUE(relevant.ok());
  return BudgetForIndexes(catalog, relevant.value(), 4.0);
}

ColtRunResult RunHtap(bool charge, int64_t budget) {
  Catalog catalog = MakeTpchCatalog();
  const std::vector<Query> workload = HtapWorkload(&catalog);
  ColtConfig config;
  config.storage_budget_bytes = budget;
  config.charge_index_maintenance = charge;
  return RunColtWorkload(&catalog, workload, config);
}

TEST(WritePathTest, ChargeKnobIsInertOnReadOnlyWorkloads) {
  // With no write statement in the stream there is nothing to charge: the
  // knob must not move a single bit, and the CSVs must keep their
  // read-only schema (no write columns appear).
  auto run = [](bool charge) {
    Catalog catalog = MakeTestCatalog();
    Rng rng(21);
    std::vector<Query> workload;
    for (int i = 0; i < 150; ++i) {
      const int64_t lo = rng.NextInRange(0, 9000);
      workload.push_back(MakeRangeQuery(catalog, "big", "b_key", lo, lo + 20));
    }
    ColtConfig config;
    config.storage_budget_bytes = 64LL * 1024 * 1024;
    config.charge_index_maintenance = charge;
    return RunColtWorkload(&catalog, workload, config);
  };
  const ColtRunResult on = run(true);
  const ColtRunResult off = run(false);
  ASSERT_FALSE(on.final_materialized.empty());
  ExpectRunsBitIdentical(on, off);
  EXPECT_EQ(TotalWriteQueries(on), 0);
  EXPECT_EQ(EpochCsv(on).find("write_queries"), std::string::npos);
  EXPECT_EQ(PerQueryCsv(on).find("maintenance"), std::string::npos);
}

TEST(WritePathTest, ChargingChangesDecisionsUnderHtapWrites) {
  // The HTAP flip: with charging on, the write-hot lineitem indexes'
  // net benefit goes negative and the materialized history diverges from
  // the maintenance-blind ablation's (bench/fig_htap.cc gates the
  // direction of the difference; here we gate that it exists and that
  // only the charged run folded a charge into its epochs).
  const int64_t budget = HtapBudget();
  const ColtRunResult charged = RunHtap(/*charge=*/true, budget);
  const ColtRunResult blind = RunHtap(/*charge=*/false, budget);
  ASSERT_GT(TotalWriteQueries(charged), 0);
  EXPECT_GT(TotalMaintenanceCharged(charged), 0.0);
  EXPECT_EQ(TotalMaintenanceCharged(blind), 0.0);
  // Same workload, same budget — the only difference is the knob, and it
  // must change at least one epoch's chosen index set.
  ASSERT_EQ(charged.epochs.size(), blind.epochs.size());
  bool any_epoch_differs = false;
  for (size_t i = 0; i < charged.epochs.size(); ++i) {
    any_epoch_differs = any_epoch_differs ||
                        charged.epochs[i].materialized_ids !=
                            blind.epochs[i].materialized_ids;
  }
  EXPECT_TRUE(any_epoch_differs);
  // Both runs see the same write statements and price their execution
  // identically; divergence is a tuning-decision effect, not a cost one.
  EXPECT_EQ(TotalWriteQueries(charged), TotalWriteQueries(blind));
}

// ---------------------------------------------------------------------------
// Persistence differential under writes.
// ---------------------------------------------------------------------------

/// Mixed read/write stream on the small test catalog: b_key reads earn an
/// index, inserts and key-column updates charge it.
std::vector<Query> MixedWriteWorkload(const Catalog& catalog, int n,
                                      uint64_t seed) {
  Rng rng(seed);
  const TableId big = catalog.FindTable("big");
  const ColumnId b_key = catalog.table(big).FindColumn("b_key");
  std::vector<Query> out;
  for (int i = 0; i < n; ++i) {
    const int64_t lo = rng.NextInRange(0, 9000);
    switch (rng.NextBelow(5)) {
      case 0:
        out.push_back(Query::MakeInsert(big, 200 + rng.NextInRange(0, 300)));
        break;
      case 1:
        out.push_back(Query::MakeUpdate(
            big, {{b_key, rng.NextInRange(0, 9999)}},
            {SelectionPredicate{Ref(catalog, "big", "b_val"), lo % 1000,
                                lo % 1000 + 3}}));
        break;
      case 2:
        out.push_back(Query::MakeDelete(
            big, {SelectionPredicate{Ref(catalog, "big", "b_key"), lo,
                                     lo + 2}}));
        break;
      default:
        out.push_back(MakeRangeQuery(catalog, "big", "b_key", lo, lo + 20));
        break;
    }
  }
  return out;
}

std::string NewStateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/write_path_" + name;
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/snap-0.bin").c_str());
  std::remove((dir + "/snap-1.bin").c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void ExpectStepEq(const TuningStep& a, const TuningStep& b, int at) {
  EXPECT_EQ(a.plan.cost, b.plan.cost) << "query " << at;
  EXPECT_EQ(a.execution_seconds, b.execution_seconds) << "query " << at;
  EXPECT_EQ(a.maintenance_seconds, b.maintenance_seconds) << "query " << at;
  EXPECT_EQ(a.profiling_seconds, b.profiling_seconds) << "query " << at;
  EXPECT_EQ(a.build_seconds, b.build_seconds) << "query " << at;
  EXPECT_EQ(a.epoch_ended, b.epoch_ended) << "query " << at;
}

TEST(WritePathTest, RecoveryRestoresWriteCountersBitIdentically) {
  // Persistence-on/off differential with a kill in the middle: the write
  // volumes recorded before the crash must survive into the recovered
  // tuner's epoch charges, or the first post-recovery boundary diverges.
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  const int total = 80;
  const int kill_after = 40;  // epoch boundary (epoch_length = 10)
  const std::string dir = NewStateDir("recovery");

  // Continuous reference, persistence off.
  Catalog ref_catalog = MakeTestCatalog();
  QueryOptimizer ref_optimizer(&ref_catalog);
  ColtTuner reference(&ref_catalog, &ref_optimizer, config);
  const std::vector<Query> ref_workload =
      MixedWriteWorkload(ref_catalog, total, 55);
  std::vector<TuningStep> ref_steps;
  for (const Query& q : ref_workload) ref_steps.push_back(reference.OnQuery(q));

  double ref_charged = 0.0;
  for (const EpochReport& e : reference.epoch_reports()) {
    ref_charged += e.maintenance_charged;
  }
  ASSERT_GT(ref_charged, 0.0) << "the workload must charge maintenance for "
                                 "the differential to mean anything";

  ColtConfig persist_config = config;
  persist_config.state_dir = dir;
  {
    Catalog victim_catalog = MakeTestCatalog();
    QueryOptimizer victim_optimizer(&victim_catalog);
    ColtTuner victim(&victim_catalog, &victim_optimizer, persist_config);
    const std::vector<Query> workload =
        MixedWriteWorkload(victim_catalog, total, 55);
    for (int i = 0; i < kill_after; ++i) {
      // Persistence on vs. off must not change tuning by a single bit.
      ExpectStepEq(ref_steps[static_cast<size_t>(i)],
                   victim.OnQuery(workload[static_cast<size_t>(i)]), i);
    }
  }

  Catalog rec_catalog = MakeTestCatalog();
  QueryOptimizer rec_optimizer(&rec_catalog);
  ColtTuner recovered(&rec_catalog, &rec_optimizer, persist_config);
  const Result<bool> resumed = recovered.RecoverFromStateDir();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE(*resumed);
  const std::vector<Query> workload =
      MixedWriteWorkload(rec_catalog, total, 55);
  for (int i = kill_after; i < total; ++i) {
    ExpectStepEq(ref_steps[static_cast<size_t>(i)],
                 recovered.OnQuery(workload[static_cast<size_t>(i)]), i);
  }
  EXPECT_EQ(recovered.materialized().ids(), reference.materialized().ids());

  // The recovered tuner's post-boundary epochs must charge exactly what
  // the reference charged at the same epoch numbers.
  const auto& ref_reports = reference.epoch_reports();
  const auto& rec_reports = recovered.epoch_reports();
  const size_t skipped = ref_reports.size() - rec_reports.size();
  for (size_t i = 0; i < rec_reports.size(); ++i) {
    EXPECT_EQ(ref_reports[i + skipped].maintenance_charged,
              rec_reports[i].maintenance_charged)
        << "epoch " << rec_reports[i].epoch;
    EXPECT_EQ(ref_reports[i + skipped].write_queries,
              rec_reports[i].write_queries)
        << "epoch " << rec_reports[i].epoch;
  }
}

// ---------------------------------------------------------------------------
// Model-currency invariant: statistics-only vs physically applied writes.
// ---------------------------------------------------------------------------

TEST(WritePathTest, StatsOnlyAndPhysicalRunsMakeIdenticalDecisions) {
  // The maintenance charge is computed from optimizer estimates on
  // purpose: attaching a real Database (writes mutate heaps and built
  // trees) must not move any tuning statistic by a single bit.
  Catalog stats_catalog = MakeTestCatalog();
  const std::vector<Query> workload =
      MixedWriteWorkload(stats_catalog, 200, 77);
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  const ColtRunResult stats_only =
      RunColtWorkload(&stats_catalog, workload, config);
  ASSERT_GT(TotalWriteQueries(stats_only), 0);
  ASSERT_FALSE(stats_only.final_materialized.empty());

  Database db(MakeTestCatalog(), 7);
  ASSERT_TRUE(db.MaterializeAll().ok());
  const TableId big = db.catalog().FindTable("big");
  const int64_t rows_before = db.data(big).live_row_count();
  const ColtRunResult physical = RunColtWorkload(
      &db.mutable_catalog(), workload, config, /*cost_params=*/{},
      /*seed=*/7, &db);

  ExpectRunsBitIdentical(stats_only, physical);

  // The physical side really applied the stream: the heap changed, and
  // every surviving tree is structurally sound and exactly tracks the
  // live rows of its table.
  EXPECT_NE(db.data(big).live_row_count(), rows_before);
  EXPECT_EQ(db.BuiltIndexIds(), physical.final_materialized.ids());
  for (IndexId id : db.BuiltIndexIds()) {
    EXPECT_TRUE(db.index(id).CheckInvariants().ok());
    const TableId table = db.catalog().index(id).column.table;
    EXPECT_EQ(db.index(id).entry_count(), db.data(table).live_row_count())
        << db.catalog().index(id).name;
  }
}

}  // namespace
}  // namespace colt
