#include "core/colt.h"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/offline_tuner.h"
#include "harness/experiment.h"
#include "harness/workloads.h"
#include "storage/tpch_schema.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeRangeQuery;
using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

/// A workload heavily dominated by selective b_key queries; the obviously
/// right configuration is the b_key index.
std::vector<Query> KeyHeavyWorkload(const Catalog& catalog, int n,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  for (int i = 0; i < n; ++i) {
    const int64_t lo = rng.NextInRange(0, 9900);
    out.push_back(MakeRangeQuery(catalog, "big", "b_key", lo, lo + 20));
  }
  return out;
}

class ColtTunerTest : public ::testing::Test {
 protected:
  ColtTunerTest() : catalog_(MakeTestCatalog()), optimizer_(&catalog_) {
    config_.storage_budget_bytes = 64LL * 1024 * 1024;
  }

  Catalog catalog_;
  QueryOptimizer optimizer_;
  ColtConfig config_;
};

TEST_F(ColtTunerTest, StartsEmptyWithFullBudget) {
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  EXPECT_TRUE(tuner.materialized().empty());
  EXPECT_TRUE(tuner.hot_set().empty());
  EXPECT_EQ(tuner.whatif_limit(), config_.max_whatif_per_epoch);
  EXPECT_EQ(tuner.current_epoch(), 0);
}

TEST_F(ColtTunerTest, EpochBoundaryEveryWQueries) {
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  const auto workload = KeyHeavyWorkload(catalog_, 35, 1);
  int boundaries = 0;
  for (const auto& q : workload) {
    const TuningStep step = tuner.OnQuery(q);
    boundaries += step.epoch_ended ? 1 : 0;
  }
  EXPECT_EQ(boundaries, 3);  // 35 queries, w = 10
  EXPECT_EQ(tuner.current_epoch(), 3);
  EXPECT_EQ(tuner.epoch_reports().size(), 3u);
}

TEST_F(ColtTunerTest, MaterializesTheObviousIndex) {
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  const IndexId b_key = catalog_.IndexOn(Ref(catalog_, "big", "b_key"))->id;
  for (const auto& q : KeyHeavyWorkload(catalog_, 100, 2)) {
    tuner.OnQuery(q);
  }
  EXPECT_TRUE(tuner.materialized().Contains(b_key));
}

TEST_F(ColtTunerTest, ExecutionTimeDropsAfterMaterialization) {
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  const auto workload = KeyHeavyWorkload(catalog_, 100, 3);
  double first_epoch = 0.0, last_epoch = 0.0;
  for (int i = 0; i < 100; ++i) {
    const TuningStep step = tuner.OnQuery(workload[i]);
    if (i < 10) first_epoch += step.execution_seconds;
    if (i >= 90) last_epoch += step.execution_seconds;
  }
  EXPECT_LT(last_epoch, first_epoch * 0.5);
}

TEST_F(ColtTunerTest, WhatIfBudgetNeverExceededInAnyEpoch) {
  config_.max_whatif_per_epoch = 6;
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  for (const auto& q : KeyHeavyWorkload(catalog_, 200, 4)) {
    tuner.OnQuery(q);
  }
  for (const auto& report : tuner.epoch_reports()) {
    EXPECT_LE(report.whatif_used, report.whatif_limit);
    EXPECT_LE(report.whatif_used, config_.max_whatif_per_epoch);
    EXPECT_LE(report.next_whatif_limit, config_.max_whatif_per_epoch);
  }
}

TEST_F(ColtTunerTest, StorageBudgetNeverExceeded) {
  // Budget fits only the small-table index.
  const IndexId b_key = catalog_.IndexOn(Ref(catalog_, "big", "b_key"))->id;
  config_.storage_budget_bytes = catalog_.index(b_key).size_bytes - 1;
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  for (const auto& q : KeyHeavyWorkload(catalog_, 150, 5)) {
    tuner.OnQuery(q);
  }
  for (const auto& report : tuner.epoch_reports()) {
    EXPECT_LE(report.materialized_bytes, config_.storage_budget_bytes);
  }
  EXPECT_FALSE(tuner.materialized().Contains(b_key));
}

TEST_F(ColtTunerTest, BuildTimeChargedOnMaterialization) {
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  double total_build = 0.0;
  bool build_seen = false;
  for (const auto& q : KeyHeavyWorkload(catalog_, 100, 6)) {
    const TuningStep step = tuner.OnQuery(q);
    total_build += step.build_seconds;
    if (!step.actions.empty()) {
      build_seen = true;
      EXPECT_TRUE(step.epoch_ended);  // reorganization only at boundaries
    }
  }
  EXPECT_TRUE(build_seen);
  EXPECT_GT(total_build, 0.0);
}

TEST_F(ColtTunerTest, ProfilingOverheadMatchesCallCount) {
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  for (const auto& q : KeyHeavyWorkload(catalog_, 50, 7)) {
    const TuningStep step = tuner.OnQuery(q);
    EXPECT_NEAR(step.profiling_seconds,
                step.whatif_calls * kWhatIfCallSeconds, 1e-12);
  }
}

TEST_F(ColtTunerTest, HibernatesOnceTuned) {
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  for (const auto& q : KeyHeavyWorkload(catalog_, 400, 8)) {
    tuner.OnQuery(q);
  }
  // In the last 10 epochs the tuner should be (mostly) asleep.
  const auto& reports = tuner.epoch_reports();
  int64_t late_calls = 0;
  for (size_t i = reports.size() - 10; i < reports.size(); ++i) {
    late_calls += reports[i].whatif_used;
  }
  EXPECT_LT(late_calls, 10 * config_.max_whatif_per_epoch / 4);
}

TEST_F(ColtTunerTest, AdaptsToShift) {
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  const IndexId b_key = catalog_.IndexOn(Ref(catalog_, "big", "b_key"))->id;
  const IndexId b_val = catalog_.IndexOn(Ref(catalog_, "big", "b_val"))->id;
  Rng rng(9);
  // Phase 1: b_key queries.
  for (const auto& q : KeyHeavyWorkload(catalog_, 200, 10)) {
    tuner.OnQuery(q);
  }
  EXPECT_TRUE(tuner.materialized().Contains(b_key));
  // Phase 2: selective b_val queries only.
  for (int i = 0; i < 300; ++i) {
    const int64_t lo = rng.NextInRange(0, 990);
    tuner.OnQuery(MakeRangeQuery(catalog_, "big", "b_val", lo, lo + 1));
  }
  EXPECT_TRUE(tuner.materialized().Contains(b_val));
}

TEST_F(ColtTunerTest, DropsUselessIndexEventually) {
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  const IndexId b_key = catalog_.IndexOn(Ref(catalog_, "big", "b_key"))->id;
  for (const auto& q : KeyHeavyWorkload(catalog_, 200, 11)) {
    tuner.OnQuery(q);
  }
  ASSERT_TRUE(tuner.materialized().Contains(b_key));
  // Shift entirely to the small table; the b_key index becomes useless.
  Rng rng(12);
  for (int i = 0; i < 400; ++i) {
    tuner.OnQuery(MakeRangeQuery(catalog_, "small", "s_val",
                                 rng.NextInRange(0, 99),
                                 rng.NextInRange(0, 99)));
  }
  EXPECT_FALSE(tuner.materialized().Contains(b_key));
}

TEST_F(ColtTunerTest, EpochReportsInternallyConsistent) {
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  for (const auto& q : KeyHeavyWorkload(catalog_, 150, 13)) {
    tuner.OnQuery(q);
  }
  int expected_epoch = 0;
  for (const auto& report : tuner.epoch_reports()) {
    EXPECT_EQ(report.epoch, expected_epoch++);
    EXPECT_GE(report.candidate_count, 1);
    EXPECT_GE(report.cluster_count, 1);
    // Hot and materialized sets are disjoint.
    for (IndexId hot : report.hot_ids) {
      EXPECT_TRUE(std::find(report.materialized_ids.begin(),
                            report.materialized_ids.end(),
                            hot) == report.materialized_ids.end());
    }
  }
}

TEST_F(ColtTunerTest, DeterministicGivenSeed) {
  const auto workload = KeyHeavyWorkload(catalog_, 120, 14);
  QueryOptimizer opt1(&catalog_), opt2(&catalog_);
  ColtTuner t1(&catalog_, &opt1, config_, nullptr, 99);
  ColtTuner t2(&catalog_, &opt2, config_, nullptr, 99);
  for (const auto& q : workload) {
    const TuningStep s1 = t1.OnQuery(q);
    const TuningStep s2 = t2.OnQuery(q);
    ASSERT_DOUBLE_EQ(s1.execution_seconds, s2.execution_seconds);
    ASSERT_EQ(s1.whatif_calls, s2.whatif_calls);
  }
  EXPECT_EQ(t1.materialized().ids(), t2.materialized().ids());
}

TEST_F(ColtTunerTest, PhysicalModeBuildsIndexes) {
  Database db(MakeTestCatalog(), 21);
  ASSERT_TRUE(db.MaterializeAll().ok());
  QueryOptimizer optimizer(&db.catalog());
  ColtTuner tuner(&db.mutable_catalog(), &optimizer, config_, &db);
  for (const auto& q : KeyHeavyWorkload(db.catalog(), 100, 22)) {
    tuner.OnQuery(q);
  }
  // Whatever COLT materialized exists physically.
  for (IndexId id : tuner.materialized().ids()) {
    EXPECT_TRUE(db.HasBuiltIndex(id));
  }
  EXPECT_FALSE(tuner.materialized().empty());
}


TEST_F(ColtTunerTest, IdleTimeStrategyChargesNoBuildTime) {
  config_.scheduling_strategy = SchedulingStrategy::kIdleTime;
  config_.idle_seconds_per_query = 5.0;
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  const IndexId b_key = catalog_.IndexOn(Ref(catalog_, "big", "b_key"))->id;
  double total_build = 0.0;
  for (const auto& q : KeyHeavyWorkload(catalog_, 300, 31)) {
    total_build += tuner.OnQuery(q).build_seconds;
  }
  EXPECT_DOUBLE_EQ(total_build, 0.0);  // builds happen in idle gaps
  EXPECT_TRUE(tuner.materialized().Contains(b_key));
}

TEST_F(ColtTunerTest, IdleTimeStrategyDelaysAvailability) {
  // With almost no idle time, the index stays pending.
  config_.scheduling_strategy = SchedulingStrategy::kIdleTime;
  config_.idle_seconds_per_query = 1e-9;
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  for (const auto& q : KeyHeavyWorkload(catalog_, 200, 32)) {
    tuner.OnQuery(q);
  }
  EXPECT_TRUE(tuner.materialized().empty());
}


TEST_F(ColtTunerTest, ExplainStateCoversAllRoles) {
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  for (const auto& q : KeyHeavyWorkload(catalog_, 200, 41)) {
    tuner.OnQuery(q);
  }
  // Add a weaker candidate so the candidate role appears too.
  Rng rng(42);
  for (int i = 0; i < 30; ++i) {
    tuner.OnQuery(MakeRangeQuery(catalog_, "big", "b_val",
                                 rng.NextInRange(0, 500), 999));
  }
  const auto rows = tuner.ExplainState();
  ASSERT_FALSE(rows.empty());
  bool saw_materialized = false;
  double prev = 1e300;
  for (const auto& row : rows) {
    EXPECT_FALSE(row.name.empty());
    EXPECT_LE(row.net_benefit, prev);  // sorted descending
    prev = row.net_benefit;
    if (row.role == "materialized") {
      saw_materialized = true;
      EXPECT_DOUBLE_EQ(row.mat_cost, 0.0);
    } else {
      EXPECT_GT(row.mat_cost, 0.0);
      EXPECT_NEAR(row.net_benefit, row.forecast_benefit - row.mat_cost,
                  1e-6);
    }
  }
  EXPECT_TRUE(saw_materialized);
}

/// Two cycles of the Fig. 4 schedule (four 300-query phases, 50-query
/// transitions, fig4_shifting's seeds and storage budget) through one
/// tuner on the statistics-only TPC-H catalog. The index actions, the
/// epoch count and the simulated seconds are pinned: any change to a
/// tuning decision, or to a floating-point sum that feeds one, moves them.
/// Changes that claim to keep every decision must keep these values.
TEST(ColtTunerPinnedRun, TwoShiftingCyclesKeepTheirDecisions) {
  Catalog catalog = MakeTpchCatalog();
  const std::vector<QueryDistribution> dists =
      ExperimentWorkloads::ShiftingPhases(&catalog);
  std::vector<WorkloadPhase> phases;
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (const QueryDistribution& d : dists) phases.push_back({d, 300});
  }
  WorkloadGenerator gen(&catalog, /*seed=*/99);
  const std::vector<Query> workload =
      GeneratePhasedWorkload(gen, phases, /*transition_length=*/50);
  ASSERT_EQ(workload.size(), 8u * 300 + 7 * 50);

  QueryOptimizer probe(&catalog);
  OfflineTuner miner(&catalog, &probe);
  WorkloadGenerator sample_gen(&catalog, /*seed=*/1234);
  std::vector<Query> sample;
  for (const QueryDistribution& d : dists) {
    for (int i = 0; i < 200; ++i) sample.push_back(sample_gen.Sample(d));
  }
  const Result<std::vector<IndexId>> relevant =
      miner.MineRelevantIndexes(sample);
  ASSERT_TRUE(relevant.ok()) << relevant.status().ToString();
  ColtConfig config;
  config.storage_budget_bytes = BudgetForIndexes(catalog, *relevant, 4.0);

  QueryOptimizer optimizer(&catalog);
  ColtTuner tuner(&catalog, &optimizer, config);
  uint64_t action_fnv = 1469598103934665603ULL;  // FNV-1a over the actions
  const auto hash = [&](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      action_fnv ^= (word >> (i * 8)) & 0xff;
      action_fnv *= 1099511628211ULL;
    }
  };
  int64_t actions = 0;
  double seconds = 0.0;
  for (const Query& q : workload) {
    const TuningStep step = tuner.OnQuery(q);
    seconds += step.execution_seconds + step.profiling_seconds +
               step.build_seconds + step.wasted_build_seconds;
    for (const IndexAction& action : step.actions) {
      hash(static_cast<uint64_t>(action.type));
      hash(static_cast<uint64_t>(action.index));
      ++actions;
    }
  }
  EXPECT_EQ(tuner.epoch_reports().size(), 275u);
  EXPECT_EQ(actions, 67);
  EXPECT_EQ(action_fnv, 0x80ef7664887e09a1ULL);
  // 20831.532854698762 s.
  EXPECT_EQ(std::bit_cast<uint64_t>(seconds), 0x40d457e21a4a982dULL)
      << seconds;
}

}  // namespace
}  // namespace colt
