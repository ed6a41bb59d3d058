/// End-to-end robustness tests: Scheduler retry/backoff/quarantine under
/// injected build failures, degraded what-if profiling, emergency eviction
/// on budget shrinks, and the chaos harness invariants in physical mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/colt.h"
#include "core/scheduler.h"
#include "harness/experiment.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeRangeQuery;
using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

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

/// Mixed-column workload: enough repetition on a few columns for COLT to
/// materialize, with a key-heavy core whose index it keeps wanting (and,
/// under faults, retries).
std::vector<Query> MixedWorkload(const Catalog& catalog, int n,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  for (int i = 0; i < n; ++i) {
    const int64_t lo = rng.NextInRange(0, 9000);
    switch (rng.NextBelow(4)) {
      case 0:
        out.push_back(
            MakeRangeQuery(catalog, "big", "b_val", lo % 1000, lo % 1000 + 5));
        break;
      case 1:
        out.push_back(MakeRangeQuery(catalog, "small", "s_ref", lo % 1000,
                                     lo % 1000 + 10));
        break;
      default:
        out.push_back(MakeRangeQuery(catalog, "big", "b_key", lo, lo + 20));
        break;
    }
  }
  return out;
}

bool AnyEpochMaterialized(const ColtRunResult& run) {
  for (const EpochReport& e : run.epochs) {
    if (!e.materialized_ids.empty()) return true;
  }
  return false;
}

int CountActions(const std::vector<IndexAction>& actions,
                 IndexActionType type) {
  return static_cast<int>(
      std::count_if(actions.begin(), actions.end(),
                    [&](const IndexAction& a) { return a.type == type; }));
}

class ChaosSchedulerTest : public ::testing::Test {
 protected:
  ChaosSchedulerTest() : catalog_(MakeTestCatalog()) {
    b_key_ = catalog_.IndexOn(Ref(catalog_, "big", "b_key"))->id;
  }

  Catalog catalog_;
  CostModel cost_model_;
  IndexId b_key_;
};

TEST_F(ChaosSchedulerTest, RetryBackoffQuarantineSchedule) {
  // Build always fails for the first 3 attempts, then the rule is spent.
  FaultConfig fault_config;
  fault_config.Fail(fault_sites::kIndexBuild, 1.0, /*max_fires=*/3);
  FaultInjector faults(fault_config);
  Scheduler::RetryPolicy retry;
  retry.max_build_retries = 3;
  retry.quarantine_cooldown_rounds = 5;
  Scheduler scheduler(&catalog_, &cost_model_, nullptr,
                      SchedulingStrategy::kImmediate, &faults, retry);
  IndexConfiguration desired;
  desired.Add(b_key_);

  // Round 1: first attempt fails; its build time is charged.
  auto r1 = scheduler.ApplyConfiguration(desired);
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(CountActions(*r1, IndexActionType::kBuildFailed), 1);
  EXPECT_GT((*r1)[0].build_seconds, 0.0);
  EXPECT_FALSE(scheduler.materialized().Contains(b_key_));
  EXPECT_EQ(scheduler.build_failures(), 1);

  // Round 2: backoff of 1 round has elapsed; second attempt fails.
  auto r2 = scheduler.ApplyConfiguration(desired);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(CountActions(*r2, IndexActionType::kBuildFailed), 1);
  EXPECT_EQ(scheduler.build_failures(), 2);

  // Round 3: backoff doubled to 2 rounds; no attempt is made.
  auto r3 = scheduler.ApplyConfiguration(desired);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3->empty());
  EXPECT_EQ(scheduler.build_failures(), 2);

  // Round 4: third attempt fails and exhausts the retry budget.
  auto r4 = scheduler.ApplyConfiguration(desired);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(CountActions(*r4, IndexActionType::kBuildFailed), 1);
  EXPECT_EQ(CountActions(*r4, IndexActionType::kQuarantine), 1);
  EXPECT_TRUE(scheduler.IsQuarantined(b_key_));
  EXPECT_EQ(scheduler.QuarantinedIndexes(),
            (std::vector<IndexId>{b_key_}));
  EXPECT_EQ(scheduler.build_failures(), 3);
  EXPECT_EQ(scheduler.quarantine_events(), 1);

  // Rounds 5-8: quarantined, no attempts.
  for (int round = 5; round <= 8; ++round) {
    auto r = scheduler.ApplyConfiguration(desired);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->empty()) << "round " << round;
    EXPECT_TRUE(scheduler.IsQuarantined(b_key_));
  }

  // Round 9: cooldown (5 rounds after round 4) has elapsed; the failure
  // history is forgotten and the build succeeds (the fault rule is spent).
  auto r9 = scheduler.ApplyConfiguration(desired);
  ASSERT_TRUE(r9.ok());
  EXPECT_EQ(CountActions(*r9, IndexActionType::kMaterialize), 1);
  EXPECT_TRUE(scheduler.materialized().Contains(b_key_));
  EXPECT_FALSE(scheduler.IsQuarantined(b_key_));
  EXPECT_TRUE(scheduler.QuarantinedIndexes().empty());
}

TEST_F(ChaosSchedulerTest, NonTransientErrorsPropagate) {
  // A database without materialized tables fails builds with
  // kFailedPrecondition — programmer error, not substrate weather.
  Database db(MakeTestCatalog(), 7);
  const IndexId key =
      db.mutable_catalog().IndexOn(Ref(db.catalog(), "big", "b_key"))->id;
  Scheduler scheduler(&db.mutable_catalog(), &cost_model_, &db);
  IndexConfiguration desired;
  desired.Add(key);
  auto result = scheduler.ApplyConfiguration(desired);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(scheduler.build_failures(), 0);  // not a retryable failure
}

TEST_F(ChaosSchedulerTest, IdleTimeBuildFailureLosesIdleWork) {
  FaultConfig fault_config;
  fault_config.Fail(fault_sites::kIndexBuild, 1.0, /*max_fires=*/1);
  FaultInjector faults(fault_config);
  Scheduler scheduler(&catalog_, &cost_model_, nullptr,
                      SchedulingStrategy::kIdleTime, &faults);
  IndexConfiguration desired;
  desired.Add(b_key_);
  ASSERT_TRUE(scheduler.ApplyConfiguration(desired).ok());

  // Pay the full build cost; the final materialize step fails.
  auto done = scheduler.OnIdle(scheduler.BuildSeconds(b_key_));
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(CountActions(*done, IndexActionType::kBuildFailed), 1);
  EXPECT_FALSE(scheduler.materialized().Contains(b_key_));
  EXPECT_TRUE(scheduler.PendingBuilds().empty());  // removed from queue

  // Re-queued after backoff: the full build cost is owed again.
  ASSERT_TRUE(scheduler.ApplyConfiguration(desired).ok());
  ASSERT_EQ(scheduler.PendingBuilds(),
            (std::vector<IndexId>{b_key_}));
  auto partial = scheduler.OnIdle(scheduler.BuildSeconds(b_key_) * 0.5);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->empty());  // prior idle work was not credited
  auto rest = scheduler.OnIdle(scheduler.BuildSeconds(b_key_) * 0.5);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(CountActions(*rest, IndexActionType::kMaterialize), 1);
  EXPECT_TRUE(scheduler.materialized().Contains(b_key_));
}

class ChaosTunerTest : public ::testing::Test {
 protected:
  ChaosTunerTest() : catalog_(MakeTestCatalog()), optimizer_(&catalog_) {
    config_.storage_budget_bytes = 64LL * 1024 * 1024;
    b_key_ = catalog_.IndexOn(Ref(catalog_, "big", "b_key"))->id;
  }

  Catalog catalog_;
  QueryOptimizer optimizer_;
  ColtConfig config_;
  IndexId b_key_;
};

TEST_F(ChaosTunerTest, PermanentBuildFailureQuarantinesNotCrashes) {
  config_.fault.Fail(fault_sites::kIndexBuild, 1.0);
  config_.max_build_retries = 2;
  config_.quarantine_cooldown_rounds = 3;
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  for (const auto& q : KeyHeavyWorkload(catalog_, 100, 2)) {
    tuner.OnQuery(q);
  }
  // Nothing can build, but the tuner keeps serving queries and reports the
  // carnage honestly.
  EXPECT_TRUE(tuner.materialized().empty());
  EXPECT_GT(tuner.scheduler().build_failures(), 0);
  EXPECT_GT(tuner.scheduler().quarantine_events(), 0);
  int reported_failures = 0;
  bool saw_quarantine = false;
  for (const auto& report : tuner.epoch_reports()) {
    reported_failures += report.build_failures;
    saw_quarantine |= !report.quarantined_ids.empty();
  }
  EXPECT_EQ(reported_failures,
            static_cast<int>(tuner.scheduler().build_failures()));
  EXPECT_TRUE(saw_quarantine);
}

TEST_F(ChaosTunerTest, QuarantinedIndexNeverMaterializedMidCooldown) {
  config_.fault.Fail(fault_sites::kIndexBuild, 1.0, /*max_fires=*/2);
  config_.max_build_retries = 2;
  config_.quarantine_cooldown_rounds = 4;
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  for (const auto& q : KeyHeavyWorkload(catalog_, 200, 3)) {
    tuner.OnQuery(q);
    for (IndexId id : tuner.scheduler().QuarantinedIndexes()) {
      EXPECT_FALSE(tuner.materialized().Contains(id));
    }
  }
  // After the cooldown the spent fault rule lets the build through: the
  // workload's obvious index ends up materialized after all.
  EXPECT_TRUE(tuner.materialized().Contains(b_key_));
}

TEST_F(ChaosTunerTest, WhatIfFailureDegradesToCrudeEstimate) {
  config_.fault.Fail(fault_sites::kWhatIfOptimize, 1.0);
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  double charged = 0.0;
  for (const auto& q : KeyHeavyWorkload(catalog_, 100, 4)) {
    charged += tuner.OnQuery(q).profiling_seconds;
  }
  // Every what-if call failed, yet the crude fallback still identifies and
  // materializes the obvious index.
  EXPECT_GT(tuner.degraded_whatif_total(), 0);
  EXPECT_TRUE(tuner.materialized().Contains(b_key_));
  // Failed calls were issued: their time is still charged.
  EXPECT_GT(charged, 0.0);
  int reported = 0;
  for (const auto& report : tuner.epoch_reports()) {
    reported += report.degraded_whatif;
  }
  EXPECT_EQ(reported, static_cast<int>(tuner.degraded_whatif_total()));
}

TEST_F(ChaosTunerTest, WhatIfDeadlineSkipsWithoutCharging) {
  // Deadline below one call's cost: every probe degrades, nothing charged.
  config_.whatif_deadline_seconds = kWhatIfCallSeconds * 0.5;
  ColtTuner tuner(&catalog_, &optimizer_, config_);
  double charged = 0.0;
  for (const auto& q : KeyHeavyWorkload(catalog_, 100, 5)) {
    charged += tuner.OnQuery(q).profiling_seconds;
  }
  EXPECT_DOUBLE_EQ(charged, 0.0);
  EXPECT_GT(tuner.degraded_whatif_total(), 0);
  EXPECT_TRUE(tuner.materialized().Contains(b_key_));
}

TEST_F(ChaosTunerTest, BudgetShrinkTriggersEmergencyEviction) {
  // Size the budget to fit exactly the obvious index, then halve it twice
  // mid-run: COLT must evict to keep the invariant, every query.
  config_.storage_budget_bytes = catalog_.index(b_key_).size_bytes * 2;
  config_.fault.Slow(fault_sites::kBudgetShrink, 0.02, 0.4);
  config_.fault.rules[fault_sites::kBudgetShrink].max_fires = 2;
  const auto workload = KeyHeavyWorkload(catalog_, 300, 6);
  const ChaosRunResult chaos =
      RunChaosWorkload(&catalog_, workload, config_);
  EXPECT_TRUE(chaos.ok()) << (chaos.violations.empty()
                                  ? "no detail"
                                  : chaos.violations[0].detail);
  EXPECT_LT(chaos.final_budget_bytes, config_.storage_budget_bytes);
  EXPECT_GT(chaos.emergency_evictions, 0);
}

TEST_F(ChaosTunerTest, PhysicalModeStaysConsistentUnderBuildFaults) {
  Database db(MakeTestCatalog(), 7);
  ASSERT_TRUE(db.MaterializeAll().ok());
  Catalog* catalog = &db.mutable_catalog();
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  // The first two build attempts fail deterministically (quarantining the
  // index), later ones succeed once the cooldown elapses.
  config.fault.Fail(fault_sites::kIndexBuild, 1.0, /*max_fires=*/2);
  config.max_build_retries = 2;
  config.quarantine_cooldown_rounds = 3;
  const auto workload = KeyHeavyWorkload(*catalog, 200, 7);
  const ChaosRunResult chaos =
      RunChaosWorkload(catalog, workload, config, &db);
  EXPECT_TRUE(chaos.ok()) << (chaos.violations.empty()
                                  ? "no detail"
                                  : chaos.violations[0].detail);
  EXPECT_GT(chaos.injected_faults, 0);
}

TEST_F(ChaosTunerTest, PhysicalModeStaysConsistentAtHalfBuildFailureRate) {
  // Every build attempt fails with probability 0.5: physical trees must
  // still track the materialized set through retries and quarantines.
  Database db(MakeTestCatalog(), 7);
  ASSERT_TRUE(db.MaterializeAll().ok());
  Catalog* catalog = &db.mutable_catalog();
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  config.fault.Fail(fault_sites::kIndexBuild, 0.5);
  const ChaosRunResult chaos =
      RunChaosWorkload(catalog, MixedWorkload(*catalog, 200, 13), config, &db);
  ASSERT_GT(chaos.injected_faults, 0);
  EXPECT_TRUE(AnyEpochMaterialized(chaos.run));
  EXPECT_TRUE(chaos.ok()) << (chaos.violations.empty()
                                  ? "no detail"
                                  : chaos.violations[0].detail);
  EXPECT_EQ(db.BuiltIndexIds(), chaos.run.final_materialized.ids());
}

TEST_F(ChaosTunerTest, PhysicalIdleTimeBuildsTrackMaterializedSet) {
  // kIdleTime in physical mode: a queued build bulk-loads its B+-tree at
  // the OnIdle completion boundary, and only then joins the materialized
  // set.
  Database db(MakeTestCatalog(), 7);
  ASSERT_TRUE(db.MaterializeAll().ok());
  Catalog* catalog = &db.mutable_catalog();
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  config.scheduling_strategy = SchedulingStrategy::kIdleTime;
  // Generous idle budget so queued builds finish within the short
  // workload (the default 2 s/query never completes a 100k-row bulk load
  // before the run ends).
  config.idle_seconds_per_query = 60.0;
  const ChaosRunResult chaos =
      RunChaosWorkload(catalog, MixedWorkload(*catalog, 150, 17), config, &db);
  // Some epoch must have materialized an index (the final set may be empty
  // again: the tuner drops indexes whose benefit decays near the end).
  EXPECT_TRUE(AnyEpochMaterialized(chaos.run));
  EXPECT_TRUE(chaos.ok()) << (chaos.violations.empty()
                                  ? "no detail"
                                  : chaos.violations[0].detail);
  EXPECT_EQ(db.BuiltIndexIds(), chaos.run.final_materialized.ids());
}

TEST_F(ChaosTunerTest, FaultFreeChaosRunMatchesPlainRun) {
  // The audit itself must not perturb the tuner: a fault-free chaos run
  // produces exactly the same timeline as RunColtWorkload.
  const auto workload = KeyHeavyWorkload(catalog_, 150, 8);
  const ColtRunResult plain =
      RunColtWorkload(&catalog_, workload, config_);
  const ChaosRunResult chaos =
      RunChaosWorkload(&catalog_, workload, config_);
  EXPECT_TRUE(chaos.ok());
  EXPECT_EQ(chaos.injected_faults, 0);
  ASSERT_EQ(chaos.run.per_query.size(), plain.per_query.size());
  for (size_t i = 0; i < plain.per_query.size(); ++i) {
    EXPECT_DOUBLE_EQ(chaos.run.per_query[i].total(),
                     plain.per_query[i].total());
  }
}

}  // namespace
}  // namespace colt
