#include "core/self_organizer.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeRangeQuery;
using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

class SelfOrganizerTest : public ::testing::Test {
 protected:
  SelfOrganizerTest()
      : catalog_(MakeTestCatalog()),
        optimizer_(&catalog_),
        clusters_(&catalog_, config_.history_depth),
        hot_stats_(config_.confidence),
        mat_stats_(config_.confidence),
        candidates_(config_.history_depth, kCrudeSmoothingAlpha),
        forecaster_(config_.history_depth),
        profiler_(&catalog_, &optimizer_, &clusters_, &hot_stats_,
                  &mat_stats_, &candidates_, &config_, 3),
        organizer_(&catalog_, &optimizer_, &clusters_, &hot_stats_,
                   &mat_stats_, &candidates_, &forecaster_, &profiler_,
                   &config_) {
    b_key_ = catalog_.IndexOn(Ref(catalog_, "big", "b_key"))->id;
    b_val_ = catalog_.IndexOn(Ref(catalog_, "big", "b_val"))->id;
    s_val_ = catalog_.IndexOn(Ref(catalog_, "small", "s_val"))->id;
    config_.storage_budget_bytes = 1LL << 40;  // effectively unconstrained
  }

  /// Seeds one cluster with `count` occurrences of a selective query on
  /// b_key and returns its id.
  ClusterId SeedCluster(int count) {
    const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
    ClusterId id = kInvalidClusterId;
    for (int i = 0; i < count; ++i) id = clusters_.Assign(q);
    return id;
  }

  /// b_key's observed and optimistic epoch benefit with nothing
  /// materialized, over the clusters live now.
  double ObservedBenefit() const {
    return organizer_.EpochBenefit(b_key_, false, {},
                                   clusters_.LiveClusters());
  }
  double OptimisticBenefit() const {
    return organizer_.OptimisticEpochBenefit(b_key_, {},
                                             clusters_.LiveClusters());
  }

  ColtConfig config_;
  Catalog catalog_;
  QueryOptimizer optimizer_;
  ClusterManager clusters_;
  GainStatsStore hot_stats_;
  GainStatsStore mat_stats_;
  CandidateSet candidates_;
  BenefitForecaster forecaster_;
  Profiler profiler_;
  SelfOrganizer organizer_;
  IndexId b_key_, b_val_, s_val_;
};

TEST_F(SelfOrganizerTest, MatCostPositiveAndTableScaled) {
  EXPECT_GT(organizer_.MatCost(b_key_), 0.0);
  EXPECT_GT(organizer_.MatCost(b_key_), organizer_.MatCost(s_val_));
}

TEST_F(SelfOrganizerTest, EpochBenefitZeroWithoutMeasurements) {
  SeedCluster(5);
  EXPECT_DOUBLE_EQ(ObservedBenefit(), 0.0);
}

TEST_F(SelfOrganizerTest, EpochBenefitUsesRateTimesGain) {
  SeedCluster(4);  // rate 4/epoch
  const uint64_t sig = TableConfigSignature(catalog_, {}, 0);
  // Tight measurements around 100.
  for (int i = 0; i < 20; ++i) {
    hot_stats_.Record(b_key_, clusters_.Assign(MakeRangeQuery(
                                  catalog_, "big", "b_key", 0, 9)),
                      100.0, sig);
  }
  // 24 occurrences total (4 + 20 assigns) over 1 epoch.
  const double benefit = ObservedBenefit();
  EXPECT_NEAR(benefit, 24 * 100.0, 24 * 15.0);
}

TEST_F(SelfOrganizerTest, ConservativeBelowMean) {
  const ClusterId cluster = SeedCluster(10);
  const uint64_t sig = TableConfigSignature(catalog_, {}, 0);
  // Noisy gains: mean 100, high variance.
  for (int i = 0; i < 6; ++i) {
    hot_stats_.Record(b_key_, cluster, i % 2 == 0 ? 10.0 : 190.0, sig);
  }
  const double conservative = ObservedBenefit();
  config_.conservative_estimates = false;
  const double mean_based = ObservedBenefit();
  config_.conservative_estimates = true;
  EXPECT_LT(conservative, mean_based);
  EXPECT_GT(conservative, 0.0);  // floored fraction of the mean
}

TEST_F(SelfOrganizerTest, OptimisticAboveConservative) {
  const ClusterId cluster = SeedCluster(10);
  const uint64_t sig = TableConfigSignature(catalog_, {}, 0);
  for (int i = 0; i < 6; ++i) {
    hot_stats_.Record(b_key_, cluster, i % 2 == 0 ? 10.0 : 190.0, sig);
  }
  EXPECT_GT(OptimisticBenefit(), ObservedBenefit());
}

TEST_F(SelfOrganizerTest, OptimisticFallsBackToCrudeForUnknown) {
  SeedCluster(10);
  candidates_.Observe(b_key_, 500.0, 0);  // raw in-progress crude benefit
  const double optimistic = OptimisticBenefit();
  EXPECT_NEAR(optimistic, 500.0 * config_.epoch_length, 1e-6);
}

TEST_F(SelfOrganizerTest, NetBenefitSubtractsMatCostOnlyWhenNotMaterialized) {
  forecaster_.RecordEpoch(b_key_, 1000.0);
  IndexConfiguration materialized;
  const double as_hot = organizer_.NetBenefit(b_key_, materialized);
  materialized.Add(b_key_);
  const double as_materialized = organizer_.NetBenefit(b_key_, materialized);
  EXPECT_NEAR(as_materialized - as_hot, organizer_.MatCost(b_key_), 1e-6);
}

TEST_F(SelfOrganizerTest, RunEpochEndMaterializesProfitableIndex) {
  // Simulate an index with solid profiled benefit across several epochs.
  const uint64_t sig = TableConfigSignature(catalog_, {}, 0);
  for (int epoch = 0; epoch < 6; ++epoch) {
    const ClusterId cluster = SeedCluster(8);
    for (int i = 0; i < 3; ++i) {
      hot_stats_.Record(b_key_, cluster, 50'000.0, sig);
    }
    const auto outcome = organizer_.RunEpochEnd({}, {b_key_});
    clusters_.AdvanceEpoch();
    if (epoch >= 4) {
      EXPECT_TRUE(outcome.new_materialized.Contains(b_key_))
          << "epoch " << epoch;
    }
  }
}

TEST_F(SelfOrganizerTest, UselessIndexEventuallyDropped) {
  // b_key materialized but never used/measured: its forecast decays to 0
  // and the KNAPSACK drops it.
  IndexConfiguration materialized;
  materialized.Add(b_key_);
  for (int i = 0; i < 13; ++i) {
    forecaster_.RecordEpoch(b_key_, 0.0);
  }
  const auto outcome = organizer_.RunEpochEnd(materialized, {});
  EXPECT_FALSE(outcome.new_materialized.Contains(b_key_));
}

TEST_F(SelfOrganizerTest, HotSetFromCrudeBenefits) {
  SeedCluster(5);
  // Two strong candidates, one weak, one zero.
  candidates_.Observe(b_key_, 10'000.0, 0);
  candidates_.Observe(b_val_, 9'000.0, 0);
  candidates_.Observe(s_val_, 10.0, 0);
  const auto outcome = organizer_.RunEpochEnd({}, {});
  // Top cluster of the two-means split: the two strong ones; density fill
  // may add the weak one.
  EXPECT_TRUE(std::find(outcome.new_hot.begin(), outcome.new_hot.end(),
                        b_key_) != outcome.new_hot.end());
  EXPECT_TRUE(std::find(outcome.new_hot.begin(), outcome.new_hot.end(),
                        b_val_) != outcome.new_hot.end());
}

TEST_F(SelfOrganizerTest, HotSetRespectsCap) {
  config_.max_hot_set_size = 1;
  candidates_.Observe(b_key_, 10'000.0, 0);
  candidates_.Observe(b_val_, 9'000.0, 0);
  const auto outcome = organizer_.RunEpochEnd({}, {});
  EXPECT_EQ(outcome.new_hot.size(), 1u);
  EXPECT_EQ(outcome.new_hot[0], b_key_);
}

TEST_F(SelfOrganizerTest, MaterializedExcludedFromHot) {
  candidates_.Observe(b_key_, 10'000.0, 0);
  // Give the materialized index enough forecast to stay.
  forecaster_.RecordEpoch(b_key_, 1e9);
  IndexConfiguration materialized;
  materialized.Add(b_key_);
  const auto outcome = organizer_.RunEpochEnd(materialized, {});
  ASSERT_TRUE(outcome.new_materialized.Contains(b_key_));
  EXPECT_TRUE(std::find(outcome.new_hot.begin(), outcome.new_hot.end(),
                        b_key_) == outcome.new_hot.end());
}

TEST_F(SelfOrganizerTest, RebudgetSuspendsWhenNoPotential) {
  // Established materialized index, no hot candidates at all.
  for (int i = 0; i < 12; ++i) forecaster_.RecordEpoch(b_key_, 1000.0);
  IndexConfiguration materialized;
  materialized.Add(b_key_);
  const auto outcome = organizer_.RunEpochEnd(materialized, {});
  EXPECT_EQ(outcome.next_whatif_limit, 0);
  EXPECT_NEAR(outcome.rebudget_ratio, 1.0, 1e-9);
}

TEST_F(SelfOrganizerTest, RebudgetMaximizesOnColdStartPotential) {
  // Nothing materialized, strong fresh candidate: r = infinity -> max
  // budget.
  SeedCluster(5);
  candidates_.Observe(b_key_, 10'000.0, 0);
  const auto outcome = organizer_.RunEpochEnd({}, {});
  EXPECT_EQ(outcome.next_whatif_limit, config_.max_whatif_per_epoch);
  EXPECT_GT(outcome.rebudget_ratio, kRebudgetHigh);
}

TEST_F(SelfOrganizerTest, RebudgetDisabledPinsToMax) {
  config_.enable_rebudgeting = false;
  for (int i = 0; i < 12; ++i) forecaster_.RecordEpoch(b_key_, 1000.0);
  IndexConfiguration materialized;
  materialized.Add(b_key_);
  const auto outcome = organizer_.RunEpochEnd(materialized, {});
  EXPECT_EQ(outcome.next_whatif_limit, config_.max_whatif_per_epoch);
}

TEST_F(SelfOrganizerTest, StorageBudgetRespected) {
  config_.storage_budget_bytes = catalog_.index(s_val_).size_bytes;
  // Both indexes profitable, but only the small one fits.
  forecaster_.RecordEpoch(b_key_, 1e9);
  forecaster_.RecordEpoch(s_val_, 1e9);
  const auto outcome =
      organizer_.RunEpochEnd({}, {b_key_, s_val_});
  int64_t total = 0;
  for (IndexId id : outcome.new_materialized.ids()) {
    total += catalog_.index(id).size_bytes;
  }
  EXPECT_LE(total, config_.storage_budget_bytes);
  EXPECT_TRUE(outcome.new_materialized.Contains(s_val_));
  EXPECT_FALSE(outcome.new_materialized.Contains(b_key_));
}

}  // namespace
}  // namespace colt
