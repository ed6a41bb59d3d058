#include "core/profiler.h"

#include <gtest/gtest.h>

#include "core/colt.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeRangeQuery;
using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

class ProfilerTest : public ::testing::Test {
 protected:
  ProfilerTest()
      : catalog_(MakeTestCatalog()),
        optimizer_(&catalog_),
        clusters_(&catalog_, config_.history_depth),
        hot_stats_(config_.confidence),
        mat_stats_(config_.confidence),
        candidates_(config_.history_depth, kCrudeSmoothingAlpha),
        profiler_(&catalog_, &optimizer_, &clusters_, &hot_stats_,
                  &mat_stats_, &candidates_, &config_, /*seed=*/3) {
    b_key_ = catalog_.IndexOn(Ref(catalog_, "big", "b_key"))->id;
    b_val_ = catalog_.IndexOn(Ref(catalog_, "big", "b_val"))->id;
  }

  Profiler::ProfileOutcome Profile(const Query& q,
                                   const IndexConfiguration& materialized,
                                   const std::vector<IndexId>& hot,
                                   int limit, int* used) {
    const PlanResult plan = optimizer_.Optimize(q, materialized);
    return profiler_.ProfileQuery(q, plan, materialized, hot, limit, used,
                                  /*current_epoch=*/0);
  }

  ColtConfig config_;
  Catalog catalog_;
  QueryOptimizer optimizer_;
  ClusterManager clusters_;
  GainStatsStore hot_stats_;
  GainStatsStore mat_stats_;
  CandidateSet candidates_;
  Profiler profiler_;
  IndexId b_key_, b_val_;
};

TEST_F(ProfilerTest, MinesCandidatesFromSelections) {
  int used = 0;
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  Profile(q, {}, {}, 20, &used);
  EXPECT_TRUE(candidates_.Contains(b_key_));
  EXPECT_FALSE(candidates_.Contains(b_val_));
  EXPECT_GT(candidates_.SmoothedBenefit(b_key_), 0.0);
}

TEST_F(ProfilerTest, NoWhatIfWithoutHotOrMaterialized) {
  int used = 0;
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  const auto outcome = Profile(q, {}, {}, 20, &used);
  EXPECT_EQ(outcome.whatif_calls, 0);
  EXPECT_EQ(used, 0);
}

TEST_F(ProfilerTest, HotIndexProfiledWhenRelevant) {
  int used = 0;
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  const auto outcome = Profile(q, {}, {b_key_}, 20, &used);
  EXPECT_EQ(outcome.whatif_calls, 1);
  EXPECT_EQ(used, 1);
  const uint64_t sig = TableConfigSignature(catalog_, {}, 0);
  EXPECT_EQ(hot_stats_.MeasurementCount(b_key_, outcome.cluster, sig), 1);
}

TEST_F(ProfilerTest, IrrelevantHotIndexNotProfiled) {
  int used = 0;
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  const auto outcome = Profile(q, {}, {b_val_}, 20, &used);
  EXPECT_EQ(outcome.whatif_calls, 0);
}

TEST_F(ProfilerTest, BudgetNeverExceeded) {
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  for (int limit : {0, 1, 3}) {
    int used = 0;
    for (int i = 0; i < 50; ++i) {
      Profile(q, {}, {b_key_}, limit, &used);
      ASSERT_LE(used, limit);
    }
    EXPECT_EQ(used, limit);  // eventually exhausts the budget exactly
  }
}

TEST_F(ProfilerTest, MaterializedUsageCounted) {
  IndexConfiguration config;
  config.Add(b_key_);
  int used = 0;
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  const auto outcome = Profile(q, config, {}, 20, &used);
  EXPECT_EQ(profiler_.EpochUsageCount(b_key_, outcome.cluster), 1);
  profiler_.AdvanceEpoch();
  EXPECT_EQ(profiler_.EpochUsageCount(b_key_, outcome.cluster), 0);
}

TEST_F(ProfilerTest, MaterializedGainsRecordedInMatStats) {
  IndexConfiguration config;
  config.Add(b_key_);
  int used = 0;
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  const auto outcome = Profile(q, config, {}, 20, &used);
  ASSERT_EQ(outcome.whatif_calls, 1);
  const uint64_t sig = TableConfigSignature(catalog_, config, 0);
  EXPECT_EQ(mat_stats_.MeasurementCount(b_key_, outcome.cluster, sig), 1);
  EXPECT_EQ(hot_stats_.MeasurementCount(b_key_, outcome.cluster, sig), 0);
}

TEST_F(ProfilerTest, UnmeasuredPairsSampleAtFullRate) {
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  const ClusterId cluster = clusters_.Assign(q);
  EXPECT_DOUBLE_EQ(profiler_.SampleRate(b_key_, cluster, {}, 0.0), 1.0);
  EXPECT_TRUE(
      std::isinf(profiler_.ErrorContribution(b_key_, cluster, {})));
}

TEST_F(ProfilerTest, WellMeasuredZeroVariancePairsSampleAtFloor) {
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  const ClusterId cluster = clusters_.Assign(q);
  const uint64_t sig = TableConfigSignature(catalog_, {}, 0);
  for (int i = 0; i < 10; ++i) hot_stats_.Record(b_key_, cluster, 50.0, sig);
  EXPECT_DOUBLE_EQ(profiler_.ErrorContribution(b_key_, cluster, {}), 0.0);
  EXPECT_DOUBLE_EQ(profiler_.SampleRate(b_key_, cluster, {}, 10.0),
                   kMinSampleRate);
}

TEST_F(ProfilerTest, HighVariancePairsSampleMore) {
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  const ClusterId cluster = clusters_.Assign(q);
  const uint64_t sig = TableConfigSignature(catalog_, {}, 0);
  for (int i = 0; i < 10; ++i) {
    hot_stats_.Record(b_key_, cluster, i % 2 == 0 ? 0.0 : 100.0, sig);
    hot_stats_.Record(b_val_, cluster, 50.0, sig);
  }
  const double noisy = profiler_.ErrorContribution(b_key_, cluster, {});
  const double stable = profiler_.ErrorContribution(b_val_, cluster, {});
  EXPECT_GT(noisy, stable);
  EXPECT_GT(profiler_.SampleRate(b_key_, cluster, {}, noisy),
            profiler_.SampleRate(b_val_, cluster, {}, noisy));
}

TEST_F(ProfilerTest, UniformSamplingWhenAdaptiveDisabled) {
  config_.enable_adaptive_sampling = false;
  config_.uniform_sample_rate = 0.42;
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  const ClusterId cluster = clusters_.Assign(q);
  EXPECT_DOUBLE_EQ(profiler_.SampleRate(b_key_, cluster, {}, 5.0), 0.42);
}

TEST_F(ProfilerTest, TableConfigSignatureChangesWithTableIndexes) {
  IndexConfiguration config;
  const uint64_t empty_sig = TableConfigSignature(catalog_, config, 0);
  config.Add(b_key_);
  const uint64_t with_key = TableConfigSignature(catalog_, config, 0);
  EXPECT_NE(empty_sig, with_key);
  // Indexes on other tables do not affect table 0's signature.
  const IndexId s_ref = catalog_.IndexOn(Ref(catalog_, "small", "s_ref"))->id;
  config.Add(s_ref);
  EXPECT_EQ(with_key, TableConfigSignature(catalog_, config, 0));
}

}  // namespace
}  // namespace colt
