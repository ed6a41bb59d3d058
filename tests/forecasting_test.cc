#include "core/forecasting.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace colt {
namespace {

TEST(Forecaster, UnknownIndexIsZero) {
  BenefitForecaster forecaster(12);
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(forecaster.TotalPredictedBenefit(1), 0.0);
  EXPECT_EQ(forecaster.HistoryLength(1), 0);
  EXPECT_EQ(forecaster.History(1), nullptr);
}

TEST(Forecaster, SingleEpochZeroPadded) {
  BenefitForecaster forecaster(4);
  forecaster.RecordEpoch(1, 100.0);
  // PredBenefit_j = sum(last min(j, len)) / j — missing epochs count as 0.
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(1, 1), 100.0);
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(1, 2), 50.0);
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(1, 4), 25.0);
  EXPECT_DOUBLE_EQ(forecaster.TotalPredictedBenefit(1),
                   100.0 + 50.0 + 100.0 / 3 + 25.0);
}

TEST(Forecaster, FullHistoryAverages) {
  BenefitForecaster forecaster(3);
  forecaster.RecordEpoch(1, 30.0);  // oldest
  forecaster.RecordEpoch(1, 20.0);
  forecaster.RecordEpoch(1, 10.0);  // newest
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(1, 1), 10.0);
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(1, 2), 15.0);
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(1, 3), 20.0);
  EXPECT_DOUBLE_EQ(forecaster.TotalPredictedBenefit(1), 45.0);
}

TEST(Forecaster, HistoryTruncatedToDepth) {
  BenefitForecaster forecaster(3);
  for (int i = 1; i <= 10; ++i) forecaster.RecordEpoch(1, i);
  EXPECT_EQ(forecaster.HistoryLength(1), 3);
  // Newest three are 10, 9, 8.
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(1, 1), 10.0);
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(1, 3), 9.0);
}

TEST(Forecaster, StableSeriesForecastsItself) {
  BenefitForecaster forecaster(12);
  for (int i = 0; i < 12; ++i) forecaster.RecordEpoch(7, 50.0);
  for (int j = 1; j <= 12; ++j) {
    EXPECT_DOUBLE_EQ(forecaster.PredBenefit(7, j), 50.0);
  }
  EXPECT_DOUBLE_EQ(forecaster.TotalPredictedBenefit(7), 600.0);
}

TEST(Forecaster, RampMonotonicallyApproachesSteadyState) {
  BenefitForecaster forecaster(12);
  double prev = 0.0;
  for (int i = 0; i < 12; ++i) {
    forecaster.RecordEpoch(3, 100.0);
    const double total = forecaster.TotalPredictedBenefit(3);
    EXPECT_GT(total, prev);
    prev = total;
  }
  EXPECT_DOUBLE_EQ(prev, 1200.0);
}

TEST(Forecaster, DecayAfterBenefitDisappears) {
  BenefitForecaster forecaster(12);
  for (int i = 0; i < 12; ++i) forecaster.RecordEpoch(3, 100.0);
  const double steady = forecaster.TotalPredictedBenefit(3);
  forecaster.RecordEpoch(3, 0.0);
  const double after_one = forecaster.TotalPredictedBenefit(3);
  EXPECT_LT(after_one, steady);
  for (int i = 0; i < 11; ++i) forecaster.RecordEpoch(3, 0.0);
  EXPECT_DOUBLE_EQ(forecaster.TotalPredictedBenefit(3), 0.0);
}

TEST(Forecaster, OptimisticLatestSubstitutes) {
  BenefitForecaster forecaster(2);
  forecaster.RecordEpoch(5, 10.0);
  forecaster.RecordEpoch(5, 20.0);  // newest
  // With latest replaced by 100: entries [100, 10].
  EXPECT_DOUBLE_EQ(forecaster.TotalPredictedBenefitWithLatest(5, 100.0),
                   100.0 + 55.0);
  // Original history untouched.
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(5, 1), 20.0);
}

TEST(Forecaster, OptimisticLatestForUnknownIndex) {
  BenefitForecaster forecaster(4);
  // No history: optimistic value becomes the only (zero-padded) entry.
  EXPECT_DOUBLE_EQ(forecaster.TotalPredictedBenefitWithLatest(9, 80.0),
                   80.0 + 40.0 + 80.0 / 3 + 20.0);
}

TEST(Forecaster, EraseDropsHistory) {
  BenefitForecaster forecaster(4);
  forecaster.RecordEpoch(1, 10.0);
  forecaster.Erase(1);
  EXPECT_EQ(forecaster.HistoryLength(1), 0);
  EXPECT_DOUBLE_EQ(forecaster.TotalPredictedBenefit(1), 0.0);
}

TEST(Forecaster, IndependentIndexes) {
  BenefitForecaster forecaster(4);
  forecaster.RecordEpoch(1, 10.0);
  forecaster.RecordEpoch(2, 99.0);
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(1, 1), 10.0);
  EXPECT_DOUBLE_EQ(forecaster.PredBenefit(2, 1), 99.0);
}

/// The Fig. 6 mechanism: a 2-epoch burst (ramping rates) stays below the
/// materialization threshold a 3-4 epoch burst crosses.
TEST(Forecaster, ShortBurstForecastMuchSmallerThanSteady) {
  BenefitForecaster forecaster(12);
  // Burst epoch benefits ramp with the window rate: b_k ~ k * B / 12.
  const double kPerEpoch = 100.0;
  forecaster.RecordEpoch(1, 1 * kPerEpoch / 12);
  forecaster.RecordEpoch(1, 2 * kPerEpoch / 12);
  const double two_epochs = forecaster.TotalPredictedBenefit(1);
  forecaster.RecordEpoch(1, 3 * kPerEpoch / 12);
  forecaster.RecordEpoch(1, 4 * kPerEpoch / 12);
  const double four_epochs = forecaster.TotalPredictedBenefit(1);
  EXPECT_GT(four_epochs, 2.2 * two_epochs);
  EXPECT_LT(two_epochs, 0.1 * (12 * kPerEpoch));
}

// ---- Linear-time totals against the quadratic definition ----

/// PredBenefit_j: the mean of the last j epochs, missing epochs counting
/// as 0, its window summed from scratch.
double WindowMean(const std::deque<double>& hist, int j) {
  if (hist.empty()) return 0.0;
  const int window = std::min<int>(j, static_cast<int>(hist.size()));
  double sum = 0.0;
  for (int i = 0; i < window; ++i) sum += hist[i];
  return sum / j;
}

/// Sum of PredBenefit_j over j = 1..depth, each one computed on its own:
/// the O(h^2) total the running sums replaced. They must agree with it
/// bit for bit.
double QuadraticTotal(const std::deque<double>& hist, int depth) {
  double total = 0.0;
  for (int j = 1; j <= depth; ++j) total += WindowMean(hist, j);
  return total;
}

/// The same with the latest epoch replaced by `latest`, or, with no
/// history, `latest` as the only epoch.
double QuadraticTotalWithLatest(std::deque<double> hist, int depth,
                                double latest) {
  if (hist.empty()) {
    hist.push_front(latest);
  } else {
    hist.front() = latest;
  }
  return QuadraticTotal(hist, depth);
}

/// Benefits of mixed sign and magnitude, so that the order of additions
/// shows in the rounding.
double RandomBenefit(Rng* rng) {
  const double magnitude = std::pow(10.0, rng->NextInRange(-3, 9));
  const double sign = rng->NextBool(0.3) ? -1.0 : 1.0;
  return sign * magnitude * rng->NextDouble();
}

TEST(ForecasterTotals, MatchQuadraticDefinitionBitForBit) {
  Rng rng(2024);
  for (const int depth : {0, 1, 2, 3, 12, 13}) {
    for (int length = 0; length <= depth + 2; ++length) {
      for (int trial = 0; trial < 20; ++trial) {
        SCOPED_TRACE(::testing::Message() << "h " << depth << " epochs "
                                          << length << " trial " << trial);
        BenefitForecaster forecaster(depth);
        const IndexId id = 7;
        for (int e = 0; e < length; ++e) {
          forecaster.RecordEpoch(id, RandomBenefit(&rng));
        }
        const std::deque<double>* recorded = forecaster.History(id);
        const std::deque<double> hist =
            recorded == nullptr ? std::deque<double>() : *recorded;
        EXPECT_EQ(
            std::bit_cast<uint64_t>(forecaster.TotalPredictedBenefit(id)),
            std::bit_cast<uint64_t>(QuadraticTotal(hist, depth)));
        for (const double latest :
             {RandomBenefit(&rng), 0.0, -0.0, -1e12, 3.5}) {
          EXPECT_EQ(std::bit_cast<uint64_t>(
                        forecaster.TotalPredictedBenefitWithLatest(id, latest)),
                    std::bit_cast<uint64_t>(
                        QuadraticTotalWithLatest(hist, depth, latest)))
              << "latest " << latest;
        }
      }
    }
  }
}

TEST(ForecasterTotals, UnknownIndexMatchesQuadraticDefinition) {
  for (const int depth : {0, 1, 12}) {
    BenefitForecaster forecaster(depth);
    EXPECT_EQ(std::bit_cast<uint64_t>(forecaster.TotalPredictedBenefit(3)),
              std::bit_cast<uint64_t>(0.0));
    for (const double latest : {0.0, -0.0, 42.25, -7.0}) {
      EXPECT_EQ(
          std::bit_cast<uint64_t>(
              forecaster.TotalPredictedBenefitWithLatest(3, latest)),
          std::bit_cast<uint64_t>(QuadraticTotalWithLatest({}, depth, latest)));
    }
  }
}

}  // namespace
}  // namespace colt
