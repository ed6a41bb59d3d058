#include "core/knapsack.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"

namespace colt {
namespace {

/// Exact exponential reference.
double BruteForceBest(const std::vector<KnapsackItem>& items,
                      int64_t capacity) {
  const size_t n = items.size();
  double best = 0.0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    int64_t size = 0;
    double value = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        size += items[i].size;
        value += items[i].value;
      }
    }
    if (size <= capacity) best = std::max(best, value);
  }
  return best;
}

TEST(Knapsack, EmptyItems) {
  const KnapsackSolution s = SolveKnapsack({}, 100);
  EXPECT_TRUE(s.chosen_ids.empty());
  EXPECT_DOUBLE_EQ(s.total_value, 0.0);
}

TEST(Knapsack, ZeroCapacityTakesOnlyZeroSize) {
  const KnapsackSolution s = SolveKnapsack(
      {{1, 10, 5.0}, {2, 0, 3.0}}, 0);
  EXPECT_EQ(s.chosen_ids, (std::vector<int64_t>{2}));
  EXPECT_DOUBLE_EQ(s.total_value, 3.0);
}

TEST(Knapsack, NegativeAndZeroValueExcluded) {
  const KnapsackSolution s = SolveKnapsack(
      {{1, 5, -2.0}, {2, 5, 0.0}, {3, 5, 1.0}}, 100);
  EXPECT_EQ(s.chosen_ids, (std::vector<int64_t>{3}));
}

TEST(Knapsack, OversizedItemExcluded) {
  const KnapsackSolution s = SolveKnapsack({{1, 200, 100.0}}, 100);
  EXPECT_TRUE(s.chosen_ids.empty());
}

TEST(Knapsack, ClassicInstance) {
  // Items (size, value): (10,60) (20,100) (30,120), capacity 50 ->
  // optimal = items 2+3 = 220.
  const KnapsackSolution s = SolveKnapsack(
      {{1, 10, 60.0}, {2, 20, 100.0}, {3, 30, 120.0}}, 50);
  EXPECT_DOUBLE_EQ(s.total_value, 220.0);
  EXPECT_EQ(s.chosen_ids, (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(s.total_size, 50);
}

TEST(Knapsack, RespectsCapacityExactly) {
  const KnapsackSolution s = SolveKnapsack(
      {{1, 51, 100.0}, {2, 50, 99.0}}, 100);
  // Both do not fit together (101 > 100); best single is item 1.
  EXPECT_DOUBLE_EQ(s.total_value, 100.0);
  EXPECT_LE(s.total_size, 100);
}

class KnapsackRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KnapsackRandomTest, MatchesBruteForce) {
  Rng rng(GetParam() * 97 + 11);
  const int n = 1 + static_cast<int>(rng.NextBelow(14));
  std::vector<KnapsackItem> items;
  int64_t total_size = 0;
  for (int i = 0; i < n; ++i) {
    KnapsackItem item;
    item.id = i;
    item.size = 1 + static_cast<int64_t>(rng.NextBelow(50));
    item.value = static_cast<double>(rng.NextBelow(100)) - 10.0;
    total_size += item.size;
    items.push_back(item);
  }
  const int64_t capacity = static_cast<int64_t>(
      rng.NextBelow(static_cast<uint64_t>(total_size) + 1));
  // Use enough buckets that discretization is exact for these small sizes.
  const KnapsackSolution dp = SolveKnapsack(items, capacity, 1 << 16);
  EXPECT_NEAR(dp.total_value, BruteForceBest(items, capacity), 1e-9);
  EXPECT_LE(dp.total_size, capacity);
  // Chosen value must equal the sum of chosen items.
  double check = 0.0;
  for (int64_t id : dp.chosen_ids) check += items[id].value;
  EXPECT_NEAR(check, dp.total_value, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackRandomTest,
                         ::testing::Range<uint64_t>(0, 30));

TEST(Knapsack, DiscretizationNeverOverflowsCapacity) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<KnapsackItem> items;
    for (int i = 0; i < 20; ++i) {
      items.push_back({i, static_cast<int64_t>(1 + rng.NextBelow(1 << 20)),
                       static_cast<double>(rng.NextBelow(1000))});
    }
    const int64_t capacity = 1 + static_cast<int64_t>(rng.NextBelow(1 << 22));
    const KnapsackSolution s = SolveKnapsack(items, capacity, 256);
    EXPECT_LE(s.total_size, capacity);
  }
}

/// Reference: the dense discretized DP, one cell per capacity unit per item,
/// whose decisions SolveKnapsack's breakpoint lists must match bit for bit.
KnapsackSolution DenseKnapsack(const std::vector<KnapsackItem>& items,
                               int64_t capacity, int max_buckets) {
  KnapsackSolution solution;
  if (capacity < 0) capacity = 0;

  // Partition: always-take (zero size, positive value), DP-eligible.
  std::vector<KnapsackItem> eligible;
  for (const auto& item : items) {
    if (item.value <= 0.0) continue;
    if (item.size <= 0) {
      solution.chosen_ids.push_back(item.id);
      solution.total_value += item.value;
      continue;
    }
    if (item.size <= capacity) eligible.push_back(item);
  }
  if (eligible.empty() || capacity == 0) return solution;

  // Discretize sizes, rounding *up* so the solution never overflows the
  // true capacity.
  const int64_t bucket =
      std::max<int64_t>(1, (capacity + max_buckets - 1) / max_buckets);
  const int64_t cap_units = capacity / bucket;
  auto units = [bucket](int64_t size) { return (size + bucket - 1) / bucket; };

  const size_t n = eligible.size();
  // dp[c] = best value using a prefix of items with total unit-size <= c.
  std::vector<double> dp(cap_units + 1, 0.0);
  // keep[i] = bitset over capacities where item i is taken.
  std::vector<std::vector<bool>> keep(n,
                                      std::vector<bool>(cap_units + 1, false));
  for (size_t i = 0; i < n; ++i) {
    const int64_t s = units(eligible[i].size);
    const double v = eligible[i].value;
    for (int64_t c = cap_units; c >= s; --c) {
      const double candidate = dp[c - s] + v;
      if (candidate > dp[c]) {
        dp[c] = candidate;
        keep[i][c] = true;
      }
    }
  }
  // Trace back.
  int64_t c = cap_units;
  for (size_t i = n; i-- > 0;) {
    if (c >= 0 && keep[i][c]) {
      solution.chosen_ids.push_back(eligible[i].id);
      solution.total_value += eligible[i].value;
      solution.total_size += eligible[i].size;
      c -= units(eligible[i].size);
    }
  }
  std::sort(solution.chosen_ids.begin(), solution.chosen_ids.end());
  COLT_CHECK(solution.total_size <= capacity)
      << "knapsack overflow: " << solution.total_size << " > " << capacity;
  return solution;
}

/// Value families that stress the floating-point side of the contract.
enum class ValueShape {
  kOrdinary,    // spread-out doubles, some non-positive
  kTies,        // small integers, so many subsets tie exactly
  kAbsorption,  // 1e18 beside 1e-3 and 1.0: fl(D + v) == D
  kOverflow,    // around 1e300 and DBL_MAX, so sums reach inf; inf and NaN
};

double RandomValue(Rng* rng, ValueShape shape) {
  constexpr double kMax = std::numeric_limits<double>::max();
  switch (shape) {
    case ValueShape::kOrdinary:
      return rng->NextDouble() * 1000.0 - 100.0;
    case ValueShape::kTies:
      return static_cast<double>(rng->NextInRange(-1, 4));
    case ValueShape::kAbsorption: {
      const double kValues[] = {1e18, 1e18, 1e-3, 1.0, 1e16, 3e18};
      return kValues[rng->NextBelow(6)];
    }
    case ValueShape::kOverflow: {
      switch (rng->NextBelow(10)) {
        case 0:
          return std::numeric_limits<double>::infinity();
        case 1:
          return std::numeric_limits<double>::quiet_NaN();
        case 2:
          return kMax;
        case 3:
        case 4:
        case 5:
          return kMax * (0.3 + 0.7 * rng->NextDouble());
        default:
          return 1e300 * (1.0 + rng->NextDouble());
      }
    }
  }
  return 0.0;
}

/// A size that lands in one of the discretization's edge classes for this
/// capacity and bucket count.
int64_t RandomSize(Rng* rng, int64_t capacity, int max_buckets) {
  const int64_t cap = std::max<int64_t>(capacity, 1);
  const int64_t bucket =
      std::max<int64_t>(1, (cap + max_buckets - 1) / max_buckets);
  const int64_t cap_units = cap / bucket;
  const uint64_t kind = rng->NextBelow(20);
  if (kind == 0) return -static_cast<int64_t>(rng->NextBelow(3));  // <= 0
  if (kind == 1) {  // larger than the capacity
    return cap + 1 + static_cast<int64_t>(rng->NextBelow(
                         static_cast<uint64_t>(4 * bucket)));
  }
  if (kind == 2) return cap;  // units > cap_units unless bucket divides cap
  if (kind < 9) {             // an exact multiple of the bucket
    return bucket * rng->NextInRange(1, std::max<int64_t>(cap_units, 1));
  }
  // Small relative to the capacity, so the stage lists saturate.
  const int64_t limit = std::max<int64_t>(1, cap >> rng->NextBelow(8));
  return rng->NextInRange(1, limit);
}

class KnapsackDenseOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackDenseOracleTest, SparseDpMatchesDenseBitForBit) {
  const int max_buckets = GetParam();
  // Keep the dense oracle's n x 65,537-cell table affordable.
  const int max_n = max_buckets > 4096 ? 16 : 64;
  const int cases = max_buckets > 4096 ? 40 : max_buckets > 64 ? 150 : 300;
  Rng rng(0x6b6e6170ULL + static_cast<uint64_t>(max_buckets));
  for (int trial = 0; trial < cases; ++trial) {
    const int n = static_cast<int>(rng.NextBelow(max_n + 1));
    int64_t capacity;
    switch (rng.NextBelow(8)) {
      case 0:
        capacity = 0;
        break;
      case 1:
        capacity = -rng.NextInRange(1, 1000);
        break;
      case 2:
        capacity = rng.NextInRange(1, 64);
        break;
      case 3:
      case 4:
        capacity = rng.NextInRange(1, int64_t{1} << 20);
        break;
      default:
        capacity = rng.NextInRange(1, int64_t{1} << 40);
        break;
    }
    const auto shape = static_cast<ValueShape>(rng.NextBelow(4));
    std::vector<KnapsackItem> items;
    for (int i = 0; i < n; ++i) {
      items.push_back({i, RandomSize(&rng, capacity, max_buckets),
                       RandomValue(&rng, shape)});
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": n=" +
                 std::to_string(n) + " capacity=" + std::to_string(capacity) +
                 " shape=" + std::to_string(static_cast<int>(shape)));
    const KnapsackSolution sparse = SolveKnapsack(items, capacity, max_buckets);
    const KnapsackSolution dense = DenseKnapsack(items, capacity, max_buckets);
    ASSERT_EQ(sparse.chosen_ids, dense.chosen_ids);
    ASSERT_EQ(sparse.total_size, dense.total_size);
    ASSERT_EQ(std::memcmp(&sparse.total_value, &dense.total_value,
                          sizeof(double)),
              0)
        << sparse.total_value << " vs " << dense.total_value;
  }
}

std::vector<int> OracleBucketCounts() {
  std::vector<int> counts;
  for (int b = 1; b <= 64; ++b) counts.push_back(b);
  for (int b : {256, 4096, 1 << 16}) counts.push_back(b);
  return counts;
}

INSTANTIATE_TEST_SUITE_P(Buckets, KnapsackDenseOracleTest,
                         ::testing::ValuesIn(OracleBucketCounts()));

TEST(KnapsackGreedy, NeverBeatsOptimal) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<KnapsackItem> items;
    int64_t total = 0;
    for (int i = 0; i < 12; ++i) {
      const int64_t size = 1 + static_cast<int64_t>(rng.NextBelow(40));
      total += size;
      items.push_back({i, size, static_cast<double>(rng.NextBelow(100))});
    }
    const int64_t capacity = total / 2;
    const KnapsackSolution greedy = SolveKnapsackGreedy(items, capacity);
    const KnapsackSolution optimal = SolveKnapsack(items, capacity, 1 << 16);
    EXPECT_LE(greedy.total_value, optimal.total_value + 1e-9);
    EXPECT_LE(greedy.total_size, capacity);
  }
}

TEST(KnapsackGreedy, PrefersHighDensity) {
  const KnapsackSolution s = SolveKnapsackGreedy(
      {{1, 10, 100.0}, {2, 10, 10.0}}, 10);
  EXPECT_EQ(s.chosen_ids, (std::vector<int64_t>{1}));
}

}  // namespace
}  // namespace colt
