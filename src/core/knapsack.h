#ifndef COLT_CORE_KNAPSACK_H_
#define COLT_CORE_KNAPSACK_H_

#include <cstdint>
#include <vector>

namespace colt {

/// One candidate object for index selection (paper §5): an index with its
/// storage footprint and predicted NetBenefit.
struct KnapsackItem {
  int64_t id = 0;
  int64_t size = 0;   // bytes
  double value = 0.0;  // NetBenefit; items with value <= 0 are never chosen
};

/// Result of a knapsack solve.
struct KnapsackSolution {
  std::vector<int64_t> chosen_ids;
  double total_value = 0.0;
  int64_t total_size = 0;
};

/// 0/1 KNAPSACK by dynamic programming over discretized sizes. Sizes are
/// scaled so the DP has at most `max_buckets` capacity units; with
/// discretization the solution is optimal for the rounded-up sizes, hence
/// always feasible for the true capacity and near-optimal in value (exact
/// when all sizes are multiples of the bucket). Items with non-positive
/// value or size exceeding capacity are excluded; zero-size positive-value
/// items are always taken.
///
/// Representation: the best value over the first i eligible items is a
/// non-decreasing step function of the capacity c in [0, cap_units]. It is
/// stored as its breakpoints (c, value): values strictly increase, and the
/// list starts at (0, 0.0). Stage i merges list i-1 with a copy shifted
/// right by the i-th item's units and raised by its value, keeping the
/// shifted value only where it is strictly greater (the Nemhauser-Ullmann
/// list method).
///
/// Bit-identity: the decisions equal those of the dense table
/// `dp[c] = max(dp[c], dp[c-s] + v)` over every unit capacity, taken with a
/// strict `>` and traced back from `cap_units`. The merge performs the same
/// floating-point additions and comparisons, and the traceback takes item i
/// at capacity c exactly when the dense table would have. So `chosen_ids`,
/// `total_size` and `total_value` are bit-equal to the dense DP's, which
/// tests/knapsack_test.cc keeps as the reference.
///
/// Cost: list i has at most min(2^i, cap_units + 1) breakpoints. COLT's
/// pools (H u M, at most 14 eligible items in the benches) give lists of
/// at most 128. In the worst case time and memory are
/// O(n * (cap_units + 1)), the dense table's order.
KnapsackSolution SolveKnapsack(const std::vector<KnapsackItem>& items,
                               int64_t capacity, int max_buckets = 4096);

/// Greedy density heuristic (value/size order) used by ablation benches.
KnapsackSolution SolveKnapsackGreedy(const std::vector<KnapsackItem>& items,
                                     int64_t capacity);

}  // namespace colt

#endif  // COLT_CORE_KNAPSACK_H_
