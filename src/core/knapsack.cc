#include "core/knapsack.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/logging.h"

namespace colt {

namespace {

/// One step of a DP stage's value function: the best value is `value` at
/// every capacity from `c` up to the next breakpoint's `c`.
struct Breakpoint {
  int64_t c;
  double value;
};

/// Value at capacity `c` >= 0 of the step function with breakpoints
/// [first, last), sorted by capacity and starting at capacity 0.
double ValueAt(const Breakpoint* first, const Breakpoint* last, int64_t c) {
  const Breakpoint* after = std::upper_bound(
      first, last, c, [](int64_t x, const Breakpoint& p) { return x < p.c; });
  return std::prev(after)->value;
}

}  // namespace

KnapsackSolution SolveKnapsack(const std::vector<KnapsackItem>& items,
                               int64_t capacity, int max_buckets) {
  KnapsackSolution solution;
  if (capacity < 0) capacity = 0;

  // Scratch reused by every solve on this thread. Each solve clears it
  // before use, so only the allocations carry over between calls.
  thread_local std::vector<KnapsackItem> eligible;
  thread_local std::vector<Breakpoint> points;
  thread_local std::vector<size_t> starts;

  // Partition: always-take (zero size, positive value), DP-eligible.
  eligible.clear();
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

  // points[starts[i], starts[i + 1]) is the stage list L_i: the best value
  // over items [0, i) as a step function of the capacity (knapsack.h).
  // The traceback reads L_0 .. L_{n-1}, so L_n is never built.
  const size_t n = eligible.size();
  const int64_t past_cap = cap_units + 1;
  points.clear();
  starts.clear();
  points.push_back({0, 0.0});
  starts.push_back(0);
  for (size_t i = 0; i + 1 < n; ++i) {
    const size_t begin = starts.back();
    const size_t end = points.size();
    starts.push_back(end);
    const int64_t s = units(eligible[i].size);
    const double v = eligible[i].value;
    // Below s the item does not fit, so L_{i+1} equals L_i there.
    size_t a = begin;
    for (; a < end && points[a].c < s; ++a) points.push_back(points[a]);
    // From s on, merge L_i with L_i shifted right by s and raised by v,
    // taking the shifted value only when strictly greater.
    double old_value = points[a - 1].value;
    double shifted_value = 0.0;
    double last_value = old_value;
    size_t b = begin;
    for (;;) {
      const int64_t pa = a < end ? points[a].c : past_cap;
      const int64_t pb = b < end ? std::min(points[b].c + s, past_cap)
                                 : past_cap;
      const int64_t p = std::min(pa, pb);
      if (p == past_cap) break;
      if (pa == p) old_value = points[a++].value;
      if (pb == p) shifted_value = points[b++].value + v;
      const double value = shifted_value > old_value ? shifted_value
                                                     : old_value;
      if (value > last_value) {
        points.push_back({p, value});
        last_value = value;
      }
    }
  }
  starts.push_back(points.size());

  // Trace back: take item i at capacity c exactly when adding it strictly
  // beats L_i there, the same test that built L_{i+1}.
  int64_t c = cap_units;
  for (size_t i = n; i-- > 0;) {
    const int64_t s = units(eligible[i].size);
    if (c < s) continue;
    const Breakpoint* first = points.data() + starts[i];
    const Breakpoint* last = points.data() + starts[i + 1];
    if (ValueAt(first, last, c - s) + eligible[i].value >
        ValueAt(first, last, c)) {
      solution.chosen_ids.push_back(eligible[i].id);
      solution.total_value += eligible[i].value;
      solution.total_size += eligible[i].size;
      c -= s;
    }
  }
  std::sort(solution.chosen_ids.begin(), solution.chosen_ids.end());
  COLT_CHECK(solution.total_size <= capacity)
      << "knapsack overflow: " << solution.total_size << " > " << capacity;
  return solution;
}

KnapsackSolution SolveKnapsackGreedy(const std::vector<KnapsackItem>& items,
                                     int64_t capacity) {
  KnapsackSolution solution;
  std::vector<KnapsackItem> sorted;
  for (const auto& item : items) {
    if (item.value > 0.0) sorted.push_back(item);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const KnapsackItem& a, const KnapsackItem& b) {
              const double da =
                  a.size > 0 ? a.value / static_cast<double>(a.size)
                             : std::numeric_limits<double>::infinity();
              const double db =
                  b.size > 0 ? b.value / static_cast<double>(b.size)
                             : std::numeric_limits<double>::infinity();
              if (da != db) return da > db;
              return a.id < b.id;
            });
  int64_t used = 0;
  for (const auto& item : sorted) {
    if (used + item.size > capacity) continue;
    used += item.size;
    solution.chosen_ids.push_back(item.id);
    solution.total_value += item.value;
    solution.total_size += item.size;
  }
  std::sort(solution.chosen_ids.begin(), solution.chosen_ids.end());
  return solution;
}

}  // namespace colt
