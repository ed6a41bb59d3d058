#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (p in [0, 100]): the smallest sample
/// with at least p% of the samples at or below it. The same rule as
/// colt::LatencyPercentile, so the benchmark's serving percentiles agree
/// with the program's own. Returns 0 for an empty sample.
inline double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::min(100.0, std::max(0.0, p));
  const size_t rank = static_cast<size_t>(
      (clamped / 100.0) * static_cast<double>(samples.size()) + 0.5);
  const size_t index = rank == 0 ? 0 : rank - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// Samples that lie beyond percentile `p` of `n` samples: the (100 - p)%
/// tail, rounded down.
inline size_t SamplesBeyond(size_t n, double p) {
  const double clamped = std::min(100.0, std::max(0.0, p));
  return static_cast<size_t>(
      (100.0 - clamped) / 100.0 * static_cast<double>(n) + 1e-9);
}

/// Minimum number of samples that must lie beyond a reported percentile;
/// below it the figure is one or two outliers, not a tail.
inline constexpr size_t kMinSamplesBeyond = 10;

/// The nearest-rank percentile when at least kMinSamplesBeyond samples lie
/// beyond it (so a p99 needs 1,000 samples), and nothing otherwise.
inline std::optional<double> TailPercentile(const std::vector<double>& samples,
                                            double p) {
  if (SamplesBeyond(samples.size(), p) < kMinSamplesBeyond) return std::nullopt;
  return NearestRank(samples, p);
}

/// Nearest-rank median.
inline double Median(const std::vector<double>& samples) {
  return NearestRank(samples, 50.0);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
