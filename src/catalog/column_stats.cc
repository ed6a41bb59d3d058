#include "catalog/column_stats.h"

#include <bit>
#include <cmath>

#include "common/persist/serializer.h"

namespace colt {

namespace {

/// `hi - lo` for `lo <= hi`, exact over the whole int64 range, where the
/// int64 difference overflows once it exceeds INT64_MAX. Converted to
/// double it equals the int64 difference whenever that one fits.
uint64_t Offset(int64_t hi, int64_t lo) {
  return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
}

/// Number of distinct values in an ascending sequence.
int64_t CountRuns(const std::vector<int64_t>& sorted) {
  int64_t runs = sorted.empty() ? 0 : 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    runs += sorted[i] != sorted[i - 1] ? 1 : 0;
  }
  return runs;
}

}  // namespace

ColumnStats ColumnStats::FromValues(const std::vector<int64_t>& values,
                                    int buckets, HistogramType type) {
  ColumnStats stats;
  stats.type_ = type;
  stats.row_count_ = static_cast<int64_t>(values.size());
  if (values.empty()) return stats;
  const int nb = std::max(1, buckets);
  if (type == HistogramType::kEquiWidth) {
    // Not std::minmax_element: its pairwise compare is an unpredictable
    // branch on an unordered column, which made it 4x slower than this.
    int64_t lo = values.front();
    int64_t hi = values.front();
    for (int64_t v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    stats.min_ = lo;
    stats.max_ = hi;
    const uint64_t span = Offset(hi, lo);
    stats.bucket_width_ = (static_cast<double>(span) + 1.0) / nb;
    stats.bucket_counts_.assign(nb, 0);
    // The NDV is a popcount over one bit per value in [min, max], unless
    // that bitmap would take more than one word per row, that is, more
    // memory than the column itself; then it is the run count of a sorted
    // copy.
    const bool bitmap = span / 64 < values.size();
    std::vector<uint64_t> seen(bitmap ? span / 64 + 1 : 0, 0);
    for (int64_t v : values) {
      const uint64_t offset = Offset(v, lo);
      int b = static_cast<int>(static_cast<double>(offset) /
                               stats.bucket_width_);
      if (b >= nb) b = nb - 1;
      ++stats.bucket_counts_[b];
      if (bitmap) seen[offset / 64] |= uint64_t{1} << (offset % 64);
    }
    if (bitmap) {
      for (uint64_t word : seen) stats.ndv_ += std::popcount(word);
    } else {
      std::vector<int64_t> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      stats.ndv_ = CountRuns(sorted);
    }
    return stats;
  }
  // Equi-depth: boundaries at quantiles of the sorted values. Runs of a
  // single value never straddle a boundary (the boundary moves to the end
  // of the run), so buckets are approximately, not exactly, equal.
  std::vector<int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  stats.min_ = sorted.front();
  stats.max_ = sorted.back();
  stats.ndv_ = CountRuns(sorted);
  const int64_t n = stats.row_count_;
  const int64_t target = std::max<int64_t>(1, (n + nb - 1) / nb);
  int64_t start = 0;
  while (start < n) {
    int64_t end = std::min<int64_t>(n, start + target);
    // Extend past a run of equal values.
    while (end < n && sorted[end] == sorted[end - 1]) ++end;
    stats.bucket_counts_.push_back(end - start);
    stats.bucket_upper_.push_back(sorted[end - 1]);
    start = end;
  }
  return stats;
}

ColumnStats ColumnStats::Uniform(int64_t ndv, int64_t row_count, int buckets) {
  ColumnStats stats;
  stats.row_count_ = row_count;
  stats.ndv_ = std::min(ndv, row_count);
  if (row_count == 0) return stats;
  stats.min_ = 0;
  stats.max_ = ndv - 1;
  const int nb = std::max(1, buckets);
  stats.bucket_width_ = static_cast<double>(ndv) / nb;
  stats.bucket_counts_.assign(nb, 0);
  // Distribute rows evenly; remainder goes to the first buckets.
  const int64_t base = row_count / nb;
  const int64_t rem = row_count % nb;
  for (int i = 0; i < nb; ++i) {
    stats.bucket_counts_[i] = base + (i < rem ? 1 : 0);
  }
  return stats;
}

ColumnStats ColumnStats::Zipf(int64_t ndv, int64_t row_count, double skew,
                              int buckets) {
  ColumnStats stats;
  stats.type_ = HistogramType::kEquiDepth;
  stats.row_count_ = row_count;
  stats.ndv_ = std::min(ndv, row_count);
  if (row_count == 0 || ndv <= 0) return stats;
  stats.min_ = 0;
  stats.max_ = ndv - 1;
  const int nb = std::max(1, buckets);
  // Equi-depth boundaries from the analytic Zipf pmf p(v) ∝ (v+1)^-skew:
  // walk values accumulating mass, closing a bucket whenever ~1/nb of the
  // total has accumulated. The head is walked exactly; a very long tail
  // (beyond kExactHead values) carries little mass and is folded into the
  // final bucket.
  const int64_t kExactHead = std::min<int64_t>(ndv, 1'000'000);
  double norm = 0.0;
  for (int64_t v = 0; v < kExactHead; ++v) {
    norm += std::pow(static_cast<double>(v + 1), -skew);
  }
  double tail_mass = 0.0;
  if (kExactHead < ndv) {
    if (std::fabs(skew - 1.0) < 1e-9) {
      tail_mass = std::log(static_cast<double>(ndv) /
                           static_cast<double>(kExactHead));
    } else {
      tail_mass = (std::pow(static_cast<double>(ndv), 1.0 - skew) -
                   std::pow(static_cast<double>(kExactHead), 1.0 - skew)) /
                  (1.0 - skew);
    }
    norm += tail_mass;
  }
  const double per_bucket = norm / nb;
  double acc = 0.0;
  int64_t rows_assigned = 0;
  double mass_assigned = 0.0;
  for (int64_t v = 0; v < kExactHead; ++v) {
    acc += std::pow(static_cast<double>(v + 1), -skew);
    const bool last_value = (v == ndv - 1);
    if (acc >= per_bucket || last_value) {
      const int64_t count = static_cast<int64_t>(std::llround(
          static_cast<double>(row_count) * acc / norm));
      stats.bucket_counts_.push_back(count);
      stats.bucket_upper_.push_back(v);
      rows_assigned += count;
      mass_assigned += acc;
      acc = 0.0;
    }
  }
  if (kExactHead < ndv) {
    stats.bucket_counts_.push_back(row_count - rows_assigned);
    stats.bucket_upper_.push_back(ndv - 1);
  } else if (!stats.bucket_counts_.empty()) {
    // Fix rounding drift in the last bucket.
    stats.bucket_counts_.back() += row_count - rows_assigned;
  }
  return stats;
}

double ColumnStats::EqualitySelectivity(int64_t v) const {
  if (row_count_ == 0 || ndv_ == 0) return 0.0;
  if (v < min_ || v > max_) return 0.0;
  return 1.0 / static_cast<double>(ndv_);
}

double ColumnStats::RangeSelectivity(int64_t lo, int64_t hi) const {
  if (row_count_ == 0 || lo > hi) return 0.0;
  const int64_t clo = std::max(lo, min_);
  const int64_t chi = std::min(hi, max_);
  if (clo > chi) return 0.0;
  if (type_ == HistogramType::kEquiDepth && !bucket_upper_.empty()) {
    // Sum buckets fully inside [clo, chi]; interpolate linearly (in value
    // space) within the partially-overlapped end buckets. The walk starts
    // at the first bucket reaching clo: every bucket before it ends below
    // clo, overlaps nothing, and so never added to the sum.
    double selected = 0.0;
    size_t b = static_cast<size_t>(
        std::lower_bound(bucket_upper_.begin(), bucket_upper_.end(), clo) -
        bucket_upper_.begin());
    // Lowest value coverable by bucket b.
    int64_t bucket_lo = b == 0 ? min_ : bucket_upper_[b - 1] + 1;
    for (; b < bucket_upper_.size(); ++b) {
      const int64_t bucket_hi = bucket_upper_[b];
      const int64_t overlap_lo = std::max<int64_t>(bucket_lo, clo);
      const int64_t overlap_hi = std::min<int64_t>(bucket_hi, chi);
      if (overlap_lo <= overlap_hi) {
        const double span =
            static_cast<double>(Offset(bucket_hi, bucket_lo)) + 1.0;
        const double overlap =
            static_cast<double>(Offset(overlap_hi, overlap_lo)) + 1.0;
        selected += static_cast<double>(bucket_counts_[b]) * (overlap / span);
      }
      // Stop before the increment, which overflows at INT64_MAX.
      if (bucket_hi >= chi) break;
      bucket_lo = bucket_hi + 1;
    }
    return std::min(1.0, selected / static_cast<double>(row_count_));
  }
  if (bucket_counts_.empty()) {
    // Fall back to the uniform-span assumption.
    const double span = static_cast<double>(Offset(max_, min_)) + 1.0;
    return (static_cast<double>(Offset(chi, clo)) + 1.0) / span;
  }
  // Sum full buckets plus linear interpolation in the partial end buckets.
  // Bucket b spans [b_lo(b), b_hi(b)) in double arithmetic, and both bounds
  // grow with b, so the buckets that overlap [q_lo, q_hi) form one run. The
  // walk covers that run: it starts at the bucket clo falls in and ends at
  // the one chi falls in, each estimate then moved until the bucket before
  // the first ends at or below q_lo and the bucket after the last starts at
  // or past q_hi (rounding can put an estimate one bucket off). Every
  // bucket outside the walk fails `overlap > 0` and would add nothing, so
  // the sum equals the all-bucket sum bit for bit.
  const auto bucket_lo = [&](int b) {
    return static_cast<double>(min_) + b * bucket_width_;
  };
  const double q_lo = static_cast<double>(clo);
  const double q_hi = static_cast<double>(chi) + 1.0;  // half-open
  const int nb = static_cast<int>(bucket_counts_.size());
  const auto bucket_of = [&](double v) {
    return static_cast<int>(
        std::min((v - static_cast<double>(min_)) / bucket_width_,
                 static_cast<double>(nb - 1)));
  };
  int first = bucket_of(q_lo);
  while (first > 0 && bucket_lo(first - 1) + bucket_width_ > q_lo) --first;
  int last = bucket_of(q_hi);
  while (last + 1 < nb && bucket_lo(last + 1) < q_hi) ++last;
  double selected = 0.0;
  for (int b = first; b <= last; ++b) {
    const double b_lo = bucket_lo(b);
    const double b_hi = b_lo + bucket_width_;
    const double overlap =
        std::max(0.0, std::min(b_hi, q_hi) - std::max(b_lo, q_lo));
    if (overlap > 0.0) {
      selected +=
          static_cast<double>(bucket_counts_[b]) * (overlap / bucket_width_);
    }
  }
  return std::min(1.0, selected / static_cast<double>(row_count_));
}

uint64_t ColumnStats::Fingerprint() const {
  BinaryWriter w;
  w.WriteI64(row_count_);
  w.WriteI64(ndv_);
  w.WriteI64(min_);
  w.WriteI64(max_);
  w.WriteU32(static_cast<uint32_t>(type_));
  w.WriteU64(bucket_counts_.size());
  for (int64_t c : bucket_counts_) w.WriteI64(c);
  w.WriteDouble(bucket_width_);
  w.WriteU64(bucket_upper_.size());
  for (int64_t u : bucket_upper_) w.WriteI64(u);
  return Fnv1a64(w.buffer());
}

}  // namespace colt
