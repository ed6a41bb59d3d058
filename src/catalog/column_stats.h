#ifndef COLT_CATALOG_COLUMN_STATS_H_
#define COLT_CATALOG_COLUMN_STATS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "catalog/types.h"

namespace colt {

/// Histogram flavors for selectivity estimation. Equi-width splits the
/// value domain evenly (cheap, fine for uniform data); equi-depth places
/// bucket boundaries at quantiles so each bucket holds ~the same number of
/// rows (robust to skew).
enum class HistogramType { kEquiWidth, kEquiDepth };

/// Per-column statistics used by the optimizer for selectivity estimation.
/// Populated by the data generator (exact) or by scanning stored data.
class ColumnStats {
 public:
  ColumnStats() = default;

  /// Builds stats with a `buckets`-bucket histogram from raw values.
  static ColumnStats FromValues(const std::vector<int64_t>& values,
                                int buckets = 32,
                                HistogramType type = HistogramType::kEquiWidth);

  /// Builds stats analytically for a column whose values are uniform over
  /// [0, ndv) with `row_count` rows (the generator's model).
  static ColumnStats Uniform(int64_t ndv, int64_t row_count, int buckets = 32);

  /// Builds stats analytically for a Zipf(skew)-distributed column over
  /// [0, ndv): expected per-value frequencies fill an equi-width histogram.
  static ColumnStats Zipf(int64_t ndv, int64_t row_count, double skew,
                          int buckets = 64);

  int64_t row_count() const { return row_count_; }
  int64_t ndv() const { return ndv_; }
  int64_t min_value() const { return min_; }
  int64_t max_value() const { return max_; }

  /// Estimated selectivity of `col = v`.
  double EqualitySelectivity(int64_t v) const;

  /// Estimated selectivity of `lo <= col <= hi` (inclusive bounds; pass
  /// INT64_MIN / INT64_MAX for open ends).
  double RangeSelectivity(int64_t lo, int64_t hi) const;

  bool empty() const { return row_count_ == 0; }
  HistogramType histogram_type() const { return type_; }
  int bucket_count() const { return static_cast<int>(bucket_counts_.size()); }
  /// Rows per histogram bucket, in bucket order.
  const std::vector<int64_t>& bucket_counts() const { return bucket_counts_; }
  /// Value-space width of each equi-width bucket.
  double bucket_width() const { return bucket_width_; }
  /// Inclusive upper value bound per bucket; empty unless equi-depth.
  const std::vector<int64_t>& bucket_upper() const { return bucket_upper_; }

  /// Content hash over every field the optimizer reads (counts, bounds,
  /// histogram shape and contents). Checkpoint recovery compares the
  /// persisted fingerprint against the deterministically rebuilt catalog
  /// to detect a changed environment before trusting restored state.
  uint64_t Fingerprint() const;

 private:
  int64_t row_count_ = 0;
  int64_t ndv_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  HistogramType type_ = HistogramType::kEquiWidth;
  /// Rows per bucket. Equi-width: bucket i covers
  /// [min_ + i*bucket_width_, min_ + (i+1)*bucket_width_). Equi-depth:
  /// bucket i covers (bucket_upper_[i-1], bucket_upper_[i]] (value space),
  /// with bucket_upper_.back() == max_.
  std::vector<int64_t> bucket_counts_;
  double bucket_width_ = 1.0;
  /// Inclusive upper value bound per bucket (equi-depth only).
  std::vector<int64_t> bucket_upper_;
};

}  // namespace colt

#endif  // COLT_CATALOG_COLUMN_STATS_H_
