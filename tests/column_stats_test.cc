#include "catalog/column_stats.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace colt {
namespace {

TEST(ColumnStats, EmptyValues) {
  const ColumnStats stats = ColumnStats::FromValues({});
  EXPECT_TRUE(stats.empty());
  EXPECT_DOUBLE_EQ(stats.EqualitySelectivity(5), 0.0);
  EXPECT_DOUBLE_EQ(stats.RangeSelectivity(0, 10), 0.0);
}

TEST(ColumnStats, BasicProperties) {
  const ColumnStats stats = ColumnStats::FromValues({1, 2, 2, 3, 7});
  EXPECT_EQ(stats.row_count(), 5);
  EXPECT_EQ(stats.ndv(), 4);
  EXPECT_EQ(stats.min_value(), 1);
  EXPECT_EQ(stats.max_value(), 7);
}

TEST(ColumnStats, EqualitySelectivityIsOneOverNdv) {
  const ColumnStats stats = ColumnStats::FromValues({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(stats.EqualitySelectivity(2), 0.25);
  EXPECT_DOUBLE_EQ(stats.EqualitySelectivity(9), 0.0);  // out of range
}

TEST(ColumnStats, FullRangeIsOne) {
  const ColumnStats stats = ColumnStats::Uniform(100, 1000);
  EXPECT_NEAR(stats.RangeSelectivity(0, 99), 1.0, 1e-9);
  EXPECT_NEAR(stats.RangeSelectivity(INT64_MIN, INT64_MAX), 1.0, 1e-9);
}

TEST(ColumnStats, EmptyRange) {
  const ColumnStats stats = ColumnStats::Uniform(100, 1000);
  EXPECT_DOUBLE_EQ(stats.RangeSelectivity(10, 5), 0.0);
  EXPECT_DOUBLE_EQ(stats.RangeSelectivity(200, 300), 0.0);
}

TEST(ColumnStats, UniformRangeProportional) {
  const ColumnStats stats = ColumnStats::Uniform(1000, 100'000);
  EXPECT_NEAR(stats.RangeSelectivity(0, 99), 0.1, 0.01);
  EXPECT_NEAR(stats.RangeSelectivity(500, 549), 0.05, 0.01);
}

TEST(ColumnStats, RangeMonotoneInWidth) {
  const ColumnStats stats = ColumnStats::Uniform(1000, 10'000);
  double prev = 0.0;
  for (int64_t hi = 0; hi < 1000; hi += 50) {
    const double sel = stats.RangeSelectivity(0, hi);
    EXPECT_GE(sel, prev);
    prev = sel;
  }
}

/// Property: histogram-estimated range selectivity tracks the exact
/// fraction on generated data, for several distributions.
class HistogramAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramAccuracyTest, EstimateTracksExactFraction) {
  Rng rng(GetParam());
  std::vector<int64_t> values;
  const int n = 20'000;
  const int64_t domain = 1'000;
  for (int i = 0; i < n; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBelow(domain)));
  }
  const ColumnStats stats = ColumnStats::FromValues(values, 64);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t lo = static_cast<int64_t>(rng.NextBelow(domain));
    const int64_t hi =
        lo + static_cast<int64_t>(rng.NextBelow(domain - lo) + 1);
    const double estimated = stats.RangeSelectivity(lo, hi);
    const double exact =
        static_cast<double>(std::count_if(values.begin(), values.end(),
                                          [&](int64_t v) {
                                            return v >= lo && v <= hi;
                                          })) /
        n;
    EXPECT_NEAR(estimated, exact, 0.03)
        << "range [" << lo << ", " << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramAccuracyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ColumnStats, UniformMatchesFromValuesShape) {
  Rng rng(77);
  std::vector<int64_t> values;
  for (int i = 0; i < 50'000; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBelow(500)));
  }
  const ColumnStats exact = ColumnStats::FromValues(values);
  const ColumnStats analytic = ColumnStats::Uniform(500, 50'000);
  for (int64_t lo = 0; lo < 500; lo += 100) {
    EXPECT_NEAR(exact.RangeSelectivity(lo, lo + 49),
                analytic.RangeSelectivity(lo, lo + 49), 0.02);
  }
}

TEST(ColumnStats, NdvCappedByRowCount) {
  const ColumnStats stats = ColumnStats::Uniform(1'000'000, 10);
  EXPECT_EQ(stats.ndv(), 10);
}

// ---- Exact statistics against a hash-set reference ----

/// Reference NDV: the size of a hash set holding every value.
int64_t ReferenceNdv(const std::vector<int64_t>& values) {
  return static_cast<int64_t>(
      std::unordered_set<int64_t>(values.begin(), values.end()).size());
}

/// Checks both histogram types' row count, NDV, bounds and bucket-count
/// sum against the reference.
void ExpectMatchesReference(const std::vector<int64_t>& values) {
  const int64_t n = static_cast<int64_t>(values.size());
  for (const HistogramType type :
       {HistogramType::kEquiWidth, HistogramType::kEquiDepth}) {
    SCOPED_TRACE(type == HistogramType::kEquiWidth ? "equi-width"
                                                   : "equi-depth");
    const ColumnStats stats = ColumnStats::FromValues(values, 32, type);
    EXPECT_EQ(stats.row_count(), n);
    EXPECT_EQ(stats.ndv(), ReferenceNdv(values));
    if (n > 0) {
      EXPECT_EQ(stats.min_value(),
                *std::min_element(values.begin(), values.end()));
      EXPECT_EQ(stats.max_value(),
                *std::max_element(values.begin(), values.end()));
    }
    const std::vector<int64_t>& counts = stats.bucket_counts();
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), int64_t{0}), n);
  }
}

/// `n` values in [lo, lo + span], both ends included, with repeats.
std::vector<int64_t> SpanColumn(int64_t lo, uint64_t span, int n,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> values = {lo, static_cast<int64_t>(
                                         static_cast<uint64_t>(lo) + span)};
  while (static_cast<int>(values.size()) < n) {
    const uint64_t offset =
        span == UINT64_MAX ? rng.Next() : rng.NextBelow(span + 1);
    values.push_back(static_cast<int64_t>(static_cast<uint64_t>(lo) + offset));
    if (values.size() % 4 == 0) values.push_back(values.back());
  }
  values.resize(n);
  std::swap(values[0], values[n / 2]);
  return values;
}

TEST(ExactStats, SpansAroundTheBitmapCutMatchReference) {
  // FromValues counts distinct values in a bitmap while span / 64 < rows
  // and in a sorted copy from there on.
  const int n = 1'000;
  for (const uint64_t span : {uint64_t{64} * (n - 1), uint64_t{64} * n - 1,
                              uint64_t{64} * n, uint64_t{64} * (n + 1)}) {
    SCOPED_TRACE(span);
    ExpectMatchesReference(SpanColumn(0, span, n, span));
    ExpectMatchesReference(SpanColumn(-12'345, span, n, span + 1));
  }
}

TEST(ExactStats, SignedAndDegenerateColumnsMatchReference) {
  ExpectMatchesReference(SpanColumn(-5'000, 4'000, 3'000, 1));  // negative
  ExpectMatchesReference(SpanColumn(-3'000, 6'000, 3'000, 2));  // mixed
  ExpectMatchesReference({42});
  ExpectMatchesReference({-7});
  ExpectMatchesReference(std::vector<int64_t>(500, 9));
  ExpectMatchesReference(std::vector<int64_t>(500, INT64_MIN));
  ExpectMatchesReference({});
}

TEST(ExactStats, WideRandomColumnMatchesReference) {
  ExpectMatchesReference(SpanColumn(0, uint64_t{1} << 40, 20'000, 3));
  ExpectMatchesReference(SpanColumn(-(int64_t{1} << 39), uint64_t{1} << 40,
                                    20'000, 4));
}

TEST(ExactStats, Int64ExtremesMatchReference) {
  ExpectMatchesReference({INT64_MIN, 0, INT64_MAX});
  ExpectMatchesReference({INT64_MAX, INT64_MIN});
  ExpectMatchesReference({INT64_MIN, INT64_MIN + 1, INT64_MIN});
  ExpectMatchesReference({INT64_MAX - 1, INT64_MAX, INT64_MAX});
  ExpectMatchesReference(SpanColumn(INT64_MIN, UINT64_MAX, 2'000, 5));
}

TEST(ExactStats, SelectivityStaysInUnitIntervalAtInt64Bounds) {
  const std::vector<int64_t> bounds = {INT64_MIN, INT64_MIN + 1, -1, 0, 1,
                                       INT64_MAX - 1, INT64_MAX};
  for (const HistogramType type :
       {HistogramType::kEquiWidth, HistogramType::kEquiDepth}) {
    for (const std::vector<int64_t>& values :
         {std::vector<int64_t>{INT64_MIN, 0, INT64_MAX},
          std::vector<int64_t>{INT64_MIN, INT64_MAX},
          SpanColumn(INT64_MIN, UINT64_MAX, 2'000, 6)}) {
      const ColumnStats stats = ColumnStats::FromValues(values, 32, type);
      for (const int64_t lo : bounds) {
        for (const int64_t hi : bounds) {
          const double sel = stats.RangeSelectivity(lo, hi);
          EXPECT_GE(sel, 0.0) << "[" << lo << ", " << hi << "]";
          EXPECT_LE(sel, 1.0) << "[" << lo << ", " << hi << "]";
        }
      }
      EXPECT_DOUBLE_EQ(stats.RangeSelectivity(INT64_MIN, INT64_MAX), 1.0);
    }
  }
}

TEST(EquiDepth, RangeSelectivityAcrossTheWholeInt64Span) {
  // Buckets [MIN, MIN] and (MIN, MAX], one row each: [MIN, 0] takes the
  // first and half of the second.
  const ColumnStats stats = ColumnStats::FromValues(
      {INT64_MIN, INT64_MAX}, 32, HistogramType::kEquiDepth);
  EXPECT_DOUBLE_EQ(stats.RangeSelectivity(INT64_MIN, 0), 0.75);
  EXPECT_DOUBLE_EQ(stats.RangeSelectivity(INT64_MIN, INT64_MIN), 0.5);
  EXPECT_DOUBLE_EQ(stats.RangeSelectivity(INT64_MIN, INT64_MAX), 1.0);
}


// ---- Equi-depth histograms ----

TEST(EquiDepth, BucketsApproximatelyEqual) {
  Rng rng(99);
  std::vector<int64_t> values;
  ZipfSampler zipf(1000, 1.2);
  for (int i = 0; i < 30'000; ++i) {
    values.push_back(static_cast<int64_t>(zipf.Sample(rng)));
  }
  const ColumnStats stats =
      ColumnStats::FromValues(values, 32, HistogramType::kEquiDepth);
  EXPECT_EQ(stats.histogram_type(), HistogramType::kEquiDepth);
  EXPECT_GE(stats.bucket_count(), 2);
  EXPECT_LE(stats.bucket_count(), 40);
}

TEST(EquiDepth, FullRangeIsOne) {
  Rng rng(7);
  std::vector<int64_t> values;
  for (int i = 0; i < 5'000; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBelow(100)));
  }
  const ColumnStats stats =
      ColumnStats::FromValues(values, 16, HistogramType::kEquiDepth);
  EXPECT_NEAR(stats.RangeSelectivity(INT64_MIN, INT64_MAX), 1.0, 1e-9);
  EXPECT_NEAR(stats.RangeSelectivity(0, 99), 1.0, 1e-9);
}

/// On heavily skewed data, equi-depth estimates beat equi-width where the
/// head of the distribution is concerned.
class SkewAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(SkewAccuracyTest, EquiDepthMoreAccurateOnSkewedData) {
  Rng rng(42);
  ZipfSampler zipf(10'000, GetParam());
  std::vector<int64_t> values;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    values.push_back(static_cast<int64_t>(zipf.Sample(rng)));
  }
  const ColumnStats width =
      ColumnStats::FromValues(values, 32, HistogramType::kEquiWidth);
  const ColumnStats depth =
      ColumnStats::FromValues(values, 32, HistogramType::kEquiDepth);
  double width_err = 0.0, depth_err = 0.0;
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t lo = static_cast<int64_t>(rng.NextBelow(200));
    const int64_t hi = lo + static_cast<int64_t>(rng.NextBelow(100));
    const double exact =
        static_cast<double>(std::count_if(values.begin(), values.end(),
                                          [&](int64_t v) {
                                            return v >= lo && v <= hi;
                                          })) /
        n;
    width_err += std::abs(width.RangeSelectivity(lo, hi) - exact);
    depth_err += std::abs(depth.RangeSelectivity(lo, hi) - exact);
  }
  EXPECT_LT(depth_err, width_err);
}

INSTANTIATE_TEST_SUITE_P(Skews, SkewAccuracyTest,
                         ::testing::Values(1.0, 1.2, 1.5));

TEST(EquiDepth, SingleValueColumn) {
  const ColumnStats stats = ColumnStats::FromValues(
      std::vector<int64_t>(100, 7), 8, HistogramType::kEquiDepth);
  EXPECT_DOUBLE_EQ(stats.RangeSelectivity(7, 7), 1.0);
  EXPECT_DOUBLE_EQ(stats.RangeSelectivity(8, 9), 0.0);
}

TEST(EquiDepth, MatchesEquiWidthOnUniformData) {
  Rng rng(5);
  std::vector<int64_t> values;
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBelow(1'000)));
  }
  const ColumnStats width =
      ColumnStats::FromValues(values, 32, HistogramType::kEquiWidth);
  const ColumnStats depth =
      ColumnStats::FromValues(values, 32, HistogramType::kEquiDepth);
  for (int64_t lo = 0; lo < 1'000; lo += 130) {
    EXPECT_NEAR(width.RangeSelectivity(lo, lo + 57),
                depth.RangeSelectivity(lo, lo + 57), 0.02);
  }
}

// ---- Bounded RangeSelectivity walks against the full walk ----

/// `hi - lo` for `lo <= hi`, exact over the whole int64 range.
uint64_t Offset(int64_t hi, int64_t lo) {
  return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
}

/// RangeSelectivity as it was before its walks were bounded: the
/// equi-width sum visits all buckets and the equi-depth walk starts at
/// bucket 0. The bounded walks must agree with it bit for bit.
double FullWalkRangeSelectivity(const ColumnStats& stats, int64_t lo,
                                int64_t hi) {
  if (stats.row_count() == 0 || lo > hi) return 0.0;
  const int64_t clo = std::max(lo, stats.min_value());
  const int64_t chi = std::min(hi, stats.max_value());
  if (clo > chi) return 0.0;
  const std::vector<int64_t>& counts = stats.bucket_counts();
  const std::vector<int64_t>& upper = stats.bucket_upper();
  const double rows = static_cast<double>(stats.row_count());
  if (stats.histogram_type() == HistogramType::kEquiDepth && !upper.empty()) {
    double selected = 0.0;
    int64_t bucket_lo = stats.min_value();
    for (size_t b = 0; b < upper.size(); ++b) {
      const int64_t bucket_hi = upper[b];
      const int64_t overlap_lo = std::max<int64_t>(bucket_lo, clo);
      const int64_t overlap_hi = std::min<int64_t>(bucket_hi, chi);
      if (overlap_lo <= overlap_hi) {
        const double span =
            static_cast<double>(Offset(bucket_hi, bucket_lo)) + 1.0;
        const double overlap =
            static_cast<double>(Offset(overlap_hi, overlap_lo)) + 1.0;
        selected += static_cast<double>(counts[b]) * (overlap / span);
      }
      if (bucket_hi >= chi) break;
      bucket_lo = bucket_hi + 1;
    }
    return std::min(1.0, selected / rows);
  }
  if (counts.empty()) {
    const double span =
        static_cast<double>(Offset(stats.max_value(), stats.min_value())) +
        1.0;
    return (static_cast<double>(Offset(chi, clo)) + 1.0) / span;
  }
  const double width = stats.bucket_width();
  double selected = 0.0;
  const int nb = static_cast<int>(counts.size());
  for (int b = 0; b < nb; ++b) {
    const double b_lo = static_cast<double>(stats.min_value()) + b * width;
    const double b_hi = b_lo + width;
    const double q_lo = static_cast<double>(clo);
    const double q_hi = static_cast<double>(chi) + 1.0;
    const double overlap =
        std::max(0.0, std::min(b_hi, q_hi) - std::max(b_lo, q_lo));
    if (overlap > 0.0) {
      selected += static_cast<double>(counts[b]) * (overlap / width);
    }
  }
  return std::min(1.0, selected / rows);
}

/// `v` rounded toward zero and clamped into int64.
int64_t SaturatingInt64(double v) {
  if (v >= 9.2e18) return INT64_MAX;
  if (v <= -9.2e18) return INT64_MIN;
  return static_cast<int64_t>(v);
}

int64_t SaturatingAdd(int64_t v, int64_t delta) {
  if (delta > 0 && v > INT64_MAX - delta) return INT64_MAX;
  if (delta < 0 && v < INT64_MIN - delta) return INT64_MIN;
  return v + delta;
}

/// Range endpoints where a bounded walk can go wrong: next to every
/// bucket boundary, at the column's extremes and the int64 bounds, plus
/// random values over and around the column's domain.
std::vector<int64_t> WalkProbes(const ColumnStats& stats, Rng* rng) {
  std::vector<int64_t> bounds = {INT64_MIN, INT64_MAX, stats.min_value(),
                                 stats.max_value()};
  const int nb = stats.bucket_count();
  for (int b = 0; b <= nb; ++b) {
    bounds.push_back(SaturatingInt64(
        static_cast<double>(stats.min_value()) + b * stats.bucket_width()));
  }
  for (int64_t u : stats.bucket_upper()) bounds.push_back(u);
  std::vector<int64_t> probes;
  for (int64_t v : bounds) {
    for (int64_t delta : {-2, -1, 0, 1, 2}) {
      probes.push_back(SaturatingAdd(v, delta));
    }
  }
  const uint64_t span = Offset(stats.max_value(), stats.min_value());
  for (int i = 0; i < 40; ++i) {
    const uint64_t offset =
        span == UINT64_MAX ? rng->Next() : rng->NextBelow(span + 1);
    probes.push_back(static_cast<int64_t>(
        static_cast<uint64_t>(stats.min_value()) + offset));
  }
  for (int i = 0; i < 8; ++i) {
    probes.push_back(static_cast<int64_t>(rng->Next()));
  }
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  return probes;
}

/// Compares RangeSelectivity with the full walk over every ordered pair of
/// probes, `lo > hi` included, bit for bit.
void ExpectBoundedWalkMatchesFullWalk(const ColumnStats& stats,
                                      uint64_t seed) {
  Rng rng(seed);
  const std::vector<int64_t> probes = WalkProbes(stats, &rng);
  int64_t mismatches = 0;
  std::string first;
  for (int64_t lo : probes) {
    for (int64_t hi : probes) {
      const double got = stats.RangeSelectivity(lo, hi);
      const double want = FullWalkRangeSelectivity(stats, lo, hi);
      if (std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(want)) {
        continue;
      }
      if (mismatches++ == 0) {
        std::ostringstream os;
        os.precision(17);
        os << "[" << lo << ", " << hi << "]: " << got << " vs " << want;
        first = os.str();
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "first: " << first;
}

TEST(BoundedWalk, UniformEquiWidthMatchesFullWalk) {
  uint64_t seed = 1;
  for (const int64_t ndv :
       {int64_t{1}, int64_t{2}, int64_t{7}, int64_t{31}, int64_t{32},
        int64_t{33}, int64_t{1'000}, int64_t{999'983},
        int64_t{1} << 40, INT64_MAX}) {
    for (const int buckets : {1, 3, 32, 64}) {
      SCOPED_TRACE(::testing::Message() << "ndv " << ndv << " buckets "
                                        << buckets);
      ExpectBoundedWalkMatchesFullWalk(
          ColumnStats::Uniform(ndv, 6'000'000, buckets), seed++);
    }
  }
}

TEST(BoundedWalk, ZipfEquiDepthMatchesFullWalk) {
  uint64_t seed = 100;
  for (const int64_t ndv : {int64_t{1}, int64_t{10}, int64_t{1'000},
                            int64_t{50'000}, int64_t{1'500'000}}) {
    for (const double skew : {0.5, 1.0, 1.5}) {
      SCOPED_TRACE(::testing::Message() << "ndv " << ndv << " skew " << skew);
      const ColumnStats stats = ColumnStats::Zipf(ndv, 6'000'000, skew);
      ASSERT_EQ(stats.histogram_type(), HistogramType::kEquiDepth);
      ExpectBoundedWalkMatchesFullWalk(stats, seed++);
    }
  }
}

TEST(BoundedWalk, FromValuesColumnsMatchFullWalk) {
  Rng rng(77);
  std::vector<int64_t> skewed;
  ZipfSampler zipf(5'000, 1.2);
  for (int i = 0; i < 20'000; ++i) {
    skewed.push_back(static_cast<int64_t>(zipf.Sample(rng)));
  }
  const std::vector<std::vector<int64_t>> columns = {
      SpanColumn(0, 999, 5'000, 1),
      SpanColumn(-5'000, 4'000, 3'000, 2),
      SpanColumn(0, uint64_t{1} << 40, 5'000, 3),
      SpanColumn(INT64_MIN, UINT64_MAX, 2'000, 4),
      SpanColumn(INT64_MAX - 100, 100, 500, 5),
      skewed,
      {INT64_MIN, INT64_MAX},
      {INT64_MIN, 0, INT64_MAX},
      std::vector<int64_t>(100, 42),               // ndv 1
      std::vector<int64_t>(100, int64_t{1} << 62),  // ndv 1, coarse doubles
      {},
  };
  uint64_t seed = 200;
  for (size_t i = 0; i < columns.size(); ++i) {
    for (const HistogramType type :
         {HistogramType::kEquiWidth, HistogramType::kEquiDepth}) {
      for (const int buckets : {1, 7, 32}) {
        SCOPED_TRACE(::testing::Message()
                     << "column " << i << " buckets " << buckets
                     << (type == HistogramType::kEquiWidth ? " equi-width"
                                                           : " equi-depth"));
        ExpectBoundedWalkMatchesFullWalk(
            ColumnStats::FromValues(columns[i], buckets, type), seed++);
      }
    }
  }
}

TEST(BoundedWalk, EmptyStatsSelectNothing) {
  for (const ColumnStats& stats :
       {ColumnStats(), ColumnStats::FromValues({}),
        ColumnStats::Uniform(100, 0), ColumnStats::Zipf(100, 0, 1.0)}) {
    EXPECT_EQ(std::bit_cast<uint64_t>(stats.RangeSelectivity(INT64_MIN,
                                                             INT64_MAX)),
              std::bit_cast<uint64_t>(0.0));
    ExpectBoundedWalkMatchesFullWalk(stats, 300);
  }
}

}  // namespace
}  // namespace colt
