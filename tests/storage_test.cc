#include "storage/database.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "common/persist/serializer.h"
#include "storage/tpch_schema.h"
#include "test_util.h"

namespace colt {
namespace {

TEST(TpchSchema, MatchesPaperTable1) {
  const Catalog catalog = MakeTpchCatalog();
  EXPECT_EQ(catalog.table_count(), 32);
  EXPECT_EQ(catalog.total_rows(), 6'928'120);
  EXPECT_EQ(catalog.total_indexable_columns(), 244);
  int64_t largest = 0, smallest = INT64_MAX;
  for (TableId t = 0; t < catalog.table_count(); ++t) {
    largest = std::max(largest, catalog.table(t).row_count());
    smallest = std::min(smallest, catalog.table(t).row_count());
  }
  EXPECT_EQ(largest, 1'200'000);
  EXPECT_EQ(smallest, 5);
  // ~1.4 GB of binary data (we land between 1.0 and 1.5).
  const double gb = catalog.total_heap_bytes() / (1024.0 * 1024 * 1024);
  EXPECT_GT(gb, 1.0);
  EXPECT_LT(gb, 1.5);
}

TEST(TpchSchema, ScalingPreservesStructure) {
  TpchOptions options;
  options.scale = 0.01;
  const Catalog catalog = MakeTpchCatalog(options);
  EXPECT_EQ(catalog.table_count(), 32);
  EXPECT_EQ(catalog.total_indexable_columns(), 244);
  const TableId li = catalog.FindTable("lineitem_0");
  EXPECT_EQ(catalog.table(li).row_count(), 12'000);
  // Tiny dimension tables stay fixed.
  EXPECT_EQ(catalog.table(catalog.FindTable("region_3")).row_count(), 5);
  EXPECT_EQ(catalog.table(catalog.FindTable("nation_1")).row_count(), 25);
}

TEST(TpchSchema, InstancesAreDistinctTables) {
  const Catalog catalog = MakeTpchCatalog();
  std::set<std::string> names;
  for (TableId t = 0; t < catalog.table_count(); ++t) {
    names.insert(catalog.table(t).name());
  }
  EXPECT_EQ(names.size(), 32u);
  EXPECT_TRUE(names.count("lineitem_0"));
  EXPECT_TRUE(names.count("lineitem_3"));
}

TEST(TableData, GenerateDeterministic) {
  const Catalog catalog = testing::MakeTestCatalog();
  Rng a(5), b(5);
  const TableData d1 = TableData::Generate(catalog.table(0), a);
  const TableData d2 = TableData::Generate(catalog.table(0), b);
  ASSERT_EQ(d1.row_count(), d2.row_count());
  for (ColumnId c = 0; c < d1.column_count(); ++c) {
    EXPECT_EQ(d1.column(c), d2.column(c));
  }
}

TEST(TableData, PrimaryKeyIsPermutation) {
  const Catalog catalog = testing::MakeTestCatalog();
  Rng rng(5);
  const TableData data = TableData::Generate(catalog.table(1), rng);
  // s_id has ndv == row_count, so it is generated as a permutation.
  std::vector<int64_t> ids = data.column(0);
  std::sort(ids.begin(), ids.end());
  for (int64_t i = 0; i < data.row_count(); ++i) EXPECT_EQ(ids[i], i);
}

TEST(TableData, ValuesWithinDomain) {
  const Catalog catalog = testing::MakeTestCatalog();
  Rng rng(9);
  const TableData data = TableData::Generate(catalog.table(0), rng);
  const auto& schema = catalog.table(0);
  for (ColumnId c = 0; c < data.column_count(); ++c) {
    const int64_t ndv = schema.column(c).ndv;
    for (int64_t v : data.column(c)) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, ndv);
    }
  }
}

TEST(Database, MaterializeIsIdempotent) {
  Database db(testing::MakeTestCatalog(), 11);
  ASSERT_TRUE(db.MaterializeTable(0).ok());
  const TableData* first = &db.data(0);
  ASSERT_TRUE(db.MaterializeTable(0).ok());
  EXPECT_EQ(first, &db.data(0));
}

TEST(Database, MaterializeRejectsBadTable) {
  Database db(testing::MakeTestCatalog(), 11);
  EXPECT_FALSE(db.MaterializeTable(99).ok());
  EXPECT_FALSE(db.MaterializeTable(-1).ok());
}

TEST(Database, RefreshStatsFromData) {
  Database db(testing::MakeTestCatalog(), 11);
  ASSERT_TRUE(db.MaterializeTable(0, /*refresh_stats=*/true).ok());
  const ColumnStats& stats = db.catalog().table(0).column_stats(1);
  EXPECT_EQ(stats.row_count(), 100'000);
  EXPECT_GT(stats.ndv(), 9'000);
  EXPECT_LE(stats.ndv(), 10'000);
}

// Checkpoint recovery compares catalog fingerprints, so the statistics a
// refresh computes must keep every byte however they are computed.
TEST(Database, RefreshedStatsFingerprintIsPinned) {
  TpchOptions options;
  options.instances = 4;
  options.scale = 0.05;
  Database db(MakeTpchCatalog(options), 42);
  ASSERT_TRUE(db.MaterializeAll(/*refresh_stats=*/true).ok());
  BinaryWriter w;
  for (TableId t = 0; t < db.catalog().table_count(); ++t) {
    const TableSchema& schema = db.catalog().table(t);
    for (ColumnId c = 0; c < schema.column_count(); ++c) {
      w.WriteU64(schema.column_stats(c).Fingerprint());
    }
  }
  EXPECT_EQ(Fnv1a64(w.buffer()), 0xE41079F355441B01ULL);
}

TEST(Database, BuildIndexRequiresData) {
  Database db(testing::MakeTestCatalog(), 11);
  auto desc = db.mutable_catalog().IndexOn(
      testing::Ref(db.catalog(), "big", "b_key"));
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(db.BuildIndex(desc->id).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db.MaterializeTable(0).ok());
  ASSERT_TRUE(db.BuildIndex(desc->id).ok());
  EXPECT_TRUE(db.HasBuiltIndex(desc->id));
  EXPECT_EQ(db.index(desc->id).entry_count(), 100'000);
  EXPECT_TRUE(db.index(desc->id).CheckInvariants().ok());
}

TEST(Database, BuildUnknownIndexFails) {
  Database db(testing::MakeTestCatalog(), 11);
  EXPECT_EQ(db.BuildIndex(12345).code(), StatusCode::kNotFound);
}

TEST(Database, DropIndex) {
  Database db(testing::MakeTestCatalog(), 11);
  ASSERT_TRUE(db.MaterializeTable(1).ok());
  auto desc = db.mutable_catalog().IndexOn(
      testing::Ref(db.catalog(), "small", "s_val"));
  ASSERT_TRUE(desc.ok());
  ASSERT_TRUE(db.BuildIndex(desc->id).ok());
  db.DropIndex(desc->id);
  EXPECT_FALSE(db.HasBuiltIndex(desc->id));
  db.DropIndex(desc->id);  // idempotent
}

TEST(Database, IndexContentMatchesColumn) {
  Database db(testing::MakeTestCatalog(), 13);
  ASSERT_TRUE(db.MaterializeTable(1).ok());
  auto desc = db.mutable_catalog().IndexOn(
      testing::Ref(db.catalog(), "small", "s_val"));
  ASSERT_TRUE(desc.ok());
  ASSERT_TRUE(db.BuildIndex(desc->id).ok());
  const auto& column = db.data(1).column(desc->column.column);
  std::vector<RowId> rows;
  db.index(desc->id).Lookup(42, &rows);
  std::vector<RowId> expected;
  for (size_t r = 0; r < column.size(); ++r) {
    if (column[r] == 42) expected.push_back(static_cast<RowId>(r));
  }
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, expected);
}

TEST(Database, InsertRowsRefusesBatchesOverTheCap) {
  Database db(testing::MakeTestCatalog(), 13);
  ASSERT_TRUE(db.MaterializeTable(1).ok());
  auto desc = db.mutable_catalog().IndexOn(
      testing::Ref(db.catalog(), "small", "s_val"));
  ASSERT_TRUE(desc.ok());
  ASSERT_TRUE(db.BuildIndex(desc->id).ok());
  const TableData& data = db.data(1);
  const int64_t rows = data.row_count();
  for (const int64_t count : {kMaxInsertRows + 1, INT64_MAX}) {
    EXPECT_EQ(db.InsertRows(1, count).status().code(),
              StatusCode::kInvalidArgument)
        << count;
    EXPECT_EQ(data.row_count(), rows);
    EXPECT_EQ(data.live_row_count(), rows);
    EXPECT_EQ(db.index(desc->id).entry_count(), rows);
  }
  ASSERT_TRUE(db.InsertRows(1, 1).ok());
  EXPECT_EQ(data.row_count(), rows + 1);
  EXPECT_EQ(db.index(desc->id).entry_count(), rows + 1);
}

TEST(TableData, SkewedColumnFollowsZipf) {
  Catalog catalog;
  ColumnDef hot;
  hot.name = "hot";
  hot.ndv = 1'000;
  hot.skew = 1.2;
  catalog.AddTable(TableSchema("skewed", {hot}, 50'000));
  Rng rng(31);
  const TableData data = TableData::Generate(catalog.table(0), rng);
  int64_t head = 0, tail = 0;
  for (int64_t v : data.column(0)) {
    if (v < 10) ++head;
    if (v >= 500) ++tail;
  }
  // Zipf(1.2): the 10 hottest values dominate the cold half.
  EXPECT_GT(head, tail * 3);
}

TEST(TableData, AnalyticZipfStatsTrackGeneratedData) {
  Catalog catalog;
  ColumnDef hot;
  hot.name = "hot";
  hot.ndv = 1'000;
  hot.skew = 1.1;
  catalog.AddTable(TableSchema("skewed", {hot}, 100'000));
  Rng rng(33);
  const TableData data = TableData::Generate(catalog.table(0), rng);
  const ColumnStats& analytic = catalog.table(0).column_stats(0);
  const auto& values = data.column(0);
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 4}, {0, 49}, {100, 299}, {500, 999}}) {
    const double exact =
        static_cast<double>(std::count_if(values.begin(), values.end(),
                                          [&](int64_t v) {
                                            return v >= lo && v <= hi;
                                          })) /
        static_cast<double>(values.size());
    EXPECT_NEAR(analytic.RangeSelectivity(lo, hi), exact, 0.05)
        << "[" << lo << ", " << hi << "]";
  }
}

TEST(ColumnStatsZipf, HeadHeavierThanTail) {
  const ColumnStats stats = ColumnStats::Zipf(10'000, 1'000'000, 1.0);
  EXPECT_GT(stats.RangeSelectivity(0, 99),
            stats.RangeSelectivity(5'000, 5'099) * 5);
  EXPECT_NEAR(stats.RangeSelectivity(0, 9'999), 1.0, 1e-6);
}

}  // namespace
}  // namespace colt
