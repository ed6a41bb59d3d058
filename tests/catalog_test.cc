#include "common/status.h"
#include "catalog/catalog.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

TEST(IndexConfiguration, AddRemoveContains) {
  IndexConfiguration config;
  EXPECT_TRUE(config.empty());
  EXPECT_TRUE(config.Add(5));
  EXPECT_FALSE(config.Add(5));
  EXPECT_TRUE(config.Add(3));
  EXPECT_TRUE(config.Contains(5));
  EXPECT_TRUE(config.Contains(3));
  EXPECT_FALSE(config.Contains(4));
  EXPECT_EQ(config.size(), 2u);
  EXPECT_TRUE(config.Remove(5));
  EXPECT_FALSE(config.Remove(5));
  EXPECT_EQ(config.size(), 1u);
}

TEST(IndexConfiguration, IdsSorted) {
  IndexConfiguration config;
  config.Add(9);
  config.Add(1);
  config.Add(4);
  EXPECT_EQ(config.ids(), (std::vector<IndexId>{1, 4, 9}));
}

TEST(IndexConfiguration, SignatureOrderIndependent) {
  IndexConfiguration a, b;
  a.Add(1);
  a.Add(2);
  b.Add(2);
  b.Add(1);
  EXPECT_EQ(a.Signature(), b.Signature());
  b.Add(3);
  EXPECT_NE(a.Signature(), b.Signature());
  EXPECT_NE(IndexConfiguration().Signature(), a.Signature());
}

TEST(IndexConfiguration, WithWithoutAreNonMutating) {
  IndexConfiguration config;
  config.Add(1);
  const IndexConfiguration with = config.With(2);
  EXPECT_TRUE(with.Contains(2));
  EXPECT_FALSE(config.Contains(2));
  const IndexConfiguration without = with.Without(1);
  EXPECT_FALSE(without.Contains(1));
  EXPECT_TRUE(with.Contains(1));
}

TEST(Catalog, TableLookup) {
  Catalog catalog = MakeTestCatalog();
  EXPECT_EQ(catalog.table_count(), 2);
  EXPECT_EQ(catalog.FindTable("big"), 0);
  EXPECT_EQ(catalog.FindTable("small"), 1);
  EXPECT_EQ(catalog.FindTable("nope"), kInvalidTableId);
  EXPECT_EQ(catalog.table(0).FindColumn("b_key"), 1);
  EXPECT_EQ(catalog.table(0).FindColumn("zzz"), kInvalidColumnId);
}

TEST(Catalog, TotalsAggregateTables) {
  Catalog catalog = MakeTestCatalog();
  EXPECT_EQ(catalog.total_rows(), 101'000);
  EXPECT_EQ(catalog.total_indexable_columns(), 7);
  EXPECT_GT(catalog.total_heap_bytes(), 0);
}

TEST(Catalog, IndexOnIsStableAndDeterministic) {
  Catalog catalog = MakeTestCatalog();
  auto r1 = catalog.IndexOn(Ref(catalog, "big", "b_key"));
  ASSERT_TRUE(r1.ok());
  auto r2 = catalog.IndexOn(Ref(catalog, "big", "b_key"));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->id, r2->id);
  auto r3 = catalog.IndexOn(Ref(catalog, "big", "b_val"));
  ASSERT_TRUE(r3.ok());
  EXPECT_NE(r1->id, r3->id);
  EXPECT_TRUE(catalog.HasIndex(r1->id));
  EXPECT_EQ(catalog.index(r1->id).column, (Ref(catalog, "big", "b_key")));
}

TEST(Catalog, IndexOnRejectsInvalid) {
  Catalog catalog = MakeTestCatalog();
  EXPECT_FALSE(catalog.IndexOn(ColumnRef{}).ok());
  EXPECT_FALSE(catalog.IndexOn(ColumnRef{0, 99}).ok());
  EXPECT_FALSE(catalog.IndexOn(ColumnRef{99, 0}).ok());
}

TEST(Catalog, IndexIdOnAgreesWithIndexOn) {
  Catalog catalog = MakeTestCatalog();
  const Result<IndexId> val = catalog.IndexIdOn(Ref(catalog, "big", "b_val"));
  ASSERT_TRUE(val.ok());
  EXPECT_EQ(*val, 0);
  EXPECT_EQ(catalog.IndexOn(Ref(catalog, "big", "b_val"))->id, *val);
  const Result<IndexDescriptor> key =
      catalog.IndexOn(Ref(catalog, "small", "s_ref"));
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key->id, 1);
  EXPECT_EQ(*catalog.IndexIdOn(Ref(catalog, "small", "s_ref")), key->id);
  EXPECT_FALSE(catalog.IndexIdOn(ColumnRef{}).ok());
  EXPECT_FALSE(catalog.IndexIdOn(ColumnRef{0, 99}).ok());
  EXPECT_FALSE(catalog.HasIndex(2));
  EXPECT_FALSE(catalog.HasIndex(-1));
}

TEST(Catalog, DescriptorReferencesSurviveLaterCreations) {
  // Hot paths hold `const IndexDescriptor&` while the profiler creates
  // descriptors for newly seen columns, so creating one must never move
  // another.
  Catalog catalog;
  std::vector<ColumnDef> columns;
  for (int i = 0; i < 600; ++i) {
    columns.push_back(
        {"c" + std::to_string(i), ColumnType::kInt64, 8, 1'000, true});
  }
  catalog.AddTable(TableSchema("wide", columns, 10'000));
  const IndexDescriptor& first = catalog.index(*catalog.IndexIdOn({0, 0}));
  const IndexDescriptor& second = catalog.index(*catalog.IndexIdOn({0, 1}));
  const IndexDescriptor first_copy = first;
  for (ColumnId c = 2; c < 600; ++c) {
    const Result<IndexId> id = catalog.IndexIdOn({0, c});
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, c);  // dense ids in creation order
  }
  ASSERT_TRUE(catalog.CompositeIndexOn({{0, 3}, {0, 4}}).ok());
  EXPECT_EQ(&catalog.index(0), &first);
  EXPECT_EQ(&catalog.index(1), &second);
  EXPECT_EQ(first.id, 0);
  EXPECT_EQ(first.name, first_copy.name);
  EXPECT_EQ(first.columns, first_copy.columns);
  EXPECT_EQ(first.size_bytes, first_copy.size_bytes);
  EXPECT_EQ(catalog.AllIndexes().size(), 601u);
}

TEST(Catalog, NonIndexableColumnRejected) {
  Catalog catalog;
  ColumnDef col;
  col.name = "payload";
  col.indexable = false;
  catalog.AddTable(TableSchema("t", {col}, 10));
  EXPECT_EQ(catalog.IndexOn(ColumnRef{0, 0}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(catalog.IndexIdOn(ColumnRef{0, 0}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Catalog, IndexSizeScalesWithRowsAndWidth) {
  Catalog catalog = MakeTestCatalog();
  const IndexDescriptor big =
      catalog.EstimateIndex(Ref(catalog, "big", "b_key"));
  const IndexDescriptor small =
      catalog.EstimateIndex(Ref(catalog, "small", "s_ref"));
  EXPECT_GT(big.size_bytes, small.size_bytes);
  EXPECT_GT(big.leaf_pages, small.leaf_pages);
  EXPECT_EQ(big.entry_count, 100'000);
  EXPECT_GE(big.height, 1);
  EXPECT_GE(big.height, small.height);
}

TEST(Catalog, AllIndexesSortedById) {
  Catalog catalog = MakeTestCatalog();
  ColtIgnoreStatus(catalog.IndexOn(Ref(catalog, "big", "b_val")));
  ColtIgnoreStatus(catalog.IndexOn(Ref(catalog, "small", "s_ref")));
  ColtIgnoreStatus(catalog.IndexOn(Ref(catalog, "big", "b_key")));
  const auto all = catalog.AllIndexes();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_LT(all[0].id, all[1].id);
  EXPECT_LT(all[1].id, all[2].id);
}

TEST(TableSchema, PageAccounting) {
  Catalog catalog = MakeTestCatalog();
  const TableSchema& big = catalog.table(0);
  // 4 columns: 8+8+8+4 = 28 bytes + 28 header = 56 bytes/tuple.
  EXPECT_EQ(big.tuple_bytes(), 56);
  const double bytes = 100'000 * 56 / kPageFillFactor;
  EXPECT_EQ(big.heap_pages(),
            static_cast<int64_t>(std::ceil(bytes / kPageSizeBytes)));
  EXPECT_EQ(big.heap_bytes(), big.heap_pages() * kPageSizeBytes);
}

TEST(ColumnTypeName, Names) {
  EXPECT_STREQ(ColumnTypeName(ColumnType::kInt64), "int64");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kString), "string");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kDate), "date");
}

}  // namespace
}  // namespace colt
