#include "exec/executor.h"

#include <unordered_map>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "optimizer/optimizer.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeRangeQuery;
using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

/// Brute-force evaluation of an SPJ query against materialized data.
/// Supports 1 or 2 tables (hash join on the first join predicate).
int64_t BruteForceCount(const Database& db, const Query& q) {
  std::vector<std::vector<RowId>> per_table;
  for (TableId t : q.tables()) {
    std::vector<RowId> rows;
    const TableData& data = db.data(t);
    for (RowId r = 0; r < data.row_count(); ++r) {
      bool pass = true;
      for (const auto& pred : q.SelectionsOn(t)) {
        if (!pred.Matches(data.value(pred.column.column, r))) {
          pass = false;
          break;
        }
      }
      if (pass) rows.push_back(r);
    }
    per_table.push_back(std::move(rows));
  }
  if (q.tables().size() == 1) {
    return static_cast<int64_t>(per_table[0].size());
  }
  EXPECT_EQ(q.tables().size(), 2u);
  EXPECT_EQ(q.joins().size(), 1u);
  const JoinPredicate& j = q.joins()[0];
  const size_t left_pos = (q.tables()[0] == j.left.table) ? 0 : 1;
  const size_t right_pos = 1 - left_pos;
  std::unordered_map<int64_t, int64_t> left_counts;
  for (RowId r : per_table[left_pos]) {
    ++left_counts[db.data(j.left.table).value(j.left.column, r)];
  }
  int64_t count = 0;
  for (RowId r : per_table[right_pos]) {
    auto it = left_counts.find(
        db.data(j.right.table).value(j.right.column, r));
    if (it != left_counts.end()) count += it->second;
  }
  return count;
}

/// Small physical database with all indexes built.
class ExecutorTest : public ::testing::Test {
 public:
  static Catalog MakeSmallCatalog();

 protected:
  ExecutorTest() : db_(MakeSmallCatalog(), 77) {
    EXPECT_TRUE(db_.MaterializeAll(/*refresh_stats=*/true).ok());
    for (const char* col : {"b_key", "b_val", "b_cat"}) {
      ids_.push_back(
          db_.mutable_catalog().IndexOn(Ref(db_.catalog(), "big", col))->id);
    }
    for (const char* col : {"s_ref", "s_val"}) {
      ids_.push_back(db_.mutable_catalog()
                         .IndexOn(Ref(db_.catalog(), "small", col))
                         ->id);
    }
    for (IndexId id : ids_) EXPECT_TRUE(db_.BuildIndex(id).ok());
  }

  IndexConfiguration AllIndexes() const {
    IndexConfiguration config;
    for (IndexId id : ids_) config.Add(id);
    return config;
  }

  Database db_;
  std::vector<IndexId> ids_;
};

Catalog ExecutorTest::MakeSmallCatalog() {
  Catalog catalog;
  catalog.AddTable(TableSchema(
      "big",
      {
          {"b_id", ColumnType::kInt64, 8, 50'000, true},
          {"b_key", ColumnType::kInt64, 8, 2'000, true},
          {"b_val", ColumnType::kInt64, 8, 100, true},
          {"b_cat", ColumnType::kInt64, 4, 10, true},
      },
      50'000));
  catalog.AddTable(TableSchema(
      "small",
      {
          {"s_id", ColumnType::kInt64, 8, 500, true},
          {"s_ref", ColumnType::kInt64, 8, 2'000, true},
          {"s_val", ColumnType::kInt64, 8, 100, true},
      },
      500));
  return catalog;
}

TEST_F(ExecutorTest, SeqScanCountsMatchBruteForce) {
  QueryOptimizer optimizer(&db_.catalog());
  Executor executor(&db_);
  const Query q = MakeRangeQuery(db_.catalog(), "big", "b_key", 10, 30);
  const PlanResult plan = optimizer.Optimize(q, {});
  auto result = executor.Execute(*plan.plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output_rows, BruteForceCount(db_, q));
  EXPECT_GT(result->pages_seq, 0);
  EXPECT_EQ(result->pages_random, 0);
}

TEST_F(ExecutorTest, IndexScanEqualsSeqScanResults) {
  QueryOptimizer optimizer(&db_.catalog());
  Executor executor(&db_);
  const Query q = MakeRangeQuery(db_.catalog(), "big", "b_key", 5, 6);
  const PlanResult without = optimizer.Optimize(q, {});
  const PlanResult with = optimizer.Optimize(q, AllIndexes());
  ASSERT_TRUE(with.plan->type == PlanNodeType::kIndexScan ||
              with.plan->type == PlanNodeType::kBitmapScan);
  auto r1 = executor.Execute(*without.plan);
  auto r2 = executor.Execute(*with.plan);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->output_rows, r2->output_rows);
  // The index plan reads fewer heap pages than a full scan.
  EXPECT_LT(r2->pages_random + r2->pages_seq, r1->pages_seq);
  EXPECT_GT(r2->pages_index, 0);
}


TEST_F(ExecutorTest, BitmapScanMatchesSeqScanResults) {
  QueryOptimizer optimizer(&db_.catalog());
  Executor executor(&db_);
  // Mid selectivity: ~5% of b_key values.
  const Query q = MakeRangeQuery(db_.catalog(), "big", "b_key", 0, 99);
  const PlanResult with = optimizer.Optimize(q, AllIndexes());
  ASSERT_EQ(with.plan->type, PlanNodeType::kBitmapScan);
  const PlanResult without = optimizer.Optimize(q, {});
  auto r1 = executor.Execute(*without.plan);
  auto r2 = executor.Execute(*with.plan);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->output_rows, r2->output_rows);
  EXPECT_GT(r2->pages_bitmap, 0);
  EXPECT_EQ(r2->pages_random, 0);
}

TEST_F(ExecutorTest, ExecuteFailsWithoutBuiltIndex) {
  QueryOptimizer optimizer(&db_.catalog());
  const Query q = MakeRangeQuery(db_.catalog(), "big", "b_key", 5, 6);
  const PlanResult with = optimizer.Optimize(q, AllIndexes());
  ASSERT_TRUE(with.plan->type == PlanNodeType::kIndexScan ||
              with.plan->type == PlanNodeType::kBitmapScan);
  db_.DropIndex(with.plan->index_id);
  Executor executor(&db_);
  EXPECT_FALSE(executor.Execute(*with.plan).ok());
  EXPECT_TRUE(db_.BuildIndex(with.plan->index_id).ok());
}

/// Property: every plan shape (with/without indexes, different join
/// methods) returns exactly the brute-force row count.
class ExecutorDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorDifferentialTest, AllPlansMatchBruteForce) {
  // Build a fresh small physical database.
  Catalog catalog = ExecutorTest::MakeSmallCatalog();
  Database db(std::move(catalog), 123);
  ASSERT_TRUE(db.MaterializeAll(/*refresh_stats=*/true).ok());
  std::vector<IndexId> ids;
  for (const char* col : {"b_key", "b_val"}) {
    ids.push_back(
        db.mutable_catalog().IndexOn(Ref(db.catalog(), "big", col))->id);
  }
  ids.push_back(
      db.mutable_catalog().IndexOn(Ref(db.catalog(), "small", "s_ref"))->id);
  for (IndexId id : ids) ASSERT_TRUE(db.BuildIndex(id).ok());

  Rng rng(GetParam() * 17 + 5);
  QueryOptimizer optimizer(&db.catalog());
  Executor executor(&db);
  for (int trial = 0; trial < 10; ++trial) {
    Query q;
    if (rng.NextBool(0.5)) {
      const int64_t lo = rng.NextInRange(0, 150);
      q = MakeRangeQuery(db.catalog(), "big", "b_key", lo,
                         lo + rng.NextInRange(0, 30));
    } else {
      // Join with selective filter on small.
      q = Query({0, 1},
                {JoinPredicate{Ref(db.catalog(), "big", "b_key"),
                               Ref(db.catalog(), "small", "s_ref")}},
                {SelectionPredicate{Ref(db.catalog(), "small", "s_val"),
                                    rng.NextInRange(0, 5),
                                    rng.NextInRange(5, 9)}});
    }
    const int64_t expected = BruteForceCount(db, q);
    for (bool use_indexes : {false, true}) {
      IndexConfiguration config;
      if (use_indexes) {
        for (IndexId id : ids) config.Add(id);
      }
      const PlanResult plan = optimizer.Optimize(q, config);
      auto result = executor.Execute(*plan.plan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->output_rows, expected)
          << q.ToString(db.catalog()) << "\n"
          << plan.plan->ToString(db.catalog());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDifferentialTest,
                         ::testing::Range<uint64_t>(0, 8));

TEST_F(ExecutorTest, MeasuredCostWithinFactorOfEstimate) {
  // The cost model's I/O estimates should be within an order of magnitude
  // of the physically measured page counts for scans.
  QueryOptimizer optimizer(&db_.catalog());
  Executor executor(&db_);
  const Query q = MakeRangeQuery(db_.catalog(), "big", "b_key", 0, 1);
  for (bool use_index : {false, true}) {
    const PlanResult plan =
        optimizer.Optimize(q, use_index ? AllIndexes() : IndexConfiguration());
    auto result = executor.Execute(*plan.plan);
    ASSERT_TRUE(result.ok());
    const double measured =
        result->MeasuredCost(optimizer.cost_model().params());
    EXPECT_GT(measured, plan.cost / 10.0);
    EXPECT_LT(measured, plan.cost * 10.0);
  }
}

TEST_F(ExecutorTest, IndexNestedLoopJoinExecutes) {
  QueryOptimizer optimizer(&db_.catalog());
  Executor executor(&db_);
  Query q({0, 1},
          {JoinPredicate{Ref(db_.catalog(), "big", "b_key"),
                         Ref(db_.catalog(), "small", "s_ref")}},
          {SelectionPredicate{Ref(db_.catalog(), "small", "s_val"), 0, 0}});
  const PlanResult plan = optimizer.Optimize(q, AllIndexes());
  ASSERT_EQ(plan.plan->type, PlanNodeType::kIndexNLJoin);
  auto result = executor.Execute(*plan.plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output_rows, BruteForceCount(db_, q));
}

TEST_F(ExecutorTest, OperatorTimesAreExclusiveOfChildren) {
  // (small |><| big) |><| small: two hash joins over three scans, timed
  // into a private registry.
  MetricsRegistry registry;
  registry.set_enabled(true);
  Executor executor(&db_, &registry);
  const JoinPredicate j{Ref(db_.catalog(), "big", "b_key"),
                        Ref(db_.catalog(), "small", "s_ref")};
  auto scan = [&](const char* table, std::vector<SelectionPredicate> preds) {
    auto node = std::make_unique<PlanNode>();
    node->type = PlanNodeType::kSeqScan;
    node->table = db_.catalog().FindTable(table);
    node->filter_predicates = std::move(preds);
    return node;
  };
  const ColumnRef s_val = Ref(db_.catalog(), "small", "s_val");
  auto inner = std::make_unique<PlanNode>();
  inner->type = PlanNodeType::kHashJoin;
  inner->join_predicate = j;
  inner->left = scan("small", {SelectionPredicate{s_val, 0, 9}});
  inner->right = scan("big", {});
  PlanNode root;
  root.type = PlanNodeType::kHashJoin;
  root.join_predicate = j;
  root.left = std::move(inner);
  root.right = scan("small", {});
  constexpr int kRuns = 5;
  for (int i = 0; i < kRuns; ++i) {
    auto result = executor.Execute(root);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->output_rows, 0);
  }

  double op_seconds = 0.0;
  int64_t op_count = 0;
  for (const Histogram* op : {
           registry.GetHistogram("exec.seq_scan.seconds"),
           registry.GetHistogram("exec.index_scan.seconds"),
           registry.GetHistogram("exec.bitmap_scan.seconds"),
           registry.GetHistogram("exec.nest_loop_join.seconds"),
           registry.GetHistogram("exec.index_nl_join.seconds"),
           registry.GetHistogram("exec.hash_join.seconds"),
       }) {
    op_seconds += op->sum();
    op_count += op->count();
  }
  // Self times add up to at most the whole query, where inclusive times
  // would count the scans up to three times.
  EXPECT_LE(op_seconds, registry.GetHistogram("exec.execute.seconds")->sum());
  EXPECT_EQ(op_count,
            registry.GetCounter("exec.operator.invocations")->value());
  EXPECT_EQ(op_count, 5 * kRuns);
}

}  // namespace
}  // namespace colt
