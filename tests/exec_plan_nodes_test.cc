/// Direct executor tests over hand-built plan trees, covering operator
/// paths the optimizer rarely selects (plain nested-loop join, empty
/// inputs, stacked filters) plus failure modes.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::Ref;

class PlanNodeExecTest : public ::testing::Test {
 protected:
  PlanNodeExecTest() : db_(MakeTinyCatalog(), 5) {
    EXPECT_TRUE(db_.MaterializeAll(/*refresh_stats=*/true).ok());
    left_key_ = Ref(db_.catalog(), "left", "l_key");
    left_val_ = Ref(db_.catalog(), "left", "l_val");
    right_ref_ = Ref(db_.catalog(), "right", "r_ref");
    auto desc = db_.mutable_catalog().IndexOn(right_ref_);
    right_index_ = desc->id;
    EXPECT_TRUE(db_.BuildIndex(right_index_).ok());
  }

  static Catalog MakeTinyCatalog() {
    Catalog catalog;
    catalog.AddTable(TableSchema("left",
                                 {
                                     {"l_key", ColumnType::kInt64, 8, 20},
                                     {"l_val", ColumnType::kInt64, 8, 5},
                                 },
                                 200));
    catalog.AddTable(TableSchema("right",
                                 {
                                     {"r_ref", ColumnType::kInt64, 8, 20},
                                     {"r_val", ColumnType::kInt64, 8, 3},
                                 },
                                 100));
    // Keys from a domain of 2^40: almost every probe misses a small build.
    catalog.AddTable(TableSchema("probe",
                                 {
                                     {"p_key", ColumnType::kInt64, 8,
                                      int64_t{1} << 40},
                                     {"p_val", ColumnType::kInt64, 8, 5},
                                 },
                                 20000));
    return catalog;
  }

  std::unique_ptr<PlanNode> SeqScan(const std::string& table,
                                    std::vector<SelectionPredicate> filters) {
    auto node = std::make_unique<PlanNode>();
    node->type = PlanNodeType::kSeqScan;
    node->table = db_.catalog().FindTable(table);
    node->filter_predicates = std::move(filters);
    return node;
  }

  /// `{pred}` when `apply`, else no filter.
  static std::vector<SelectionPredicate> Filters(bool apply,
                                                 SelectionPredicate pred) {
    if (!apply) return {};
    return {pred};
  }

  int64_t CountJoinMatches(int64_t left_val_filter) {
    // Reference: hash join computed by hand.
    const TableData& left = db_.data(0);
    const TableData& right = db_.data(1);
    int64_t count = 0;
    for (RowId l = 0; l < left.row_count(); ++l) {
      if (left_val_filter >= 0 && left.value(1, l) != left_val_filter) {
        continue;
      }
      for (RowId r = 0; r < right.row_count(); ++r) {
        if (left.value(0, l) == right.value(0, r)) ++count;
      }
    }
    return count;
  }

  Database db_;
  ColumnRef left_key_, left_val_, right_ref_;
  IndexId right_index_ = kInvalidIndexId;
};

TEST_F(PlanNodeExecTest, NestLoopJoinMatchesReference) {
  auto join = std::make_unique<PlanNode>();
  join->type = PlanNodeType::kNestLoopJoin;
  join->join_predicate = JoinPredicate{left_key_, right_ref_};
  join->left = SeqScan("left", {});
  join->right = SeqScan("right", {});
  Executor executor(&db_);
  auto result = executor.Execute(*join);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output_rows, CountJoinMatches(-1));
}

TEST_F(PlanNodeExecTest, NestLoopEqualsHashJoin) {
  // The hash join must agree with the nested loop whatever its bit filter
  // answers: as the counting root and as a materializing input, on
  // negative and extreme keys, repeated build keys, a one-row build side,
  // an input where every probe matches, and a 20,000-row probe side that
  // misses often enough for the filter to pass some misses (about 1% of
  // them at 32 bits per slot).
  const TableId left = db_.catalog().FindTable("left");
  const TableId probe = db_.catalog().FindTable("probe");
  const ColumnRef probe_key = Ref(db_.catalog(), "probe", "p_key");
  // Left rows with l_val = 3 get distinct keys over the whole int64 range,
  // both extremes first; rows with l_val = 4 repeat three keys. The first
  // probe rows copy the distinct keys once and the repeated ones twice.
  // Right rows 0-19 take r_ref 0-19, so every l_key still in [0, 20) has
  // a match.
  const TableId right = db_.catalog().FindTable("right");
  for (RowId r = 0; r < 20; ++r) {
    ASSERT_TRUE(db_.UpdateRows(right, {r}, {{right_ref_.column, r}}).ok());
  }
  const TableData& left_data = db_.data(left);
  const std::vector<int64_t> repeated = {INT64_MIN, -1, 12};
  std::vector<int64_t> distinct;
  int64_t fours = 0;
  for (RowId r = 0; r < left_data.row_count(); ++r) {
    int64_t key = 0;
    switch (left_data.value(left_val_.column, r)) {
      case 3: {
        const int64_t i = static_cast<int64_t>(distinct.size());
        key = (i - 20) * int64_t{0x0300000000000001};
        if (i == 0) key = INT64_MIN;
        if (i == 1) key = INT64_MAX;
        distinct.push_back(key);
        break;
      }
      case 4:
        key = repeated[static_cast<size_t>(fours++ % 3)];
        break;
      default:
        continue;
    }
    ASSERT_TRUE(db_.UpdateRows(left, {r}, {{left_key_.column, key}}).ok());
  }
  std::vector<int64_t> copies = distinct;
  for (int k = 0; k < 2; ++k) {
    copies.insert(copies.end(), repeated.begin(), repeated.end());
  }
  for (size_t i = 0; i < copies.size(); ++i) {
    ASSERT_TRUE(db_.UpdateRows(probe, {static_cast<RowId>(i)},
                               {{probe_key.column, copies[i]}})
                    .ok());
  }

  // `build` names the smaller side, which the hash join builds on.
  struct Input {
    const char* name;
    const char* build;
    std::vector<SelectionPredicate> build_filters;
    const char* probe;
    std::vector<SelectionPredicate> probe_filters;
    JoinPredicate on;
  };
  const std::vector<Input> inputs = {
      {"keys repeat on both sides", "left", {{left_val_, 2, 2}}, "right", {},
       {left_key_, right_ref_}},
      {"distinct and extreme build keys", "left", {{left_val_, 3, 3}},
       "probe", {}, {left_key_, probe_key}},
      {"repeated build keys", "left", {{left_val_, 4, 4}}, "probe", {},
       {left_key_, probe_key}},
      {"one-row build", "left",
       {{left_val_, 3, 3}, {left_key_, INT64_MIN, INT64_MIN}}, "probe", {},
       {left_key_, probe_key}},
      {"every probe matches", "right", {}, "left", {{left_val_, 0, 2}},
       {right_ref_, left_key_}},
  };

  Executor executor(&db_);
  for (const Input& in : inputs) {
    for (const bool root : {true, false}) {
      int64_t rows[2] = {0, 0};
      for (const PlanNodeType type :
           {PlanNodeType::kNestLoopJoin, PlanNodeType::kHashJoin}) {
        auto plan = std::make_unique<PlanNode>();
        plan->type = type;
        plan->join_predicate = in.on;
        plan->left = SeqScan(in.build, in.build_filters);
        plan->right = SeqScan(in.probe, in.probe_filters);
        if (!root) {
          // A nested loop over the one row with l_key = INT64_MAX, whose
          // predicate compares a column with itself, keeps every tuple the
          // join materialized.
          auto over = std::make_unique<PlanNode>();
          over->type = PlanNodeType::kNestLoopJoin;
          over->join_predicate = JoinPredicate{left_val_, left_val_};
          over->left = std::move(plan);
          over->right = SeqScan("left", {{left_key_, INT64_MAX, INT64_MAX}});
          plan = std::move(over);
        }
        auto result = executor.Execute(*plan);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        rows[type == PlanNodeType::kHashJoin] = result->output_rows;
      }
      const std::string context =
          std::string(in.name) + (root ? ", counting root" : ", materialized");
      EXPECT_GT(rows[0], 0) << context;
      EXPECT_EQ(rows[1], rows[0]) << context;
      if (&in == &inputs.front()) {
        EXPECT_EQ(rows[0], CountJoinMatches(2)) << context;
      }
    }
  }
}

TEST_F(PlanNodeExecTest, IndexNLJoinMatchesReference) {
  auto join = std::make_unique<PlanNode>();
  join->type = PlanNodeType::kIndexNLJoin;
  join->join_predicate = JoinPredicate{left_key_, right_ref_};
  join->left = SeqScan("left", {SelectionPredicate{left_val_, 1, 1}});
  join->table = db_.catalog().FindTable("right");
  join->index_id = right_index_;
  Executor executor(&db_);
  auto result = executor.Execute(*join);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output_rows, CountJoinMatches(1));
  EXPECT_GT(result->pages_index, 0);
}

TEST_F(PlanNodeExecTest, EmptyFilterProducesEmptyJoin) {
  // l_val is uniform over [0, 5) and r_val over [0, 3); 99 never occurs.
  // An empty left input is the build side of the hash join; an empty
  // probe side needs both inputs empty. Scans still count every live row
  // they read and the joins count what they consume.
  const ColumnRef right_val = Ref(db_.catalog(), "right", "r_val");
  const SelectionPredicate none_left{left_val_, 99, 99};
  const SelectionPredicate none_right{right_val, 99, 99};
  struct Case {
    bool left_empty;
    bool right_empty;
  };
  for (const Case c :
       {Case{true, false}, Case{false, true}, Case{true, true}}) {
    for (auto type : {PlanNodeType::kHashJoin, PlanNodeType::kNestLoopJoin}) {
      auto join = std::make_unique<PlanNode>();
      join->type = type;
      join->join_predicate = JoinPredicate{left_key_, right_ref_};
      join->left = SeqScan("left", Filters(c.left_empty, none_left));
      join->right = SeqScan("right", Filters(c.right_empty, none_right));
      Executor executor(&db_);
      auto result = executor.Execute(*join);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->output_rows, 0);
      const int64_t left_rows = c.left_empty ? 0 : 200;
      const int64_t right_rows = c.right_empty ? 0 : 100;
      const int64_t join_tuples = type == PlanNodeType::kHashJoin
                                      ? left_rows + right_rows
                                      : left_rows * right_rows;
      EXPECT_EQ(result->tuples_processed, 200 + 100 + join_tuples)
          << PlanNodeTypeName(type) << " left_empty=" << c.left_empty
          << " right_empty=" << c.right_empty;
    }
  }
}

TEST_F(PlanNodeExecTest, StackedFiltersConjunctive) {
  Executor executor(&db_);
  auto scan = SeqScan("left", {SelectionPredicate{left_val_, 1, 2},
                               SelectionPredicate{left_key_, 0, 9}});
  auto result = executor.Execute(*scan);
  ASSERT_TRUE(result.ok());
  const TableData& left = db_.data(0);
  int64_t expected = 0;
  for (RowId r = 0; r < left.row_count(); ++r) {
    if (left.value(1, r) >= 1 && left.value(1, r) <= 2 &&
        left.value(0, r) <= 9) {
      ++expected;
    }
  }
  EXPECT_EQ(result->output_rows, expected);
}

TEST_F(PlanNodeExecTest, SeqScanOnUnmaterializedTableFails) {
  Database empty(MakeTinyCatalog(), 5);  // no MaterializeAll
  Executor executor(&empty);
  auto scan = std::make_unique<PlanNode>();
  scan->type = PlanNodeType::kSeqScan;
  scan->table = 0;
  EXPECT_EQ(executor.Execute(*scan).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PlanNodeExecTest, CountingJoinOverUnmaterializedScanFails) {
  // As for a bare scan: a counting hash join whose unfiltered input has no
  // data reports the scan's error, on either side, and does not stream it.
  Database partial(MakeTinyCatalog(), 5);
  const TableId left = partial.catalog().FindTable("left");
  ASSERT_TRUE(partial.MaterializeTable(left).ok());
  Executor executor(&partial);
  for (const bool bare_on_left : {true, false}) {
    auto bare = SeqScan("right", {});
    auto other = SeqScan("left", {{left_val_, 0, 4}});
    PlanNode join;
    join.type = PlanNodeType::kHashJoin;
    join.join_predicate = JoinPredicate{left_key_, right_ref_};
    join.left = bare_on_left ? std::move(bare) : std::move(other);
    join.right = bare_on_left ? std::move(other) : std::move(bare);
    EXPECT_EQ(executor.Execute(join).status().code(),
              StatusCode::kFailedPrecondition)
        << "unfiltered input on the " << (bare_on_left ? "left" : "right");
  }
}

TEST_F(PlanNodeExecTest, BitmapScansMatchIndexScansOnRaggedTables) {
  // Neither table's row count is a multiple of 64, so the last word of the
  // TID bitmap is partly used, and the last row of `left` alone has l_key
  // 99. One executor alternates between the two tables, so a bit left set
  // by one scan would show up in the next.
  const TableId left = db_.catalog().FindTable("left");
  const TableId probe = db_.catalog().FindTable("probe");
  const ColumnRef probe_val = Ref(db_.catalog(), "probe", "p_val");
  const TableData& data = db_.data(left);
  ASSERT_NE(data.row_count() % 64, 0);
  ASSERT_NE(db_.data(probe).row_count() % 64, 0);
  const RowId last = data.row_count() - 1;
  ASSERT_TRUE(db_.UpdateRows(left, {last}, {{left_key_.column, 99}}).ok());
  const IndexId key_index = db_.mutable_catalog().IndexOn(left_key_)->id;
  const IndexId val_index = db_.mutable_catalog().IndexOn(probe_val)->id;
  ASSERT_TRUE(db_.BuildIndex(key_index).ok());
  ASSERT_TRUE(db_.BuildIndex(val_index).ok());
  auto scan = [](PlanNodeType type, TableId table, IndexId index,
                 SelectionPredicate pred) {
    PlanNode node;
    node.type = type;
    node.table = table;
    node.index_id = index;
    node.index_predicate = pred;
    return node;
  };
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {99, 99},                // the last row only
      {10, 99},                // up to and including the last row
      {INT64_MIN, INT64_MAX},  // every row
      {0, 0},
      {5, 4},                  // lo > hi: empty
      {INT64_MAX, INT64_MIN},  // lo > hi at the extremes
  };
  Executor executor(&db_);
  for (const auto& [lo, hi] : ranges) {
    const SelectionPredicate pred{left_key_, lo, hi};
    const std::string context =
        "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    int64_t expected = 0;
    for (RowId r = 0; r < data.row_count(); ++r) {
      if (pred.Matches(data.value(left_key_.column, r))) ++expected;
    }
    auto bitmap = executor.Execute(
        scan(PlanNodeType::kBitmapScan, left, key_index, pred));
    auto index = executor.Execute(
        scan(PlanNodeType::kIndexScan, left, key_index, pred));
    ASSERT_TRUE(bitmap.ok()) << context << ": " << bitmap.status().ToString();
    ASSERT_TRUE(index.ok()) << context;
    EXPECT_EQ(bitmap->output_rows, expected) << context;
    EXPECT_EQ(bitmap->pages_bitmap, index->pages_random) << context;
    EXPECT_EQ(bitmap->pages_bitmap > 0, expected > 0) << context;
    // The larger table in between reuses the same bitmap.
    const SelectionPredicate vals{probe_val, 0, 1};
    auto other = executor.Execute(
        scan(PlanNodeType::kBitmapScan, probe, val_index, vals));
    auto other_seq = executor.Execute(*SeqScan("probe", {vals}));
    ASSERT_TRUE(other.ok()) << context << ": " << other.status().ToString();
    ASSERT_TRUE(other_seq.ok()) << context;
    EXPECT_EQ(other->output_rows, other_seq->output_rows) << context;
  }
}

TEST_F(PlanNodeExecTest, IndexScanRespectsResidualFilters) {
  // Build an index on left.l_key and scan [0, 4] with residual l_val = 0.
  auto desc = db_.mutable_catalog().IndexOn(left_key_);
  ASSERT_TRUE(desc.ok());
  ASSERT_TRUE(db_.BuildIndex(desc->id).ok());
  auto scan = std::make_unique<PlanNode>();
  scan->type = PlanNodeType::kIndexScan;
  scan->table = 0;
  scan->index_id = desc->id;
  scan->index_predicate = SelectionPredicate{left_key_, 0, 4};
  scan->filter_predicates = {SelectionPredicate{left_val_, 0, 0}};
  Executor executor(&db_);
  auto result = executor.Execute(*scan);
  ASSERT_TRUE(result.ok());
  const TableData& left = db_.data(0);
  int64_t expected = 0;
  for (RowId r = 0; r < left.row_count(); ++r) {
    if (left.value(0, r) <= 4 && left.value(1, r) == 0) ++expected;
  }
  EXPECT_EQ(result->output_rows, expected);
}

TEST_F(PlanNodeExecTest, TuplesProcessedAccumulates) {
  Executor executor(&db_);
  auto scan = SeqScan("left", {});
  auto result = executor.Execute(*scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples_processed, 200);
  EXPECT_EQ(result->output_rows, 200);
}

TEST_F(PlanNodeExecTest, DuplicateKeysAndBothPredicateTablesOnTheOuter) {
  // l_key and r_ref both draw from [0, 20), so keys repeat on both sides.
  // The inner hash join is not the root, so it materializes every
  // matching pair; the nested loop's predicate then reads both tables
  // from that outer tuple, and each of them matches every inner row.
  const ColumnRef right_val = Ref(db_.catalog(), "right", "r_val");
  auto hash = std::make_unique<PlanNode>();
  hash->type = PlanNodeType::kHashJoin;
  hash->join_predicate = JoinPredicate{left_key_, right_ref_};
  hash->left = SeqScan("left", {});
  hash->right = SeqScan("right", {});
  PlanNode nest;
  nest.type = PlanNodeType::kNestLoopJoin;
  nest.join_predicate = JoinPredicate{left_key_, right_ref_};
  nest.left = std::move(hash);
  nest.right = SeqScan("right", {SelectionPredicate{right_val, 0, 0}});
  const TableData& right = db_.data(1);
  int64_t inner_rows = 0;
  for (RowId r = 0; r < right.row_count(); ++r) {
    if (right.value(1, r) == 0) ++inner_rows;
  }
  const int64_t pairs = CountJoinMatches(-1);
  ASSERT_GT(pairs, 200) << "keys should repeat on both sides";
  Executor executor(&db_);
  auto result = executor.Execute(nest);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output_rows, pairs * inner_rows);
  // Scans: 200 + 100 + 100; hash join: 200 + 100; nested loop: pairs x
  // inner rows.
  EXPECT_EQ(result->tuples_processed, 700 + pairs * inner_rows);
}

TEST_F(PlanNodeExecTest, IndexNLJoinRejectsOuterWithoutJoinBinding) {
  // The probe index is on right.r_ref, so the outer must bind left; an
  // outer scan of right does not.
  const ColumnRef right_val = Ref(db_.catalog(), "right", "r_val");
  for (const bool empty_outer : {false, true}) {
    PlanNode join;
    join.type = PlanNodeType::kIndexNLJoin;
    join.join_predicate = JoinPredicate{left_key_, right_ref_};
    join.left = SeqScan("right", Filters(empty_outer, {right_val, 99, 99}));
    join.table = db_.catalog().FindTable("right");
    join.index_id = right_index_;
    Executor executor(&db_);
    auto result = executor.Execute(join);
    if (empty_outer) {
      // No outer tuple ever asks for the binding.
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->output_rows, 0);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kInternal);
      EXPECT_NE(result.status().ToString().find("missing join binding"),
                std::string::npos);
    }
  }
}

TEST_F(PlanNodeExecTest, RangeEdgesMatchTheClosedInterval) {
  // Put both int64 extremes in the data so the unsigned range test sees
  // values that wrap.
  const TableId left = db_.catalog().FindTable("left");
  ASSERT_TRUE(db_.UpdateRows(left, {0}, {{left_val_.column, INT64_MIN}}).ok());
  ASSERT_TRUE(db_.UpdateRows(left, {1}, {{left_val_.column, INT64_MAX}}).ok());
  auto desc = db_.mutable_catalog().IndexOn(left_key_);
  ASSERT_TRUE(desc.ok());
  ASSERT_TRUE(db_.BuildIndex(desc->id).ok());
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {3, 2},                  // lo > hi: empty
      {INT64_MAX, INT64_MIN},  // lo > hi at the extremes
      {INT64_MIN, INT64_MAX},  // everything
      {INT64_MIN, INT64_MIN},  // the minimum only
      {INT64_MAX, INT64_MAX},  // the maximum only
      {INT64_MIN, 2},          // open below
      {2, INT64_MAX},          // open above
      {INT64_MIN + 1, INT64_MAX - 1},
  };
  const TableData& data = db_.data(left);
  Executor executor(&db_);
  for (const auto& [lo, hi] : ranges) {
    const SelectionPredicate pred{left_val_, lo, hi};
    int64_t expected = 0;
    for (RowId r = 0; r < data.row_count(); ++r) {
      if (pred.Matches(data.value(left_val_.column, r))) ++expected;
    }
    const std::string context =
        "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    // First predicate of a scan, second after an all-pass predicate, and
    // a residual filter of an index scan over every key.
    const SelectionPredicate all_keys{left_key_, INT64_MIN, INT64_MAX};
    for (const auto& filters :
         {std::vector{pred}, std::vector{all_keys, pred}}) {
      auto scan = SeqScan("left", filters);
      auto result = executor.Execute(*scan);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->output_rows, expected) << context;
      EXPECT_EQ(result->tuples_processed, 200) << context;
    }
    PlanNode index_scan;
    index_scan.type = PlanNodeType::kIndexScan;
    index_scan.table = left;
    index_scan.index_id = desc->id;
    index_scan.index_predicate = all_keys;
    index_scan.filter_predicates = {pred};
    auto result = executor.Execute(index_scan);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->output_rows, expected) << context;
    EXPECT_EQ(result->tuples_processed, 200) << context;
  }
}

TEST_F(PlanNodeExecTest, TombstonesAreSkippedByScansAndLocates) {
  const TableId left = db_.catalog().FindTable("left");
  const TableData& data = db_.data(left);
  auto count_live = [&](int64_t lo, int64_t hi) {
    int64_t n = 0;
    for (RowId r = 0; r < data.row_count(); ++r) {
      const int64_t v = data.value(left_val_.column, r);
      if (data.live(r) && v >= lo && v <= hi) ++n;
    }
    return n;
  };
  Executor executor(&db_);
  // DELETE l_val = 0 through the fallback scan.
  const int64_t zeros = count_live(0, 0);
  ASSERT_GT(zeros, 0);
  auto deleted = executor.ExecuteWrite(
      &db_, Query::MakeDelete(left, {SelectionPredicate{left_val_, 0, 0}}),
      nullptr);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->rows_written, zeros);
  EXPECT_EQ(deleted->tuples_processed, 200);
  EXPECT_EQ(data.live_row_count(), 200 - zeros);

  // A seq scan reads and returns only live rows.
  auto all = executor.Execute(*SeqScan("left", {}));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->output_rows, 200 - zeros);
  EXPECT_EQ(all->tuples_processed, 200 - zeros);
  auto gone = executor.Execute(*SeqScan("left", {{left_val_, 0, 0}}));
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->output_rows, 0);
  EXPECT_EQ(gone->tuples_processed, 200 - zeros);

  // UPDATE and DELETE over [0, 1] locate only the live l_val = 1 rows,
  // with and without a locate plan.
  const std::vector<SelectionPredicate> where = {{left_val_, 0, 1}};
  const int64_t ones = count_live(0, 1);
  ASSERT_GT(ones, 0);
  const Query update = Query::MakeUpdate(left, {{left_key_.column, 7}}, where);
  const std::unique_ptr<PlanNode> locate = SeqScan("left", where);
  for (const PlanNode* plan : std::vector<const PlanNode*>{nullptr,
                                                           locate.get()}) {
    auto updated = executor.ExecuteWrite(&db_, update, plan);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated->rows_written, ones);
    EXPECT_EQ(updated->tuples_processed, 200 - zeros);
  }
  auto deleted_again =
      executor.ExecuteWrite(&db_, Query::MakeDelete(left, where), locate.get());
  ASSERT_TRUE(deleted_again.ok()) << deleted_again.status().ToString();
  EXPECT_EQ(deleted_again->rows_written, ones);
  EXPECT_EQ(data.live_row_count(), 200 - zeros - ones);
  EXPECT_EQ(count_live(0, 1), 0);
}

}  // namespace
}  // namespace colt
