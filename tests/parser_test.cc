#include "query/parser.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "optimizer/optimizer.h"
#include "storage/tpch_schema.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

/// `SELECT COUNT(*) FROM` the catalog's first `n` tables.
std::string CountOverFirstTables(const Catalog& catalog, int n) {
  std::string sql = "SELECT COUNT(*) FROM ";
  for (TableId t = 0; t < n; ++t) {
    if (t > 0) sql += ", ";
    sql += catalog.table(t).name();
  }
  return sql;
}

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : catalog_(MakeTestCatalog()), parser_(&catalog_) {}

  Catalog catalog_;
  QueryParser parser_;
};

TEST_F(ParserTest, MinimalQuery) {
  auto q = parser_.Parse("SELECT COUNT(*) FROM big");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->tables(), (std::vector<TableId>{0}));
  EXPECT_TRUE(q->selections().empty());
  EXPECT_TRUE(q->joins().empty());
}

TEST_F(ParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(parser_.Parse("select count(*) from big").ok());
  EXPECT_TRUE(parser_.Parse("SeLeCt CoUnT(*) FrOm big;").ok());
}

TEST_F(ParserTest, EqualitySelection) {
  auto q = parser_.Parse("SELECT COUNT(*) FROM big WHERE big.b_key = 42");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->selections().size(), 1u);
  const auto& pred = q->selections()[0];
  EXPECT_EQ(pred.column, (Ref(catalog_, "big", "b_key")));
  EXPECT_EQ(pred.lo, 42);
  EXPECT_EQ(pred.hi, 42);
  EXPECT_TRUE(pred.is_equality());
}

TEST_F(ParserTest, BetweenSelection) {
  auto q = parser_.Parse(
      "SELECT COUNT(*) FROM big WHERE big.b_val BETWEEN 10 AND 20");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->selections().size(), 1u);
  EXPECT_EQ(q->selections()[0].lo, 10);
  EXPECT_EQ(q->selections()[0].hi, 20);
}

TEST_F(ParserTest, InequalityOperators) {
  struct Case {
    const char* op;
    int64_t lo, hi;
  };
  const Case cases[] = {
      {"< 10", INT64_MIN, 9},
      {"<= 10", INT64_MIN, 10},
      {"> 10", 11, INT64_MAX},
      {">= 10", 10, INT64_MAX},
  };
  for (const auto& c : cases) {
    auto q = parser_.Parse(std::string("SELECT COUNT(*) FROM big WHERE "
                                       "big.b_key ") +
                           c.op);
    ASSERT_TRUE(q.ok()) << c.op;
    ASSERT_EQ(q->selections().size(), 1u);
    EXPECT_EQ(q->selections()[0].lo, c.lo) << c.op;
    EXPECT_EQ(q->selections()[0].hi, c.hi) << c.op;
  }
}

TEST_F(ParserTest, NegativeLiterals) {
  auto q = parser_.Parse(
      "SELECT COUNT(*) FROM big WHERE big.b_key BETWEEN -5 AND -1");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selections()[0].lo, -5);
  EXPECT_EQ(q->selections()[0].hi, -1);
}

TEST_F(ParserTest, JoinQuery) {
  auto q = parser_.Parse(
      "SELECT COUNT(*) FROM big, small "
      "WHERE big.b_key = small.s_ref AND small.s_val = 3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->tables().size(), 2u);
  ASSERT_EQ(q->joins().size(), 1u);
  ASSERT_EQ(q->selections().size(), 1u);
  const JoinPredicate expected =
      JoinPredicate{Ref(catalog_, "big", "b_key"),
                    Ref(catalog_, "small", "s_ref")}
          .Canonical();
  EXPECT_EQ(q->joins()[0], expected);
}

TEST_F(ParserTest, MultipleConditions) {
  auto q = parser_.Parse(
      "SELECT COUNT(*) FROM big WHERE big.b_key >= 5 AND big.b_key <= 10 "
      "AND big.b_val = 7");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selections().size(), 3u);
}

TEST_F(ParserTest, RoundTripsThroughToString) {
  // Parse, print, re-parse: same structure.
  auto q1 = parser_.Parse(
      "SELECT COUNT(*) FROM big, small "
      "WHERE big.b_key = small.s_ref AND big.b_val BETWEEN 1 AND 9");
  ASSERT_TRUE(q1.ok());
  auto q2 = parser_.Parse(q1->ToString(catalog_));
  ASSERT_TRUE(q2.ok()) << q1->ToString(catalog_) << "\n"
                       << q2.status().ToString();
  EXPECT_EQ(q1->tables(), q2->tables());
  EXPECT_EQ(q1->joins(), q2->joins());
  EXPECT_EQ(q1->selections(), q2->selections());
}

// ---- Write statements (DESIGN.md §16) ----

TEST_F(ParserTest, InsertStatement) {
  auto q = parser_.Parse("INSERT INTO big ROWS 500");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->kind(), StatementKind::kInsert);
  EXPECT_TRUE(q->is_write());
  EXPECT_EQ(q->write_table(), catalog_.FindTable("big"));
  EXPECT_EQ(q->insert_rows(), 500);
  EXPECT_TRUE(q->selections().empty());
}

TEST_F(ParserTest, InsertBatchIsCappedAtKMaxInsertRows) {
  // A larger batch once reached Database::InsertRows, whose reserve threw
  // std::length_error on `ROWS 9223372036854775807`.
  auto at_cap =
      parser_.Parse("INSERT INTO big ROWS " + std::to_string(kMaxInsertRows));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->insert_rows(), kMaxInsertRows);
  for (const std::string& rows : {std::to_string(kMaxInsertRows + 1),
                                  std::to_string(INT64_MAX)}) {
    auto over = parser_.Parse("INSERT INTO big ROWS " + rows);
    EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument) << rows;
  }
  const TableId big = catalog_.FindTable("big");
  EXPECT_TRUE(Query::MakeInsert(big, kMaxInsertRows).Validate(catalog_).ok());
  EXPECT_EQ(
      Query::MakeInsert(big, kMaxInsertRows + 1).Validate(catalog_).code(),
      StatusCode::kInvalidArgument);
}

TEST_F(ParserTest, UpdateStatementWithWhere) {
  auto q = parser_.Parse(
      "UPDATE big SET b_val = 7 WHERE big.b_key BETWEEN 5 AND 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->kind(), StatementKind::kUpdate);
  ASSERT_EQ(q->set_clauses().size(), 1u);
  EXPECT_EQ(q->set_clauses()[0].column,
            catalog_.table(catalog_.FindTable("big")).FindColumn("b_val"));
  EXPECT_EQ(q->set_clauses()[0].value, 7);
  ASSERT_EQ(q->selections().size(), 1u);
  EXPECT_EQ(q->selections()[0].lo, 5);
  EXPECT_EQ(q->selections()[0].hi, 10);
}

TEST_F(ParserTest, UpdateMultipleSetClausesSortedByColumn) {
  auto q = parser_.Parse("UPDATE big SET b_val = 1, b_key = 2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->set_clauses().size(), 2u);
  // MakeUpdate canonicalizes the SET list into column order.
  EXPECT_LT(q->set_clauses()[0].column, q->set_clauses()[1].column);
  EXPECT_TRUE(q->selections().empty());
}

TEST_F(ParserTest, DeleteStatement) {
  auto q = parser_.Parse("DELETE FROM small WHERE small.s_ref = 3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->kind(), StatementKind::kDelete);
  EXPECT_EQ(q->write_table(), catalog_.FindTable("small"));
  ASSERT_EQ(q->selections().size(), 1u);
  EXPECT_TRUE(q->selections()[0].is_equality());
}

TEST_F(ParserTest, DeleteWithoutWhereIsFullTableDelete) {
  auto q = parser_.Parse("DELETE FROM small");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->kind(), StatementKind::kDelete);
  EXPECT_TRUE(q->selections().empty());
}

TEST_F(ParserTest, WriteStatementsRoundTripThroughToString) {
  const TableId big = catalog_.FindTable("big");
  const ColumnId b_val = catalog_.table(big).FindColumn("b_val");
  const std::vector<Query> originals = {
      Query::MakeInsert(big, 123),
      Query::MakeUpdate(big, {{b_val, -4}},
                        {SelectionPredicate{Ref(catalog_, "big", "b_key"),
                                            10, 30}}),
      Query::MakeDelete(big, {SelectionPredicate{
                                 Ref(catalog_, "big", "b_cat"), 2, 2}}),
  };
  for (const Query& original : originals) {
    auto reparsed = parser_.Parse(original.ToString(catalog_));
    ASSERT_TRUE(reparsed.ok()) << original.ToString(catalog_) << "\n"
                               << reparsed.status().ToString();
    EXPECT_EQ(reparsed->kind(), original.kind());
    EXPECT_EQ(reparsed->tables(), original.tables());
    EXPECT_EQ(reparsed->selections(), original.selections());
    EXPECT_EQ(reparsed->set_clauses(), original.set_clauses());
    EXPECT_EQ(reparsed->insert_rows(), original.insert_rows());
  }
}

TEST_F(ParserTest, WriteStatementErrors) {
  EXPECT_FALSE(parser_.Parse("INSERT INTO nonsense ROWS 5").ok());
  EXPECT_FALSE(parser_.Parse("INSERT INTO big ROWS").ok());
  EXPECT_FALSE(parser_.Parse("UPDATE big SET nonsense = 1").ok());
  EXPECT_FALSE(parser_.Parse("UPDATE big SET b_val").ok());
  EXPECT_FALSE(parser_.Parse("DELETE FROM nonsense").ok());
}

// ---- Error cases ----

TEST_F(ParserTest, UnknownTable) {
  auto q = parser_.Parse("SELECT COUNT(*) FROM nonexistent");
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST_F(ParserTest, UnknownColumn) {
  auto q = parser_.Parse("SELECT COUNT(*) FROM big WHERE big.nope = 1");
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST_F(ParserTest, ColumnOnTableNotInFrom) {
  auto q = parser_.Parse("SELECT COUNT(*) FROM big WHERE small.s_val = 1");
  EXPECT_FALSE(q.ok());
}

TEST_F(ParserTest, MissingCount) {
  EXPECT_FALSE(parser_.Parse("SELECT * FROM big").ok());
}

TEST_F(ParserTest, EmptyBetweenRange) {
  auto q = parser_.Parse(
      "SELECT COUNT(*) FROM big WHERE big.b_key BETWEEN 9 AND 3");
  EXPECT_FALSE(q.ok());
}

TEST_F(ParserTest, StrictBoundPastInt64IsEmptyRange) {
  // `< INT64_MIN` and `> INT64_MAX` select nothing. Turning them into
  // closed bounds by computing value - 1 / value + 1 overflowed, and the
  // wrapped predicate matched the whole table.
  for (const char* cond : {"< -9223372036854775808",
                           "> 9223372036854775807"}) {
    auto q = parser_.Parse(
        std::string("SELECT COUNT(*) FROM big WHERE big.b_key ") + cond);
    ASSERT_FALSE(q.ok()) << cond;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << cond;
    EXPECT_NE(q.status().message().find("empty"), std::string::npos) << cond;
  }
  // One step inside the extremes, the strict bounds are still valid.
  auto below = parser_.Parse(
      "SELECT COUNT(*) FROM big WHERE big.b_key < -9223372036854775807");
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(below->selections()[0].lo, INT64_MIN);
  EXPECT_EQ(below->selections()[0].hi, INT64_MIN);
  auto above = parser_.Parse(
      "SELECT COUNT(*) FROM big WHERE big.b_key > 9223372036854775806");
  ASSERT_TRUE(above.ok());
  EXPECT_EQ(above->selections()[0].lo, INT64_MAX);
  EXPECT_EQ(above->selections()[0].hi, INT64_MAX);
}

TEST_F(ParserTest, OutOfRangeIntegerLiteralRejected) {
  // strtoll saturates out-of-range literals to INT64_MAX/INT64_MIN; the
  // parser must reject them rather than silently change the predicate.
  for (const char* cond : {"= 99999999999999999999999",
                           "= 9223372036854775808",
                           ">= -9223372036854775809",
                           "BETWEEN 1 AND 99999999999999999999999"}) {
    auto q = parser_.Parse(
        std::string("SELECT COUNT(*) FROM big WHERE big.b_key ") + cond);
    ASSERT_FALSE(q.ok()) << cond;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << cond;
    EXPECT_NE(q.status().message().find("out of range"), std::string::npos)
        << cond;
  }
  auto at_max = parser_.Parse(
      "SELECT COUNT(*) FROM big WHERE big.b_key = 9223372036854775807");
  ASSERT_TRUE(at_max.ok());
  EXPECT_EQ(at_max->selections()[0].lo, INT64_MAX);
}

TEST_F(ParserTest, TrailingGarbage) {
  EXPECT_FALSE(parser_.Parse("SELECT COUNT(*) FROM big extra").ok());
}

TEST_F(ParserTest, GarbageCharacters) {
  auto q = parser_.Parse("SELECT COUNT(*) FROM big WHERE big.b_key = @");
  EXPECT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("unexpected character"),
            std::string::npos);
}

TEST_F(ParserTest, ErrorsMentionPosition) {
  auto q = parser_.Parse("SELECT COUNT(*) FROM big WHERE");
  EXPECT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("end of input"), std::string::npos);
}

TEST_F(ParserTest, MissingOperand) {
  EXPECT_FALSE(
      parser_.Parse("SELECT COUNT(*) FROM big WHERE big.b_key =").ok());
  EXPECT_FALSE(
      parser_.Parse("SELECT COUNT(*) FROM big WHERE big.b_key").ok());
}

TEST_F(ParserTest, DuplicateSetColumnRejected) {
  // The SET list is sorted by (column, value), so `c = 5, c = 1` used to
  // assign 5: the larger value won whatever the written order.
  for (const char* sql : {"UPDATE big SET b_val = 5, b_val = 1",
                          "UPDATE big SET b_val = 1, b_key = 2, b_val = 1"}) {
    auto q = parser_.Parse(sql);
    ASSERT_FALSE(q.ok()) << sql;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(q.status().message().find("assigned twice"), std::string::npos)
        << sql;
  }
}

TEST_F(ParserTest, DuplicateFromTableRejected) {
  // `FROM t, t` used to collapse silently to one table.
  for (const char* sql : {"SELECT COUNT(*) FROM big, big",
                          "SELECT COUNT(*) FROM big, small, big WHERE "
                          "big.b_key = small.s_ref"}) {
    auto q = parser_.Parse(sql);
    ASSERT_FALSE(q.ok()) << sql;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(q.status().message().find("appears twice"), std::string::npos)
        << sql;
  }
}

TEST(ParserTableBound, SixteenTablesParseAndPlan) {
  const Catalog catalog = MakeTpchCatalog();
  ASSERT_GE(catalog.table_count(), 17);
  QueryParser parser(&catalog);
  auto q = parser.Parse(CountOverFirstTables(catalog, 16));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->tables().size(), kMaxQueryTables);
  QueryOptimizer optimizer(&catalog);
  const PlanResult plan = optimizer.Optimize(*q, {});
  ASSERT_NE(plan.plan, nullptr);
  EXPECT_GT(plan.cost, 0.0);
}

TEST(ParserTableBound, SeventeenTablesRejected) {
  // The optimizer's join search used to abort the process on a parsed
  // statement over more than 16 tables.
  const Catalog catalog = MakeTpchCatalog();
  QueryParser parser(&catalog);
  auto parsed = parser.Parse(CountOverFirstTables(catalog, 17));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("at most 16"), std::string::npos)
      << parsed.status().ToString();

  std::vector<TableId> tables;
  for (TableId t = 0; t < 17; ++t) tables.push_back(t);
  const Query built(std::move(tables), {}, {});
  const Status status = built.Validate(catalog);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace colt
