#include "query/trace.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "harness/workloads.h"
#include "query/workload.h"
#include "storage/tpch_schema.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeRangeQuery;
using ::colt::testing::MakeTestCatalog;

TEST(Trace, EmptyWorkload) {
  Catalog catalog = MakeTestCatalog();
  std::stringstream stream;
  ASSERT_TRUE(SaveWorkloadTrace(catalog, {}, "empty", stream).ok());
  auto loaded = LoadWorkloadTrace(catalog, stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(Trace, RoundTripsSimpleWorkload) {
  Catalog catalog = MakeTestCatalog();
  std::vector<Query> workload;
  workload.push_back(MakeRangeQuery(catalog, "big", "b_key", 5, 10));
  workload.push_back(MakeRangeQuery(catalog, "small", "s_val", 3, 3));
  std::stringstream stream;
  ASSERT_TRUE(SaveWorkloadTrace(catalog, workload, "test", stream).ok());
  auto loaded = LoadWorkloadTrace(catalog, stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ((*loaded)[i].tables(), workload[i].tables());
    EXPECT_EQ((*loaded)[i].selections(), workload[i].selections());
    EXPECT_EQ((*loaded)[i].joins(), workload[i].joins());
  }
}

TEST(Trace, RoundTripsGeneratedExperimentWorkload) {
  Catalog catalog = MakeTpchCatalog();
  const QueryDistribution dist = ExperimentWorkloads::Focused(&catalog, 0);
  WorkloadGenerator gen(&catalog, 17);
  std::vector<Query> workload;
  for (int i = 0; i < 200; ++i) workload.push_back(gen.Sample(dist));

  std::stringstream stream;
  ASSERT_TRUE(SaveWorkloadTrace(catalog, workload, "focused_0", stream).ok());
  auto loaded = LoadWorkloadTrace(catalog, stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_EQ((*loaded)[i].tables(), workload[i].tables()) << i;
    ASSERT_EQ((*loaded)[i].selections(), workload[i].selections()) << i;
    ASSERT_EQ((*loaded)[i].joins(), workload[i].joins()) << i;
  }
}

TEST(Trace, RoundTripsHtapWorkloadWithWrites) {
  // The HTAP phases emit INSERT/UPDATE/DELETE alongside reads; the trace
  // layer serializes them through Query::ToString and the parser's write
  // grammar (DESIGN.md §16), so the reloaded stream must match kind for
  // kind, not just shape for shape.
  Catalog catalog = MakeTpchCatalog();
  const std::vector<QueryDistribution> dists =
      ExperimentWorkloads::HtapPhases(&catalog);
  WorkloadGenerator gen(&catalog, 23);
  std::vector<Query> workload;
  for (const auto& d : dists) {
    for (int i = 0; i < 80; ++i) workload.push_back(gen.Sample(d));
  }
  int64_t writes = 0;
  for (const Query& q : workload) writes += q.is_write() ? 1 : 0;
  ASSERT_GT(writes, 0) << "the HTAP phases must emit write statements";

  std::stringstream stream;
  ASSERT_TRUE(SaveWorkloadTrace(catalog, workload, "htap", stream).ok());
  auto loaded = LoadWorkloadTrace(catalog, stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_EQ((*loaded)[i].kind(), workload[i].kind()) << i;
    ASSERT_EQ((*loaded)[i].tables(), workload[i].tables()) << i;
    ASSERT_EQ((*loaded)[i].selections(), workload[i].selections()) << i;
    ASSERT_EQ((*loaded)[i].set_clauses(), workload[i].set_clauses()) << i;
    ASSERT_EQ((*loaded)[i].insert_rows(), workload[i].insert_rows()) << i;
  }
}

TEST(Trace, WriteStatementLinesParse) {
  Catalog catalog = MakeTestCatalog();
  std::stringstream stream(
      "# mixed trace\n"
      "SELECT COUNT(*) FROM big WHERE big.b_key BETWEEN 1 AND 5;\n"
      "INSERT INTO big ROWS 250;\n"
      "UPDATE big SET b_val = 9 WHERE big.b_key = 3;\n"
      "DELETE FROM small WHERE small.s_ref BETWEEN 1 AND 2;\n");
  auto loaded = LoadWorkloadTrace(catalog, stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 4u);
  EXPECT_EQ((*loaded)[0].kind(), StatementKind::kSelect);
  EXPECT_EQ((*loaded)[1].kind(), StatementKind::kInsert);
  EXPECT_EQ((*loaded)[1].insert_rows(), 250);
  EXPECT_EQ((*loaded)[2].kind(), StatementKind::kUpdate);
  EXPECT_EQ((*loaded)[3].kind(), StatementKind::kDelete);
}

TEST(Trace, CommentsAndBlankLinesIgnored) {
  Catalog catalog = MakeTestCatalog();
  std::stringstream stream(
      "# header\n"
      "\n"
      "   \n"
      "# another comment\n"
      "SELECT COUNT(*) FROM big WHERE big.b_key = 1;\n");
  auto loaded = LoadWorkloadTrace(catalog, stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
}

TEST(Trace, MalformedLineReportsLineNumber) {
  Catalog catalog = MakeTestCatalog();
  std::stringstream stream(
      "# ok\n"
      "SELECT COUNT(*) FROM big;\n"
      "SELECT COUNT(*) FROM nonsense;\n");
  auto loaded = LoadWorkloadTrace(catalog, stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos);
}

TEST(Trace, SeventeenTableLineRejected) {
  const Catalog catalog = MakeTpchCatalog();
  std::string line = "SELECT COUNT(*) FROM ";
  for (TableId t = 0; t < 17; ++t) {
    if (t > 0) line += ", ";
    line += catalog.table(t).name();
  }
  std::stringstream stream("SELECT COUNT(*) FROM " + catalog.table(0).name() +
                           ";\n" + line + ";\n");
  auto loaded = LoadWorkloadTrace(catalog, stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
      << loaded.status().ToString();
}

TEST(Trace, AssignsSequentialIds) {
  Catalog catalog = MakeTestCatalog();
  std::stringstream stream(
      "SELECT COUNT(*) FROM big;\n"
      "SELECT COUNT(*) FROM small;\n");
  auto loaded = LoadWorkloadTrace(catalog, stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)[0].id(), 0);
  EXPECT_EQ((*loaded)[1].id(), 1);
}

TEST(Trace, FileRoundTrip) {
  Catalog catalog = MakeTestCatalog();
  std::vector<Query> workload;
  workload.push_back(MakeRangeQuery(catalog, "big", "b_val", 1, 99));
  const std::string path = ::testing::TempDir() + "/colt_trace_test.sql";
  ASSERT_TRUE(
      SaveWorkloadTraceFile(catalog, workload, "file test", path).ok());
  auto loaded = LoadWorkloadTraceFile(catalog, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_FALSE(LoadWorkloadTraceFile(catalog, "/no/such/file.sql").ok());
}

}  // namespace
}  // namespace colt
