/// Differential pin for the flat executor: colt::Executor and the
/// row-at-a-time ReferenceExecutor (reference_executor.h) must return the
/// same ExecutionResult, field for field, for every read and every write
/// of the paper's shifting (Fig. 4) and HTAP traces at TPC-H scale 0.02.
///
/// Each executor owns one of two identically seeded databases and applies
/// the trace's writes to it, so the two stay equal only if every UPDATE
/// and DELETE locates the same rows in the same order. HtapPhases writes
/// are all INSERTs, so the hot-spot UPDATE/DELETE mix (HotSpotWrites)
/// runs before the shifting trace and leaves tombstones for its reads.
/// Every read runs under the empty and the full index configuration; every
/// two-table join also runs as hand-built NestLoopJoin and IndexNLJoin
/// plans and as counting hash joins with an unfiltered input, and every
/// single-table read as a hand-built IndexScan.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "harness/workloads.h"
#include "optimizer/optimizer.h"
#include "query/workload.h"
#include "reference_executor.h"
#include "storage/tpch_schema.h"

namespace colt {
namespace {

using ::colt::testing::ReferenceExecutor;

constexpr uint64_t kDataSeed = 11;
constexpr size_t kPlanNodeTypes = 6;

Catalog MakeCatalog() {
  TpchOptions options;
  options.instances = 1;
  options.scale = 0.02;
  return MakeTpchCatalog(options);
}

void ExpectSameExecution(const ExecutionResult& a, const ExecutionResult& b,
                         const std::string& context) {
  EXPECT_EQ(a.output_rows, b.output_rows) << context;
  EXPECT_EQ(a.pages_seq, b.pages_seq) << context;
  EXPECT_EQ(a.pages_random, b.pages_random) << context;
  EXPECT_EQ(a.pages_bitmap, b.pages_bitmap) << context;
  EXPECT_EQ(a.pages_index, b.pages_index) << context;
  EXPECT_EQ(a.tuples_processed, b.tuples_processed) << context;
  EXPECT_EQ(a.pages_heap_write, b.pages_heap_write) << context;
  EXPECT_EQ(a.pages_index_write, b.pages_index_write) << context;
  EXPECT_EQ(a.rows_written, b.rows_written) << context;
}

std::unique_ptr<PlanNode> SeqScan(TableId table,
                                  std::vector<SelectionPredicate> filters) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kSeqScan;
  node->table = table;
  node->filter_predicates = std::move(filters);
  return node;
}

class FlatExecutorDifferential : public ::testing::Test {
 protected:
  FlatExecutorDifferential()
      : flat_db_(MakeCatalog(), kDataSeed), ref_db_(MakeCatalog(), kDataSeed) {
    EXPECT_TRUE(flat_db_.MaterializeAll(/*refresh_stats=*/true).ok());
    EXPECT_TRUE(ref_db_.MaterializeAll(/*refresh_stats=*/true).ok());
    optimizer_ = std::make_unique<QueryOptimizer>(&flat_db_.catalog());
    flat_ = std::make_unique<Executor>(&flat_db_);
    ref_ = std::make_unique<ReferenceExecutor>(&ref_db_);
  }

  /// Builds an index on every column a selection or join of `trace`
  /// references, in both databases (same ids: same catalog, same order).
  void IndexTraceColumns(const std::vector<Query>& trace) {
    std::set<ColumnRef> columns;
    for (const Query& q : trace) {
      for (const SelectionPredicate& s : q.selections()) {
        columns.insert(s.column);
      }
      for (const JoinPredicate& j : q.joins()) {
        columns.insert(j.left);
        columns.insert(j.right);
      }
    }
    for (const ColumnRef& col : columns) {
      Result<IndexDescriptor> a = flat_db_.mutable_catalog().IndexOn(col);
      Result<IndexDescriptor> b = ref_db_.mutable_catalog().IndexOn(col);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a->id, b->id);
      ASSERT_TRUE(flat_db_.BuildIndex(a->id).ok());
      ASSERT_TRUE(ref_db_.BuildIndex(b->id).ok());
      all_.Add(a->id);
    }
  }

  void ExpectSameRead(const PlanNode& plan, const std::string& context) {
    Result<ExecutionResult> flat = flat_->Execute(plan);
    Result<ExecutionResult> ref = ref_->Execute(plan);
    ASSERT_TRUE(flat.ok()) << context << ": " << flat.status().ToString();
    ASSERT_TRUE(ref.ok()) << context << ": " << ref.status().ToString();
    ExpectSameExecution(*flat, *ref, context);
    CountNodes(plan);
    ++reads_;
  }

  void CountNodes(const PlanNode& node) {
    ++node_types_[static_cast<size_t>(node.type)];
    if (node.left) CountNodes(*node.left);
    if (node.right) CountNodes(*node.right);
  }

  /// Hand-built joins of a two-table query: NestLoopJoin with each input
  /// outside, and IndexNLJoin probing each side through its join index.
  void RunHandBuiltJoins(const Query& q, const std::string& context) {
    const JoinPredicate& j = q.joins().front();
    for (const bool swap : {false, true}) {
      const ColumnRef outer = swap ? j.right : j.left;
      const ColumnRef inner = swap ? j.left : j.right;
      // The nested loop compares every pair; keep it to selective outers.
      if (!q.SelectionsOn(outer.table).empty()) {
        PlanNode nlj;
        nlj.type = PlanNodeType::kNestLoopJoin;
        nlj.join_predicate = j;
        nlj.left = SeqScan(outer.table, q.SelectionsOn(outer.table));
        nlj.right = SeqScan(inner.table, q.SelectionsOn(inner.table));
        ExpectSameRead(nlj, context + " nest-loop");
      }
      PlanNode inlj;
      inlj.type = PlanNodeType::kIndexNLJoin;
      inlj.join_predicate = j;
      inlj.left = SeqScan(outer.table, q.SelectionsOn(outer.table));
      inlj.table = inner.table;
      inlj.index_id = flat_db_.mutable_catalog().IndexOn(inner)->id;
      inlj.filter_predicates = q.SelectionsOn(inner.table);
      ExpectSameRead(inlj, context + " index-nl");
    }
    // Counting hash joins with one input unfiltered, first on the left and
    // then on the right: it streams when it is the larger input and is
    // built on otherwise. A join whose other input is unfiltered too runs
    // once per join predicate in RunUnfilteredHashJoins.
    for (const bool bare_left_table : {true, false}) {
      const TableId bare = bare_left_table ? j.left.table : j.right.table;
      const TableId other = bare_left_table ? j.right.table : j.left.table;
      if (q.SelectionsOn(other).empty()) continue;
      for (const bool bare_on_left : {true, false}) {
        auto bare_scan = SeqScan(bare, {});
        auto other_scan = SeqScan(other, q.SelectionsOn(other));
        PlanNode hj;
        hj.type = PlanNodeType::kHashJoin;
        hj.join_predicate = j;
        hj.left = bare_on_left ? std::move(bare_scan) : std::move(other_scan);
        hj.right = bare_on_left ? std::move(other_scan) : std::move(bare_scan);
        ExpectSameRead(hj, context + " hash, unfiltered " +
                               flat_db_.catalog().table(bare).name() +
                               (bare_on_left ? " left" : " right"));
      }
    }
    unfiltered_joins_.insert({j.left, j.right});
  }

  /// Counting hash joins of two unfiltered scans, in both orders, for each
  /// join predicate the trace used: the larger input streams, wherever it
  /// sits. Then three joins of lineitem_0 with itself on l_comment, whose
  /// inputs are equally large: unfiltered on the left and an all-pass
  /// filter on the right, the reverse, and both unfiltered. A tie builds on
  /// the left, so the unfiltered input is built on, streamed and streamed.
  void RunUnfilteredHashJoins(const std::string& name) {
    auto join = [](const JoinPredicate& on, std::unique_ptr<PlanNode> left,
                   std::unique_ptr<PlanNode> right) {
      PlanNode hj;
      hj.type = PlanNodeType::kHashJoin;
      hj.join_predicate = on;
      hj.left = std::move(left);
      hj.right = std::move(right);
      return hj;
    };
    const Catalog& catalog = flat_db_.catalog();
    for (const auto& [a, b] : unfiltered_joins_) {
      const std::string context = name + " hash, unfiltered " +
                                  catalog.table(a.table).name() + " and " +
                                  catalog.table(b.table).name();
      ExpectSameRead(join({a, b}, SeqScan(a.table, {}), SeqScan(b.table, {})),
                     context);
      ExpectSameRead(join({a, b}, SeqScan(b.table, {}), SeqScan(a.table, {})),
                     context + ", swapped");
    }
    const TableId li = catalog.FindTable("lineitem_0");
    const ColumnRef comment{li, catalog.table(li).FindColumn("l_comment")};
    const JoinPredicate self{comment, comment};
    const std::vector<SelectionPredicate> all_pass = {
        {comment, INT64_MIN, INT64_MAX}};
    ExpectSameRead(join(self, SeqScan(li, {}), SeqScan(li, all_pass)),
                   name + " hash tie, unfiltered left");
    ExpectSameRead(join(self, SeqScan(li, all_pass), SeqScan(li, {})),
                   name + " hash tie, unfiltered right");
    ExpectSameRead(join(self, SeqScan(li, {}), SeqScan(li, {})),
                   name + " hash tie, both unfiltered");
  }

  void RunTrace(const std::vector<Query>& trace, const std::string& name) {
    for (size_t i = 0; i < trace.size(); ++i) {
      const Query& q = trace[i];
      const std::string context = name + "[" + std::to_string(i) + "] " +
                                  q.ToString(flat_db_.catalog());
      if (q.is_write()) {
        // Alternate the locate path: no plan (fallback scan), the plan
        // without indexes, and the plan with every index.
        const PlanResult plan = optimizer_->Optimize(
            q, writes_ % 3 == 2 ? all_ : IndexConfiguration());
        const PlanNode* locate = writes_ % 3 == 0 ? nullptr : plan.plan.get();
        Result<ExecutionResult> flat = flat_->ExecuteWrite(&flat_db_, q,
                                                           locate);
        Result<ExecutionResult> ref = ref_->ExecuteWrite(&ref_db_, q, locate);
        ASSERT_TRUE(flat.ok()) << context << ": " << flat.status().ToString();
        ASSERT_TRUE(ref.ok()) << context << ": " << ref.status().ToString();
        ExpectSameExecution(*flat, *ref, context);
        if (q.kind() != StatementKind::kInsert && locate != nullptr) {
          CountNodes(*locate);
        }
        ++writes_;
        continue;
      }
      for (const IndexConfiguration* config : {&none_, &all_}) {
        const PlanResult plan = optimizer_->Optimize(q, *config);
        ExpectSameRead(*plan.plan, context);
      }
      if (q.joins().size() == 1 && q.tables().size() == 2) {
        RunHandBuiltJoins(q, context);
      }
      if (q.tables().size() == 1 && !q.selections().empty()) {
        // The optimizer prefers bitmap scans at these selectivities; drive
        // a plain index scan by hand, with the other predicates residual.
        PlanNode scan;
        scan.type = PlanNodeType::kIndexScan;
        scan.table = q.tables().front();
        scan.index_predicate = q.selections().front();
        scan.index_id =
            flat_db_.mutable_catalog().IndexOn(scan.index_predicate.column)->id;
        scan.filter_predicates.assign(q.selections().begin() + 1,
                                      q.selections().end());
        ExpectSameRead(scan, context + " index-scan");
      }
    }
  }

  Database flat_db_;
  Database ref_db_;
  std::unique_ptr<QueryOptimizer> optimizer_;
  std::unique_ptr<Executor> flat_;
  std::unique_ptr<ReferenceExecutor> ref_;
  IndexConfiguration none_;
  IndexConfiguration all_;
  /// Join predicates of the two-table reads run so far, as (left, right).
  std::set<std::pair<ColumnRef, ColumnRef>> unfiltered_joins_;
  int64_t reads_ = 0;
  int64_t writes_ = 0;
  int64_t node_types_[kPlanNodeTypes] = {};
};

TEST_F(FlatExecutorDifferential, MatchesRowAtATimeOnShiftingAndHtapTraces) {
  Catalog* catalog = &flat_db_.mutable_catalog();
  WorkloadGenerator gen(catalog, /*seed=*/5);
  std::vector<WorkloadPhase> fig4;
  for (const QueryDistribution& d :
       ExperimentWorkloads::ShiftingPhases(catalog)) {
    fig4.push_back({d, 40});
  }
  std::vector<WorkloadPhase> htap;
  for (const QueryDistribution& d : ExperimentWorkloads::HtapPhases(catalog)) {
    htap.push_back({d, 40});
  }
  const std::vector<Query> htap_trace =
      GeneratePhasedWorkload(gen, htap, /*transition_length=*/10);
  const std::vector<Query> hotspot_trace = GeneratePhasedWorkload(
      gen, {{ExperimentWorkloads::HotSpotWrites(catalog), 120}}, 0);
  const std::vector<Query> fig4_trace =
      GeneratePhasedWorkload(gen, fig4, /*transition_length=*/10);
  IndexTraceColumns(htap_trace);
  IndexTraceColumns(hotspot_trace);
  IndexTraceColumns(fig4_trace);

  RunTrace(htap_trace, "htap");
  RunTrace(hotspot_trace, "hotspot");
  const TableId lineitem = flat_db_.catalog().FindTable("lineitem_0");
  const TableData& li = flat_db_.data(lineitem);
  EXPECT_LT(li.live_row_count(), li.row_count())
      << "no tombstones: the reads below would not cover them";
  RunTrace(fig4_trace, "fig4");
  RunUnfilteredHashJoins("fig4");

  // Both databases applied the same writes to the same rows.
  for (TableId t = 0; t < flat_db_.catalog().table_count(); ++t) {
    const TableData& a = flat_db_.data(t);
    const TableData& b = ref_db_.data(t);
    ASSERT_EQ(a.row_count(), b.row_count());
    for (ColumnId c = 0; c < a.column_count(); ++c) {
      EXPECT_EQ(a.column(c), b.column(c)) << "table " << t << " column " << c;
    }
    for (RowId r = 0; r < a.row_count(); ++r) {
      ASSERT_EQ(a.live(r), b.live(r)) << "table " << t << " row " << r;
    }
  }
  // The run is not vacuous: every operator ran, on many statements.
  EXPECT_GT(reads_, 500);
  EXPECT_GT(writes_, 100);
  for (size_t type = 0; type < kPlanNodeTypes; ++type) {
    EXPECT_GT(node_types_[type], 0)
        << PlanNodeTypeName(static_cast<PlanNodeType>(type));
  }
}

}  // namespace
}  // namespace colt
