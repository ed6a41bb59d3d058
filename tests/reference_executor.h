#ifndef COLT_TESTS_REFERENCE_EXECUTOR_H_
#define COLT_TESTS_REFERENCE_EXECUTOR_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "exec/executor.h"

namespace colt {
namespace testing {

/// The row-at-a-time executor the flat one replaced, kept as a
/// differential oracle: every tuple is a heap-allocated vector of
/// (table, row) bindings, every predicate value is fetched through
/// Database::data, joins materialize merged tuples, and page counts go
/// through a hash set. It produces the same ExecutionResult as
/// colt::Executor, field for field; it records no metrics.
class ReferenceExecutor {
 public:
  explicit ReferenceExecutor(const Database* db) : db_(db) {}

  Result<ExecutionResult> Execute(const PlanNode& plan) {
    EpochGuard guard;
    snapshot_ = db_->index_snapshot();
    ExecutionResult acc;
    COLT_ASSIGN_OR_RETURN(std::vector<BoundRow> rows, Run(plan, &acc));
    acc.output_rows = static_cast<int64_t>(rows.size());
    snapshot_ = nullptr;
    return acc;
  }

  /// Same contract as Executor::ExecuteWrite.
  Result<ExecutionResult> ExecuteWrite(Database* db, const Query& q,
                                       const PlanNode* locate_plan) {
    if (db != db_) {
      return Status::InvalidArgument(
          "ExecuteWrite requires the executor's own database");
    }
    if (!q.is_write()) {
      return Status::InvalidArgument(
          "ExecuteWrite requires a write statement");
    }
    const TableId table = q.write_table();
    if (!db_->HasData(table)) {
      return Status::FailedPrecondition("table not materialized");
    }
    EpochGuard guard;
    snapshot_ = db_->index_snapshot();
    ExecutionResult acc;
    std::vector<RowId> matched;
    if (q.kind() != StatementKind::kInsert) {
      if (locate_plan != nullptr) {
        Result<std::vector<BoundRow>> rows = Run(*locate_plan, &acc);
        if (!rows.ok()) {
          snapshot_ = nullptr;
          return rows.status();
        }
        for (const BoundRow& row : *rows) matched.push_back(row.RowFor(table));
      } else {
        const TableData& data = db_->data(table);
        acc.pages_seq += db_->catalog().table(table).heap_pages();
        for (RowId r = 0; r < data.row_count(); ++r) {
          if (!data.live(r)) continue;
          ++acc.tuples_processed;
          if (Passes(table, q.selections(), r)) matched.push_back(r);
        }
      }
    }
    snapshot_ = nullptr;

    Result<Database::WriteOutcome> outcome{Database::WriteOutcome{}};
    switch (q.kind()) {
      case StatementKind::kInsert:
        outcome = db->InsertRows(table, q.insert_rows());
        break;
      case StatementKind::kUpdate: {
        std::vector<std::pair<ColumnId, int64_t>> sets;
        for (const SetClause& s : q.set_clauses()) {
          sets.emplace_back(s.column, s.value);
        }
        outcome = db->UpdateRows(table, matched, sets);
        break;
      }
      case StatementKind::kDelete:
        outcome = db->DeleteRows(table, matched);
        break;
      case StatementKind::kSelect:
        return Status::Internal("unreachable: select in ExecuteWrite");
    }
    COLT_RETURN_IF_ERROR(outcome.status());
    acc.pages_heap_write += DistinctHeapPages(table, outcome->rows);
    acc.pages_index_write += outcome->index_entry_ops;
    acc.rows_written += static_cast<int64_t>(outcome->rows.size());
    acc.output_rows = static_cast<int64_t>(outcome->rows.size());
    return acc;
  }

 private:
  /// A tuple in flight: one bound row per participating table.
  struct BoundRow {
    std::vector<std::pair<TableId, RowId>> bindings;
    RowId RowFor(TableId table) const {
      for (const auto& [t, r] : bindings) {
        if (t == table) return r;
      }
      return -1;
    }
  };

  int64_t Value(TableId table, ColumnId column, RowId row) const {
    return db_->data(table).value(column, row);
  }

  bool Passes(TableId table, const std::vector<SelectionPredicate>& preds,
              RowId r) const {
    for (const auto& pred : preds) {
      if (!pred.Matches(Value(table, pred.column.column, r))) return false;
    }
    return true;
  }

  int64_t DistinctHeapPages(TableId table,
                            const std::vector<RowId>& rows) const {
    const TableSchema& schema = db_->catalog().table(table);
    const int64_t per_page = std::max<int64_t>(
        1, static_cast<int64_t>(kPageSizeBytes * kPageFillFactor /
                                schema.tuple_bytes()));
    std::unordered_set<int64_t> pages;
    for (RowId r : rows) pages.insert(r / per_page);
    return static_cast<int64_t>(pages.size());
  }

  /// Index matches of one scan, filtered row by row.
  std::vector<BoundRow> FilterMatches(const PlanNode& node,
                                      const std::vector<RowId>& matches,
                                      ExecutionResult* acc) const {
    std::vector<BoundRow> out;
    for (RowId r : matches) {
      ++acc->tuples_processed;
      if (Passes(node.table, node.filter_predicates, r)) {
        out.push_back(BoundRow{{{node.table, r}}});
      }
    }
    return out;
  }

  Result<std::vector<BoundRow>> Run(const PlanNode& node,
                                    ExecutionResult* acc) {
    switch (node.type) {
      case PlanNodeType::kSeqScan: {
        if (!db_->HasData(node.table)) {
          return Status::FailedPrecondition("table not materialized");
        }
        const TableData& data = db_->data(node.table);
        acc->pages_seq += db_->catalog().table(node.table).heap_pages();
        std::vector<BoundRow> out;
        for (RowId r = 0; r < data.row_count(); ++r) {
          if (!data.live(r)) continue;
          ++acc->tuples_processed;
          if (Passes(node.table, node.filter_predicates, r)) {
            out.push_back(BoundRow{{{node.table, r}}});
          }
        }
        return out;
      }
      case PlanNodeType::kIndexScan:
      case PlanNodeType::kBitmapScan: {
        const BTreeIndex* index = snapshot_->Find(node.index_id);
        if (index == nullptr) {
          return Status::FailedPrecondition("index not built: " +
                                            std::to_string(node.index_id));
        }
        std::vector<RowId> matches;
        const int64_t leaves = index->RangeScan(
            node.index_predicate.lo, node.index_predicate.hi, &matches);
        acc->pages_index += leaves + index->height();
        if (node.type == PlanNodeType::kBitmapScan) {
          std::sort(matches.begin(), matches.end());
          acc->pages_bitmap += DistinctHeapPages(node.table, matches);
        } else {
          acc->pages_random += DistinctHeapPages(node.table, matches);
        }
        return FilterMatches(node, matches, acc);
      }
      case PlanNodeType::kHashJoin: {
        COLT_ASSIGN_OR_RETURN(std::vector<BoundRow> left,
                              Run(*node.left, acc));
        COLT_ASSIGN_OR_RETURN(std::vector<BoundRow> right,
                              Run(*node.right, acc));
        const JoinPredicate& j = node.join_predicate;
        const bool build_left = left.size() <= right.size();
        std::vector<BoundRow>& build = build_left ? left : right;
        std::vector<BoundRow>& probe = build_left ? right : left;
        auto key_of = [&](const BoundRow& row) -> int64_t {
          const RowId lr = row.RowFor(j.left.table);
          if (lr >= 0) return Value(j.left.table, j.left.column, lr);
          return Value(j.right.table, j.right.column,
                       row.RowFor(j.right.table));
        };
        std::unordered_map<int64_t, std::vector<const BoundRow*>> table;
        for (const auto& row : build) {
          ++acc->tuples_processed;
          table[key_of(row)].push_back(&row);
        }
        std::vector<BoundRow> out;
        for (const auto& row : probe) {
          ++acc->tuples_processed;
          auto it = table.find(key_of(row));
          if (it == table.end()) continue;
          for (const BoundRow* b : it->second) {
            BoundRow merged = row;
            merged.bindings.insert(merged.bindings.end(), b->bindings.begin(),
                                   b->bindings.end());
            out.push_back(std::move(merged));
          }
        }
        return out;
      }
      case PlanNodeType::kNestLoopJoin: {
        COLT_ASSIGN_OR_RETURN(std::vector<BoundRow> outer,
                              Run(*node.left, acc));
        COLT_ASSIGN_OR_RETURN(std::vector<BoundRow> inner,
                              Run(*node.right, acc));
        const JoinPredicate& j = node.join_predicate;
        std::vector<BoundRow> out;
        for (const auto& o : outer) {
          for (const auto& i : inner) {
            ++acc->tuples_processed;
            const BoundRow& left_holder = o.RowFor(j.left.table) >= 0 ? o : i;
            const BoundRow& right_holder =
                o.RowFor(j.right.table) >= 0 ? o : i;
            const RowId lr = left_holder.RowFor(j.left.table);
            const RowId rr = right_holder.RowFor(j.right.table);
            if (lr < 0 || rr < 0) continue;
            if (Value(j.left.table, j.left.column, lr) !=
                Value(j.right.table, j.right.column, rr)) {
              continue;
            }
            BoundRow merged = o;
            merged.bindings.insert(merged.bindings.end(), i.bindings.begin(),
                                   i.bindings.end());
            out.push_back(std::move(merged));
          }
        }
        return out;
      }
      case PlanNodeType::kIndexNLJoin: {
        COLT_ASSIGN_OR_RETURN(std::vector<BoundRow> outer,
                              Run(*node.left, acc));
        const BTreeIndex* index = snapshot_->Find(node.index_id);
        if (index == nullptr) {
          return Status::FailedPrecondition("probe index not built: " +
                                            std::to_string(node.index_id));
        }
        const JoinPredicate& j = node.join_predicate;
        const ColumnRef outer_col =
            j.left.table == node.table ? j.right : j.left;
        std::vector<BoundRow> out;
        std::vector<RowId> matches;
        for (const auto& o : outer) {
          const RowId orow = o.RowFor(outer_col.table);
          if (orow < 0) {
            return Status::Internal("outer row missing join binding");
          }
          matches.clear();
          const int64_t leaves = index->BTreeIndex::Lookup(
              Value(outer_col.table, outer_col.column, orow), &matches);
          acc->pages_index += leaves + index->height();
          acc->pages_random += DistinctHeapPages(node.table, matches);
          for (RowId r : matches) {
            ++acc->tuples_processed;
            if (!Passes(node.table, node.filter_predicates, r)) continue;
            BoundRow merged = o;
            merged.bindings.emplace_back(node.table, r);
            out.push_back(std::move(merged));
          }
        }
        return out;
      }
    }
    return Status::Internal("unknown plan node type");
  }

  const Database* db_;
  const Database::IndexSnapshot* snapshot_ = nullptr;
};

}  // namespace testing
}  // namespace colt

#endif  // COLT_TESTS_REFERENCE_EXECUTOR_H_
