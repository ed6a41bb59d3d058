#ifndef COLT_QUERY_QUERY_H_
#define COLT_QUERY_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "query/predicate.h"

namespace colt {

/// The kind of statement a Query represents. SELECT is the historical
/// read-only SPJ shape; the write kinds (DESIGN.md §16) carry a single
/// target table and drive heap + index maintenance instead of scans.
enum class StatementKind {
  kSelect = 0,
  kInsert = 1,
  kUpdate = 2,
  kDelete = 3,
};

/// One SET clause of an UPDATE: assign `value` to `column` of the target
/// table for every matched row.
struct SetClause {
  ColumnId column = kInvalidColumnId;
  int64_t value = 0;

  friend bool operator==(const SetClause&, const SetClause&) = default;
};

/// Most tables one statement may read. The optimizer's join search keeps
/// one entry per subset of a query's tables, 2^n of them, and checks this
/// bound; Query::Validate refuses more, so no parsed or loaded statement
/// reaches that check.
inline constexpr size_t kMaxQueryTables = 16;

/// A statement. For SELECT: a select-project-join query — a set of tables,
/// equi-join predicates connecting them, and conjunctive range/equality
/// selections; the output is an aggregate (count), so projection lists do
/// not affect cost. For INSERT/UPDATE/DELETE (DESIGN.md §16): a single
/// target table, an optional WHERE (update/delete) reusing the same
/// selection predicates, SET clauses (update) and a batch row count
/// (insert). Write statements never join.
class Query {
 public:
  Query() = default;
  Query(std::vector<TableId> tables, std::vector<JoinPredicate> joins,
        std::vector<SelectionPredicate> selections);

  /// Builds `INSERT INTO table ROWS rows` — append `rows` synthesized
  /// tuples to `table` (values are a deterministic function of the row
  /// position, so traces replay identically; DESIGN.md §16).
  static Query MakeInsert(TableId table, int64_t rows);

  /// Builds `UPDATE table SET ... [WHERE selections]`.
  static Query MakeUpdate(TableId table, std::vector<SetClause> sets,
                          std::vector<SelectionPredicate> selections);

  /// Builds `DELETE FROM table [WHERE selections]`.
  static Query MakeDelete(TableId table,
                          std::vector<SelectionPredicate> selections);

  StatementKind kind() const { return kind_; }
  /// True for INSERT/UPDATE/DELETE.
  bool is_write() const { return kind_ != StatementKind::kSelect; }
  /// The single target table of a write statement. Requires is_write().
  TableId write_table() const { return tables_.front(); }
  /// Batch size of an INSERT; 0 for other kinds.
  int64_t insert_rows() const { return insert_rows_; }
  /// SET clauses of an UPDATE (sorted by column); empty for other kinds.
  const std::vector<SetClause>& set_clauses() const { return set_clauses_; }

  const std::vector<TableId>& tables() const { return tables_; }
  const std::vector<JoinPredicate>& joins() const { return joins_; }
  const std::vector<SelectionPredicate>& selections() const {
    return selections_;
  }

  int64_t id() const { return id_; }
  void set_id(int64_t id) { id_ = id; }

  /// Selections on a specific table.
  std::vector<SelectionPredicate> SelectionsOn(TableId table) const;

  /// True if `table` participates in the query.
  bool UsesTable(TableId table) const;

  /// Validates internal consistency against a catalog (1 to
  /// kMaxQueryTables tables that exist, join and selection columns belong
  /// to the query's tables; write statements target exactly one table,
  /// never join, and reference valid columns).
  Status Validate(const Catalog& catalog) const;

  std::string ToString(const Catalog& catalog) const;

 private:
  int64_t id_ = -1;
  StatementKind kind_ = StatementKind::kSelect;
  std::vector<TableId> tables_;             // sorted, unique
  std::vector<JoinPredicate> joins_;        // canonical form
  std::vector<SelectionPredicate> selections_;
  int64_t insert_rows_ = 0;                 // INSERT batch size
  std::vector<SetClause> set_clauses_;      // UPDATE SET list, sorted
};

/// The Profiler's query-similarity key (paper §4.1): two query occurrences
/// belong to the same cluster iff they access the same tables, have the same
/// join predicates, and have selections on the same attributes with
/// selectivities in the same bucket. The paper uses two buckets split at 2%
/// ("an approximate separation between selective and non-selective
/// predicates").
struct QuerySignature {
  std::vector<TableId> tables;
  std::vector<std::pair<ColumnRef, ColumnRef>> joins;
  /// (column, selectivity bucket index).
  std::vector<std::pair<ColumnRef, int>> selections;
  /// Statement kind as an integer (0 = SELECT). Writes of different kinds
  /// (or touching different SET columns) never share a cluster; read-only
  /// signatures keep their pre-write hash values because the kind is mixed
  /// into the hash only when non-zero.
  int kind = 0;
  /// Columns assigned by an UPDATE's SET list (sorted); empty otherwise.
  std::vector<ColumnId> write_columns;

  friend bool operator==(const QuerySignature&,
                         const QuerySignature&) = default;
};

struct QuerySignatureHash {
  size_t operator()(const QuerySignature& sig) const;
};

/// Selectivity-bucket boundaries. bucket 0: [0, 0.02); bucket 1: [0.02, 1].
inline constexpr double kSelectivityBucketBoundary = 0.02;

/// Bucket index for a selectivity value.
inline int SelectivityBucket(double selectivity) {
  return selectivity < kSelectivityBucketBoundary ? 0 : 1;
}

/// Computes the clustering signature of `q` under the catalog's statistics.
QuerySignature ComputeSignature(const Catalog& catalog, const Query& q);

}  // namespace colt

#endif  // COLT_QUERY_QUERY_H_
