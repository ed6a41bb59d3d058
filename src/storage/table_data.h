#ifndef COLT_STORAGE_TABLE_DATA_H_
#define COLT_STORAGE_TABLE_DATA_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"
#include "common/rng.h"

namespace colt {

/// Columnar storage for one table's generated tuples. Every logical value
/// is an int64 payload (see catalog/types.h); logical types only affect
/// size accounting.
///
/// Write statements (DESIGN.md §16) mutate the store in place on the owner
/// thread: INSERT appends rows, UPDATE overwrites cells, DELETE tombstones
/// rows (storage is retained, like an unvacuumed heap, so physical page
/// counts never shrink). `row_count()` stays the physical count including
/// tombstones; scans skip rows where `live()` is false.
class TableData {
 public:
  TableData() = default;

  /// Generates `schema.row_count()` rows. The first column whose ndv equals
  /// the row count is treated as the primary key and generated as a random
  /// permutation of [0, rows); all other columns are uniform over [0, ndv).
  static TableData Generate(const TableSchema& schema, Rng& rng);

  /// Physical rows, including tombstoned ones.
  int64_t row_count() const { return row_count_; }
  /// Rows not deleted.
  int64_t live_row_count() const { return row_count_ - deleted_count_; }
  int32_t column_count() const {
    return static_cast<int32_t>(columns_.size());
  }

  const std::vector<int64_t>& column(ColumnId id) const {
    return columns_[id];
  }
  int64_t value(ColumnId col, int64_t row) const {
    return columns_[col][row];
  }

  /// Appends one row (`values` holds one cell per column, in column order)
  /// and returns its row id. Requires values.size() == column_count().
  int64_t AppendRow(const std::vector<int64_t>& values) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].push_back(values[c]);
    }
    return row_count_++;
  }

  /// Overwrites one cell (UPDATE).
  void set_value(ColumnId col, int64_t row, int64_t v) {
    columns_[col][row] = v;
  }

  /// Tombstones `row` (DELETE); idempotent. Storage is retained.
  void MarkDeleted(int64_t row) {
    if (deleted_.size() < static_cast<size_t>(row_count_)) {
      deleted_.resize(static_cast<size_t>(row_count_), 0);
    }
    if (!deleted_[static_cast<size_t>(row)]) {
      deleted_[static_cast<size_t>(row)] = 1;
      ++deleted_count_;
    }
  }

  /// True iff `row` has not been deleted.
  bool live(int64_t row) const {
    return static_cast<size_t>(row) >= deleted_.size() ||
           deleted_[static_cast<size_t>(row)] == 0;
  }

  /// The tombstones behind live(): row r is deleted iff r < size() and
  /// the flag is set. Empty until the first delete.
  const std::vector<uint8_t>& tombstones() const { return deleted_; }

  bool empty() const { return row_count_ == 0; }

 private:
  int64_t row_count_ = 0;
  int64_t deleted_count_ = 0;
  std::vector<std::vector<int64_t>> columns_;
  /// Tombstone bitmap, grown lazily to row_count_ on first delete.
  std::vector<uint8_t> deleted_;
};

}  // namespace colt

#endif  // COLT_STORAGE_TABLE_DATA_H_
