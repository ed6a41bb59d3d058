#ifndef COLT_CATALOG_CATALOG_H_
#define COLT_CATALOG_CATALOG_H_

#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "catalog/types.h"
#include "common/persist/serializer.h"
#include "common/status.h"

namespace colt {

/// Static description of a (potential or materialized) B+-tree index. The
/// descriptor carries the size/shape estimates used by the cost model and
/// by the KNAPSACK storage constraint; whether the index is actually
/// materialized is tracked separately (IndexConfiguration).
///
/// The paper studies single-column indexes; multi-column indexes (its
/// stated future work) are supported as an extension: `columns` holds the
/// key columns in order and `column` always aliases the leading one.
struct IndexDescriptor {
  IndexId id = kInvalidIndexId;
  /// Leading key column (== columns[0]).
  ColumnRef column;
  /// All key columns, in index order; size 1 for single-column indexes.
  std::vector<ColumnRef> columns;
  std::string name;
  /// Estimated total index size in bytes (leaf + internal pages).
  int64_t size_bytes = 0;
  /// Estimated number of leaf pages.
  int64_t leaf_pages = 0;
  /// Tree height: number of internal levels above the leaves (>= 1).
  int32_t height = 1;
  /// Number of entries (table row count at estimation time).
  int64_t entry_count = 0;

  bool is_composite() const { return columns.size() > 1; }
};

/// A set of single-column indexes, identified by IndexId. Kept sorted for a
/// stable signature; small (the paper's budgets fit 3-6 indexes), so linear
/// operations are fine.
class IndexConfiguration {
 public:
  IndexConfiguration() = default;

  bool Contains(IndexId id) const;
  /// Returns true if newly inserted.
  bool Add(IndexId id);
  /// Returns true if present and removed.
  bool Remove(IndexId id);
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  const std::vector<IndexId>& ids() const { return ids_; }

  /// Order-independent 64-bit signature of the set.
  uint64_t Signature() const;

  /// Set with `id` added (no-op if present).
  IndexConfiguration With(IndexId id) const;
  /// Set with `id` removed (no-op if absent).
  IndexConfiguration Without(IndexId id) const;

  friend bool operator==(const IndexConfiguration&,
                         const IndexConfiguration&) = default;

 private:
  std::vector<IndexId> ids_;  // sorted ascending
};

/// The system catalog: tables plus the universe of definable single-column
/// indexes. Index descriptors are created lazily (one per indexable column)
/// with deterministic ids, so every component — COLT, the OFFLINE baseline,
/// the optimizer — refers to the same IndexId for the same column.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Registers a table; returns its id.
  TableId AddTable(TableSchema schema);

  int32_t table_count() const { return static_cast<int32_t>(tables_.size()); }
  const TableSchema& table(TableId id) const { return tables_[id]; }
  TableSchema& mutable_table(TableId id) { return tables_[id]; }

  /// Id of the table named `name`, or kInvalidTableId.
  TableId FindTable(const std::string& name) const;

  /// Id of the index on `column`, creating its descriptor on first use.
  /// Fails if the column is not indexable or the reference is invalid.
  Result<IndexId> IndexIdOn(ColumnRef column);

  /// A copy of the descriptor IndexIdOn(column) names. Hot paths take the
  /// id and read the descriptor in place through index().
  Result<IndexDescriptor> IndexOn(ColumnRef column);

  /// Multi-column extension: descriptor for the composite index on
  /// `columns` (2+ distinct indexable columns of one table, significant
  /// order). Deterministic id per column list; created on first use.
  Result<IndexDescriptor> CompositeIndexOn(std::vector<ColumnRef> columns);

  /// Descriptor lookup by id; requires a previously created id. The
  /// reference stays valid for the catalog's lifetime: creating further
  /// descriptors never moves an existing one.
  const IndexDescriptor& index(IndexId id) const;

  /// True if an index descriptor with this id exists.
  bool HasIndex(IndexId id) const {
    return id >= 0 && id < static_cast<IndexId>(indexes_.size());
  }

  /// All descriptors created so far.
  std::vector<IndexDescriptor> AllIndexes() const;

  /// Total rows across all tables.
  int64_t total_rows() const;
  /// Total heap bytes across all tables.
  int64_t total_heap_bytes() const;
  /// Total indexable attributes across all tables.
  int32_t total_indexable_columns() const;

  /// Estimates B+-tree shape/size for an index on `column`.
  /// Exposed for testing; IndexIdOn() records this estimate.
  IndexDescriptor EstimateIndex(ColumnRef column) const;

  /// Estimates B+-tree shape/size for a composite index.
  IndexDescriptor EstimateCompositeIndex(
      const std::vector<ColumnRef>& columns) const;

  /// Content hash of schemas + column statistics (not descriptors).
  /// Recovery uses it to verify that the restart rebuilt the same
  /// environment the checkpoint was taken in.
  uint64_t Fingerprint() const;

  /// Serializes the fingerprint and every index descriptor (column lists,
  /// in ascending id order — ids are assigned in creation order, so
  /// recovery must replay creations in that order).
  void SaveState(BinaryWriter* writer) const;

  /// Restores descriptors into this (already rebuilt) catalog: verifies
  /// the fingerprint matches, replays IndexOn/CompositeIndexOn in
  /// persisted id order, and confirms each id lands where it did in the
  /// original run. kFailedPrecondition on fingerprint mismatch;
  /// kInvalidArgument on malformed bytes.
  Status LoadState(BinaryReader* reader);

 private:
  /// Id of the index on `columns` (validated by the caller), creating its
  /// descriptor on first use.
  IndexId FindOrCreateIndex(std::span<const ColumnRef> columns);

  std::vector<TableSchema> tables_;
  /// Key: FNV over the packed column list (single or composite).
  std::unordered_map<uint64_t, IndexId> index_by_column_;
  /// Descriptors by id. Ids are dense and assigned in creation order, so
  /// the id is the position. A deque, not a vector: appending never moves
  /// an element, and callers keep `const IndexDescriptor&` across
  /// IndexIdOn calls that create descriptors.
  std::deque<IndexDescriptor> indexes_;
};

}  // namespace colt

#endif  // COLT_CATALOG_CATALOG_H_
