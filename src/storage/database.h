#ifndef COLT_STORAGE_DATABASE_H_
#define COLT_STORAGE_DATABASE_H_

#include <atomic>
#include <memory>
#include <unordered_map>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/btree.h"
#include "storage/table_data.h"

namespace colt {

/// A database instance: catalog plus (optionally materialized) table data
/// and physically built B+-tree indexes.
///
/// Two usage modes:
///  * statistics-only — no tuples are generated; the optimizer and the
///    simulated executor run entirely off catalog statistics (how the
///    paper-scale experiments run);
///  * physical — tables are materialized and indexes are real B+-trees,
///    used by the physical executor for validation and by the examples.
class Database {
 public:
  /// An immutable view of the physically built index set, published
  /// atomically for concurrent readers (DESIGN.md §15). The serving path
  /// resolves trees through the snapshot while holding an `EpochGuard`;
  /// installs and drops build a replacement, swap the published pointer,
  /// and epoch-retire the old snapshot (and any dropped tree), so index
  /// changes never block or invalidate in-flight readers.
  struct IndexSnapshot {
    std::unordered_map<IndexId, const BTreeIndex*> indexes;

    COLT_WORKER_SAFE const BTreeIndex* Find(IndexId id) const {
      auto it = indexes.find(id);
      return it == indexes.end() ? nullptr : it->second;
    }
  };

  explicit Database(Catalog catalog, uint64_t seed = 42);
  /// Requires reader quiescence (no thread still executing a query
  /// against this database); drains this database's epoch-retired
  /// structures where possible.
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const Catalog& catalog() const { return catalog_; }
  Catalog& mutable_catalog() { return catalog_; }

  /// Generates tuples for `table` (idempotent). When `refresh_stats` is
  /// true, replaces the analytic column statistics with exact statistics
  /// computed from the generated data.
  COLT_OWNER_ONLY Status MaterializeTable(TableId table,
                                          bool refresh_stats = false);

  /// Materializes every table. At full Table 1 scale this allocates ~750 MB;
  /// intended for reduced-scale catalogs.
  COLT_OWNER_ONLY Status MaterializeAll(bool refresh_stats = false);

  bool HasData(TableId table) const;
  /// Requires HasData(table).
  const TableData& data(TableId table) const;

  /// Physically builds the index `id` (bulk load). Requires the owning
  /// table to be materialized. Idempotent. Equivalent to PrepareIndex
  /// followed by InstallIndex.
  COLT_OWNER_ONLY Status BuildIndex(IndexId id);

  /// Stage 1 of BuildIndex: bulk-loads the B+-tree for `id` without
  /// registering it. Const and touching only the catalog and the
  /// (frozen-by-contract) table data, so it is safe to run on another
  /// thread while the owning thread serves reads through other indexes —
  /// provided no Materialize*/mutable_catalog call runs concurrently.
  /// Does NOT check whether `id` is already built (that read would race
  /// with the owner's installs); InstallIndex resolves duplicates.
  COLT_WORKER_SAFE Result<std::unique_ptr<BTreeIndex>> PrepareIndex(
      IndexId id) const;

  /// Stage 2: registers a tree staged by PrepareIndex. Owner thread only.
  /// Idempotent like BuildIndex — when `id` is already built the staged
  /// tree is discarded.
  COLT_OWNER_ONLY Status InstallIndex(IndexId id,
                                      std::unique_ptr<BTreeIndex> tree);

  /// Drops the physical index; OK even if not built.
  COLT_OWNER_ONLY void DropIndex(IndexId id);

  /// Outcome of physically applying one write primitive (DESIGN.md §16).
  struct WriteOutcome {
    /// Row ids appended (insert) or affected (update/delete).
    std::vector<RowId> rows;
    /// B+-tree entry operations (inserts + erases) applied across every
    /// built index on the target table.
    int64_t index_entry_ops = 0;
  };

  /// Appends `count` synthesized rows to a materialized `table` and
  /// inserts the new entries into every built index on it. Cell values are
  /// a stateless hash of (table, row position, column) mapped into the
  /// column statistics' [min, max] range — deterministic replay with no
  /// draw from the database RNG, so table materialization order and
  /// re-generation stay byte-identical whether or not writes ran first.
  /// Catalog statistics are deliberately not refreshed (the tuning model
  /// keeps pricing against the trace-visible statistics; DESIGN.md §16).
  /// A `count` outside [0, kMaxInsertRows] is InvalidArgument and leaves
  /// the table unchanged.
  COLT_OWNER_ONLY Result<WriteOutcome> InsertRows(TableId table,
                                                  int64_t count);

  /// Overwrites the (column, value) `sets` on each row of `rows`, erasing
  /// and re-inserting the entry of every built index keyed on an assigned
  /// column. Rows must be live. The cell and tree stores are
  /// unsynchronised, so no read of this database may be in flight during
  /// the call; ServeWorkload's write fence guarantees this for served
  /// writes.
  COLT_OWNER_ONLY Result<WriteOutcome> UpdateRows(
      TableId table, const std::vector<RowId>& rows,
      const std::vector<std::pair<ColumnId, int64_t>>& sets);

  /// Tombstones each row of `rows` and erases its entry from every built
  /// index on the table. Already-deleted rows are skipped.
  COLT_OWNER_ONLY Result<WriteOutcome> DeleteRows(
      TableId table, const std::vector<RowId>& rows);

  bool HasBuiltIndex(IndexId id) const;
  /// Requires HasBuiltIndex(id).
  const BTreeIndex& index(IndexId id) const;

  /// Ids of all physically built indexes, ascending (drives the chaos
  /// harness's catalog/storage consistency invariant).
  std::vector<IndexId> BuiltIndexIds() const;

  /// The currently-published index snapshot; never null. The returned
  /// pointer (and every tree it references) stays valid for as long as
  /// the caller holds an `EpochGuard` or an `EpochPin` taken before this
  /// load (the serve loop holds one pin per in-flight segment).
  COLT_WORKER_SAFE const IndexSnapshot* index_snapshot() const {
    return published_snapshot_.load(std::memory_order_acquire);
  }

 private:
  /// Rebuilds and atomically publishes the snapshot from
  /// `built_indexes_`, epoch-retiring the previous one. Owner thread
  /// only (runs inside install/drop).
  COLT_OWNER_ONLY void PublishIndexSnapshot();

  Catalog catalog_;
  Rng rng_;
  std::unordered_map<TableId, TableData> table_data_;
  std::unordered_map<IndexId, std::unique_ptr<BTreeIndex>> built_indexes_;
  std::atomic<const IndexSnapshot*> published_snapshot_{nullptr};
};

}  // namespace colt

#endif  // COLT_STORAGE_DATABASE_H_
