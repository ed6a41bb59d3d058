#include "storage/database.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/logging.h"

namespace colt {

Database::Database(Catalog catalog, uint64_t seed)
    : catalog_(std::move(catalog)), rng_(seed) {
  // Publish an empty snapshot so readers never observe null.
  auto snap = std::make_unique<IndexSnapshot>();
  published_snapshot_.store(snap.release(), std::memory_order_release);
}

Database::~Database() {
  // Readers are quiescent by contract, so the published snapshot can be
  // destroyed in place; anything this database retired earlier is drained
  // opportunistically (stale pins from other databases merely delay it).
  std::unique_ptr<const IndexSnapshot> last(
      published_snapshot_.exchange(nullptr, std::memory_order_acq_rel));
  EpochManager::Global().ReclaimAll();
}

void Database::PublishIndexSnapshot() {
  auto snap = std::make_unique<IndexSnapshot>();
  snap->indexes.reserve(built_indexes_.size());
  for (const auto& [id, tree] : built_indexes_) {
    snap->indexes.emplace(id, tree.get());
  }
  const IndexSnapshot* old =
      published_snapshot_.exchange(snap.release(), std::memory_order_acq_rel);
  EpochManager& epochs = EpochManager::Global();
  if (old != nullptr) epochs.Retire(old);
  // Publish boundaries double as reclaim points: free whatever previous
  // epochs have proven unreachable.
  epochs.TryReclaim();
}

Status Database::MaterializeTable(TableId table, bool refresh_stats) {
  if (table < 0 || table >= catalog_.table_count()) {
    return Status::InvalidArgument("bad table id");
  }
  if (table_data_.count(table) > 0) return Status::OK();
  // Per-table fork keeps generation deterministic regardless of the order
  // in which tables are materialized.
  Rng table_rng(rng_.Next() ^ (static_cast<uint64_t>(table) * 0x9e3779b9ULL));
  TableData data = TableData::Generate(catalog_.table(table), table_rng);
  if (refresh_stats) {
    TableSchema& schema = catalog_.mutable_table(table);
    for (ColumnId c = 0; c < schema.column_count(); ++c) {
      schema.set_column_stats(c, ColumnStats::FromValues(data.column(c)));
    }
  }
  table_data_.emplace(table, std::move(data));
  return Status::OK();
}

Status Database::MaterializeAll(bool refresh_stats) {
  for (TableId t = 0; t < catalog_.table_count(); ++t) {
    COLT_RETURN_IF_ERROR(MaterializeTable(t, refresh_stats));
  }
  return Status::OK();
}

bool Database::HasData(TableId table) const {
  return table_data_.count(table) > 0;
}

const TableData& Database::data(TableId table) const {
  auto it = table_data_.find(table);
  COLT_CHECK(it != table_data_.end())
      << "table " << table << " not materialized";
  return it->second;
}

Status Database::BuildIndex(IndexId id) {
  if (built_indexes_.count(id) > 0) return Status::OK();
  Result<std::unique_ptr<BTreeIndex>> tree = PrepareIndex(id);
  COLT_RETURN_IF_ERROR(tree.status());
  return InstallIndex(id, std::move(tree).value());
}

Result<std::unique_ptr<BTreeIndex>> Database::PrepareIndex(IndexId id) const {
  if (!catalog_.HasIndex(id)) {
    return Status::NotFound("unknown index id " + std::to_string(id));
  }
  const IndexDescriptor& desc = catalog_.index(id);
  if (desc.is_composite()) {
    return Status::NotImplemented(
        "physical builds of composite indexes are not supported; use "
        "statistics-only mode for the multi-column extension");
  }
  if (!HasData(desc.column.table)) {
    return Status::FailedPrecondition(
        "table not materialized; cannot build " + desc.name);
  }
  const TableData& data = table_data_.at(desc.column.table);
  auto tree = std::make_unique<BTreeIndex>();
  // Tombstoned rows never enter a fresh index, keeping late builds
  // consistent with indexes maintained through the write path.
  COLT_RETURN_IF_ERROR(tree->BulkLoadColumn(data.column(desc.column.column),
                                            data.tombstones()));
  return tree;
}

Status Database::InstallIndex(IndexId id, std::unique_ptr<BTreeIndex> tree) {
  if (tree == nullptr) {
    return Status::InvalidArgument("InstallIndex requires a staged tree");
  }
  if (built_indexes_.count(id) > 0) return Status::OK();
  built_indexes_.emplace(id, std::move(tree));
  PublishIndexSnapshot();
  return Status::OK();
}

void Database::DropIndex(IndexId id) {
  auto it = built_indexes_.find(id);
  if (it == built_indexes_.end()) return;
  // Unlink first (republish a snapshot without the tree), retire second:
  // late-pinning readers can no longer reach the tree, and readers still
  // pinned over the old snapshot keep it alive until their epoch passes.
  std::unique_ptr<BTreeIndex> doomed = std::move(it->second);
  built_indexes_.erase(it);
  PublishIndexSnapshot();
  EpochManager::Global().Retire(doomed.release());
}

namespace {

/// SplitMix64 finalizer — the stateless cell-value hash for inserted rows.
uint64_t MixCell(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic synthesized cell for (table, row, col), uniform over the
/// column statistics' value range.
int64_t SynthesizeCell(const ColumnStats& stats, TableId table, int64_t row,
                       ColumnId col) {
  const uint64_t h = MixCell((static_cast<uint64_t>(table) << 48) ^
                             (static_cast<uint64_t>(col) << 40) ^
                             static_cast<uint64_t>(row));
  const int64_t lo = stats.min_value();
  const int64_t hi = stats.max_value();
  if (hi <= lo) return lo;
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(h % span);
}

}  // namespace

Result<Database::WriteOutcome> Database::InsertRows(TableId table,
                                                    int64_t count) {
  if (!HasData(table)) {
    return Status::FailedPrecondition("table not materialized");
  }
  if (count < 0) return Status::InvalidArgument("negative insert count");
  if (count > kMaxInsertRows) {
    return Status::InvalidArgument("insert count exceeds " +
                                   std::to_string(kMaxInsertRows) + " rows");
  }
  TableData& data = table_data_.at(table);
  const TableSchema& schema = catalog_.table(table);
  WriteOutcome outcome;
  outcome.rows.reserve(static_cast<size_t>(count));
  std::vector<int64_t> values(static_cast<size_t>(schema.column_count()));
  for (int64_t i = 0; i < count; ++i) {
    const int64_t position = data.row_count();
    for (ColumnId c = 0; c < schema.column_count(); ++c) {
      values[static_cast<size_t>(c)] =
          SynthesizeCell(schema.column_stats(c), table, position, c);
    }
    const RowId row = data.AppendRow(values);
    for (auto& [id, tree] : built_indexes_) {
      const IndexDescriptor& desc = catalog_.index(id);
      if (desc.column.table != table) continue;
      tree->Insert(values[static_cast<size_t>(desc.column.column)], row);
      ++outcome.index_entry_ops;
    }
    outcome.rows.push_back(row);
  }
  return outcome;
}

Result<Database::WriteOutcome> Database::UpdateRows(
    TableId table, const std::vector<RowId>& rows,
    const std::vector<std::pair<ColumnId, int64_t>>& sets) {
  if (!HasData(table)) {
    return Status::FailedPrecondition("table not materialized");
  }
  TableData& data = table_data_.at(table);
  const TableSchema& schema = catalog_.table(table);
  for (const auto& [col, value] : sets) {
    if (col < 0 || col >= schema.column_count()) {
      return Status::InvalidArgument("unknown SET column");
    }
  }
  WriteOutcome outcome;
  for (RowId row : rows) {
    if (row < 0 || row >= data.row_count() || !data.live(row)) continue;
    // Re-key affected indexes first (the erase needs the old value), then
    // overwrite the cells. Sets are applied in order; later clauses on the
    // same column win, matching the cell state the re-insert used.
    for (auto& [id, tree] : built_indexes_) {
      const IndexDescriptor& desc = catalog_.index(id);
      if (desc.column.table != table) continue;
      int64_t new_key = data.value(desc.column.column, row);
      bool touched = false;
      for (const auto& [col, value] : sets) {
        if (col == desc.column.column) {
          new_key = value;
          touched = true;
        }
      }
      if (!touched) continue;
      tree->Erase(data.value(desc.column.column, row), row);
      tree->Insert(new_key, row);
      outcome.index_entry_ops += 2;
    }
    for (const auto& [col, value] : sets) data.set_value(col, row, value);
    outcome.rows.push_back(row);
  }
  return outcome;
}

Result<Database::WriteOutcome> Database::DeleteRows(
    TableId table, const std::vector<RowId>& rows) {
  if (!HasData(table)) {
    return Status::FailedPrecondition("table not materialized");
  }
  TableData& data = table_data_.at(table);
  WriteOutcome outcome;
  for (RowId row : rows) {
    if (row < 0 || row >= data.row_count() || !data.live(row)) continue;
    for (auto& [id, tree] : built_indexes_) {
      const IndexDescriptor& desc = catalog_.index(id);
      if (desc.column.table != table) continue;
      tree->Erase(data.value(desc.column.column, row), row);
      ++outcome.index_entry_ops;
    }
    data.MarkDeleted(row);
    outcome.rows.push_back(row);
  }
  return outcome;
}

std::vector<IndexId> Database::BuiltIndexIds() const {
  std::vector<IndexId> ids;
  ids.reserve(built_indexes_.size());
  for (const auto& entry : built_indexes_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool Database::HasBuiltIndex(IndexId id) const {
  return built_indexes_.count(id) > 0;
}

const BTreeIndex& Database::index(IndexId id) const {
  auto it = built_indexes_.find(id);
  COLT_CHECK(it != built_indexes_.end()) << "index " << id << " not built";
  return *it->second;
}

}  // namespace colt
