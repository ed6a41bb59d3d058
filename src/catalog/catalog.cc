#include "catalog/catalog.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace colt {

namespace {

uint64_t HashColumnList(std::span<const ColumnRef> columns) {
  uint64_t h = 1469598103934665603ULL;
  for (const ColumnRef& ref : columns) {
    const uint64_t packed =
        (static_cast<uint64_t>(static_cast<uint32_t>(ref.table)) << 32) |
        static_cast<uint32_t>(ref.column);
    h ^= packed + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace

bool IndexConfiguration::Contains(IndexId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

bool IndexConfiguration::Add(IndexId id) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it != ids_.end() && *it == id) return false;
  ids_.insert(it, id);
  return true;
}

bool IndexConfiguration::Remove(IndexId id) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return false;
  ids_.erase(it);
  return true;
}

uint64_t IndexConfiguration::Signature() const {
  // FNV-1a over the sorted id sequence.
  uint64_t h = 1469598103934665603ULL;
  for (IndexId id : ids_) {
    uint64_t v = static_cast<uint64_t>(id);
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

IndexConfiguration IndexConfiguration::With(IndexId id) const {
  IndexConfiguration copy = *this;
  copy.Add(id);
  return copy;
}

IndexConfiguration IndexConfiguration::Without(IndexId id) const {
  IndexConfiguration copy = *this;
  copy.Remove(id);
  return copy;
}

TableId Catalog::AddTable(TableSchema schema) {
  tables_.push_back(std::move(schema));
  return static_cast<TableId>(tables_.size() - 1);
}

TableId Catalog::FindTable(const std::string& name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].name() == name) return static_cast<TableId>(i);
  }
  return kInvalidTableId;
}

IndexDescriptor Catalog::EstimateCompositeIndex(
    const std::vector<ColumnRef>& columns) const {
  const TableSchema& t = tables_[columns[0].table];
  IndexDescriptor desc;
  desc.column = columns[0];
  desc.columns = columns;
  desc.name = t.name() + ".";
  int32_t key_bytes = 0;
  for (size_t i = 0; i < columns.size(); ++i) {
    const ColumnDef& col = t.column(columns[i].column);
    if (i > 0) desc.name += "_";
    desc.name += col.name;
    key_bytes += col.width_bytes;
  }
  desc.name += "_idx";
  desc.entry_count = t.row_count();
  // Leaf entry: key + heap TID (6 bytes) + item overhead (~10 bytes),
  // B+-tree pages ~70% full on average.
  const double entry_bytes = static_cast<double>(key_bytes) + 16.0;
  const double usable = kPageSizeBytes * 0.70;
  const double entries_per_leaf = std::max(2.0, usable / entry_bytes);
  desc.leaf_pages = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil(static_cast<double>(desc.entry_count) /
                       entries_per_leaf)));
  // Internal fanout: key + child pointer (8 bytes).
  const double fanout =
      std::max(2.0, usable / (static_cast<double>(key_bytes) + 12.0));
  int32_t height = 1;
  double level_pages = static_cast<double>(desc.leaf_pages);
  int64_t internal_pages = 0;
  while (level_pages > 1.0) {
    level_pages = std::ceil(level_pages / fanout);
    internal_pages += static_cast<int64_t>(level_pages);
    ++height;
  }
  desc.height = height;
  desc.size_bytes = (desc.leaf_pages + internal_pages) * kPageSizeBytes;
  return desc;
}

IndexDescriptor Catalog::EstimateIndex(ColumnRef column) const {
  return EstimateCompositeIndex({column});
}

Result<IndexId> Catalog::IndexIdOn(ColumnRef column) {
  if (!column.valid() || column.table >= table_count() ||
      column.column >= tables_[column.table].column_count()) {
    return Status::InvalidArgument("invalid column reference");
  }
  if (!tables_[column.table].column(column.column).indexable) {
    return Status::FailedPrecondition(
        "column " + tables_[column.table].column(column.column).name +
        " is not indexable");
  }
  return FindOrCreateIndex({&column, 1});
}

Result<IndexDescriptor> Catalog::IndexOn(ColumnRef column) {
  COLT_ASSIGN_OR_RETURN(const IndexId id, IndexIdOn(column));
  return index(id);
}

Result<IndexDescriptor> Catalog::CompositeIndexOn(
    std::vector<ColumnRef> columns) {
  if (columns.size() < 2) {
    return Status::InvalidArgument(
        "composite index needs at least 2 columns");
  }
  const TableId table = columns[0].table;
  for (size_t i = 0; i < columns.size(); ++i) {
    const ColumnRef& col = columns[i];
    if (!col.valid() || col.table >= table_count() ||
        col.column >= tables_[col.table].column_count()) {
      return Status::InvalidArgument("invalid column reference");
    }
    if (col.table != table) {
      return Status::InvalidArgument(
          "composite index columns must share a table");
    }
    if (!tables_[col.table].column(col.column).indexable) {
      return Status::FailedPrecondition("column is not indexable");
    }
    for (size_t j = 0; j < i; ++j) {
      if (columns[j] == col) {
        return Status::InvalidArgument("duplicate column in composite index");
      }
    }
  }
  return index(FindOrCreateIndex(columns));
}

IndexId Catalog::FindOrCreateIndex(std::span<const ColumnRef> columns) {
  const uint64_t key = HashColumnList(columns);
  auto it = index_by_column_.find(key);
  if (it != index_by_column_.end()) return it->second;
  IndexDescriptor desc =
      EstimateCompositeIndex({columns.begin(), columns.end()});
  desc.id = static_cast<IndexId>(indexes_.size());
  index_by_column_.emplace(key, desc.id);
  indexes_.push_back(std::move(desc));
  return indexes_.back().id;
}

const IndexDescriptor& Catalog::index(IndexId id) const {
  COLT_CHECK(HasIndex(id)) << "unknown index id " << id;
  return indexes_[static_cast<size_t>(id)];
}

std::vector<IndexDescriptor> Catalog::AllIndexes() const {
  return {indexes_.begin(), indexes_.end()};
}

int64_t Catalog::total_rows() const {
  int64_t total = 0;
  for (const auto& t : tables_) total += t.row_count();
  return total;
}

int64_t Catalog::total_heap_bytes() const {
  int64_t total = 0;
  for (const auto& t : tables_) total += t.heap_bytes();
  return total;
}

int32_t Catalog::total_indexable_columns() const {
  int32_t total = 0;
  for (const auto& t : tables_) total += t.indexable_column_count();
  return total;
}

namespace {
constexpr uint32_t kCatalogSectionTag = 0x4C544143;  // "CATL"
}  // namespace

uint64_t Catalog::Fingerprint() const {
  BinaryWriter w;
  w.WriteU64(tables_.size());
  for (const TableSchema& t : tables_) {
    w.WriteString(t.name());
    w.WriteI64(t.row_count());
    w.WriteU64(t.columns().size());
    for (const ColumnDef& c : t.columns()) {
      w.WriteString(c.name);
      w.WriteU32(static_cast<uint32_t>(c.type));
      w.WriteU32(static_cast<uint32_t>(c.width_bytes));
      w.WriteI64(c.ndv);
      w.WriteBool(c.indexable);
      w.WriteDouble(c.skew);
    }
    for (int32_t i = 0; i < t.column_count(); ++i) {
      w.WriteU64(t.column_stats(i).Fingerprint());
    }
  }
  return Fnv1a64(w.buffer());
}

void Catalog::SaveState(BinaryWriter* writer) const {
  writer->WriteU32(kCatalogSectionTag);
  writer->WriteU64(Fingerprint());
  const std::vector<IndexDescriptor> indexes = AllIndexes();
  writer->WriteU64(indexes.size());
  for (const IndexDescriptor& desc : indexes) {
    writer->WriteI64(desc.id);
    writer->WriteU64(desc.columns.size());
    for (const ColumnRef& ref : desc.columns) {
      writer->WriteI64(ref.table);
      writer->WriteI64(ref.column);
    }
  }
}

Status Catalog::LoadState(BinaryReader* reader) {
  COLT_RETURN_IF_ERROR(reader->ExpectTag(kCatalogSectionTag));
  uint64_t fingerprint = 0;
  COLT_RETURN_IF_ERROR(reader->ReadU64(&fingerprint));
  if (fingerprint != Fingerprint()) {
    return Status::FailedPrecondition(
        "catalog fingerprint mismatch: the checkpoint was taken against a "
        "different schema or statistics");
  }
  uint64_t index_count = 0;
  COLT_RETURN_IF_ERROR(reader->ReadU64(&index_count));
  for (uint64_t i = 0; i < index_count; ++i) {
    int64_t id = 0;
    COLT_RETURN_IF_ERROR(reader->ReadI64(&id));
    uint64_t column_count = 0;
    COLT_RETURN_IF_ERROR(reader->ReadU64(&column_count));
    if (column_count == 0 || column_count > 64) {
      return Status::InvalidArgument("corrupt descriptor column count " +
                                     std::to_string(column_count));
    }
    std::vector<ColumnRef> columns;
    columns.reserve(column_count);
    for (uint64_t j = 0; j < column_count; ++j) {
      int64_t table = 0, column = 0;
      COLT_RETURN_IF_ERROR(reader->ReadI64(&table));
      COLT_RETURN_IF_ERROR(reader->ReadI64(&column));
      columns.push_back(ColumnRef{static_cast<TableId>(table),
                                  static_cast<ColumnId>(column)});
    }
    Result<IndexDescriptor> desc =
        columns.size() == 1 ? IndexOn(columns[0])
                            : CompositeIndexOn(std::move(columns));
    COLT_RETURN_IF_ERROR(desc.status());
    if (desc->id != static_cast<IndexId>(id)) {
      return Status::FailedPrecondition(
          "descriptor id drift during recovery: persisted id " +
          std::to_string(id) + " recreated as " + std::to_string(desc->id));
    }
  }
  return Status::OK();
}

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "int64";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kDate:
      return "date";
    case ColumnType::kDecimal:
      return "decimal";
    case ColumnType::kString:
      return "string";
  }
  return "?";
}

}  // namespace colt
