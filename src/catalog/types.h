#ifndef COLT_CATALOG_TYPES_H_
#define COLT_CATALOG_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>

namespace colt {

/// Identifies a table within a Catalog.
using TableId = int32_t;
/// Identifies a column by position within its table's schema.
using ColumnId = int32_t;
/// Identifies a (materialized or hypothetical) index.
using IndexId = int64_t;

inline constexpr TableId kInvalidTableId = -1;
inline constexpr ColumnId kInvalidColumnId = -1;
inline constexpr IndexId kInvalidIndexId = -1;

/// Logical column type. The storage engine represents every value as an
/// int64 payload (strings/dates/decimals are dictionary-coded surrogates);
/// the logical type and declared byte width drive size accounting only,
/// exactly what index selection needs.
enum class ColumnType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kDate = 2,
  kDecimal = 3,
  kString = 4,
};

const char* ColumnTypeName(ColumnType type);

/// A fully-qualified column reference.
struct ColumnRef {
  TableId table = kInvalidTableId;
  ColumnId column = kInvalidColumnId;

  bool valid() const { return table >= 0 && column >= 0; }
  friend bool operator==(const ColumnRef&, const ColumnRef&) = default;
  friend auto operator<=>(const ColumnRef&, const ColumnRef&) = default;
};

struct ColumnRefHash {
  size_t operator()(const ColumnRef& ref) const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(ref.table) << 32) ^
                                 static_cast<uint32_t>(ref.column));
  }
};

/// Database page size in bytes (PostgreSQL default).
inline constexpr int64_t kPageSizeBytes = 8192;
/// Per-tuple storage overhead (header + item pointer), PostgreSQL-like.
inline constexpr int64_t kTupleHeaderBytes = 28;
/// Fraction of a page usable for tuples.
inline constexpr double kPageFillFactor = 0.9;

/// Largest INSERT batch, in rows. Query::Validate and Database::InsertRows
/// both refuse more, so no statement can ask storage to reserve an
/// unbounded row count. The largest shipped batch is 3,000 rows.
inline constexpr int64_t kMaxInsertRows = 1'000'000;

}  // namespace colt

#endif  // COLT_CATALOG_TYPES_H_
