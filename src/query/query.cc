#include "query/query.h"

#include <algorithm>
#include <sstream>
#include <string>

namespace colt {

Query::Query(std::vector<TableId> tables, std::vector<JoinPredicate> joins,
             std::vector<SelectionPredicate> selections)
    : tables_(std::move(tables)),
      joins_(std::move(joins)),
      selections_(std::move(selections)) {
  std::sort(tables_.begin(), tables_.end());
  tables_.erase(std::unique(tables_.begin(), tables_.end()), tables_.end());
  for (auto& j : joins_) j = j.Canonical();
  std::sort(joins_.begin(), joins_.end(),
            [](const JoinPredicate& a, const JoinPredicate& b) {
              return std::tie(a.left, a.right) < std::tie(b.left, b.right);
            });
  std::sort(selections_.begin(), selections_.end(),
            [](const SelectionPredicate& a, const SelectionPredicate& b) {
              return std::tie(a.column, a.lo, a.hi) <
                     std::tie(b.column, b.lo, b.hi);
            });
}

Query Query::MakeInsert(TableId table, int64_t rows) {
  Query q({table}, {}, {});
  q.kind_ = StatementKind::kInsert;
  q.insert_rows_ = rows;
  return q;
}

Query Query::MakeUpdate(TableId table, std::vector<SetClause> sets,
                        std::vector<SelectionPredicate> selections) {
  Query q({table}, {}, std::move(selections));
  q.kind_ = StatementKind::kUpdate;
  q.set_clauses_ = std::move(sets);
  std::sort(q.set_clauses_.begin(), q.set_clauses_.end(),
            [](const SetClause& a, const SetClause& b) {
              return std::tie(a.column, a.value) < std::tie(b.column, b.value);
            });
  return q;
}

Query Query::MakeDelete(TableId table,
                        std::vector<SelectionPredicate> selections) {
  Query q({table}, {}, std::move(selections));
  q.kind_ = StatementKind::kDelete;
  return q;
}

std::vector<SelectionPredicate> Query::SelectionsOn(TableId table) const {
  std::vector<SelectionPredicate> out;
  for (const auto& s : selections_) {
    if (s.column.table == table) out.push_back(s);
  }
  return out;
}

bool Query::UsesTable(TableId table) const {
  return std::binary_search(tables_.begin(), tables_.end(), table);
}

Status Query::Validate(const Catalog& catalog) const {
  if (tables_.empty()) return Status::InvalidArgument("query has no tables");
  if (tables_.size() > kMaxQueryTables) {
    return Status::InvalidArgument("query reads " +
                                   std::to_string(tables_.size()) +
                                   " tables; at most " +
                                   std::to_string(kMaxQueryTables) +
                                   " are supported");
  }
  for (TableId t : tables_) {
    if (t < 0 || t >= catalog.table_count()) {
      return Status::InvalidArgument("unknown table id");
    }
  }
  auto check_column = [&](const ColumnRef& c) {
    if (!UsesTable(c.table)) {
      return Status::InvalidArgument("column on table not in query");
    }
    if (c.column < 0 || c.column >= catalog.table(c.table).column_count()) {
      return Status::InvalidArgument("unknown column");
    }
    return Status::OK();
  };
  for (const auto& j : joins_) {
    COLT_RETURN_IF_ERROR(check_column(j.left));
    COLT_RETURN_IF_ERROR(check_column(j.right));
    if (j.left.table == j.right.table) {
      return Status::InvalidArgument("self-join predicates unsupported");
    }
  }
  for (const auto& s : selections_) {
    COLT_RETURN_IF_ERROR(check_column(s.column));
    if (s.lo > s.hi) return Status::InvalidArgument("empty predicate range");
  }
  if (is_write()) {
    if (tables_.size() != 1) {
      return Status::InvalidArgument("write statements target one table");
    }
    if (!joins_.empty()) {
      return Status::InvalidArgument("write statements cannot join");
    }
    const TableId target = tables_.front();
    if (kind_ == StatementKind::kInsert) {
      if (insert_rows_ < 1) {
        return Status::InvalidArgument("INSERT needs a positive row count");
      }
      if (insert_rows_ > kMaxInsertRows) {
        return Status::InvalidArgument("INSERT batch exceeds " +
                                       std::to_string(kMaxInsertRows) +
                                       " rows");
      }
      if (!selections_.empty()) {
        return Status::InvalidArgument("INSERT cannot carry a WHERE clause");
      }
    }
    if (kind_ == StatementKind::kUpdate && set_clauses_.empty()) {
      return Status::InvalidArgument("UPDATE needs at least one SET clause");
    }
    for (const SetClause& s : set_clauses_) {
      if (s.column < 0 || s.column >= catalog.table(target).column_count()) {
        return Status::InvalidArgument("unknown SET column");
      }
    }
  } else {
    if (insert_rows_ != 0 || !set_clauses_.empty()) {
      return Status::InvalidArgument("SELECT cannot carry write fields");
    }
  }
  return Status::OK();
}

std::string Query::ToString(const Catalog& catalog) const {
  std::ostringstream os;
  bool first = true;
  auto emit_where = [&] {
    os << (first ? " WHERE " : " AND ");
    first = false;
  };
  auto emit_conditions = [&] {
    for (const auto& j : joins_) {
      emit_where();
      os << catalog.table(j.left.table).name() << "."
         << catalog.table(j.left.table).column(j.left.column).name << " = "
         << catalog.table(j.right.table).name() << "."
         << catalog.table(j.right.table).column(j.right.column).name;
    }
    for (const auto& s : selections_) {
      emit_where();
      os << PredicateToString(catalog, s);
    }
  };
  switch (kind_) {
    case StatementKind::kSelect: {
      os << "SELECT count(*) FROM ";
      for (size_t i = 0; i < tables_.size(); ++i) {
        if (i > 0) os << ", ";
        os << catalog.table(tables_[i]).name();
      }
      emit_conditions();
      break;
    }
    case StatementKind::kInsert: {
      os << "INSERT INTO " << catalog.table(write_table()).name() << " ROWS "
         << insert_rows_;
      break;
    }
    case StatementKind::kUpdate: {
      const auto& table = catalog.table(write_table());
      os << "UPDATE " << table.name() << " SET ";
      for (size_t i = 0; i < set_clauses_.size(); ++i) {
        if (i > 0) os << ", ";
        os << table.column(set_clauses_[i].column).name << " = "
           << set_clauses_[i].value;
      }
      emit_conditions();
      break;
    }
    case StatementKind::kDelete: {
      os << "DELETE FROM " << catalog.table(write_table()).name();
      emit_conditions();
      break;
    }
  }
  return os.str();
}

std::string PredicateToString(const Catalog& catalog,
                              const SelectionPredicate& pred) {
  std::ostringstream os;
  const auto& table = catalog.table(pred.column.table);
  os << table.name() << "." << table.column(pred.column.column).name;
  if (pred.is_equality()) {
    os << " = " << pred.lo;
  } else if (pred.lo == INT64_MIN) {
    os << " <= " << pred.hi;
  } else if (pred.hi == INT64_MAX) {
    os << " >= " << pred.lo;
  } else {
    os << " BETWEEN " << pred.lo << " AND " << pred.hi;
  }
  return os.str();
}

size_t QuerySignatureHash::operator()(const QuerySignature& sig) const {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (TableId t : sig.tables) mix(static_cast<uint64_t>(t) + 1);
  mix(0xabcd);
  for (const auto& [l, r] : sig.joins) {
    mix((static_cast<uint64_t>(l.table) << 32) ^
        static_cast<uint32_t>(l.column));
    mix((static_cast<uint64_t>(r.table) << 32) ^
        static_cast<uint32_t>(r.column));
  }
  mix(0xef01);
  for (const auto& [c, bucket] : sig.selections) {
    mix((static_cast<uint64_t>(c.table) << 32) ^
        static_cast<uint32_t>(c.column));
    mix(static_cast<uint64_t>(bucket) + 17);
  }
  // Mixed only for writes so read-only signatures hash exactly as they did
  // before write statements existed (clusters persisted by older
  // checkpoints keep their identity).
  if (sig.kind != 0) {
    mix(0x5157u);  // "WQ" domain separator
    mix(static_cast<uint64_t>(sig.kind));
    for (ColumnId c : sig.write_columns) mix(static_cast<uint64_t>(c) + 29);
  }
  return static_cast<size_t>(h);
}

QuerySignature ComputeSignature(const Catalog& catalog, const Query& q) {
  QuerySignature sig;
  sig.tables = q.tables();
  for (const auto& j : q.joins()) {
    const JoinPredicate c = j.Canonical();
    sig.joins.emplace_back(c.left, c.right);
  }
  std::sort(sig.joins.begin(), sig.joins.end());
  for (const auto& s : q.selections()) {
    sig.selections.emplace_back(
        s.column, SelectivityBucket(EstimateSelectivity(catalog, s)));
  }
  std::sort(sig.selections.begin(), sig.selections.end());
  sig.kind = static_cast<int>(q.kind());
  for (const SetClause& s : q.set_clauses()) {
    sig.write_columns.push_back(s.column);
  }
  std::sort(sig.write_columns.begin(), sig.write_columns.end());
  sig.write_columns.erase(
      std::unique(sig.write_columns.begin(), sig.write_columns.end()),
      sig.write_columns.end());
  return sig;
}

}  // namespace colt
