#include "exec/executor.h"

// colt-lint: allow(metric-name): per-operator histograms are registered from
// the fixed kOpNames table of dotted snake_case literals in the constructor;
// the indexed lookup is not a dynamic name.

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <utility>

#include "common/epoch.h"

namespace colt {

namespace {

/// Tuples per heap page for page-accounting purposes.
int64_t TuplesPerPage(const TableSchema& schema) {
  const int64_t per_page = static_cast<int64_t>(
      kPageSizeBytes * kPageFillFactor / schema.tuple_bytes());
  return std::max<int64_t>(1, per_page);
}

/// `lo <= v <= hi` as one unsigned compare: once lo <= hi, v - lo wraps
/// past hi - lo in uint64 arithmetic exactly when v is out of range, at
/// any int64 bounds. Callers treat lo > hi (an empty range) themselves.
class RangeTest {
 public:
  explicit RangeTest(const SelectionPredicate& pred)
      : lo_(static_cast<uint64_t>(pred.lo)),
        width_(static_cast<uint64_t>(pred.hi) - lo_) {}

  bool operator()(int64_t value) const {
    return static_cast<uint64_t>(value) - lo_ <= width_;
  }

 private:
  uint64_t lo_;
  uint64_t width_;
};

/// Keeps the rows of `sel` that pass every predicate, in order, filtering
/// the selection vector one predicate at a time over the column arrays.
void FilterRows(const TableData& data,
                std::span<const SelectionPredicate> preds,
                std::vector<RowId>* sel) {
  for (const SelectionPredicate& pred : preds) {
    if (pred.lo > pred.hi) {
      sel->clear();
      return;
    }
    const RangeTest in_range(pred);
    const int64_t* values = data.column(pred.column.column).data();
    size_t kept = 0;
    for (const RowId r : *sel) {
      if (in_range(values[r])) (*sel)[kept++] = r;
    }
    sel->resize(kept);
  }
}

/// One relation's values of a join column: tuple i's is values[rows[i]].
struct KeyColumn {
  const int64_t* values = nullptr;
  const RowId* rows = nullptr;

  int64_t at(int64_t i) const { return values[rows[i]]; }
};

/// Open-addressing multimap from join key to build-side tuple index,
/// probed linearly at a load factor of at most 1/2. Each key's tuples
/// chain through next() in build order; `count` serves a counting probe.
///
/// A bit filter sits in front of the slots: each build key sets the bit
/// picked by the top bits of the same product that picks its home slot,
/// and Find() returns before touching the slots when a probe key's bit is
/// clear. A build key's bit is always set, so the filter never drops a
/// match; it only turns most misses into one predictable branch
/// (DESIGN.md §17).
class JoinHashTable {
 public:
  struct Slot {
    int64_t key = 0;
    /// First build tuple of the chain; -1 marks an empty slot.
    int64_t head = -1;
    int64_t count = 0;
  };

  JoinHashTable(const KeyColumn& keys, int64_t n)
      : next_(static_cast<size_t>(n)) {
    int bits = 4;
    while ((int64_t{1} << bits) < 2 * n) ++bits;
    shift_ = 64 - bits;
    filter_shift_ = shift_ - kFilterBitsPerSlotLog2;
    mask_ = (size_t{1} << bits) - 1;
    slots_.resize(mask_ + 1);
    filter_.resize(((mask_ + 1) << kFilterBitsPerSlotLog2) / 64);
    // Inserting in reverse and prepending leaves each chain in build order.
    for (int64_t i = n - 1; i >= 0; --i) {
      const int64_t key = keys.at(i);
      const uint64_t hash = Hash(key);
      const uint64_t bit = hash >> filter_shift_;
      filter_[bit / 64] |= uint64_t{1} << (bit % 64);
      size_t s = static_cast<size_t>(hash >> shift_);
      while (slots_[s].head >= 0 && slots_[s].key != key) s = (s + 1) & mask_;
      Slot& slot = slots_[s];
      slot.key = key;
      next_[static_cast<size_t>(i)] = slot.head;
      slot.head = i;
      ++slot.count;
    }
  }

  /// The slot holding `key`, or null when no build tuple has it. A filter
  /// miss is laid out as the fall-through path, so a probe loop takes one
  /// branch per miss: its back edge.
  const Slot* Find(int64_t key) const {
    const uint64_t hash = Hash(key);
    const uint64_t bit = hash >> filter_shift_;
    if (((filter_[bit / 64] >> (bit % 64)) & 1) == 0) [[likely]] {
      return nullptr;
    }
    for (size_t s = static_cast<size_t>(hash >> shift_);; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.head < 0) return nullptr;
      if (slot.key == key) return &slot;
    }
  }

  /// The build tuple after `tuple` in its chain, or -1.
  int64_t next(int64_t tuple) const {
    return next_[static_cast<size_t>(tuple)];
  }

 private:
  /// 32 filter bits per slot: 64-128 bits per build key, so about 1% of
  /// the probes that miss still walk the slots. Fewer bits cost more slot
  /// walks (DESIGN.md §17 has the sweep).
  static constexpr int kFilterBitsPerSlotLog2 = 5;

  static uint64_t Hash(int64_t key) {
    // Fibonacci hashing: key * 2^64/phi, whose top bits pick the home slot
    // and, with 5 more, the filter bit.
    return static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
  }

  std::vector<Slot> slots_;
  std::vector<uint64_t> filter_;
  std::vector<int64_t> next_;
  int shift_ = 60;
  int filter_shift_ = 55;
  size_t mask_ = 15;
};

}  // namespace

/// `rows[k][i]` is the row of `tables[k]` bound in tuple i. Columns keep
/// binding order (a join lists its probe/outer columns before its
/// build/inner ones), and lookups by table read the first column bound to
/// it. A counting root reports `size` and leaves `rows` empty.
struct Executor::Relation {
  std::vector<TableId> tables;
  std::vector<std::vector<RowId>> rows;
  int64_t size = 0;

  /// A one-table relation over `rows`.
  static Relation Of(TableId table, std::vector<RowId> rows) {
    Relation out;
    out.tables = {table};
    out.size = static_cast<int64_t>(rows.size());
    out.rows.push_back(std::move(rows));
    return out;
  }

  /// An empty relation binding `first`'s tables, then `second`'s.
  static Relation Concat(const std::vector<TableId>& first,
                         const std::vector<TableId>& second) {
    Relation out;
    out.tables = first;
    out.tables.insert(out.tables.end(), second.begin(), second.end());
    out.rows.resize(out.tables.size());
    return out;
  }

  /// Index of the first column bound to `table`, or -1.
  int ColumnOf(TableId table) const {
    for (size_t k = 0; k < tables.size(); ++k) {
      if (tables[k] == table) return static_cast<int>(k);
    }
    return -1;
  }

  /// This relation's values of `j`'s join column: the predicate's left
  /// column when the relation binds that table, else its right column.
  Result<KeyColumn> JoinKeys(const Database& db,
                             const JoinPredicate& j) const {
    for (const ColumnRef& col : {j.left, j.right}) {
      const int k = ColumnOf(col.table);
      if (k >= 0) {
        return KeyColumn{db.data(col.table).column(col.column).data(),
                         rows[static_cast<size_t>(k)].data()};
      }
    }
    return Status::Internal("hash join input missing join binding");
  }

  /// Appends tuple `i` of `src` to the columns from `first` on (the caller
  /// completes the tuple and bumps `size`).
  void AppendFrom(const Relation& src, int64_t i, size_t first) {
    for (size_t k = 0; k < src.rows.size(); ++k) {
      rows[first + k].push_back(src.rows[k][static_cast<size_t>(i)]);
    }
  }
};

/// Records one operator's exclusive time: the wall time of its scope minus
/// the inclusive time of the operators nested in it, each of which charges
/// its own inclusive time to this one on exit.
class Executor::OperatorTimer {
 public:
  OperatorTimer(Executor* executor, Histogram* hist)
      : executor_(executor), parent_(executor->running_op_) {
    executor_->running_op_ = this;
    if (executor_->registry_->enabled()) {
      hist_ = hist;
      start_ = WallTimer::Now();
    }
  }
  OperatorTimer(const OperatorTimer&) = delete;
  OperatorTimer& operator=(const OperatorTimer&) = delete;

  ~OperatorTimer() {
    executor_->running_op_ = parent_;
    if (hist_ == nullptr) return;
    const double elapsed = WallTimer::Now() - start_;
    hist_->Record(elapsed - children_seconds_);
    if (parent_ != nullptr) parent_->children_seconds_ += elapsed;
  }

 private:
  Executor* executor_;
  OperatorTimer* parent_;
  Histogram* hist_ = nullptr;  // null = not timing
  double start_ = 0.0;
  double children_seconds_ = 0.0;
};

Executor::Executor(const Database* db, MetricsRegistry* registry) : db_(db) {
  MetricsRegistry& reg =
      registry != nullptr ? *registry : MetricsRegistry::Default();
  registry_ = &reg;
  static constexpr const char* kOpNames[kNumOperators] = {
      "exec.seq_scan.seconds",      "exec.index_scan.seconds",
      "exec.bitmap_scan.seconds",   "exec.nest_loop_join.seconds",
      "exec.index_nl_join.seconds", "exec.hash_join.seconds",
  };
  for (size_t i = 0; i < kNumOperators; ++i) {
    op_seconds_[i] = reg.GetHistogram(kOpNames[i]);
  }
  op_invocations_ = reg.GetCounter("exec.operator.invocations");
  execute_seconds_ = reg.GetHistogram("exec.execute.seconds");
}

Status Executor::OrderThroughBitmap(TableId table, std::vector<RowId>* rows) {
  if (rows->empty()) return Status::OK();
  const auto [min_it, max_it] = std::minmax_element(rows->begin(), rows->end());
  const RowId lo = *min_it;
  const RowId hi = *max_it;
  const int64_t row_count = db_->data(table).row_count();
  if (lo < 0 || hi >= row_count) {
    return Status::Internal("bitmap scan: TID outside its table");
  }
  const size_t words = static_cast<size_t>((row_count + 63) / 64);
  if (tid_bitmap_.size() < words) tid_bitmap_.resize(words);
  uint64_t* bits = tid_bitmap_.data();
  for (const RowId r : *rows) {
    const uint64_t tid = static_cast<uint64_t>(r);
    bits[tid / 64] |= uint64_t{1} << (tid % 64);
  }
  // Read the set bits back in ascending order, clearing each word: the
  // words between the lowest and the highest TID are the only ones set.
  // A repeated TID sets one bit, so fewer TIDs come back than went in.
  size_t n = 0;
  for (size_t w = static_cast<size_t>(lo / 64);
       w <= static_cast<size_t>(hi / 64); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      (*rows)[n++] = static_cast<RowId>(w * 64) + std::countr_zero(word);
    }
    bits[w] = 0;
  }
  if (n != rows->size()) return Status::Internal("bitmap scan: repeated TID");
  return Status::OK();
}

int64_t Executor::DistinctHeapPages(TableId table,
                                    const std::vector<RowId>& rows) {
  const int64_t per_page = TuplesPerPage(db_->catalog().table(table));
  const std::vector<RowId>* sorted = &rows;
  if (!std::is_sorted(rows.begin(), rows.end())) {
    page_scratch_.assign(rows.begin(), rows.end());
    std::sort(page_scratch_.begin(), page_scratch_.end());
    sorted = &page_scratch_;
  }
  // Sorted rows put each page's rows next to each other.
  int64_t pages = 0;
  int64_t last_page = -1;
  for (const RowId r : *sorted) {
    const int64_t page = r / per_page;
    if (page != last_page) {
      ++pages;
      last_page = page;
    }
  }
  return pages;
}

std::vector<RowId> Executor::ScanTable(
    TableId table, const std::vector<SelectionPredicate>& preds,
    ExecutionResult* acc) const {
  const TableData& data = db_->data(table);
  acc->pages_seq += db_->catalog().table(table).heap_pages();
  acc->tuples_processed += data.live_row_count();
  std::vector<RowId> rows;
  const int64_t n = data.row_count();
  if (preds.empty()) {
    rows.reserve(static_cast<size_t>(data.live_row_count()));
    for (RowId r = 0; r < n; ++r) {
      if (data.live(r)) rows.push_back(r);
    }
    return rows;
  }
  // The first predicate sweeps its column array; liveness is checked only
  // on a match, since most rows fail the range test.
  const SelectionPredicate& first = preds.front();
  if (first.lo > first.hi) return rows;
  const RangeTest in_range(first);
  const int64_t* values = data.column(first.column.column).data();
  for (RowId r = 0; r < n; ++r) {
    if (in_range(values[r]) && data.live(r)) rows.push_back(r);
  }
  FilterRows(data, std::span(preds).subspan(1), &rows);
  return rows;
}

Result<Executor::Relation> Executor::Run(const PlanNode& node,
                                         bool count_only,
                                         ExecutionResult* acc) {
  op_invocations_->Increment();
  OperatorTimer op_timer(this, op_seconds_[static_cast<size_t>(node.type)]);
  switch (node.type) {
    case PlanNodeType::kSeqScan: {
      if (!db_->HasData(node.table)) {
        return Status::FailedPrecondition("table not materialized");
      }
      return Relation::Of(node.table,
                          ScanTable(node.table, node.filter_predicates, acc));
    }
    case PlanNodeType::kIndexScan:
    case PlanNodeType::kBitmapScan: {
      const BTreeIndex* index = snapshot_->Find(node.index_id);
      if (index == nullptr) {
        return Status::FailedPrecondition("index not built: " +
                                          std::to_string(node.index_id));
      }
      std::vector<RowId> rows;
      const int64_t leaves = index->RangeScan(
          node.index_predicate.lo, node.index_predicate.hi, &rows);
      acc->pages_index += leaves + index->height();
      if (node.type == PlanNodeType::kBitmapScan) {
        // The bitmap step: visit the heap in physical order, each page
        // once.
        COLT_RETURN_IF_ERROR(OrderThroughBitmap(node.table, &rows));
        acc->pages_bitmap += DistinctHeapPages(node.table, rows);
      } else {
        acc->pages_random += DistinctHeapPages(node.table, rows);
      }
      acc->tuples_processed += static_cast<int64_t>(rows.size());
      if (!node.filter_predicates.empty()) {
        FilterRows(db_->data(node.table), node.filter_predicates, &rows);
      }
      return Relation::Of(node.table, std::move(rows));
    }
    case PlanNodeType::kHashJoin:
      return HashJoin(node, count_only, acc);
    case PlanNodeType::kNestLoopJoin: {
      COLT_ASSIGN_OR_RETURN(Relation outer, Run(*node.left, false, acc));
      COLT_ASSIGN_OR_RETURN(Relation inner, Run(*node.right, false, acc));
      acc->tuples_processed += outer.size * inner.size;
      Relation out = Relation::Concat(outer.tables, inner.tables);
      // Each side of the predicate reads the outer tuple when it binds
      // that side's table, else the inner tuple; a side that neither binds
      // never matches.
      struct Side {
        KeyColumn keys;
        bool outer;
      };
      auto side_of = [&](const ColumnRef& col) -> std::optional<Side> {
        for (const Relation* rel : {&outer, &inner}) {
          const int k = rel->ColumnOf(col.table);
          if (k >= 0) {
            return Side{{db_->data(col.table).column(col.column).data(),
                         rel->rows[static_cast<size_t>(k)].data()},
                        rel == &outer};
          }
        }
        return std::nullopt;
      };
      const std::optional<Side> l = side_of(node.join_predicate.left);
      const std::optional<Side> r = side_of(node.join_predicate.right);
      if (!l.has_value() || !r.has_value()) return out;
      for (int64_t o = 0; o < outer.size; ++o) {
        for (int64_t i = 0; i < inner.size; ++i) {
          if (l->keys.at(l->outer ? o : i) != r->keys.at(r->outer ? o : i)) {
            continue;
          }
          out.AppendFrom(outer, o, 0);
          out.AppendFrom(inner, i, outer.tables.size());
          ++out.size;
        }
      }
      return out;
    }
    case PlanNodeType::kIndexNLJoin: {
      COLT_ASSIGN_OR_RETURN(Relation outer, Run(*node.left, false, acc));
      const BTreeIndex* index = snapshot_->Find(node.index_id);
      if (index == nullptr) {
        return Status::FailedPrecondition("probe index not built: " +
                                          std::to_string(node.index_id));
      }
      Relation out = Relation::Concat(outer.tables, {node.table});
      if (outer.size == 0) return out;
      // Which side of the join predicate is the inner (probed) table?
      const JoinPredicate& j = node.join_predicate;
      const ColumnRef outer_col = j.left.table == node.table ? j.right : j.left;
      const int k = outer.ColumnOf(outer_col.table);
      if (k < 0) return Status::Internal("outer row missing join binding");
      const KeyColumn keys{
          db_->data(outer_col.table).column(outer_col.column).data(),
          outer.rows[static_cast<size_t>(k)].data()};
      const TableData* inner =
          node.filter_predicates.empty() ? nullptr : &db_->data(node.table);
      std::vector<RowId> matches;
      for (int64_t o = 0; o < outer.size; ++o) {
        matches.clear();
        const int64_t leaves = index->Lookup(keys.at(o), &matches);
        acc->pages_index += leaves + index->height();
        acc->pages_random += DistinctHeapPages(node.table, matches);
        acc->tuples_processed += static_cast<int64_t>(matches.size());
        if (inner != nullptr) {
          FilterRows(*inner, node.filter_predicates, &matches);
        }
        for (const RowId r : matches) {
          out.AppendFrom(outer, o, 0);
          out.rows.back().push_back(r);
          ++out.size;
        }
      }
      return out;
    }
  }
  return Status::Internal("unknown plan node type");
}

Result<Executor::Relation> Executor::HashJoin(const PlanNode& node,
                                              bool count_only,
                                              ExecutionResult* acc) {
  // At a counting root an unfiltered scan input waits, since its size is
  // live_row_count() before it runs. As the probe side it is then streamed
  // through the probe; as the build side it runs after the other input.
  // Either way the left input runs, or reports its error, first.
  const PlanNode* inputs[2] = {node.left.get(), node.right.get()};
  std::optional<int64_t> waiting[2];
  Relation in[2];
  for (size_t s = 0; s < 2; ++s) {
    const PlanNode& input = *inputs[s];
    if (count_only && input.type == PlanNodeType::kSeqScan &&
        input.filter_predicates.empty() && db_->HasData(input.table)) {
      waiting[s] = db_->data(input.table).live_row_count();
    } else {
      COLT_ASSIGN_OR_RETURN(in[s], Run(input, false, acc));
    }
  }
  // Build on the smaller side.
  const size_t build_side =
      waiting[0].value_or(in[0].size) <= waiting[1].value_or(in[1].size) ? 0
                                                                        : 1;
  const size_t probe_side = 1 - build_side;
  if (waiting[build_side].has_value()) {
    COLT_ASSIGN_OR_RETURN(in[build_side],
                          Run(*inputs[build_side], false, acc));
  }
  const Relation& build = in[build_side];
  if (waiting[probe_side].has_value()) {
    return CountStreamedProbe(node, *inputs[probe_side], build, acc);
  }
  const Relation& probe = in[probe_side];
  acc->tuples_processed += build.size + probe.size;
  Relation out = Relation::Concat(probe.tables, build.tables);
  if (build.size == 0 || probe.size == 0) return out;
  const JoinPredicate& j = node.join_predicate;
  COLT_ASSIGN_OR_RETURN(const KeyColumn build_keys, build.JoinKeys(*db_, j));
  COLT_ASSIGN_OR_RETURN(const KeyColumn probe_keys, probe.JoinKeys(*db_, j));
  const JoinHashTable table(build_keys, build.size);
  if (count_only) {
    for (int64_t i = 0; i < probe.size; ++i) {
      const JoinHashTable::Slot* slot = table.Find(probe_keys.at(i));
      if (slot != nullptr) out.size += slot->count;
    }
    return out;
  }
  for (int64_t i = 0; i < probe.size; ++i) {
    const JoinHashTable::Slot* slot = table.Find(probe_keys.at(i));
    if (slot == nullptr) continue;
    for (int64_t b = slot->head; b >= 0; b = table.next(b)) {
      out.AppendFrom(probe, i, 0);
      out.AppendFrom(build, b, probe.tables.size());
      ++out.size;
    }
  }
  return out;
}

Result<Executor::Relation> Executor::CountStreamedProbe(
    const PlanNode& join, const PlanNode& scan, const Relation& build,
    ExecutionResult* acc) {
  const TableData& data = db_->data(scan.table);
  const int64_t live_rows = data.live_row_count();
  {
    // The scan node: what ScanTable charges, one invocation and one
    // sample of its own time. The loop below is the join's time.
    op_invocations_->Increment();
    OperatorTimer scan_timer(
        this, op_seconds_[static_cast<size_t>(PlanNodeType::kSeqScan)]);
    acc->pages_seq += db_->catalog().table(scan.table).heap_pages();
    acc->tuples_processed += live_rows;
  }
  acc->tuples_processed += build.size + live_rows;
  Relation out = Relation::Concat({scan.table}, build.tables);
  if (build.size == 0 || live_rows == 0) return out;
  // The scan binds one table, so its key is the predicate's column on it.
  const JoinPredicate& j = join.join_predicate;
  COLT_ASSIGN_OR_RETURN(const KeyColumn build_keys, build.JoinKeys(*db_, j));
  const ColumnRef* probe_col = j.left.table == scan.table    ? &j.left
                               : j.right.table == scan.table ? &j.right
                                                             : nullptr;
  if (probe_col == nullptr) {
    return Status::Internal("hash join input missing join binding");
  }
  const JoinHashTable table(build_keys, build.size);
  const int64_t* values = data.column(probe_col->column).data();
  // Liveness is checked only on a match, since most rows miss.
  int64_t matches = 0;
  for (RowId r = 0, n = data.row_count(); r < n; ++r) {
    const JoinHashTable::Slot* slot = table.Find(values[r]);
    if (slot != nullptr && data.live(r)) matches += slot->count;
  }
  out.size = matches;
  return out;
}

Result<ExecutionResult> Executor::Execute(const PlanNode& plan) {
  // Pin the epoch, then capture the snapshot: every tree the plan touches
  // stays alive for the whole query even if the owner drops it mid-flight.
  EpochGuard guard;
  return ExecuteWithSnapshot(plan, db_->index_snapshot());
}

Result<ExecutionResult> Executor::ExecuteWithSnapshot(
    const PlanNode& plan, const Database::IndexSnapshot* snapshot) {
  ScopedTimer timer(execute_seconds_);
  snapshot_ = snapshot;
  ExecutionResult acc;
  COLT_ASSIGN_OR_RETURN(const Relation result,
                        Run(plan, /*count_only=*/true, &acc));
  acc.output_rows = result.size;
  snapshot_ = nullptr;
  return acc;
}

Result<ExecutionResult> Executor::ExecuteWrite(Database* db, const Query& q,
                                               const PlanNode* locate_plan) {
  if (db != db_) {
    return Status::InvalidArgument(
        "ExecuteWrite requires the executor's own database");
  }
  if (!q.is_write()) {
    return Status::InvalidArgument("ExecuteWrite requires a write statement");
  }
  const TableId table = q.write_table();
  if (!db_->HasData(table)) {
    return Status::FailedPrecondition("table not materialized");
  }
  ScopedTimer timer(execute_seconds_);
  EpochGuard guard;
  snapshot_ = db_->index_snapshot();
  ExecutionResult acc;

  // Locate the affected rows (UPDATE/DELETE): run the optimizer's access
  // path when provided so read-side accounting matches the plan, else fall
  // back to a sequential scan over live rows.
  std::vector<RowId> matched;
  if (q.kind() != StatementKind::kInsert) {
    if (locate_plan != nullptr) {
      Result<Relation> located = Run(*locate_plan, /*count_only=*/false, &acc);
      if (!located.ok()) {
        snapshot_ = nullptr;
        return located.status();
      }
      // A plan that never binds the target table locates no row of it.
      const int k = located->ColumnOf(table);
      if (k >= 0) matched = std::move(located->rows[static_cast<size_t>(k)]);
    } else {
      matched = ScanTable(table, q.selections(), &acc);
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
      sets.reserve(q.set_clauses().size());
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

}  // namespace colt
