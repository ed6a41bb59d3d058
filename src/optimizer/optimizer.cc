#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace colt {

QueryOptimizer::QueryOptimizer(const Catalog* catalog, CostParams params)
    : catalog_(catalog), cost_model_(params) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  metrics_.optimize_calls = reg.GetCounter("optimizer.optimize.calls");
  metrics_.whatif_calls = reg.GetCounter("optimizer.whatif.calls");
  metrics_.whatif_probes = reg.GetCounter("optimizer.whatif.probes");
  metrics_.plan_seconds = reg.GetHistogram("optimizer.plan.seconds");
  metrics_.whatif_seconds = reg.GetHistogram("optimizer.whatif.seconds");
}

double QueryOptimizer::CombinedSelectivity(const Query& q,
                                           TableId table) const {
  double s = 1.0;
  for (const auto& pred : q.selections()) {
    if (pred.column.table == table) {
      s *= EstimateSelectivity(*catalog_, pred);
    }
  }
  return s;
}

QueryOptimizer::AccessPath QueryOptimizer::BestAccessPath(
    const Query& q, TableId table, const IndexConfiguration& config) const {
  const TableSchema& schema = catalog_->table(table);
  const auto selections = q.SelectionsOn(table);
  const double combined_sel = CombinedSelectivity(q, table);

  AccessPath best;
  {
    const CostEstimate est = cost_model_.SeqScan(
        schema, static_cast<int>(selections.size()), combined_sel);
    best.cost = est.cost;
    best.rows = est.rows;
    best.index_id = kInvalidIndexId;
  }
  // Try every available index whose key prefix matches this table's
  // selections. For a composite index on (a, b, ...) the usable prefix is
  // a run of equality predicates optionally terminated by one range
  // predicate (standard B+-tree prefix rule); single-column indexes are
  // the one-column special case.
  for (IndexId id : config.ids()) {
    const IndexDescriptor& desc = catalog_->index(id);
    if (desc.column.table != table) continue;
    double driving_sel = 1.0;
    int consumed = 0;
    const SelectionPredicate* leading = nullptr;
    for (const ColumnRef& col : desc.columns) {
      const SelectionPredicate* match = nullptr;
      for (const auto& pred : selections) {
        if (pred.column == col) {
          match = &pred;
          break;
        }
      }
      if (match == nullptr) break;
      driving_sel *= EstimateSelectivity(*catalog_, *match);
      if (leading == nullptr) leading = match;
      ++consumed;
      if (!match->is_equality()) break;  // a range ends the usable prefix
    }
    if (consumed == 0) continue;
    const int residual = static_cast<int>(selections.size()) - consumed;
    CostEstimate plain =
        cost_model_.IndexScan(schema, desc, driving_sel, residual);
    CostEstimate bitmap =
        cost_model_.BitmapScan(schema, desc, driving_sel, residual);
    const bool use_bitmap = bitmap.cost < plain.cost;
    CostEstimate est = use_bitmap ? bitmap : plain;
    est.rows =
        std::max(1.0, static_cast<double>(schema.row_count()) * combined_sel);
    if (est.cost < best.cost) {
      best.cost = est.cost;
      best.rows = est.rows;
      best.index_id = id;
      best.index_predicate = *leading;
      best.scan_type = use_bitmap ? PlanNodeType::kBitmapScan
                                  : PlanNodeType::kIndexScan;
    }
  }
  return best;
}

std::unique_ptr<PlanNode> QueryOptimizer::MakeScanNode(
    const Query& q, TableId table, const AccessPath& path) const {
  auto node = std::make_unique<PlanNode>();
  node->table = table;
  node->cost = path.cost;
  node->rows = path.rows;
  if (path.index_id == kInvalidIndexId) {
    node->type = PlanNodeType::kSeqScan;
    node->filter_predicates = q.SelectionsOn(table);
  } else {
    node->type = path.scan_type;
    node->index_id = path.index_id;
    node->index_predicate = path.index_predicate;
    for (const auto& pred : q.SelectionsOn(table)) {
      if (!(pred == path.index_predicate)) {
        node->filter_predicates.push_back(pred);
      }
    }
  }
  return node;
}

double QueryOptimizer::JoinSelectivity(
    const Query& q, uint32_t mask, TableId t,
    const std::vector<TableId>& tables,
    std::vector<JoinPredicate>* connecting) const {
  auto in_mask = [&](TableId table) {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (tables[i] == table) return (mask & (1u << i)) != 0;
    }
    return false;
  };
  double sel = 1.0;
  for (const auto& j : q.joins()) {
    const bool left_in = in_mask(j.left.table);
    const bool right_in = in_mask(j.right.table);
    const bool left_t = j.left.table == t;
    const bool right_t = j.right.table == t;
    if ((left_in && right_t) || (right_in && left_t)) {
      const int64_t ndv_l = catalog_->table(j.left.table)
                                .column_stats(j.left.column)
                                .ndv();
      const int64_t ndv_r = catalog_->table(j.right.table)
                                .column_stats(j.right.column)
                                .ndv();
      sel /= static_cast<double>(std::max<int64_t>(1, std::max(ndv_l, ndv_r)));
      if (connecting != nullptr) connecting->push_back(j);
    }
  }
  return sel;
}

PlanResult QueryOptimizer::OptimizeWrite(
    const Query& q, const IndexConfiguration& config) const {
  const TableId table = q.write_table();
  const TableSchema& schema = catalog_->table(table);
  PlanResult result;

  // Locate + heap phases.
  double affected = 0.0;
  if (q.kind() == StatementKind::kInsert) {
    affected = static_cast<double>(q.insert_rows());
    const CostEstimate heap = cost_model_.HeapAppend(schema, affected);
    result.cost = heap.cost;
  } else {
    const AccessPath locate = BestAccessPath(q, table, config);
    affected = locate.rows;
    const CostEstimate heap = cost_model_.HeapWriteBack(schema, affected);
    result.cost = locate.cost + heap.cost;
    result.plan = MakeScanNode(q, table, locate);
  }
  result.rows = affected;

  // Index maintenance: every config index on the target table that the
  // statement dirties. An UPDATE maintains only indexes over a SET column
  // and pays erase + insert per row; INSERT/DELETE maintain every index.
  for (IndexId id : config.ids()) {
    const IndexDescriptor& desc = catalog_->index(id);
    if (desc.column.table != table) continue;
    double entries = affected;
    if (q.kind() == StatementKind::kUpdate) {
      bool touches = false;
      for (const ColumnRef& col : desc.columns) {
        for (const SetClause& s : q.set_clauses()) {
          if (s.column == col.column) touches = true;
        }
      }
      if (!touches) continue;
      entries = affected * 2.0;
    }
    result.maintenance_cost +=
        cost_model_.IndexMaintenanceCost(schema, desc, entries);
  }
  result.cost += result.maintenance_cost;
  return result;
}

PlanResult QueryOptimizer::OptimizeInternal(
    const Query& q, const IndexConfiguration& config) const {
  if (q.is_write()) return OptimizeWrite(q, config);
  const auto& tables = q.tables();
  const size_t n = tables.size();
  COLT_CHECK(n >= 1 && n <= kMaxQueryTables)
      << "unsupported table count " << n;

  // Leaf access paths.
  std::vector<AccessPath> leaf(n);
  for (size_t i = 0; i < n; ++i) {
    leaf[i] = BestAccessPath(q, tables[i], config);
  }

  if (n == 1) {
    PlanResult result;
    result.plan = MakeScanNode(q, tables[0], leaf[0]);
    result.cost = leaf[0].cost;
    result.rows = leaf[0].rows;
    return result;
  }

  // Left-deep DP over table subsets.
  struct Entry {
    double cost = 0.0;
    double rows = 0.0;
    std::unique_ptr<PlanNode> plan;
    bool valid = false;
  };
  const uint32_t full = (1u << n) - 1;
  std::vector<Entry> dp(full + 1);
  for (size_t i = 0; i < n; ++i) {
    Entry& e = dp[1u << i];
    e.cost = leaf[i].cost;
    e.rows = leaf[i].rows;
    e.plan = MakeScanNode(q, tables[i], leaf[i]);
    e.valid = true;
  }

  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (!dp[mask].valid) continue;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t bit = 1u << i;
      if (mask & bit) continue;
      std::vector<JoinPredicate> connecting;
      const double join_sel =
          JoinSelectivity(q, mask, tables[i], tables, &connecting);
      const bool connected = !connecting.empty();
      // Disallow cross products unless the join graph is disconnected and
      // this is the only way forward; handled by a fallback pass below.
      if (!connected) continue;

      const CostEstimate outer{dp[mask].cost, dp[mask].rows};
      const CostEstimate inner{leaf[i].cost, leaf[i].rows};
      const TableSchema& inner_schema = catalog_->table(tables[i]);
      const double inner_filter_sel = CombinedSelectivity(q, tables[i]);

      struct Candidate {
        CostEstimate est;
        PlanNodeType type;
        IndexId probe_index = kInvalidIndexId;
        JoinPredicate pred;
      };
      std::vector<Candidate> candidates;
      candidates.push_back(
          {cost_model_.HashJoin(outer, inner, join_sel),
           PlanNodeType::kHashJoin, kInvalidIndexId, connecting.front()});
      candidates.push_back(
          {cost_model_.NestLoopJoin(outer, inner, join_sel),
           PlanNodeType::kNestLoopJoin, kInvalidIndexId, connecting.front()});
      // Index nested-loop: probe an index on the inner join column.
      for (const auto& j : connecting) {
        const ColumnRef inner_col =
            (j.left.table == tables[i]) ? j.left : j.right;
        for (IndexId id : config.ids()) {
          const IndexDescriptor& desc = catalog_->index(id);
          if (desc.column != inner_col) continue;
          const int64_t ndv =
              std::max<int64_t>(1, inner_schema.column_stats(inner_col.column)
                                       .ndv());
          CostEstimate probe = cost_model_.IndexProbe(
              inner_schema, desc, 1.0 / static_cast<double>(ndv));
          // Residual selections on the inner table filter probe output.
          probe.cost += probe.rows *
                        static_cast<double>(q.SelectionsOn(tables[i]).size()) *
                        cost_model_.params().cpu_operator_cost;
          CostEstimate est;
          est.cost = outer.cost + outer.rows * probe.cost;
          est.rows = std::max(
              1.0, outer.rows * static_cast<double>(inner_schema.row_count()) *
                       inner_filter_sel * join_sel);
          candidates.push_back({est, PlanNodeType::kIndexNLJoin, id, j});
        }
      }

      for (auto& c : candidates) {
        Entry& target = dp[mask | bit];
        if (target.valid && target.cost <= c.est.cost) continue;
        auto node = std::make_unique<PlanNode>();
        node->type = c.type;
        node->cost = c.est.cost;
        node->rows = c.est.rows;
        node->join_predicate = c.pred;
        node->left = dp[mask].plan->Clone();
        if (c.type == PlanNodeType::kIndexNLJoin) {
          node->table = tables[i];
          node->index_id = c.probe_index;
          node->filter_predicates = q.SelectionsOn(tables[i]);
        } else {
          node->right = MakeScanNode(q, tables[i], leaf[i]);
        }
        target.cost = c.est.cost;
        target.rows = c.est.rows;
        target.plan = std::move(node);
        target.valid = true;
      }
    }
  }

  // Fallback for disconnected join graphs: greedily cross-join remaining
  // components with hash joins (rare in our workloads, but keeps the
  // optimizer total).
  if (!dp[full].valid) {
    // Find the largest valid mask and extend it by cross products.
    uint32_t best_mask = 0;
    for (uint32_t mask = 1; mask <= full; ++mask) {
      if (dp[mask].valid &&
          __builtin_popcount(mask) > __builtin_popcount(best_mask)) {
        best_mask = mask;
      }
    }
    while (best_mask != full) {
      for (size_t i = 0; i < n; ++i) {
        const uint32_t bit = 1u << i;
        if (best_mask & bit) continue;
        const CostEstimate outer{dp[best_mask].cost, dp[best_mask].rows};
        const CostEstimate inner{leaf[i].cost, leaf[i].rows};
        std::vector<JoinPredicate> connecting;
        const double join_sel =
            JoinSelectivity(q, best_mask, tables[i], tables, &connecting);
        CostEstimate est = cost_model_.HashJoin(outer, inner, join_sel);
        auto node = std::make_unique<PlanNode>();
        node->type = PlanNodeType::kHashJoin;
        node->cost = est.cost;
        node->rows = est.rows;
        if (!connecting.empty()) node->join_predicate = connecting.front();
        node->left = std::move(dp[best_mask].plan);
        node->right = MakeScanNode(q, tables[i], leaf[i]);
        Entry& target = dp[best_mask | bit];
        target.cost = est.cost;
        target.rows = est.rows;
        target.plan = std::move(node);
        target.valid = true;
        best_mask |= bit;
        break;
      }
    }
  }

  PlanResult result;
  result.cost = dp[full].cost;
  result.rows = dp[full].rows;
  result.plan = std::move(dp[full].plan);
  return result;
}

PlanResult QueryOptimizer::Optimize(const Query& q,
                                    const IndexConfiguration& config) {
  metrics_.optimize_calls->Increment();
  ScopedTimer timer(metrics_.plan_seconds);
  return OptimizeInternal(q, config);
}

std::vector<IndexGain> QueryOptimizer::WhatIfOptimize(
    const Query& q, const IndexConfiguration& materialized,
    const std::vector<IndexId>& probation) {
  metrics_.optimize_calls->Increment();
  metrics_.whatif_calls->Increment();
  ScopedTimer timer(metrics_.whatif_seconds);
  const double base = OptimizeInternal(q, materialized).cost;
  std::vector<IndexGain> gains;
  gains.reserve(probation.size());
  for (IndexId id : probation) {
    metrics_.whatif_probes->Increment();
    IndexGain g;
    g.index = id;
    if (materialized.Contains(id)) {
      // Pretend the materialized index is unavailable; the gain is the
      // resulting increase in execution cost (paper §4.1, QueryGainM).
      g.gain = OptimizeInternal(q, materialized.Without(id)).cost - base;
    } else {
      g.gain = base - OptimizeInternal(q, materialized.With(id)).cost;
    }
    gains.push_back(g);
  }
  return gains;
}

double QueryOptimizer::CrudeGain(const SelectionPredicate& pred,
                                 const IndexDescriptor& index) const {
  if (pred.column != index.column) return 0.0;
  const TableSchema& schema = catalog_->table(pred.column.table);
  const double sel = EstimateSelectivity(*catalog_, pred);
  const double seq = cost_model_.SeqScan(schema, 1, sel).cost;
  const double idx =
      std::min(cost_model_.IndexScan(schema, index, sel, 0).cost,
               cost_model_.BitmapScan(schema, index, sel, 0).cost);
  return std::max(0.0, seq - idx);
}

double QueryOptimizer::CompositeCrudeGain(
    const std::vector<SelectionPredicate>& table_preds,
    const IndexDescriptor& index) const {
  if (table_preds.empty()) return 0.0;
  const TableSchema& schema =
      catalog_->table(table_preds.front().column.table);
  double combined = 1.0;
  for (const auto& pred : table_preds) {
    combined *= EstimateSelectivity(*catalog_, pred);
  }
  // Usable prefix selectivity under the B+-tree prefix rule.
  double driving = 1.0;
  int consumed = 0;
  for (const ColumnRef& col : index.columns) {
    const SelectionPredicate* match = nullptr;
    for (const auto& pred : table_preds) {
      if (pred.column == col) {
        match = &pred;
        break;
      }
    }
    if (match == nullptr) break;
    driving *= EstimateSelectivity(*catalog_, *match);
    ++consumed;
    if (!match->is_equality()) break;
  }
  if (consumed == 0) return 0.0;
  const double seq =
      cost_model_.SeqScan(schema, static_cast<int>(table_preds.size()),
                          combined)
          .cost;
  const int residual = static_cast<int>(table_preds.size()) - consumed;
  const double idx =
      std::min(cost_model_.IndexScan(schema, index, driving, residual).cost,
               cost_model_.BitmapScan(schema, index, driving, residual).cost);
  return std::max(0.0, seq - idx);
}

std::vector<IndexId> QueryOptimizer::RelevantIndexes(
    const Query& q, const IndexConfiguration& config) const {
  std::vector<IndexId> out;
  for (IndexId id : config.ids()) {
    const IndexDescriptor& desc = catalog_->index(id);
    bool relevant = false;
    for (const auto& s : q.selections()) {
      for (const ColumnRef& col : desc.columns) {
        if (s.column == col) relevant = true;
      }
    }
    for (const auto& j : q.joins()) {
      // Joins can only probe through the leading column.
      if (j.left == desc.column || j.right == desc.column) relevant = true;
    }
    // A write affects (negatively) every index it must maintain, whether
    // or not the WHERE clause could use it.
    if (q.is_write() && desc.column.table == q.write_table()) {
      if (q.kind() != StatementKind::kUpdate) {
        relevant = true;
      } else {
        for (const ColumnRef& col : desc.columns) {
          for (const SetClause& s : q.set_clauses()) {
            if (s.column == col.column) relevant = true;
          }
        }
      }
    }
    if (relevant) out.push_back(id);
  }
  return out;
}

}  // namespace colt
