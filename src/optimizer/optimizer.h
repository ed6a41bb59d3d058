#ifndef COLT_OPTIMIZER_OPTIMIZER_H_
#define COLT_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "optimizer/cost_model.h"
#include "optimizer/plan.h"
#include "query/query.h"

namespace colt {

/// A fully optimized query: the chosen physical plan and its estimated cost.
struct PlanResult {
  double cost = 0.0;
  double rows = 0.0;
  /// For write statements: the portion of `cost` spent keeping the
  /// configuration's indexes on the target table fresh (B+-tree entry
  /// inserts/erases; DESIGN.md §16). Always 0 for SELECT. `cost` includes
  /// this component, so what-if gain differences automatically go negative
  /// for indexes that a write must maintain.
  double maintenance_cost = 0.0;
  /// Null for INSERT (a pure append has no access path); for UPDATE/DELETE
  /// this is the scan locating the affected rows.
  std::unique_ptr<PlanNode> plan;

  /// Index ids used anywhere in the plan.
  std::vector<IndexId> UsedIndexes() const {
    std::vector<IndexId> out;
    if (plan) plan->CollectUsedIndexes(&out);
    return out;
  }
};

/// One entry of a what-if answer: the execution-cost saving attributable to
/// index `index` under the paper's definition
/// QueryGain(q, I) = QueryCost(q, M - {I}) - QueryCost(q, M + {I}).
struct IndexGain {
  IndexId index = kInvalidIndexId;
  double gain = 0.0;
};

/// The Extended Query Optimizer (paper §3): a Selinger-style cost-based
/// optimizer over the catalog statistics, extended with the what-if
/// interface WHATIFOPTIMIZE(q, P).
///
/// Planning: best access path per table (sequential scan vs. any available
/// single-column index matching a selection), then left-deep dynamic
/// programming over join orders considering nested-loop, index nested-loop,
/// and hash joins.
class QueryOptimizer {
 public:
  explicit QueryOptimizer(const Catalog* catalog, CostParams params = {});

  /// Optimizes `q` assuming exactly the indexes in `config` exist.
  PlanResult Optimize(const Query& q, const IndexConfiguration& config);

  /// What-if interface. For each index I in `probation`, returns the change
  /// in optimal execution cost of `q` between the configurations
  /// `materialized - {I}` and `materialized + {I}` (so: the savings I is
  /// responsible for, whether or not I is currently materialized).
  /// Each probed index counts once in `optimizer.whatif.probes`.
  std::vector<IndexGain> WhatIfOptimize(
      const Query& q, const IndexConfiguration& materialized,
      const std::vector<IndexId>& probation);

  /// Crude, optimistic single-predicate gain Δcost(R, σ, I): sequential
  /// scan cost minus index-scan cost for evaluating σ via I, from standard
  /// formulas only (no plan search). Used for BenefitC (paper §4.1).
  double CrudeGain(const SelectionPredicate& pred,
                   const IndexDescriptor& index) const;

  /// Multi-column extension: crude gain of (possibly composite) `index`
  /// for a query's predicate set on the index's table, under the B+-tree
  /// prefix rule.
  double CompositeCrudeGain(const std::vector<SelectionPredicate>& table_preds,
                            const IndexDescriptor& index) const;

  /// Indexes in `config` that could possibly affect `q`'s plan (on a
  /// selection or join column of `q`).
  std::vector<IndexId> RelevantIndexes(const Query& q,
                                       const IndexConfiguration& config) const;

  const CostModel& cost_model() const { return cost_model_; }
  const Catalog& catalog() const { return *catalog_; }

 private:
  struct AccessPath {
    double cost = 0.0;
    double rows = 0.0;
    IndexId index_id = kInvalidIndexId;  // kInvalid => seq scan
    SelectionPredicate index_predicate;
    /// kSeqScan, kIndexScan, or kBitmapScan.
    PlanNodeType scan_type = PlanNodeType::kSeqScan;
  };

  AccessPath BestAccessPath(const Query& q, TableId table,
                            const IndexConfiguration& config) const;

  PlanResult OptimizeInternal(const Query& q,
                              const IndexConfiguration& config) const;

  /// Plans an INSERT/UPDATE/DELETE: locate cost (UPDATE/DELETE reuse
  /// BestAccessPath over the WHERE clause), heap write cost, and the
  /// per-index maintenance cost for every config index the statement must
  /// keep fresh (DESIGN.md §16).
  PlanResult OptimizeWrite(const Query& q,
                           const IndexConfiguration& config) const;

  /// Join selectivity of the predicate set connecting `t` to tables in
  /// `mask`; also reports one usable equi-join predicate for index-NLJ.
  double JoinSelectivity(const Query& q, uint32_t mask, TableId t,
                         const std::vector<TableId>& tables,
                         std::vector<JoinPredicate>* connecting) const;

  double CombinedSelectivity(const Query& q, TableId table) const;

  std::unique_ptr<PlanNode> MakeScanNode(const Query& q, TableId table,
                                         const AccessPath& path) const;

  const Catalog* catalog_;
  CostModel cost_model_;

  /// Instrument pointers fetched once from MetricsRegistry::Default();
  /// updates are no-ops until the registry is enabled.
  struct Instruments {
    Counter* optimize_calls;
    Counter* whatif_calls;
    Counter* whatif_probes;
    Histogram* plan_seconds;
    Histogram* whatif_seconds;
  };
  Instruments metrics_;
};

}  // namespace colt

#endif  // COLT_OPTIMIZER_OPTIMIZER_H_
