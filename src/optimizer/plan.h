#ifndef COLT_OPTIMIZER_PLAN_H_
#define COLT_OPTIMIZER_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "query/predicate.h"

namespace colt {

/// Physical operator kinds produced by the optimizer.
enum class PlanNodeType {
  kSeqScan,
  kIndexScan,
  /// Bitmap heap scan: collect matching TIDs from the index, put them in
  /// physical order through a TID bitmap, then fetch heap pages in that
  /// order (each distinct page once, near-sequentially). The standard
  /// mid-selectivity access path.
  kBitmapScan,
  kNestLoopJoin,
  kIndexNLJoin,
  kHashJoin,
};

const char* PlanNodeTypeName(PlanNodeType type);

/// A node of a physical plan tree. Scans are leaves. For kIndexNLJoin the
/// inner side is a base-table index probe described inline (table /
/// index_id / join_predicate / filter_predicates) rather than a child node,
/// mirroring how executors drive repeated probes.
struct PlanNode {
  PlanNodeType type = PlanNodeType::kSeqScan;
  double cost = 0.0;
  double rows = 0.0;

  /// Scans and kIndexNLJoin inner: the base table.
  TableId table = kInvalidTableId;
  /// kIndexScan: the driving index; kIndexNLJoin: the probe index.
  IndexId index_id = kInvalidIndexId;
  /// kIndexScan: the predicate evaluated by the index itself.
  SelectionPredicate index_predicate;
  /// Scans and kIndexNLJoin inner: residual predicates applied per tuple.
  std::vector<SelectionPredicate> filter_predicates;
  /// Joins: the equi-join predicate.
  JoinPredicate join_predicate;

  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;

  /// Appends every index id used anywhere in the subtree.
  void CollectUsedIndexes(std::vector<IndexId>* out) const;

  /// Deep copy.
  std::unique_ptr<PlanNode> Clone() const;

  /// EXPLAIN-style rendering.
  std::string ToString(const Catalog& catalog, int indent = 0) const;
};

}  // namespace colt

#endif  // COLT_OPTIMIZER_PLAN_H_
