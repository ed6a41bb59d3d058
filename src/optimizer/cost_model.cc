#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace colt {

CostEstimate CostModel::SeqScan(const TableSchema& table, int num_predicates,
                                double selectivity) const {
  CostEstimate est;
  const double rows = static_cast<double>(table.row_count());
  const double pages = static_cast<double>(table.heap_pages());
  est.cost = pages * params_.seq_page_cost + rows * params_.cpu_tuple_cost +
             rows * num_predicates * params_.cpu_operator_cost;
  est.rows = std::max(1.0, rows * selectivity);
  return est;
}

double CostModel::HeapPagesFetched(double tuples_fetched, double pages,
                                   double total_tuples) {
  if (pages <= 1.0 || total_tuples <= 0.0) return std::min(pages, 1.0);
  if (tuples_fetched <= 0.0) return 0.0;
  // Yao: pages * (1 - (1 - 1/pages)^k), computed in log space for stability.
  const double k = std::min(tuples_fetched, total_tuples * 4.0);
  const double log_miss = k * std::log1p(-1.0 / pages);
  const double fetched = pages * (1.0 - std::exp(log_miss));
  return std::clamp(fetched, 1.0, pages);
}

CostEstimate CostModel::IndexScan(const TableSchema& table,
                                  const IndexDescriptor& index,
                                  double selectivity,
                                  int num_residual_predicates) const {
  CostEstimate est;
  const double rows = static_cast<double>(table.row_count());
  const double tuples = std::max(1.0, rows * selectivity);
  // Descend the tree (random I/O per level), then walk leaf pages.
  const double leaf_pages_scanned = std::max(
      1.0, selectivity * static_cast<double>(index.leaf_pages));
  const double index_io =
      index.height * params_.random_page_cost +
      (leaf_pages_scanned - 1.0) * params_.seq_page_cost;
  // Unclustered: each matching tuple needs a heap fetch; Yao bounds the
  // number of distinct pages, each a random read.
  const double heap_pages = HeapPagesFetched(
      tuples, static_cast<double>(table.heap_pages()), rows);
  const double heap_io = heap_pages * params_.random_page_cost;
  const double cpu = tuples * (params_.cpu_index_tuple_cost +
                               params_.cpu_tuple_cost) +
                     tuples * num_residual_predicates *
                         params_.cpu_operator_cost;
  est.cost = index_io + heap_io + cpu;
  est.rows = tuples;
  return est;
}

CostEstimate CostModel::BitmapScan(const TableSchema& table,
                                   const IndexDescriptor& index,
                                   double selectivity,
                                   int num_residual_predicates) const {
  CostEstimate est;
  const double rows = static_cast<double>(table.row_count());
  const double tuples = std::max(1.0, rows * selectivity);
  const double leaf_pages_scanned = std::max(
      1.0, selectivity * static_cast<double>(index.leaf_pages));
  const double index_io =
      index.height * params_.random_page_cost +
      (leaf_pages_scanned - 1.0) * params_.seq_page_cost;
  const double heap_pages = HeapPagesFetched(
      tuples, static_cast<double>(table.heap_pages()), rows);
  // Pages are visited in physical order: the charge interpolates between
  // sequential and random with the fraction of pages touched (PostgreSQL's
  // bitmap heuristic) — touching most pages is nearly sequential.
  const double fraction = heap_pages / static_cast<double>(table.heap_pages());
  const double page_cost =
      params_.random_page_cost -
      (params_.random_page_cost - params_.seq_page_cost) * std::sqrt(fraction);
  // Building the bitmap is linear in the matching TIDs (set a bit per
  // tuple), not a comparison sort.
  const double bitmap_cpu = tuples * 2.0 * params_.cpu_operator_cost;
  const double cpu = tuples * (params_.cpu_index_tuple_cost +
                               params_.cpu_tuple_cost) +
                     tuples * num_residual_predicates *
                         params_.cpu_operator_cost;
  est.cost = index_io + heap_pages * page_cost + bitmap_cpu + cpu;
  est.rows = tuples;
  return est;
}

CostEstimate CostModel::IndexProbe(const TableSchema& table,
                                   const IndexDescriptor& index,
                                   double per_probe_selectivity) const {
  CostEstimate est;
  const double rows = static_cast<double>(table.row_count());
  const double matches = std::max(0.0, rows * per_probe_selectivity);
  const double heap_pages = std::max(1.0, std::min(
      matches, HeapPagesFetched(std::max(1.0, matches),
                                static_cast<double>(table.heap_pages()),
                                rows)));
  est.cost = index.height * params_.random_page_cost +
             heap_pages * params_.random_page_cost +
             std::max(1.0, matches) *
                 (params_.cpu_index_tuple_cost + params_.cpu_tuple_cost);
  est.rows = std::max(matches, 1e-6);
  return est;
}

CostEstimate CostModel::NestLoopJoin(const CostEstimate& outer,
                                     const CostEstimate& inner_rescan,
                                     double join_selectivity) const {
  CostEstimate est;
  est.cost = outer.cost + outer.rows * inner_rescan.cost +
             outer.rows * inner_rescan.rows * params_.cpu_operator_cost;
  est.rows =
      std::max(1.0, outer.rows * inner_rescan.rows * join_selectivity);
  return est;
}

CostEstimate CostModel::HashJoin(const CostEstimate& left,
                                 const CostEstimate& right,
                                 double join_selectivity) const {
  CostEstimate est;
  const CostEstimate& build = (left.rows <= right.rows) ? left : right;
  const CostEstimate& probe = (left.rows <= right.rows) ? right : left;
  est.cost = left.cost + right.cost +
             build.rows * params_.cpu_tuple_cost * params_.hash_tuple_factor +
             probe.rows * params_.cpu_operator_cost * params_.hash_tuple_factor;
  est.rows = std::max(1.0, left.rows * right.rows * join_selectivity);
  return est;
}

double CostModel::IndexMaintenanceCost(const TableSchema& table,
                                       const IndexDescriptor& index,
                                       double entries) const {
  if (entries <= 0.0) return 0.0;
  const double rows =
      std::max<double>(1.0, static_cast<double>(table.row_count()));
  const double leaf_pages =
      std::max<double>(1.0, static_cast<double>(index.leaf_pages));
  const double leaves_dirtied = HeapPagesFetched(entries, leaf_pages, rows);
  return index.height * params_.random_page_cost +
         leaves_dirtied * params_.random_page_cost +
         entries * params_.cpu_index_tuple_cost;
}

CostEstimate CostModel::HeapAppend(const TableSchema& table,
                                   double rows) const {
  CostEstimate est;
  const double existing =
      std::max<double>(1.0, static_cast<double>(table.row_count()));
  const double heap_pages =
      std::max<double>(1.0, static_cast<double>(table.heap_pages()));
  const double rows_per_page = std::max(1.0, existing / heap_pages);
  const double pages = std::max(1.0, rows / rows_per_page);
  est.cost = pages * params_.seq_page_cost + rows * params_.cpu_tuple_cost;
  est.rows = rows;
  return est;
}

CostEstimate CostModel::HeapWriteBack(const TableSchema& table,
                                      double rows) const {
  CostEstimate est;
  const double dirty = HeapPagesFetched(
      rows, static_cast<double>(table.heap_pages()),
      std::max<double>(1.0, static_cast<double>(table.row_count())));
  est.cost = dirty * params_.seq_page_cost + rows * params_.cpu_tuple_cost;
  est.rows = rows;
  return est;
}

double CostModel::MaterializationCost(const TableSchema& table,
                                      const IndexDescriptor& index) const {
  const double rows = static_cast<double>(table.row_count());
  const double scan = static_cast<double>(table.heap_pages()) *
                          params_.seq_page_cost +
                      rows * params_.cpu_tuple_cost;
  const double sort =
      rows * std::log2(std::max(2.0, rows)) * params_.cpu_operator_cost;
  const double write =
      static_cast<double>(index.size_bytes) / kPageSizeBytes *
      params_.seq_page_cost;
  return scan + sort + write;
}

}  // namespace colt
