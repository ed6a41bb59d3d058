#ifndef COLT_EXEC_EXECUTOR_H_
#define COLT_EXEC_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "optimizer/cost_model.h"
#include "optimizer/plan.h"
#include "query/query.h"
#include "storage/database.h"

namespace colt {

/// Physical-execution accounting. Page counts come from the actual data
/// access pattern (distinct heap pages touched, B+-tree leaves walked), so
/// tests can validate the optimizer's I/O estimates against reality.
struct ExecutionResult {
  /// Number of result rows produced by the root operator.
  int64_t output_rows = 0;
  /// Heap pages read sequentially (full scans).
  int64_t pages_seq = 0;
  /// Heap pages fetched randomly (index lookups).
  int64_t pages_random = 0;
  /// Heap pages fetched in sorted (near-sequential) order by bitmap scans.
  int64_t pages_bitmap = 0;
  /// Index (leaf + internal) pages touched.
  int64_t pages_index = 0;
  /// Tuples processed across all operators.
  int64_t tuples_processed = 0;
  /// Heap pages dirtied by a write statement (distinct pages holding the
  /// appended/updated/deleted rows). Always 0 for reads.
  int64_t pages_heap_write = 0;
  /// Index leaf-page touches by write maintenance: one per B+-tree entry
  /// insert/erase applied (each entry operation lands in exactly one
  /// leaf). Always 0 for reads.
  int64_t pages_index_write = 0;
  /// Rows a write statement appended/updated/deleted. Always 0 for reads.
  int64_t rows_written = 0;

  /// Cost-model units implied by the *measured* page/tuple counts; lets the
  /// harness compare the estimated plan cost with observed work. Write
  /// pages use the same currency: heap write-backs are sequential (the
  /// pages are resident from the locate scan or appended in order), index
  /// leaf touches are random.
  double MeasuredCost(const CostParams& params) const {
    // Bitmap pages are between sequential and random; charge the midpoint.
    const double bitmap_page_cost =
        (params.seq_page_cost + params.random_page_cost) / 2.0;
    return static_cast<double>(pages_seq) * params.seq_page_cost +
           static_cast<double>(pages_bitmap) * bitmap_page_cost +
           static_cast<double>(pages_random + pages_index) *
               params.random_page_cost +
           static_cast<double>(tuples_processed) * params.cpu_tuple_cost +
           static_cast<double>(pages_heap_write) * params.seq_page_cost +
           static_cast<double>(pages_index_write) * params.random_page_cost;
  }
};

/// Interprets physical plans against materialized table data and built
/// B+-tree indexes. Intended for reduced-scale validation and the examples;
/// the paper-scale experiments use the cost model's simulated timings.
///
/// Thread model: an Executor instance is not shared across threads, but
/// any number of instances may execute concurrently against the same
/// Database. Each Execute() pins an epoch guard and resolves indexes
/// through the database's published snapshot, so it never races with the
/// owner thread installing or dropping indexes (DESIGN.md §15).
class Executor {
 public:
  /// `registry` selects where this executor's instruments live; null means
  /// MetricsRegistry::Default(). Serving threads pass their per-client
  /// buffer registry (per-worker-buffer rule, DESIGN.md §10) so operator
  /// timings never race on the main registry. Construct on the owner
  /// thread; Execute may then run on any thread.
  COLT_OWNER_ONLY explicit Executor(const Database* db,
                                    MetricsRegistry* registry = nullptr);

  /// Executes `plan`. Requires every scanned table to be materialized and
  /// every index used by the plan to be physically built (in the published
  /// snapshot). Safe to call concurrently with owner-side index installs
  /// and drops.
  COLT_THREAD_NEUTRAL Result<ExecutionResult> Execute(const PlanNode& plan);

  /// Executes `plan` against a caller-chosen index snapshot instead of the
  /// currently published one. The caller is responsible for keeping
  /// `snapshot` alive across the call — the serving layer does so by
  /// pinning an epoch guard from before any retire could have unlinked it
  /// (DESIGN.md §15). This is how a serving epoch stays a pure function of
  /// its plans: mid-epoch installs publish new snapshots without changing
  /// what the in-flight epoch's queries resolve.
  COLT_THREAD_NEUTRAL Result<ExecutionResult> ExecuteWithSnapshot(
      const PlanNode& plan, const Database::IndexSnapshot* snapshot);

  /// Physically applies one INSERT/UPDATE/DELETE statement to `db` (which
  /// must be the database this executor was constructed over), returning
  /// measured write accounting in the same page currency as reads
  /// (DESIGN.md §16). `locate_plan` is the optimizer's access path for an
  /// UPDATE/DELETE WHERE clause (PlanResult::plan); when null the affected
  /// rows are located by a sequential scan. Owner thread only — writes
  /// mutate table data and built indexes in place. No read of `db` may be
  /// in flight during a write: appends can reallocate the column vectors,
  /// and cell, tombstone and tree stores are unsynchronised, so an
  /// overlapping scan would race on both the heap and the trees.
  /// ServeWorkload's write fence guarantees this for served traces.
  COLT_OWNER_ONLY Result<ExecutionResult> ExecuteWrite(
      Database* db, const Query& q, const PlanNode* locate_plan);

 private:
  /// An intermediate result in flat form: one row-id column per bound
  /// table instead of one allocation per tuple (defined in executor.cc).
  struct Relation;
  /// Times one operator exclusively (defined in executor.cc).
  class OperatorTimer;

  /// Evaluates the subtree at `node`. With `count_only`, a hash join at
  /// this node returns only its match count (the plan root of a read:
  /// nothing above it needs the tuples).
  Result<Relation> Run(const PlanNode& node, bool count_only,
                       ExecutionResult* acc);

  /// The hash join at `node` (Run's kHashJoin case). A counting join whose
  /// probe side is an unfiltered sequential scan streams that scan through
  /// the probe instead of materializing it (DESIGN.md §17).
  Result<Relation> HashJoin(const PlanNode& node, bool count_only,
                            ExecutionResult* acc);

  /// Counts the matches of every live row of the unfiltered scan at `scan`
  /// against `build`, charging the scan as ScanTable would.
  Result<Relation> CountStreamedProbe(const PlanNode& join,
                                      const PlanNode& scan,
                                      const Relation& build,
                                      ExecutionResult* acc);

  /// Live rows of `table` that pass every predicate, in row order, charged
  /// as a full sequential scan.
  std::vector<RowId> ScanTable(TableId table,
                               const std::vector<SelectionPredicate>& preds,
                               ExecutionResult* acc) const;

  /// Puts `rows`, distinct TIDs of `table`, in ascending order through
  /// tid_bitmap_. Internal if a TID repeats or lies outside the table.
  Status OrderThroughBitmap(TableId table, std::vector<RowId>* rows);

  /// Distinct heap pages containing `rows` of `table`.
  int64_t DistinctHeapPages(TableId table, const std::vector<RowId>& rows);

  const Database* db_;
  const MetricsRegistry* registry_;
  /// Index snapshot for the Execute() in flight, captured once per query
  /// under its epoch guard so every operator in the plan sees one
  /// consistent index set.
  const Database::IndexSnapshot* snapshot_ = nullptr;
  /// The innermost operator being timed; children charge their inclusive
  /// time to it so each operator records only its own.
  OperatorTimer* running_op_ = nullptr;
  /// Sort buffer for DistinctHeapPages over unsorted row ids.
  std::vector<RowId> page_scratch_;
  /// One bit per row for a bitmap scan's TIDs, grown to the largest table
  /// scanned so far; all zero between calls.
  std::vector<uint64_t> tid_bitmap_;

  /// Per-operator wall-clock histograms, indexed by PlanNodeType. Each
  /// records the operator's exclusive (self) time, so per query they sum
  /// to at most `exec.execute.seconds`.
  static constexpr size_t kNumOperators = 6;
  Histogram* op_seconds_[kNumOperators];
  Counter* op_invocations_;
  Histogram* execute_seconds_;
};

}  // namespace colt

#endif  // COLT_EXEC_EXECUTOR_H_
