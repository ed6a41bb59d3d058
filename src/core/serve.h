#ifndef COLT_CORE_SERVE_H_
#define COLT_CORE_SERVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "core/colt.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "query/query.h"
#include "storage/database.h"

namespace colt {

/// Multi-client query serving (DESIGN.md §15).
///
/// ServeWorkload() drains a query trace through N concurrent client
/// threads while COLT keeps tuning on the calling (owner) thread. The
/// loop is epoch-pipelined so results stay a pure function of the trace,
/// independent of the client count:
///
///   for each serving epoch (one tuner epoch's worth of queries):
///     1. The owner plans every query of the epoch against the current
///        materialized configuration, then pins an epoch guard and
///        captures the published index snapshot.
///     2. Client c executes the epoch's queries at positions ≡ c (mod N)
///        through its private Executor, resolving indexes against the
///        pinned snapshot.
///     3. Concurrently, the owner feeds the same queries to the tuner in
///        trace order. Index installs/drops the tuner performs publish
///        new snapshots immediately — they never block the clients, who
///        keep reading the pinned one; the owner's guard keeps every
///        tree it references alive until the epoch joins.
///     4. Join; merge the per-client metrics buffers; next epoch plans
///        against the updated configuration.
///
/// Because the tuner consumes the trace serially on the owner thread and
/// the clients' work is a pure function of (plans, data, snapshot), the
/// ServedQuery stream, the tuner's decisions, and the epoch reports are
/// bit-identical at any client count (pinned by the serving differential
/// test).
///
/// Traces are read-only until the serve loop learns to fence writes
/// (ROADMAP.md, "A barrier-free serve loop that also takes writes"): an
/// INSERT has no plan for a client to run, and the owner's in-place
/// UPDATE/DELETE would race the clients' scans of the same table data. A
/// trace holding any write aborts before a client thread starts.
struct ServeOptions {
  /// Number of serving client threads (>= 1).
  int client_threads = 4;
  /// Pin client i to CPU (i mod cores) to stabilize tail latency.
  bool pin_threads = true;
  /// Owner-side hook invoked after each serving epoch joins (clients
  /// quiescent), with the 0-based serving-epoch number. Tests use it to
  /// audit index invariants between epochs.
  std::function<void(int)> on_epoch_end;
};

/// One executed query of the trace.
struct ServedQuery {
  /// Position in the input trace.
  int64_t trace_index = 0;
  /// Which client executed it: trace_index_within_epoch mod N.
  int client = 0;
  /// Whether execution succeeded; failures record the status text and a
  /// zero ExecutionResult instead of aborting the run.
  bool ok = false;
  std::string error;
  /// Physical page/tuple accounting (deterministic; compared bit-for-bit
  /// between client counts by the differential test).
  ExecutionResult result;
  /// Optimizer cost of the executed plan (deterministic).
  double estimated_cost = 0.0;
  /// Measured wall-clock latency of the Execute call, seconds. The one
  /// nondeterministic field; excluded from differential comparisons.
  double latency_seconds = 0.0;
};

/// Everything a serving run produced.
struct ServeResult {
  /// One entry per trace query, in trace order.
  std::vector<ServedQuery> queries;
  /// The tuner's per-epoch diagnostics (empty when no tuner was passed).
  std::vector<EpochReport> epoch_reports;
  /// Index installs + drops the tuner applied while clients were serving.
  int64_t tuner_actions = 0;
  /// Serving epochs executed.
  int epochs = 0;
  /// Wall time of the serving loop (planning + serving + tuning).
  double wall_seconds = 0.0;
  /// queries.size() / wall_seconds.
  double aggregate_qps = 0.0;
};

/// Latency percentile over the served queries (p in [0, 100], nearest-rank
/// on the sorted latencies). Returns 0 for an empty run.
double LatencyPercentile(const std::vector<ServedQuery>& queries, double p);

/// Shared, read-only context one serving epoch hands to its client tasks.
/// Internal to ServeWorkload; exposed so the client task function can be
/// role-annotated for the thread-role lint.
struct ServeEpochContext {
  /// Index snapshot pinned for the whole epoch by the owner's guard.
  const Database::IndexSnapshot* snapshot = nullptr;
  /// This epoch's planned queries, in trace order.
  struct PlannedQuery {
    int64_t trace_index = 0;
    const PlanNode* plan = nullptr;
    double estimated_cost = 0.0;
  };
  const std::vector<PlannedQuery>* plans = nullptr;
  /// Client count N; client c serves plan positions ≡ c (mod N).
  int client_count = 1;
  /// Per-client executors (owner-constructed, one per client).
  const std::vector<std::unique_ptr<Executor>>* executors = nullptr;
};

/// Executes client `client`'s share of one epoch's planned queries and
/// returns them in plan order. Runs on a pool worker thread; touches only
/// the client's own Executor and the epoch's immutable context.
COLT_WORKER_SAFE std::vector<ServedQuery> ServeClientEpoch(
    const ServeEpochContext& ctx, int client);

/// Serves the read-only `trace` with `options.client_threads` concurrent
/// clients while `tuner` (optional) tunes on the calling thread, as
/// described above.
/// With a null tuner the configuration is frozen to the database's
/// currently built indexes and the whole trace is served as one epoch.
/// `db`, `optimizer`, and `tuner` must share the same catalog; every
/// scanned table must be materialized.
COLT_OWNER_ONLY ServeResult ServeWorkload(Database* db,
                                          QueryOptimizer* optimizer,
                                          ColtTuner* tuner,
                                          const std::vector<Query>& trace,
                                          const ServeOptions& options = {});

}  // namespace colt

#endif  // COLT_CORE_SERVE_H_
