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
/// threads while COLT keeps tuning on the calling (owner) thread, without
/// a barrier between epochs. The unit of work is a *segment*: a run of
/// reads inside one tuner epoch that crosses no write (on a read-only
/// trace, a segment is an epoch). For each segment the owner
///
///   1. waits while a fixed number of segments are still in flight,
///      serving reads itself while any is left unclaimed (below);
///   2. plans the segment's queries against the materialized
///      configuration (everything the tuner decided through the previous
///      statement);
///   3. takes an epoch pin of the segment's own and captures the
///      published index snapshot;
///   4. publishes the segment to the clients;
///   5. feeds the segment's queries to the tuner in trace order. Installs
///      and drops publish new snapshots immediately; they never block the
///      clients, who keep reading the segment's pinned one.
///
/// Clients claim trace positions one at a time through a single atomic
/// cursor that runs across segments, wait until the segment holding a
/// position is published, execute it against that segment's snapshot and
/// store the result into the position's slot of the output. The owner
/// drops a segment's pin once its last query completes, so trees the
/// tuner dropped are freed as soon as no in-flight segment can read them.
///
/// The owner is work-conserving. Wherever it would wait for a segment to
/// complete (step 1, a write fence, an epoch-end hook, the end of the
/// trace), it claims the next position from the same cursor instead, as
/// long as that position lies in a published segment, and serves it like
/// a client, with its own executor and metrics buffer. It blocks only
/// once every published read is claimed; nothing new becomes claimable
/// until it publishes again.
///
/// A write is a fence: the owner waits until every read before it has
/// completed (no read after it is published yet), applies it through the
/// tuner's OnQuery (or itself, without a tuner), records it, and plans the
/// epoch's remaining reads as a new segment against the state after the
/// write. Every read therefore
/// sees exactly the writes before it in trace order.
///
/// Plans depend only on the tuner's state, which only the owner changes,
/// and a client's work is a pure function of (plan, data, snapshot). So
/// the ServedQuery stream (apart from `client` and `latency_seconds`), the
/// tuner's decisions and the epoch reports are bit-identical at any client
/// count (pinned by the serving differential tests).
struct ServeOptions {
  /// Number of serving client threads (>= 1).
  int client_threads = 4;
  /// Pin client i to CPU (i mod cores) to stabilize tail latency.
  bool pin_threads = true;
  /// Owner-side hook invoked at the end of each serving epoch, with the
  /// 0-based serving-epoch number. The loop first drains every in-flight
  /// segment, so clients are quiescent and the next epoch is not yet
  /// planned while the hook runs: it may audit or change the indexes.
  /// Setting it makes the loop drain at every epoch end.
  std::function<void(int)> on_epoch_end;
};

/// One executed query of the trace.
struct ServedQuery {
  /// `client` of a statement the owner executed.
  static constexpr int kOwner = -1;

  /// Position in the input trace.
  int64_t trace_index = 0;
  /// For a read, the client in [0, N) that claimed and executed it, or
  /// kOwner when the owner served it instead of waiting; for a write,
  /// always kOwner. Who claims a read depends on scheduling, so this
  /// field, like latency_seconds, is excluded from differential
  /// comparisons.
  int client = 0;
  /// Whether execution succeeded; failures record the status text and a
  /// zero ExecutionResult instead of aborting the run.
  bool ok = false;
  std::string error;
  /// Physical page/tuple accounting, including a write's write pages
  /// (deterministic; compared bit-for-bit between client counts by the
  /// differential test).
  ExecutionResult result;
  /// Optimizer cost of the executed plan (deterministic).
  double estimated_cost = 0.0;
  /// Measured wall-clock latency, seconds: of the Execute call for a read,
  /// of the owner's OnQuery call that applied it for a write.
  /// Nondeterministic; excluded from differential comparisons.
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
  /// Serving epochs executed (tuner epochs; one for a tunerless run).
  int epochs = 0;
  /// Wall time of the serving loop (planning + serving + tuning).
  double wall_seconds = 0.0;
  /// queries.size() / wall_seconds.
  double aggregate_qps = 0.0;
};

/// Latency percentile over the served queries (p in [0, 100], nearest-rank
/// on the sorted latencies). Returns 0 for an empty run.
double LatencyPercentile(const std::vector<ServedQuery>& queries, double p);

/// Shared, read-only context of one epoch served with a barrier: the
/// epoch's plans, split round-robin over the clients, all joined before
/// the next epoch. ServeWorkload pipelines instead; this pair serves
/// callers that rebuild the barrier loop step by step (perfbench's traced
/// serve_shift round).
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

/// Executes client `client`'s share of one epoch's planned queries (plan
/// positions ≡ client mod N) and returns them in plan order. Runs on a
/// pool worker thread; touches only the client's own Executor and the
/// epoch's immutable context.
COLT_WORKER_SAFE std::vector<ServedQuery> ServeClientEpoch(
    const ServeEpochContext& ctx, int client);

/// Serves `trace`, reads and writes, with `options.client_threads`
/// concurrent clients while `tuner` (optional) tunes on the calling
/// thread, as described above. With a tuner, writes are applied by its
/// OnQuery, so it must have been constructed over `db`. With a null tuner
/// the configuration is frozen to the database's currently built indexes,
/// the owner applies writes itself, and the whole trace is served as one
/// epoch. `db`, `optimizer`, and `tuner` must share the same catalog;
/// every scanned or written table must be materialized.
COLT_OWNER_ONLY ServeResult ServeWorkload(Database* db,
                                          QueryOptimizer* optimizer,
                                          ColtTuner* tuner,
                                          const std::vector<Query>& trace,
                                          const ServeOptions& options = {});

}  // namespace colt

#endif  // COLT_CORE_SERVE_H_
