#include "core/serve.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <optional>
#include <utility>

#include "common/epoch.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_pool.h"

namespace colt {

namespace {

/// How many segments the owner may plan, pin and publish ahead of the
/// clients (DESIGN.md §15). Every in-flight pin keeps alive the trees the
/// tuner dropped since it was taken, so depth costs memory. Chosen by
/// measurement on perfbench's serve_shift: 16 was the deepest depth that
/// kept peak RSS within 1% of the barrier loop's; 32 added about 4% and
/// 64 about 9%.
constexpr size_t kPipelineDepth = 16;

/// A run of reads inside one tuner epoch that crosses no write: trace
/// positions [begin, end).
struct Segment {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// A published segment's plans, snapshot and pin. Segment s lives in ring
/// slot s mod kPipelineDepth; the owner reuses the slot once every query
/// of the segment has completed.
struct InFlight {
  /// plans[i - begin] serves trace position i.
  std::vector<PlanResult> plans;
  const Database::IndexSnapshot* snapshot = nullptr;
  /// Keeps the snapshot and every tree it references alive.
  EpochPin pin;
  /// Queries of the segment that have completed.
  std::atomic<size_t> completed{0};
};

/// State the owner shares with the clients of one ServeWorkload run.
struct Pipeline {
  const std::vector<Query>* trace = nullptr;
  /// Every segment of the trace, in order; fixed before the clients start.
  std::vector<Segment> segments;
  InFlight ring[kPipelineDepth];
  /// The next trace position to claim; runs across segments.
  std::atomic<size_t> cursor{0};
  /// Segments published so far (only the owner advances it).
  std::atomic<size_t> published{0};
  /// Segments whose pin the owner has dropped (owner-only).
  size_t retired = 0;
  /// One slot per trace position; a position's result is stored once.
  std::vector<ServedQuery>* served = nullptr;
  /// One executor per client, then the owner's.
  const std::vector<std::unique_ptr<Executor>>* executors = nullptr;
  /// The segment holding (or after) the owner's last claim (owner-only).
  size_t owner_segment = 0;

  Mutex mu;
  /// Clients wait here for their segment to be published.
  CondVar published_cv;
  /// The owner waits here for a segment's last query to complete.
  CondVar completed_cv;
};

/// Splits `trace` into segments: within each `epoch_queries`-long chunk
/// of trace positions, the maximal runs of reads between writes.
std::vector<Segment> SplitIntoSegments(const std::vector<Query>& trace,
                                       size_t epoch_queries) {
  std::vector<Segment> segments;
  for (size_t pos = 0; pos < trace.size(); pos += epoch_queries) {
    const size_t end = std::min(pos + epoch_queries, trace.size());
    size_t i = pos;
    while (i < end) {
      if (trace[i].is_write()) {
        ++i;
        continue;
      }
      Segment segment{i, i};
      while (segment.end < end && !trace[segment.end].is_write()) {
        ++segment.end;
      }
      segments.push_back(segment);
      i = segment.end;
    }
  }
  return segments;
}

/// Executes one planned read against `snapshot` and records it: the body
/// that both serving loops run per query.
COLT_WORKER_SAFE ServedQuery ServePlannedQuery(
    Executor* executor, const PlanNode& plan, double estimated_cost,
    int64_t trace_index, int client,
    const Database::IndexSnapshot* snapshot) {
  ServedQuery served;
  served.trace_index = trace_index;
  served.client = client;
  served.estimated_cost = estimated_cost;
  const double start = WallTimer::Now();
  Result<ExecutionResult> result = executor->ExecuteWithSnapshot(plan,
                                                                 snapshot);
  served.latency_seconds = WallTimer::Now() - start;
  if (result.ok()) {
    served.ok = true;
    served.result = *result;
  } else {
    served.error = result.status().ToString();
  }
  return served;
}

/// Serves claimed trace position `i` for `client` (or the owner): the
/// per-position body of every claimer. `*s` is the claimer's segment hint,
/// the segment holding (or after) its previous claim; claims ascend, so it
/// only moves forward. A write belongs to the owner's loop, so its
/// position is skipped. A read waits until its segment is published, runs
/// against that segment's pinned snapshot, and stores its result into the
/// position's slot.
COLT_WORKER_SAFE void ServePosition(Pipeline* p, size_t i, size_t* s,
                                    Executor* executor, int client) {
  while (*s < p->segments.size() && p->segments[*s].end <= i) ++*s;
  if (*s == p->segments.size() || i < p->segments[*s].begin) return;
  if (p->published.load(std::memory_order_acquire) <= *s) {
    MutexLock lock(&p->mu);
    while (p->published.load(std::memory_order_acquire) <= *s) {
      p->published_cv.Wait(&p->mu);
    }
  }
  InFlight& segment = p->ring[*s % kPipelineDepth];
  const PlanResult& plan = segment.plans[i - p->segments[*s].begin];
  (*p->served)[i] =
      ServePlannedQuery(executor, *plan.plan, plan.cost,
                        static_cast<int64_t>(i), client, segment.snapshot);
  // The release half hands this query's result and metrics to the owner,
  // whose acquire load sees the segment complete. The owner checks
  // `completed` under `mu` before it waits and the last claimer notifies
  // under `mu`, so the wakeup cannot fall between the two.
  if (segment.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      p->segments[*s].size()) {
    MutexLock lock(&p->mu);
    p->completed_cv.NotifyOne();
  }
}

/// One client's pool task for the whole trace: it claims trace positions
/// one at a time from the shared cursor and serves each. A client that
/// claims a write moves on, and the reads after it wait until the owner
/// has applied it and published their segment.
COLT_WORKER_SAFE void ServeClientTrace(Pipeline* p, int client) {
  Executor* executor = (*p->executors)[static_cast<size_t>(client)].get();
  const size_t count = p->trace->size();
  size_t s = 0;
  for (size_t i = p->cursor.fetch_add(1, std::memory_order_relaxed);
       i < count; i = p->cursor.fetch_add(1, std::memory_order_relaxed)) {
    ServePosition(p, i, &s, executor, client);
  }
}

/// Claims, for the owner, the next unclaimed trace position of a published
/// segment, never one past the last published segment (the owner is the
/// one who would publish it). Returns false when every published position
/// is claimed.
bool ClaimPublished(Pipeline* p, size_t* position) {
  const size_t published = p->published.load(std::memory_order_relaxed);
  if (published == 0) return false;
  const size_t limit = p->segments[published - 1].end;
  size_t i = p->cursor.load(std::memory_order_relaxed);
  while (i < limit) {
    if (p->cursor.compare_exchange_weak(i, i + 1, std::memory_order_relaxed)) {
      *position = i;
      return true;
    }
  }
  return false;
}

/// Plans segment `s` against `config`, pins the current epoch, captures
/// the published snapshot and hands the segment to the clients.
void PublishSegment(Pipeline* p, size_t s, const Database& db,
                    QueryOptimizer* optimizer,
                    const IndexConfiguration& config) {
  const Segment& bounds = p->segments[s];
  InFlight& segment = p->ring[s % kPipelineDepth];
  segment.plans.reserve(bounds.size());
  for (size_t i = bounds.begin; i < bounds.end; ++i) {
    segment.plans.push_back(optimizer->Optimize((*p->trace)[i], config));
  }
  // Pin before loading: any tree retired after this point was reachable
  // only from snapshots this pin protects.
  segment.pin = EpochManager::Global().Pin();
  segment.snapshot = db.index_snapshot();
  {
    MutexLock lock(&p->mu);
    p->published.store(s + 1, std::memory_order_release);
  }
  p->published_cv.NotifyAll();
}

/// Drops the pin and plans of the oldest in-flight segment, waiting for
/// its last query to complete first when `wait` is set. Returns false
/// (and leaves it in flight) when it has not completed and `wait` is not
/// set. Waiting is work-conserving: while any read of a published segment
/// is unclaimed, the owner claims and serves it instead of blocking.
/// Nothing becomes claimable while the owner waits (only it publishes), so
/// once it finds nothing it blocks until the segment completes.
bool RetireOldest(Pipeline* p, bool wait) {
  const size_t s = p->retired;
  InFlight& segment = p->ring[s % kPipelineDepth];
  const size_t size = p->segments[s].size();
  if (segment.completed.load(std::memory_order_acquire) < size) {
    if (!wait) return false;
    size_t i = 0;
    while (segment.completed.load(std::memory_order_acquire) < size &&
           ClaimPublished(p, &i)) {
      ServePosition(p, i, &p->owner_segment, p->executors->back().get(),
                    ServedQuery::kOwner);
    }
    MutexLock lock(&p->mu);
    while (segment.completed.load(std::memory_order_acquire) < size) {
      p->completed_cv.Wait(&p->mu);
    }
  }
  segment.pin.Release();
  segment.plans.clear();
  segment.snapshot = nullptr;
  segment.completed.store(0, std::memory_order_relaxed);
  ++p->retired;
  // Reclaim eagerly: otherwise trees dropped while the segment was in
  // flight would wait for the next install or drop to be freed.
  EpochManager::Global().TryReclaim();
  return true;
}

/// Retires, in order, every in-flight segment that has completed.
void RetireCompleted(Pipeline* p) {
  while (p->retired < p->published.load(std::memory_order_relaxed)) {
    if (!RetireOldest(p, /*wait=*/false)) return;
  }
}

/// Waits for every published segment to complete and retires it. The
/// clients are then quiescent until the next publish.
void Drain(Pipeline* p) {
  while (p->retired < p->published.load(std::memory_order_relaxed)) {
    RetireOldest(p, /*wait=*/true);
  }
}

/// Folds the metrics buffers of the clients, then the owner's, into the
/// main registry in slot order and resets them. Clients must be quiescent.
void MergeClientMetrics(
    const std::vector<std::unique_ptr<MetricsRegistry>>& registries) {
  for (const auto& registry : registries) {
    MetricsRegistry::Default().MergeFrom(*registry);
    registry->Reset();
  }
}

/// Applies write `w` on the owner and records it: through the tuner's
/// OnQuery, or directly against the frozen configuration without a
/// tuner. Clients must be quiescent.
ServedQuery ApplyWrite(Database* db, QueryOptimizer* optimizer,
                       ColtTuner* tuner, const IndexConfiguration& frozen,
                       const Query& w, int64_t trace_index,
                       int64_t* tuner_actions) {
  ServedQuery served;
  served.trace_index = trace_index;
  served.client = ServedQuery::kOwner;
  std::optional<Result<ExecutionResult>> applied;
  const double start = WallTimer::Now();
  if (tuner != nullptr) {
    TuningStep step = tuner->OnQuery(w);
    *tuner_actions += static_cast<int64_t>(step.actions.size());
    served.estimated_cost = step.plan.cost;
    applied = std::move(step.applied_write);
  } else {
    const PlanResult plan = optimizer->Optimize(w, frozen);
    served.estimated_cost = plan.cost;
    Executor executor(db);
    applied = executor.ExecuteWrite(db, w, plan.plan.get());
  }
  served.latency_seconds = WallTimer::Now() - start;
  if (!applied.has_value()) {
    served.error =
        Status::FailedPrecondition(
            "write not applied: the tuner has no database, or the table "
            "holds no data")
            .ToString();
  } else if (applied->ok()) {
    served.ok = true;
    served.result = **applied;
  } else {
    served.error = applied->status().ToString();
  }
  return served;
}

}  // namespace

double LatencyPercentile(const std::vector<ServedQuery>& queries, double p) {
  if (queries.empty()) return 0.0;
  std::vector<double> latencies;
  latencies.reserve(queries.size());
  for (const ServedQuery& q : queries) latencies.push_back(q.latency_seconds);
  std::sort(latencies.begin(), latencies.end());
  const double clamped = std::min(100.0, std::max(0.0, p));
  // Nearest-rank: the smallest latency with at least p% of samples at or
  // below it.
  const size_t rank = static_cast<size_t>(
      (clamped / 100.0) * static_cast<double>(latencies.size()) + 0.5);
  const size_t index = rank == 0 ? 0 : rank - 1;
  return latencies[std::min(index, latencies.size() - 1)];
}

std::vector<ServedQuery> ServeClientEpoch(const ServeEpochContext& ctx,
                                          int client) {
  std::vector<ServedQuery> out;
  const auto& plans = *ctx.plans;
  Executor* executor = (*ctx.executors)[static_cast<size_t>(client)].get();
  for (size_t i = static_cast<size_t>(client); i < plans.size();
       i += static_cast<size_t>(ctx.client_count)) {
    const ServeEpochContext::PlannedQuery& planned = plans[i];
    out.push_back(ServePlannedQuery(executor, *planned.plan,
                                    planned.estimated_cost,
                                    planned.trace_index, client,
                                    ctx.snapshot));
  }
  return out;
}

ServeResult ServeWorkload(Database* db, QueryOptimizer* optimizer,
                          ColtTuner* tuner, const std::vector<Query>& trace,
                          const ServeOptions& options) {
  COLT_CHECK(options.client_threads >= 1) << "serving needs >= 1 client";
  const int clients = options.client_threads;

  // Per-client executors with per-client metrics buffers (per-worker-buffer
  // rule, DESIGN.md §10): client instruments never race on Default(). The
  // last slot is the owner's, for the reads it serves while it would
  // otherwise wait.
  std::vector<std::unique_ptr<MetricsRegistry>> registries;
  std::vector<std::unique_ptr<Executor>> executors;
  registries.reserve(static_cast<size_t>(clients) + 1);
  executors.reserve(static_cast<size_t>(clients) + 1);
  for (int c = 0; c <= clients; ++c) {
    registries.push_back(std::make_unique<MetricsRegistry>());
    registries.back()->set_enabled(MetricsRegistry::Default().enabled());
    executors.push_back(
        std::make_unique<Executor>(db, registries.back().get()));
  }

  // Serving epochs track the tuner's epochs so configuration changes land
  // at the same trace positions as in a pure tuning run; a tunerless run
  // serves the whole trace as one epoch under the frozen configuration.
  const size_t epoch_queries =
      tuner != nullptr
          ? static_cast<size_t>(std::max(1, tuner->config().epoch_length))
          : std::max<size_t>(1, trace.size());

  ServeResult out;
  out.queries.resize(trace.size());
  IndexConfiguration frozen;
  if (tuner == nullptr) {
    for (IndexId id : db->BuiltIndexIds()) frozen.Add(id);
  }

  Pipeline pipeline;
  pipeline.trace = &trace;
  pipeline.segments = SplitIntoSegments(trace, epoch_queries);
  pipeline.served = &out.queries;
  pipeline.executors = &executors;
  ThreadPool pool(clients, options.pin_threads);

  WallTimer total;
  std::vector<std::future<void>> client_tasks;
  client_tasks.reserve(static_cast<size_t>(clients));
  Pipeline* shared = &pipeline;
  for (int c = 0; c < clients; ++c) {
    client_tasks.push_back(
        pool.Submit([shared, c] { ServeClientTrace(shared, c); }));
  }

  size_t next_segment = 0;
  for (size_t pos = 0; pos < trace.size(); pos += epoch_queries) {
    const size_t end = std::min(pos + epoch_queries, trace.size());
    for (size_t i = pos; i < end;) {
      if (trace[i].is_write()) {
        // Fence: every read before the write completes, none after it is
        // published until the write is applied.
        Drain(&pipeline);
        MergeClientMetrics(registries);
        out.queries[i] =
            ApplyWrite(db, optimizer, tuner, frozen, trace[i],
                       static_cast<int64_t>(i), &out.tuner_actions);
        ++i;
        continue;
      }
      // Plan the segment against everything the tuner has decided through
      // trace position i - 1, once a ring slot is free.
      RetireCompleted(&pipeline);
      while (next_segment - pipeline.retired == kPipelineDepth) {
        RetireOldest(&pipeline, /*wait=*/true);
      }
      PublishSegment(&pipeline, next_segment, *db, optimizer,
                     tuner != nullptr ? tuner->materialized() : frozen);
      const size_t segment_end = pipeline.segments[next_segment].end;
      ++next_segment;
      // While the clients serve it, the owner feeds the same queries to
      // the tuner in trace order.
      if (tuner != nullptr) {
        for (; i < segment_end; ++i) {
          const TuningStep step = tuner->OnQuery(trace[i]);
          out.tuner_actions += static_cast<int64_t>(step.actions.size());
        }
      }
      i = segment_end;
    }
    if (options.on_epoch_end) {
      Drain(&pipeline);
      MergeClientMetrics(registries);
      options.on_epoch_end(out.epochs);
    }
    ++out.epochs;
  }
  Drain(&pipeline);
  for (std::future<void>& task : client_tasks) task.get();
  MergeClientMetrics(registries);

  out.wall_seconds = total.Seconds();
  out.aggregate_qps =
      out.wall_seconds > 0.0
          ? static_cast<double>(out.queries.size()) / out.wall_seconds
          : 0.0;
  if (tuner != nullptr) out.epoch_reports = tuner->epoch_reports();
  return out;
}

}  // namespace colt
