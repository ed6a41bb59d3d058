#include "core/serve.h"

#include <algorithm>
#include <utility>

#include "common/epoch.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace colt {

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
    ServedQuery served;
    served.trace_index = planned.trace_index;
    served.client = client;
    served.estimated_cost = planned.estimated_cost;
    const double start = WallTimer::Now();
    Result<ExecutionResult> result =
        executor->ExecuteWithSnapshot(*planned.plan, ctx.snapshot);
    served.latency_seconds = WallTimer::Now() - start;
    if (result.ok()) {
      served.ok = true;
      served.result = *result;
    } else {
      served.error = result.status().ToString();
    }
    out.push_back(std::move(served));
  }
  return out;
}

ServeResult ServeWorkload(Database* db, QueryOptimizer* optimizer,
                          ColtTuner* tuner, const std::vector<Query>& trace,
                          const ServeOptions& options) {
  COLT_CHECK(options.client_threads >= 1) << "serving needs >= 1 client";
  const auto first_write = std::find_if(
      trace.begin(), trace.end(), [](const Query& q) { return q.is_write(); });
  COLT_CHECK(first_write == trace.end())
      << "serving takes read-only traces; the statement at trace index "
      << (first_write - trace.begin()) << " is a write";
  const int clients = options.client_threads;
  ThreadPool pool(clients, options.pin_threads);

  // Per-client executors with per-client metrics buffers (per-worker-buffer
  // rule, DESIGN.md §10): client instruments never race on Default().
  std::vector<std::unique_ptr<MetricsRegistry>> registries;
  std::vector<std::unique_ptr<Executor>> executors;
  registries.reserve(static_cast<size_t>(clients));
  executors.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    registries.push_back(std::make_unique<MetricsRegistry>());
    registries.back()->set_enabled(MetricsRegistry::Default().enabled());
    executors.push_back(std::make_unique<Executor>(db, registries.back().get()));
  }

  // Serving epochs track the tuner's epochs so configuration changes land
  // at the same trace positions as in a pure tuning run; a tunerless run
  // serves the whole trace as one epoch under the frozen configuration.
  const size_t epoch_queries =
      tuner != nullptr
          ? static_cast<size_t>(std::max(1, tuner->config().epoch_length))
          : std::max<size_t>(1, trace.size());

  ServeResult out;
  out.queries.reserve(trace.size());
  IndexConfiguration frozen;
  if (tuner == nullptr) {
    for (IndexId id : db->BuiltIndexIds()) frozen.Add(id);
  }

  WallTimer total;
  size_t pos = 0;
  while (pos < trace.size()) {
    const size_t end = std::min(pos + epoch_queries, trace.size());

    // 1. Plan the epoch on the owner against the current configuration
    //    (everything the tuner has installed through query pos-1).
    const IndexConfiguration& config =
        tuner != nullptr ? tuner->materialized() : frozen;
    std::vector<PlanResult> plan_storage;
    std::vector<ServeEpochContext::PlannedQuery> plans;
    plan_storage.reserve(end - pos);
    plans.reserve(end - pos);
    for (size_t i = pos; i < end; ++i) {
      plan_storage.push_back(optimizer->Optimize(trace[i], config));
      plans.push_back({static_cast<int64_t>(i), plan_storage.back().plan.get(),
                       plan_storage.back().cost});
    }

    // 2. Pin the planning-time snapshot for the whole epoch. The guard
    //    holds reclamation back, so even trees the tuner drops mid-epoch
    //    stay readable until the join; clients therefore resolve exactly
    //    the index set their plans were built against.
    {
      EpochGuard epoch_pin;
      ServeEpochContext ctx;
      ctx.snapshot = db->index_snapshot();
      ctx.plans = &plans;
      ctx.client_count = clients;
      ctx.executors = &executors;

      std::vector<std::future<std::vector<ServedQuery>>> futures;
      futures.reserve(static_cast<size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        futures.push_back(
            pool.Submit([&ctx, c] { return ServeClientEpoch(ctx, c); }));
      }

      // 3. While the clients drain the epoch, the owner feeds the same
      //    queries to the tuner in trace order. Installs/drops publish
      //    immediately (staged build -> atomic snapshot swap -> epoch
      //    retire) and never block the readers above.
      if (tuner != nullptr) {
        for (size_t i = pos; i < end; ++i) {
          const TuningStep step = tuner->OnQuery(trace[i]);
          out.tuner_actions += static_cast<int64_t>(step.actions.size());
        }
      }

      // 4. Join. Futures complete in client order; the merge re-sorts to
      //    trace order, so the stream is independent of scheduling.
      std::vector<ServedQuery> epoch_served;
      epoch_served.reserve(end - pos);
      for (auto& future : futures) {
        std::vector<ServedQuery> part = future.get();
        epoch_served.insert(epoch_served.end(),
                            std::make_move_iterator(part.begin()),
                            std::make_move_iterator(part.end()));
      }
      std::sort(epoch_served.begin(), epoch_served.end(),
                [](const ServedQuery& a, const ServedQuery& b) {
                  return a.trace_index < b.trace_index;
                });
      out.queries.insert(out.queries.end(),
                         std::make_move_iterator(epoch_served.begin()),
                         std::make_move_iterator(epoch_served.end()));
    }

    // Clients are quiescent: fold their metrics buffers into the main
    // registry in slot order and reset them for the next epoch.
    for (auto& registry : registries) {
      MetricsRegistry::Default().MergeFrom(*registry);
      registry->Reset();
    }

    if (options.on_epoch_end) options.on_epoch_end(out.epochs);
    ++out.epochs;
    pos = end;
  }

  out.wall_seconds = total.Seconds();
  out.aggregate_qps =
      out.wall_seconds > 0.0
          ? static_cast<double>(out.queries.size()) / out.wall_seconds
          : 0.0;
  if (tuner != nullptr) out.epoch_reports = tuner->epoch_reports();
  return out;
}

}  // namespace colt
