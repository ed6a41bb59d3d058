/// Concurrent-serving throughput bench (DESIGN.md §15): N pinned client
/// threads drain a query trace through the executor against real B+-trees
/// while COLT tunes on the owner thread.
///
/// Three phases:
///   1. "tuned_serving": 4 clients serve a focused workload while the
///      tuner installs indexes online — demonstrates that configuration
///      changes publish mid-flight without blocking readers.
///   2. "threads_N": the same trace re-served under the frozen tuned
///      configuration at each thread count, reporting aggregate qps and
///      p50/p95/p99 tail latency; the scaling summary compares the
///      largest thread count against 1.
///   3. "htap_serving": the HTAP phases (reads plus INSERTs) served with
///      the tuner live, once by 1 client and once by several, each on a
///      fresh database. The loop fences every write, so both runs must
///      agree statement for statement; the bench prints
///      htap_serving_identical=1 when they do.
///
/// Results land in BENCH_serve.json ($COLT_CSV_DIR or the working dir).
/// With --smoke the scale, trace, and thread ladder shrink to CI size.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/thread_pool.h"
#include "core/colt.h"
#include "core/serve.h"
#include "harness/workloads.h"
#include "query/workload.h"
#include "storage/tpch_schema.h"

namespace {

/// One tuned serving run of `trace` on a fresh database.
struct HtapRun {
  std::unique_ptr<colt::Database> db;
  colt::ServeResult result;
};

HtapRun ServeHtap(const colt::TpchOptions& options,
                  const std::vector<colt::Query>& trace, int clients) {
  HtapRun run;
  run.db = std::make_unique<colt::Database>(colt::MakeTpchCatalog(options),
                                            /*seed=*/42);
  if (auto st = run.db->MaterializeAll(/*refresh_stats=*/true); !st.ok()) {
    std::fprintf(stderr, "materialize failed: %s\n", st.ToString().c_str());
    return run;
  }
  colt::QueryOptimizer optimizer(&run.db->catalog());
  colt::ColtConfig config;
  config.storage_budget_bytes = 8LL * 1024 * 1024;
  colt::ColtTuner tuner(&run.db->mutable_catalog(), &optimizer, config,
                        run.db.get());
  colt::ServeOptions opts;
  opts.client_threads = clients;
  run.result = colt::ServeWorkload(run.db.get(), &optimizer, &tuner, trace,
                                   opts);
  return run;
}

/// Whether two runs served the same statements with the same outcomes and
/// left the same tables behind; the claiming client and the latency are
/// scheduling-dependent and not compared.
bool SameHtapRuns(const HtapRun& a, const HtapRun& b) {
  const auto& x = a.result;
  const auto& y = b.result;
  if (x.queries.size() != y.queries.size() ||
      x.tuner_actions != y.tuner_actions || x.epochs != y.epochs) {
    return false;
  }
  for (size_t i = 0; i < x.queries.size(); ++i) {
    const colt::ServedQuery& p = x.queries[i];
    const colt::ServedQuery& q = y.queries[i];
    const colt::ExecutionResult& r = p.result;
    const colt::ExecutionResult& s = q.result;
    if (p.trace_index != q.trace_index || p.ok != q.ok ||
        p.error != q.error || p.estimated_cost != q.estimated_cost ||
        r.output_rows != s.output_rows || r.pages_seq != s.pages_seq ||
        r.pages_random != s.pages_random ||
        r.pages_bitmap != s.pages_bitmap || r.pages_index != s.pages_index ||
        r.tuples_processed != s.tuples_processed ||
        r.pages_heap_write != s.pages_heap_write ||
        r.pages_index_write != s.pages_index_write ||
        r.rows_written != s.rows_written) {
      std::fprintf(stderr, "htap statement %zu differs\n", i);
      return false;
    }
  }
  for (colt::TableId t = 0; t < a.db->catalog().table_count(); ++t) {
    if (a.db->data(t).row_count() != b.db->data(t).row_count() ||
        a.db->data(t).live_row_count() != b.db->data(t).live_row_count()) {
      return false;
    }
  }
  return a.db->BuiltIndexIds() == b.db->BuiltIndexIds();
}

int FailedQueries(const colt::ServeResult& result) {
  int failed = 0;
  for (const auto& q : result.queries) {
    if (!q.ok) {
      if (failed == 0) {
        std::fprintf(stderr, "query %lld failed: %s\n",
                     static_cast<long long>(q.trace_index), q.error.c_str());
      }
      ++failed;
    }
  }
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // A reduced-scale physical TPC-H instance: real tuples, real B+-trees.
  colt::TpchOptions options;
  options.instances = 1;
  options.scale = smoke ? 0.005 : 0.02;
  colt::Database db(colt::MakeTpchCatalog(options), /*seed=*/42);
  if (auto st = db.MaterializeAll(/*refresh_stats=*/true); !st.ok()) {
    std::fprintf(stderr, "materialize failed: %s\n", st.ToString().c_str());
    return 1;
  }

  colt::QueryOptimizer optimizer(&db.catalog());
  const colt::QueryDistribution dist =
      colt::ExperimentWorkloads::Focused(&db.mutable_catalog(), 0);
  colt::WorkloadGenerator gen(&db.catalog(), 11);
  const int trace_queries = smoke ? 120 : 400;
  std::vector<colt::Query> trace;
  trace.reserve(static_cast<size_t>(trace_queries));
  for (int i = 0; i < trace_queries; ++i) trace.push_back(gen.Sample(dist));

  const int cores = colt::ThreadPool::HardwareConcurrency();
  std::printf("serve_throughput%s: %d queries, TPC-H scale %.3f, %d cores\n",
              smoke ? " [smoke]" : "", trace_queries, options.scale, cores);

  std::vector<colt::bench_json::Record> records;
  auto record = [&records](const std::string& config,
                           const std::string& metric, double value,
                           const std::string& units) {
    records.push_back({"serve_throughput", config, metric, value, units});
  };
  record("hardware", "cores", cores, "count");

  // ---- Phase 1: serve while COLT tunes online. --------------------------
  colt::ColtConfig config;
  config.storage_budget_bytes = 8LL * 1024 * 1024;
  colt::ColtTuner tuner(&db.mutable_catalog(), &optimizer, config, &db);
  colt::ServeOptions tuned_opts;
  tuned_opts.client_threads = smoke ? 2 : 4;
  const colt::ServeResult tuned =
      colt::ServeWorkload(&db, &optimizer, &tuner, trace, tuned_opts);
  const int tuned_failed = FailedQueries(tuned);
  std::printf(
      "tuned serving: %d clients, %.0f qps, %lld online index actions, "
      "%d epochs, p99 %.3f ms, %d failed\n",
      tuned_opts.client_threads, tuned.aggregate_qps,
      static_cast<long long>(tuned.tuner_actions), tuned.epochs,
      1e3 * colt::LatencyPercentile(tuned.queries, 99.0), tuned_failed);
  // Machine-greppable line for the CI smoke gate.
  std::printf("tuner_actions_during_serving=%lld\n",
              static_cast<long long>(tuned.tuner_actions));
  record("tuned_serving", "aggregate_qps", tuned.aggregate_qps, "qps");
  record("tuned_serving", "tuner_actions_during_serving",
         static_cast<double>(tuned.tuner_actions), "count");
  record("tuned_serving", "p99_latency_seconds",
         colt::LatencyPercentile(tuned.queries, 99.0), "seconds");

  // ---- Phase 2: frozen-configuration read scaling. ----------------------
  std::vector<int> thread_counts = smoke ? std::vector<int>{1, 2}
                                         : std::vector<int>{1, 2, 4, 8};
  double qps_at_1 = 0.0;
  double qps_at_max = 0.0;
  int total_failed = tuned_failed;
  for (int threads : thread_counts) {
    colt::ServeOptions opts;
    opts.client_threads = threads;
    const colt::ServeResult run =
        colt::ServeWorkload(&db, &optimizer, /*tuner=*/nullptr, trace, opts);
    total_failed += FailedQueries(run);
    const double p50 = colt::LatencyPercentile(run.queries, 50.0);
    const double p95 = colt::LatencyPercentile(run.queries, 95.0);
    const double p99 = colt::LatencyPercentile(run.queries, 99.0);
    std::printf(
        "threads %2d: %8.0f qps   p50 %7.3f ms   p95 %7.3f ms   "
        "p99 %7.3f ms\n",
        threads, run.aggregate_qps, 1e3 * p50, 1e3 * p95, 1e3 * p99);
    const std::string cfg = "threads_" + std::to_string(threads);
    record(cfg, "aggregate_qps", run.aggregate_qps, "qps");
    record(cfg, "p50_latency_seconds", p50, "seconds");
    record(cfg, "p95_latency_seconds", p95, "seconds");
    record(cfg, "p99_latency_seconds", p99, "seconds");
    if (threads == 1) qps_at_1 = run.aggregate_qps;
    qps_at_max = run.aggregate_qps;
  }
  const double speedup = qps_at_1 > 0.0 ? qps_at_max / qps_at_1 : 0.0;
  std::printf("scaling: %.2fx aggregate qps at %d threads vs 1\n", speedup,
              thread_counts.back());
  record("scaling", "speedup_max_vs_1", speedup, "ratio");
  record("scaling", "max_threads", thread_counts.back(), "count");

  // ---- Phase 3: HTAP statements, writes fenced. -------------------------
  std::vector<colt::Query> htap_trace;
  {
    colt::Catalog catalog = colt::MakeTpchCatalog(options);
    std::vector<colt::WorkloadPhase> phases;
    for (const auto& d : colt::ExperimentWorkloads::HtapPhases(&catalog)) {
      phases.push_back({d, smoke ? 40 : 100});
    }
    colt::WorkloadGenerator htap_gen(&catalog, 13);
    htap_trace = colt::GeneratePhasedWorkload(htap_gen, phases,
                                              /*transition_length=*/10);
  }
  int64_t htap_writes = 0;
  for (const auto& q : htap_trace) htap_writes += q.is_write() ? 1 : 0;
  const int htap_clients = smoke ? 2 : 4;
  const HtapRun htap_serial = ServeHtap(options, htap_trace, 1);
  const HtapRun htap_parallel = ServeHtap(options, htap_trace, htap_clients);
  const int htap_failed =
      FailedQueries(htap_serial.result) + FailedQueries(htap_parallel.result);
  total_failed += htap_failed;
  const bool htap_identical =
      htap_serial.result.queries.size() == htap_trace.size() &&
      SameHtapRuns(htap_serial, htap_parallel);
  std::printf(
      "htap serving: %zu statements (%lld writes), %lld online index "
      "actions, 1 client %.0f qps, %d clients %.0f qps, %d failed\n",
      htap_trace.size(), static_cast<long long>(htap_writes),
      static_cast<long long>(htap_parallel.result.tuner_actions),
      htap_serial.result.aggregate_qps, htap_clients,
      htap_parallel.result.aggregate_qps, htap_failed);
  // Machine-greppable line for the CI smoke gate.
  std::printf("htap_serving_identical=%d\n", htap_identical ? 1 : 0);
  record("htap_serving", "aggregate_qps_1_client",
         htap_serial.result.aggregate_qps, "qps");
  record("htap_serving", "aggregate_qps_max_clients",
         htap_parallel.result.aggregate_qps, "qps");
  record("htap_serving", "write_statements", static_cast<double>(htap_writes),
         "count");

  if (!colt::bench_json::Write("BENCH_serve.json", records)) {
    std::fprintf(stderr, "failed to write BENCH_serve.json\n");
    return 1;
  }
  if (total_failed > 0) {
    std::fprintf(stderr, "%d queries failed\n", total_failed);
    return 1;
  }
  if (!htap_identical) {
    std::fprintf(stderr, "HTAP serving differs between 1 and %d clients\n",
                 htap_clients);
    return 1;
  }
  return 0;
}
