/// Differential pin for the serving layer (DESIGN.md §15): an N-client
/// serving run must be observationally identical to the single-client run
/// of the same trace — per-query results and page accounting bit-for-bit,
/// tuner decisions unchanged, epoch-report CSVs byte-identical — on
/// read-only traces and on traces whose writes the loop fences. The
/// single-client run of a trace with writes is in turn checked against a
/// serial oracle loop that never calls ServeWorkload. The fields that
/// depend on scheduling (wall-clock latency, the claiming client) are
/// excluded by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/colt.h"
#include "core/serve.h"
#include "exec/executor.h"
#include "harness/report.h"
#include "harness/workloads.h"
#include "optimizer/optimizer.h"
#include "query/workload.h"
#include "storage/tpch_schema.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

/// A selection-heavy distribution over the test catalog: enough benefit
/// concentration that the tuner installs indexes within a short trace.
QueryDistribution TestDistribution(const Catalog& catalog) {
  QueryDistribution dist;
  dist.name = "serve_test";
  QueryTemplate key_scan;
  key_scan.name = "big_by_key";
  key_scan.tables = {catalog.FindTable("big")};
  key_scan.selections = {{Ref(catalog, "big", "b_key"), 0.001, 0.01, false}};
  QueryTemplate val_scan;
  val_scan.name = "big_by_val";
  val_scan.tables = {catalog.FindTable("big")};
  val_scan.selections = {{Ref(catalog, "big", "b_val"), 0.005, 0.02, false}};
  QueryTemplate small_scan;
  small_scan.name = "small_by_ref";
  small_scan.tables = {catalog.FindTable("small")};
  small_scan.selections = {{Ref(catalog, "small", "s_ref"), 0.01, 0.05,
                            false}};
  dist.templates = {key_scan, val_scan, small_scan};
  dist.weights = {5.0, 3.0, 1.0};
  return dist;
}

std::vector<Query> MakeTrace(const Catalog& catalog, int queries) {
  WorkloadGenerator gen(&catalog, /*seed=*/23);
  const QueryDistribution dist = TestDistribution(catalog);
  std::vector<Query> trace;
  trace.reserve(static_cast<size_t>(queries));
  for (int i = 0; i < queries; ++i) trace.push_back(gen.Sample(dist));
  return trace;
}

/// The tuner configuration of the differential runs: a budget with room
/// for about one 100k-row index, so installs and evictions both happen.
ColtConfig TightBudgetConfig() {
  ColtConfig config;
  config.storage_budget_bytes = 4LL * 1024 * 1024;
  return config;
}

/// One full tuned serving run on a fresh, deterministic database.
struct TunedRun {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryOptimizer> optimizer;
  std::unique_ptr<ColtTuner> tuner;
  ServeResult result;
};

/// Materializes a fresh database over `catalog` and constructs the tuner.
TunedRun MakeTunedRun(Catalog catalog, const ColtConfig& config) {
  TunedRun run;
  run.db = std::make_unique<Database>(std::move(catalog), /*seed=*/7);
  EXPECT_TRUE(run.db->MaterializeAll(/*refresh_stats=*/true).ok());
  run.optimizer = std::make_unique<QueryOptimizer>(&run.db->catalog());
  run.tuner = std::make_unique<ColtTuner>(&run.db->mutable_catalog(),
                                          run.optimizer.get(), config,
                                          run.db.get(), /*seed=*/7);
  return run;
}

TunedRun RunTuned(Catalog catalog, const ColtConfig& config,
                  const std::vector<Query>& trace, int clients) {
  TunedRun run = MakeTunedRun(std::move(catalog), config);
  ServeOptions options;
  options.client_threads = clients;
  options.pin_threads = false;
  run.result = ServeWorkload(run.db.get(), run.optimizer.get(),
                             run.tuner.get(), trace, options);
  return run;
}

TunedRun RunTuned(const std::vector<Query>& trace, int clients) {
  return RunTuned(MakeTestCatalog(), TightBudgetConfig(), trace, clients);
}

std::string EpochCsv(const std::vector<EpochReport>& reports) {
  std::ostringstream out;
  EXPECT_TRUE(WriteEpochReportCsv(reports, out).ok());
  return out.str();
}

void ExpectSameServedStream(const ServeResult& a, const ServeResult& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const ServedQuery& x = a.queries[i];
    const ServedQuery& y = b.queries[i];
    ASSERT_EQ(x.trace_index, y.trace_index) << "stream order diverged";
    EXPECT_EQ(x.ok, y.ok) << "query " << i;
    EXPECT_EQ(x.error, y.error) << "query " << i;
    EXPECT_EQ(x.estimated_cost, y.estimated_cost) << "query " << i;
    EXPECT_EQ(x.result.output_rows, y.result.output_rows) << "query " << i;
    EXPECT_EQ(x.result.pages_seq, y.result.pages_seq) << "query " << i;
    EXPECT_EQ(x.result.pages_random, y.result.pages_random) << "query " << i;
    EXPECT_EQ(x.result.pages_bitmap, y.result.pages_bitmap) << "query " << i;
    EXPECT_EQ(x.result.pages_index, y.result.pages_index) << "query " << i;
    EXPECT_EQ(x.result.tuples_processed, y.result.tuples_processed)
        << "query " << i;
    EXPECT_EQ(x.result.pages_heap_write, y.result.pages_heap_write)
        << "query " << i;
    EXPECT_EQ(x.result.pages_index_write, y.result.pages_index_write)
        << "query " << i;
    EXPECT_EQ(x.result.rows_written, y.result.rows_written) << "query " << i;
  }
}

/// Both runs left their databases in the same state: row counts, the
/// built index set, and each built tree's entry count and structure.
void ExpectSameDatabase(const Database& a, const Database& b) {
  ASSERT_EQ(a.catalog().table_count(), b.catalog().table_count());
  for (TableId t = 0; t < a.catalog().table_count(); ++t) {
    EXPECT_EQ(a.data(t).row_count(), b.data(t).row_count()) << "table " << t;
    EXPECT_EQ(a.data(t).live_row_count(), b.data(t).live_row_count())
        << "table " << t;
  }
  ASSERT_EQ(a.BuiltIndexIds(), b.BuiltIndexIds());
  for (IndexId id : a.BuiltIndexIds()) {
    EXPECT_EQ(a.index(id).entry_count(), b.index(id).entry_count())
        << "index " << id;
    EXPECT_TRUE(a.index(id).CheckInvariants().ok()) << "index " << id;
    EXPECT_TRUE(b.index(id).CheckInvariants().ok()) << "index " << id;
  }
}

TEST(ServeTest, MultiClientMatchesSingleClientBitForBit) {
  Catalog catalog = MakeTestCatalog();
  const std::vector<Query> trace = MakeTrace(catalog, 160);

  TunedRun serial = RunTuned(trace, /*clients=*/1);
  TunedRun parallel = RunTuned(trace, /*clients=*/4);

  // Every query executed, in trace order, with identical results and
  // physical page accounting.
  ASSERT_EQ(serial.result.queries.size(), trace.size());
  ExpectSameServedStream(serial.result, parallel.result);
  for (const ServedQuery& q : parallel.result.queries) {
    EXPECT_TRUE(q.ok) << q.error;
  }

  // The tuner's view is client-count-independent: same actions, same
  // epoch diagnostics, and byte-identical epoch CSVs (the fig-series
  // artifact format).
  EXPECT_EQ(serial.result.tuner_actions, parallel.result.tuner_actions);
  EXPECT_EQ(serial.result.epochs, parallel.result.epochs);
  ASSERT_EQ(serial.result.epoch_reports.size(),
            parallel.result.epoch_reports.size());
  EXPECT_EQ(EpochCsv(serial.result.epoch_reports),
            EpochCsv(parallel.result.epoch_reports));

  // The run is long enough to exercise online installs — otherwise this
  // differential proves less than it claims.
  EXPECT_GT(parallel.result.tuner_actions, 0)
      << "trace produced no online index actions; differential is vacuous";

  // Both databases converged to the same physical configuration.
  EXPECT_EQ(serial.db->BuiltIndexIds(), parallel.db->BuiltIndexIds());
}

TEST(ServeTest, CursorServesEachQueryOnceInTraceOrder) {
  // Clients claim queries one at a time through one cursor, and the owner
  // claims from it too while it would otherwise wait, so who serves a
  // query depends on scheduling; the stream itself does not. Every
  // position is served exactly once, in trace order, by a client in
  // [0, N) or by the owner.
  Catalog catalog = MakeTestCatalog();
  const std::vector<Query> trace = MakeTrace(catalog, 40);
  constexpr int kClients = 3;
  TunedRun run = RunTuned(trace, kClients);
  ASSERT_EQ(run.result.queries.size(), trace.size());
  std::vector<int> served_count(trace.size(), 0);
  for (size_t i = 0; i < run.result.queries.size(); ++i) {
    const ServedQuery& q = run.result.queries[i];
    EXPECT_EQ(q.trace_index, static_cast<int64_t>(i));
    ASSERT_GE(q.trace_index, 0);
    ASSERT_LT(q.trace_index, static_cast<int64_t>(trace.size()));
    ++served_count[static_cast<size_t>(q.trace_index)];
    EXPECT_TRUE(q.ok) << q.error;
    EXPECT_TRUE(q.client == ServedQuery::kOwner ||
                (q.client >= 0 && q.client < kClients))
        << "query " << i << " client " << q.client;
  }
  for (size_t i = 0; i < served_count.size(); ++i) {
    EXPECT_EQ(served_count[i], 1) << "trace index " << i;
  }
}

TEST(ServeTest, FrozenConfigurationServesWholeTraceAsOneEpoch) {
  Database db(MakeTestCatalog(), /*seed=*/7);
  ASSERT_TRUE(db.MaterializeAll(/*refresh_stats=*/true).ok());
  Result<IndexDescriptor> desc =
      db.mutable_catalog().IndexOn(Ref(db.catalog(), "big", "b_key"));
  ASSERT_TRUE(desc.ok());
  ASSERT_TRUE(db.BuildIndex(desc.value().id).ok());
  QueryOptimizer optimizer(&db.catalog());
  const std::vector<Query> trace = MakeTrace(db.catalog(), 60);

  ServeOptions serial_opts;
  serial_opts.client_threads = 1;
  serial_opts.pin_threads = false;
  const ServeResult serial =
      ServeWorkload(&db, &optimizer, /*tuner=*/nullptr, trace, serial_opts);
  ServeOptions parallel_opts;
  parallel_opts.client_threads = 4;
  parallel_opts.pin_threads = false;
  const ServeResult parallel =
      ServeWorkload(&db, &optimizer, /*tuner=*/nullptr, trace, parallel_opts);

  EXPECT_EQ(serial.epochs, 1);
  EXPECT_EQ(parallel.epochs, 1);
  EXPECT_TRUE(serial.epoch_reports.empty());
  ExpectSameServedStream(serial, parallel);
  // The built index actually serves queries: some plans must use it.
  bool index_used = false;
  for (const ServedQuery& q : parallel.queries) {
    EXPECT_TRUE(q.ok) << q.error;
    if (q.result.pages_index > 0) index_used = true;
  }
  EXPECT_TRUE(index_used);
}

TEST(ServeTest, PerClientMetricsBuffersMergeIntoDefault) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  registry.Reset();
  registry.set_enabled(true);
  {
    Database db(MakeTestCatalog(), /*seed=*/7);
    ASSERT_TRUE(db.MaterializeAll(/*refresh_stats=*/true).ok());
    QueryOptimizer optimizer(&db.catalog());
    const std::vector<Query> trace = MakeTrace(db.catalog(), 30);
    ServeOptions options;
    options.client_threads = 3;
    options.pin_threads = false;
    const ServeResult result =
        ServeWorkload(&db, &optimizer, /*tuner=*/nullptr, trace, options);
    for (const ServedQuery& q : result.queries) EXPECT_TRUE(q.ok) << q.error;
  }
  // Client-side operator instruments were recorded into per-client
  // buffers and folded into the main registry when the loop drained at the
  // end of the run.
  EXPECT_EQ(registry.GetCounter("exec.operator.invocations")->value(), 30);
  registry.Reset();
  registry.set_enabled(false);
}

TEST(ServeTest, EpochEndHookSeesQuiescentClients) {
  Catalog catalog = MakeTestCatalog();
  const std::vector<Query> trace = MakeTrace(catalog, 50);
  TunedRun run = MakeTunedRun(MakeTestCatalog(), TightBudgetConfig());
  ServeOptions options;
  options.client_threads = 2;
  options.pin_threads = false;
  std::vector<int> epochs_seen;
  Database* db = run.db.get();
  options.on_epoch_end = [&epochs_seen, db](int epoch) {
    epochs_seen.push_back(epoch);
    // Clients are drained: every built tree must pass full validation.
    for (IndexId id : db->BuiltIndexIds()) {
      EXPECT_TRUE(db->index(id).CheckInvariants().ok());
    }
  };
  run.result = ServeWorkload(db, run.optimizer.get(), run.tuner.get(), trace,
                             options);
  ASSERT_EQ(static_cast<int>(epochs_seen.size()), run.result.epochs);
  for (size_t i = 0; i < epochs_seen.size(); ++i) {
    EXPECT_EQ(epochs_seen[i], static_cast<int>(i));
  }
}

TEST(ServeTest, TraceWithWritesIsServedAndMatchesOneClient) {
  // Writes are fences: the owner applies each once every read before it
  // has completed, and records it with the owner marker.
  auto serve = [](int clients, std::unique_ptr<Database>* db) {
    *db = std::make_unique<Database>(MakeTestCatalog(), /*seed=*/7);
    EXPECT_TRUE((*db)->MaterializeAll(/*refresh_stats=*/true).ok());
    QueryOptimizer optimizer(&(*db)->catalog());
    std::vector<Query> trace = MakeTrace((*db)->catalog(), 6);
    trace.insert(trace.begin() + 4,
                 Query::MakeInsert((*db)->catalog().FindTable("big"), 10));
    trace.push_back(
        Query::MakeDelete((*db)->catalog().FindTable("small"), {}));
    ServeOptions options;
    options.client_threads = clients;
    options.pin_threads = false;
    return ServeWorkload(db->get(), &optimizer, /*tuner=*/nullptr, trace,
                         options);
  };
  std::unique_ptr<Database> serial_db;
  std::unique_ptr<Database> parallel_db;
  const ServeResult serial = serve(/*clients=*/1, &serial_db);
  const ServeResult parallel = serve(/*clients=*/2, &parallel_db);

  ASSERT_EQ(parallel.queries.size(), 8u);
  for (const ServedQuery& q : parallel.queries) EXPECT_TRUE(q.ok) << q.error;
  EXPECT_EQ(parallel.epochs, 1);
  const ServedQuery& insert = parallel.queries[4];
  EXPECT_EQ(insert.client, ServedQuery::kOwner);
  EXPECT_EQ(insert.result.rows_written, 10);
  const ServedQuery& del = parallel.queries[7];
  EXPECT_EQ(del.client, ServedQuery::kOwner);
  EXPECT_EQ(del.result.rows_written, 1000);
  // Reads go to a client, or to the owner while it waits at a fence.
  for (int64_t i : {0, 1, 2, 3, 5, 6}) {
    const int client = parallel.queries[static_cast<size_t>(i)].client;
    EXPECT_TRUE(client == ServedQuery::kOwner || (client >= 0 && client < 2))
        << "read " << i << " client " << client;
  }
  ExpectSameServedStream(serial, parallel);
  ExpectSameDatabase(*serial_db, *parallel_db);
  const TableId small = parallel_db->catalog().FindTable("small");
  EXPECT_EQ(parallel_db->data(small).live_row_count(), 0);
}

/// A TPC-H instance small enough for sanitizer runs, with real tuples.
Catalog MakeHtapCatalog() {
  TpchOptions options;
  options.instances = 1;
  options.scale = 0.01;
  return MakeTpchCatalog(options);
}

/// The fig_htap phases (read-heavy, bulk-insert-heavy, read-heavy again)
/// followed by the hot-spot UPDATE/DELETE/INSERT mix: every write kind.
std::vector<Query> MakeHtapTrace() {
  Catalog catalog = MakeHtapCatalog();
  std::vector<WorkloadPhase> phases;
  for (const QueryDistribution& d : ExperimentWorkloads::HtapPhases(&catalog)) {
    phases.push_back({d, 40});
  }
  phases.push_back({ExperimentWorkloads::HotSpotWrites(&catalog), 60});
  WorkloadGenerator gen(&catalog, /*seed=*/31);
  return GeneratePhasedWorkload(gen, phases, /*transition_length=*/10);
}

ColtConfig HtapConfig() {
  ColtConfig config;
  config.storage_budget_bytes = 2LL * 1024 * 1024;
  return config;
}

/// The serving contract computed without ServeWorkload. Per segment (the
/// reads of one tuner epoch between writes): plan every read against the
/// tuner's configuration, execute them, then feed the segment to the
/// tuner. A write is applied by its own OnQuery, after every read before
/// it and before every read after it.
ServeResult ServeSerially(const std::vector<Query>& trace, TunedRun* run) {
  ServeResult out;
  out.queries.resize(trace.size());
  Executor executor(run->db.get());
  const size_t epoch =
      static_cast<size_t>(run->tuner->config().epoch_length);
  for (size_t pos = 0; pos < trace.size(); pos += epoch) {
    const size_t end = std::min(pos + epoch, trace.size());
    size_t i = pos;
    while (i < end) {
      ServedQuery& served = out.queries[i];
      served.trace_index = static_cast<int64_t>(i);
      if (trace[i].is_write()) {
        TuningStep step = run->tuner->OnQuery(trace[i]);
        out.tuner_actions += static_cast<int64_t>(step.actions.size());
        served.estimated_cost = step.plan.cost;
        EXPECT_TRUE(step.applied_write.has_value()) << "write " << i;
        if (step.applied_write.has_value() && step.applied_write->ok()) {
          served.ok = true;
          served.result = **step.applied_write;
        } else if (step.applied_write.has_value()) {
          served.error = step.applied_write->status().ToString();
        }
        ++i;
        continue;
      }
      size_t segment_end = i;
      while (segment_end < end && !trace[segment_end].is_write()) {
        ++segment_end;
      }
      std::vector<PlanResult> plans;
      for (size_t j = i; j < segment_end; ++j) {
        plans.push_back(
            run->optimizer->Optimize(trace[j], run->tuner->materialized()));
      }
      for (size_t j = i; j < segment_end; ++j) {
        const PlanResult& plan = plans[j - i];
        ServedQuery& read = out.queries[j];
        read.trace_index = static_cast<int64_t>(j);
        read.estimated_cost = plan.cost;
        Result<ExecutionResult> result = executor.Execute(*plan.plan);
        if (result.ok()) {
          read.ok = true;
          read.result = *result;
        } else {
          read.error = result.status().ToString();
        }
      }
      for (size_t j = i; j < segment_end; ++j) {
        const TuningStep step = run->tuner->OnQuery(trace[j]);
        out.tuner_actions += static_cast<int64_t>(step.actions.size());
      }
      i = segment_end;
    }
    ++out.epochs;
  }
  out.epoch_reports = run->tuner->epoch_reports();
  return out;
}

TEST(ServeTest, HtapTraceMatchesSerialOracleAtEveryClientCount) {
  const std::vector<Query> trace = MakeHtapTrace();
  int inserts = 0;
  int updates = 0;
  int deletes = 0;
  for (const Query& q : trace) {
    inserts += q.kind() == StatementKind::kInsert;
    updates += q.kind() == StatementKind::kUpdate;
    deletes += q.kind() == StatementKind::kDelete;
  }
  ASSERT_GT(inserts, 0);
  ASSERT_GT(updates, 0);
  ASSERT_GT(deletes, 0);

  TunedRun oracle = MakeTunedRun(MakeHtapCatalog(), HtapConfig());
  oracle.result = ServeSerially(trace, &oracle);
  EXPECT_GT(oracle.result.tuner_actions, 0)
      << "trace produced no online index actions; differential is vacuous";
  for (const ServedQuery& q : oracle.result.queries) {
    EXPECT_TRUE(q.ok) << "query " << q.trace_index << ": " << q.error;
  }

  for (int clients : {1, 2, 4, 8}) {
    SCOPED_TRACE("clients=" + std::to_string(clients));
    TunedRun run = RunTuned(MakeHtapCatalog(), HtapConfig(), trace, clients);
    ExpectSameServedStream(oracle.result, run.result);
    EXPECT_EQ(oracle.result.tuner_actions, run.result.tuner_actions);
    EXPECT_EQ(oracle.result.epochs, run.result.epochs);
    EXPECT_EQ(EpochCsv(oracle.result.epoch_reports),
              EpochCsv(run.result.epoch_reports));
    ExpectSameDatabase(*oracle.db, *run.db);
    for (size_t i = 0; i < trace.size(); ++i) {
      const int client = run.result.queries[i].client;
      if (trace[i].is_write()) {
        EXPECT_EQ(client, ServedQuery::kOwner) << "query " << i;
      } else {
        EXPECT_TRUE(client == ServedQuery::kOwner ||
                    (client >= 0 && client < clients))
            << "query " << i << " client " << client;
      }
    }
  }
}

TEST(ServeTest, DeepPipelineUnderIndexChurnMatchesOneClient) {
  // Two-query epochs with room for about one index: the tuner builds and
  // drops trees while many segments, each pinning its own snapshot, are
  // in flight. Every third query is a wide scan that no index helps, so
  // the clients fall behind the owner and run index scans planned before
  // the tree was dropped, and the owner, finding the pipeline full, serves
  // reads itself. A tree freed under a pinned segment would show as a
  // use-after-free under ASan or as a diverging stream here. (With
  // one-query epochs this tuner never acts, so there is no churn.)
  Catalog catalog = MakeTestCatalog();
  WorkloadGenerator gen(&catalog, /*seed=*/97);
  QueryDistribution wide;
  wide.name = "wide_cat";
  QueryTemplate wide_scan;
  wide_scan.name = "b_cat";
  wide_scan.tables = {catalog.FindTable("big")};
  wide_scan.selections = {{Ref(catalog, "big", "b_cat"), 0.3, 0.6, false}};
  wide.templates = {wide_scan};
  wide.weights = {1.0};
  std::vector<Query> trace;
  for (const char* column : {"b_key", "b_val", "b_key", "b_val"}) {
    QueryDistribution dist;
    dist.name = std::string("focus_") + column;
    QueryTemplate tmpl;
    tmpl.name = column;
    tmpl.tables = {catalog.FindTable("big")};
    tmpl.selections = {{Ref(catalog, "big", column), 0.001, 0.01, false}};
    dist.templates = {tmpl};
    dist.weights = {1.0};
    for (int i = 0; i < 80; ++i) {
      trace.push_back(gen.Sample(dist));
      if (i % 2 == 0) trace.push_back(gen.Sample(wide));
    }
  }
  ColtConfig config = TightBudgetConfig();
  config.epoch_length = 2;
  TunedRun serial = RunTuned(MakeTestCatalog(), config, trace, 1);
  TunedRun parallel = RunTuned(MakeTestCatalog(), config, trace, 4);
  ExpectSameServedStream(serial.result, parallel.result);
  for (const ServedQuery& q : parallel.result.queries) {
    EXPECT_TRUE(q.ok) << q.error;
  }
  EXPECT_EQ(serial.result.tuner_actions, parallel.result.tuner_actions);
  EXPECT_EQ(EpochCsv(serial.result.epoch_reports),
            EpochCsv(parallel.result.epoch_reports));
  ExpectSameDatabase(*serial.db, *parallel.db);

  // Not vacuous: indexes left the configuration mid-run.
  int drops = 0;
  const std::vector<EpochReport>& reports = parallel.result.epoch_reports;
  for (size_t e = 1; e < reports.size(); ++e) {
    const std::vector<IndexId>& now = reports[e].materialized_ids;
    for (IndexId id : reports[e - 1].materialized_ids) {
      if (std::find(now.begin(), now.end(), id) == now.end()) ++drops;
    }
  }
  EXPECT_GT(drops, 0) << "no index was dropped while serving";

  // Not vacuous either: the owner served reads while it would have waited.
  int owner_reads = 0;
  for (const TunedRun* run : {&serial, &parallel}) {
    for (size_t i = 0; i < trace.size(); ++i) {
      owner_reads += run->result.queries[i].client == ServedQuery::kOwner;
    }
  }
  EXPECT_GT(owner_reads, 0) << "the owner served no read";
}

}  // namespace
}  // namespace colt
