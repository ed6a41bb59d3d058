/// Differential pin for the serving layer (DESIGN.md §15): an N-client
/// serving run must be observationally identical to the single-client run
/// of the same trace — per-query results and page accounting bit-for-bit,
/// tuner decisions unchanged, epoch-report CSVs byte-identical. The
/// nondeterministic field (wall-clock latency) is excluded by
/// construction.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/colt.h"
#include "core/serve.h"
#include "harness/report.h"
#include "optimizer/optimizer.h"
#include "query/workload.h"
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

/// One full tuned serving run on a fresh, deterministic database.
struct TunedRun {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryOptimizer> optimizer;
  std::unique_ptr<ColtTuner> tuner;
  ServeResult result;
};

TunedRun RunTuned(const std::vector<Query>& trace, int clients) {
  TunedRun run;
  run.db = std::make_unique<Database>(MakeTestCatalog(), /*seed=*/7);
  EXPECT_TRUE(run.db->MaterializeAll(/*refresh_stats=*/true).ok());
  run.optimizer = std::make_unique<QueryOptimizer>(&run.db->catalog());
  ColtConfig config;
  config.storage_budget_bytes = 4LL * 1024 * 1024;
  run.tuner = std::make_unique<ColtTuner>(&run.db->mutable_catalog(),
                                          run.optimizer.get(), config,
                                          run.db.get(), /*seed=*/7);
  ServeOptions options;
  options.client_threads = clients;
  options.pin_threads = false;
  run.result = ServeWorkload(run.db.get(), run.optimizer.get(),
                             run.tuner.get(), trace, options);
  return run;
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

TEST(ServeTest, ClientPartitionInterleavesRoundRobin) {
  Catalog catalog = MakeTestCatalog();
  const std::vector<Query> trace = MakeTrace(catalog, 40);
  TunedRun run = RunTuned(trace, /*clients=*/3);
  ASSERT_EQ(run.result.queries.size(), trace.size());
  const int epoch_length = run.tuner->config().epoch_length;
  for (size_t i = 0; i < run.result.queries.size(); ++i) {
    const ServedQuery& q = run.result.queries[i];
    EXPECT_EQ(q.trace_index, static_cast<int64_t>(i));
    // Client c serves positions ≡ c (mod N) within each serving epoch.
    const int within_epoch = static_cast<int>(i) % epoch_length;
    EXPECT_EQ(q.client, within_epoch % 3) << "query " << i;
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
  // buffers and folded into the main registry at the epoch join.
  EXPECT_EQ(registry.GetCounter("exec.operator.invocations")->value(), 30);
  registry.Reset();
  registry.set_enabled(false);
}

TEST(ServeTest, EpochEndHookSeesQuiescentClients) {
  Catalog catalog = MakeTestCatalog();
  const std::vector<Query> trace = MakeTrace(catalog, 50);
  TunedRun run;
  run.db = std::make_unique<Database>(MakeTestCatalog(), /*seed=*/7);
  ASSERT_TRUE(run.db->MaterializeAll(/*refresh_stats=*/true).ok());
  run.optimizer = std::make_unique<QueryOptimizer>(&run.db->catalog());
  ColtConfig config;
  config.storage_budget_bytes = 4LL * 1024 * 1024;
  run.tuner = std::make_unique<ColtTuner>(&run.db->mutable_catalog(),
                                          run.optimizer.get(), config,
                                          run.db.get(), /*seed=*/7);
  ServeOptions options;
  options.client_threads = 2;
  options.pin_threads = false;
  std::vector<int> epochs_seen;
  Database* db = run.db.get();
  options.on_epoch_end = [&epochs_seen, db](int epoch) {
    epochs_seen.push_back(epoch);
    // Clients have joined: every built tree must pass full validation.
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

TEST(ServeDeathTest, TraceWithAWriteAbortsBeforeServing) {
  // The check runs before the client pool starts, so no thread exists yet
  // when the death test forks.
  Database db(MakeTestCatalog(), /*seed=*/7);
  QueryOptimizer optimizer(&db.catalog());
  std::vector<Query> trace = MakeTrace(db.catalog(), 6);
  trace.insert(trace.begin() + 4,
               Query::MakeInsert(db.catalog().FindTable("big"), 10));
  trace.push_back(Query::MakeDelete(db.catalog().FindTable("small"), {}));
  ServeOptions options;
  options.client_threads = 2;
  options.pin_threads = false;
  EXPECT_DEATH(
      ServeWorkload(&db, &optimizer, /*tuner=*/nullptr, trace, options),
      "read-only traces; the statement at trace index 4 is a write");
}

}  // namespace
}  // namespace colt
