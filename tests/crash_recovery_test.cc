// Differential crash-recovery tests (DESIGN.md §12): a tuner that
// checkpoints, dies, and recovers must continue bit-identically to a tuner
// that never died — per-step accounting, epoch reports, fault-injection
// streams, and (in physical mode) the rebuilt index set all match. Also
// covers the graceful degradations: missing, mismatched, and corrupt state
// cold-starts cleanly instead of crashing or resuming garbage.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/colt.h"
#include "storage/database.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeRangeQuery;
using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

std::string NewStateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/crash_recovery_" + name;
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/snap-0.bin").c_str());
  std::remove((dir + "/snap-1.bin").c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// A shifting workload: b_key-heavy, then b_val-heavy — the shape that
/// makes COLT change its mind, so recovery is tested across configuration
/// churn, not on a workload where nothing happens.
std::vector<Query> ShiftingWorkload(const Catalog& catalog, int n,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  for (int i = 0; i < n; ++i) {
    if (i < n / 2) {
      const int64_t lo = rng.NextInRange(0, 9900);
      out.push_back(MakeRangeQuery(catalog, "big", "b_key", lo, lo + 20));
    } else {
      const int64_t lo = rng.NextInRange(0, 900);
      out.push_back(MakeRangeQuery(catalog, "big", "b_val", lo, lo + 5));
    }
  }
  return out;
}

void ExpectStepEq(const TuningStep& a, const TuningStep& b, int at) {
  EXPECT_EQ(a.plan.cost, b.plan.cost) << "query " << at;
  EXPECT_EQ(a.execution_seconds, b.execution_seconds) << "query " << at;
  EXPECT_EQ(a.profiling_seconds, b.profiling_seconds) << "query " << at;
  EXPECT_EQ(a.build_seconds, b.build_seconds) << "query " << at;
  EXPECT_EQ(a.wasted_build_seconds, b.wasted_build_seconds) << "query " << at;
  EXPECT_EQ(a.whatif_calls, b.whatif_calls) << "query " << at;
  EXPECT_EQ(a.degraded_whatif_calls, b.degraded_whatif_calls)
      << "query " << at;
  EXPECT_EQ(a.epoch_ended, b.epoch_ended) << "query " << at;
  ASSERT_EQ(a.actions.size(), b.actions.size()) << "query " << at;
  for (size_t i = 0; i < a.actions.size(); ++i) {
    EXPECT_EQ(a.actions[i].type, b.actions[i].type) << "query " << at;
    EXPECT_EQ(a.actions[i].index, b.actions[i].index) << "query " << at;
    EXPECT_EQ(a.actions[i].build_seconds, b.actions[i].build_seconds)
        << "query " << at;
  }
}

void ExpectReportEq(const EpochReport& a, const EpochReport& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.whatif_used, b.whatif_used) << "epoch " << a.epoch;
  EXPECT_EQ(a.whatif_limit, b.whatif_limit) << "epoch " << a.epoch;
  EXPECT_EQ(a.next_whatif_limit, b.next_whatif_limit) << "epoch " << a.epoch;
  EXPECT_EQ(a.rebudget_ratio, b.rebudget_ratio) << "epoch " << a.epoch;
  EXPECT_EQ(a.candidate_count, b.candidate_count) << "epoch " << a.epoch;
  EXPECT_EQ(a.cluster_count, b.cluster_count) << "epoch " << a.epoch;
  EXPECT_EQ(a.hot_ids, b.hot_ids) << "epoch " << a.epoch;
  EXPECT_EQ(a.materialized_ids, b.materialized_ids) << "epoch " << a.epoch;
  EXPECT_EQ(a.materialized_bytes, b.materialized_bytes)
      << "epoch " << a.epoch;
  EXPECT_EQ(a.degraded_whatif, b.degraded_whatif) << "epoch " << a.epoch;
  EXPECT_EQ(a.build_failures, b.build_failures) << "epoch " << a.epoch;
  EXPECT_EQ(a.quarantined_ids, b.quarantined_ids) << "epoch " << a.epoch;
  EXPECT_EQ(a.storage_budget_bytes, b.storage_budget_bytes)
      << "epoch " << a.epoch;
  EXPECT_EQ(a.emergency_evictions, b.emergency_evictions)
      << "epoch " << a.epoch;
  EXPECT_EQ(a.wasted_build_seconds, b.wasted_build_seconds)
      << "epoch " << a.epoch;
}

/// Runs the continuous reference and the kill-at-`kill_after`/recover pair
/// over the same workload and asserts post-recovery equivalence.
void RunDifferential(const ColtConfig& config, int total_queries,
                     int kill_after, const std::string& dir_name) {
  const int w = config.epoch_length;
  ASSERT_EQ(kill_after % w, 0)
      << "kill point must be an epoch boundary: recovery resumes from the "
         "last boundary checkpoint";
  const std::string dir = NewStateDir(dir_name);

  // Continuous reference: persistence off, never dies.
  Catalog ref_catalog = MakeTestCatalog();
  QueryOptimizer ref_optimizer(&ref_catalog);
  ColtTuner reference(&ref_catalog, &ref_optimizer, config);
  const std::vector<Query> ref_workload =
      ShiftingWorkload(ref_catalog, total_queries, 99);
  std::vector<TuningStep> ref_steps;
  for (const Query& q : ref_workload) ref_steps.push_back(reference.OnQuery(q));

  // Victim: checkpoints every epoch, "dies" (is destroyed) at kill_after.
  ColtConfig persist_config = config;
  persist_config.state_dir = dir;
  {
    Catalog victim_catalog = MakeTestCatalog();
    QueryOptimizer victim_optimizer(&victim_catalog);
    ColtTuner victim(&victim_catalog, &victim_optimizer, persist_config);
    const std::vector<Query> workload =
        ShiftingWorkload(victim_catalog, total_queries, 99);
    for (int i = 0; i < kill_after; ++i) {
      const TuningStep step = victim.OnQuery(workload[i]);
      // Persistence on vs. off must not change tuning by a single bit.
      ExpectStepEq(ref_steps[static_cast<size_t>(i)], step, i);
    }
  }

  // Recovered run: fresh everything, state from disk.
  Catalog rec_catalog = MakeTestCatalog();
  QueryOptimizer rec_optimizer(&rec_catalog);
  ColtTuner recovered(&rec_catalog, &rec_optimizer, persist_config);
  const Result<bool> resumed = recovered.RecoverFromStateDir();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE(*resumed) << "a checkpoint must exist at the kill point";
  EXPECT_EQ(recovered.queries_observed(), kill_after);
  EXPECT_EQ(recovered.current_epoch(), kill_after / w);

  const std::vector<Query> workload =
      ShiftingWorkload(rec_catalog, total_queries, 99);
  for (int i = kill_after; i < total_queries; ++i) {
    const TuningStep step = recovered.OnQuery(workload[static_cast<size_t>(i)]);
    ExpectStepEq(ref_steps[static_cast<size_t>(i)], step, i);
  }
  EXPECT_EQ(recovered.materialized().ids(), reference.materialized().ids());
  EXPECT_EQ(recovered.hot_set(), reference.hot_set());
  EXPECT_EQ(recovered.whatif_limit(), reference.whatif_limit());
  EXPECT_EQ(recovered.queries_observed(), reference.queries_observed());
  EXPECT_EQ(recovered.distinct_indexes_profiled(),
            reference.distinct_indexes_profiled());
  EXPECT_EQ(recovered.degraded_whatif_total(),
            reference.degraded_whatif_total());

  // Post-recovery epoch reports must equal the reference's at the same
  // epoch numbers (the recovered tuner only holds post-boundary reports).
  const auto& ref_reports = reference.epoch_reports();
  const auto& rec_reports = recovered.epoch_reports();
  const size_t skipped = ref_reports.size() - rec_reports.size();
  ASSERT_EQ(skipped, static_cast<size_t>(kill_after / w));
  for (size_t i = 0; i < rec_reports.size(); ++i) {
    ExpectReportEq(ref_reports[i + skipped], rec_reports[i]);
  }
}

TEST(CrashRecoveryTest, RecoveredRunIsBitIdenticalToContinuousRun) {
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  RunDifferential(config, 120, 60, "plain");
}

TEST(CrashRecoveryTest, RecoveryAtFirstEpochBoundary) {
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  RunDifferential(config, 60, 10, "early");
}

TEST(CrashRecoveryTest, RecoveryUnderChaosFaultsRestoresFaultStreams) {
  // Build failures + slow what-ifs + a mid-run budget shrink: recovery must
  // resume every per-site fault stream mid-sequence, or the two runs
  // diverge on the first post-recovery draw.
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  config.fault.Fail(fault_sites::kIndexBuild, 0.5);
  config.fault.Slow(fault_sites::kWhatIfSlow, 0.2, 3.0);
  config.fault.Slow(fault_sites::kStorageScan, 0.1, 2.0);
  config.max_build_retries = 2;
  config.quarantine_cooldown_rounds = 4;
  RunDifferential(config, 120, 60, "chaos");
}

TEST(CrashRecoveryTest, RecoveryWithIdleTimeScheduling) {
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  config.scheduling_strategy = SchedulingStrategy::kIdleTime;
  config.idle_seconds_per_query = 0.5;
  RunDifferential(config, 120, 60, "idle");
}

TEST(CrashRecoveryTest, PhysicalModeRebuildsIndexesFromBaseTables) {
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  const std::string dir = NewStateDir("physical");
  ColtConfig persist_config = config;
  persist_config.state_dir = dir;

  std::vector<IndexId> built_before;
  {
    Database db(MakeTestCatalog(), 7);
    ASSERT_TRUE(db.MaterializeAll().ok());
    QueryOptimizer optimizer(&db.mutable_catalog());
    ColtTuner victim(&db.mutable_catalog(), &optimizer, persist_config, &db);
    for (const Query& q : ShiftingWorkload(db.catalog(), 60, 99)) {
      victim.OnQuery(q);
    }
    built_before = db.BuiltIndexIds();
    ASSERT_FALSE(built_before.empty())
        << "the workload must have materialized something";
  }

  Database db(MakeTestCatalog(), 7);
  ASSERT_TRUE(db.MaterializeAll().ok());
  QueryOptimizer optimizer(&db.mutable_catalog());
  ColtTuner recovered(&db.mutable_catalog(), &optimizer, persist_config, &db);
  const Result<bool> resumed = recovered.RecoverFromStateDir();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE(*resumed);
  // The snapshot stores index ids, never pages: the trees exist again
  // because recovery re-bulk-loaded them from the base tables.
  EXPECT_EQ(db.BuiltIndexIds(), built_before);
  EXPECT_EQ(recovered.materialized().ids(), built_before);
}

TEST(CrashRecoveryTest, FreshDirectoryColdStarts) {
  Catalog catalog = MakeTestCatalog();
  QueryOptimizer optimizer(&catalog);
  ColtConfig config;
  config.state_dir = NewStateDir("cold");
  ColtTuner tuner(&catalog, &optimizer, config);
  const Result<bool> resumed = tuner.RecoverFromStateDir();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(*resumed);
  EXPECT_EQ(tuner.current_epoch(), 0);
}

TEST(CrashRecoveryTest, PersistenceDisabledIsAlwaysColdStart) {
  Catalog catalog = MakeTestCatalog();
  QueryOptimizer optimizer(&catalog);
  ColtTuner tuner(&catalog, &optimizer, ColtConfig{});
  EXPECT_EQ(tuner.checkpoint_store(), nullptr);
  const Result<bool> resumed = tuner.RecoverFromStateDir();
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(*resumed);
}

TEST(CrashRecoveryTest, ConfigMismatchColdStartsWithoutTouchingState) {
  const std::string dir = NewStateDir("confmismatch");
  ColtConfig config;
  config.state_dir = dir;
  {
    Catalog catalog = MakeTestCatalog();
    QueryOptimizer optimizer(&catalog);
    ColtTuner victim(&catalog, &optimizer, config);
    for (const Query& q : ShiftingWorkload(catalog, 30, 99)) {
      victim.OnQuery(q);
    }
  }
  ColtConfig changed = config;
  changed.history_depth = 6;  // different memory window: stats incompatible
  Catalog catalog = MakeTestCatalog();
  QueryOptimizer optimizer(&catalog);
  ColtTuner recovered(&catalog, &optimizer, changed);
  const Result<bool> resumed = recovered.RecoverFromStateDir();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(*resumed) << "a changed config must reject the snapshot";
  // The reject left the tuner fully usable for a cold start.
  EXPECT_EQ(recovered.current_epoch(), 0);
  for (const Query& q : ShiftingWorkload(catalog, 20, 99)) {
    recovered.OnQuery(q);
  }
  EXPECT_EQ(recovered.current_epoch(), 2);
}

TEST(CrashRecoveryTest, CatalogMismatchColdStarts) {
  const std::string dir = NewStateDir("catmismatch");
  ColtConfig config;
  config.state_dir = dir;
  {
    Catalog catalog = MakeTestCatalog();
    QueryOptimizer optimizer(&catalog);
    ColtTuner victim(&catalog, &optimizer, config);
    for (const Query& q : ShiftingWorkload(catalog, 30, 99)) {
      victim.OnQuery(q);
    }
  }
  Catalog catalog = MakeTestCatalog();
  catalog.AddTable(TableSchema(
      "extra", {{"e_id", ColumnType::kInt64, 8, 10, true}}, 10));
  QueryOptimizer optimizer(&catalog);
  ColtTuner recovered(&catalog, &optimizer, config);
  const Result<bool> resumed = recovered.RecoverFromStateDir();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(*resumed) << "a changed catalog must reject the snapshot";
  EXPECT_EQ(recovered.current_epoch(), 0);
}

TEST(CrashRecoveryTest, CorruptSnapshotsColdStartCleanly) {
  const std::string dir = NewStateDir("corrupt");
  ColtConfig config;
  config.state_dir = dir;
  {
    Catalog catalog = MakeTestCatalog();
    QueryOptimizer optimizer(&catalog);
    ColtTuner victim(&catalog, &optimizer, config);
    for (const Query& q : ShiftingWorkload(catalog, 30, 99)) {
      victim.OnQuery(q);
    }
  }
  Catalog catalog = MakeTestCatalog();
  QueryOptimizer optimizer(&catalog);
  ColtTuner recovered(&catalog, &optimizer, config);
  for (uint32_t gen = 0; gen <= 1; ++gen) {
    const std::string path =
        recovered.checkpoint_store()->SnapshotPath(gen);
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) continue;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    for (char& c : bytes) c ^= 0x77;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const Result<bool> resumed = recovered.RecoverFromStateDir();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(*resumed) << "all-corrupt state must degrade to cold start";
  for (const Query& q : ShiftingWorkload(catalog, 20, 99)) {
    recovered.OnQuery(q);
  }
  EXPECT_EQ(recovered.current_epoch(), 2);
}

TEST(CrashRecoveryTest, OlderFormatVersionColdStarts) {
  const std::string dir = NewStateDir("oldformat");
  ColtConfig config;
  config.state_dir = dir;
  {
    Catalog catalog = MakeTestCatalog();
    QueryOptimizer optimizer(&catalog);
    ColtTuner victim(&catalog, &optimizer, config);
    for (const Query& q : ShiftingWorkload(catalog, 30, 99)) {
      victim.OnQuery(q);
    }
  }
  {
    // Untouched, the state directory recovers.
    Catalog catalog = MakeTestCatalog();
    QueryOptimizer optimizer(&catalog);
    ColtTuner control(&catalog, &optimizer, config);
    const Result<bool> resumed = control.RecoverFromStateDir();
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_TRUE(*resumed);
  }
  Catalog catalog = MakeTestCatalog();
  QueryOptimizer optimizer(&catalog);
  // The snapshot header is magic (u64) then the format version (u32,
  // little-endian) at byte 8, read before the payload checksum: stamping
  // version 1 leaves every other check passing.
  ColtTuner recovered(&catalog, &optimizer, config);
  int patched = 0;
  for (uint32_t gen = 0; gen <= 1; ++gen) {
    const std::string path =
        recovered.checkpoint_store()->SnapshotPath(gen);
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) continue;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GE(bytes.size(), 12u);
    const uint32_t version = static_cast<uint32_t>(
        static_cast<unsigned char>(bytes[8]) |
        static_cast<unsigned char>(bytes[9]) << 8 |
        static_cast<unsigned char>(bytes[10]) << 16 |
        static_cast<unsigned char>(bytes[11]) << 24);
    ASSERT_EQ(version, CheckpointStore::kFormatVersion);
    bytes[8] = 1;
    bytes[9] = bytes[10] = bytes[11] = 0;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ++patched;
  }
  ASSERT_GT(patched, 0);
  const Result<bool> resumed = recovered.RecoverFromStateDir();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(*resumed) << "an older format must degrade to cold start";
  EXPECT_EQ(recovered.current_epoch(), 0);
  for (const Query& q : ShiftingWorkload(catalog, 20, 99)) {
    recovered.OnQuery(q);
  }
  EXPECT_EQ(recovered.current_epoch(), 2);
}

TEST(CrashRecoveryTest, LoadStateRefusesAUsedTuner) {
  Catalog catalog = MakeTestCatalog();
  QueryOptimizer optimizer(&catalog);
  ColtTuner tuner(&catalog, &optimizer, ColtConfig{});
  tuner.OnQuery(MakeRangeQuery(catalog, "big", "b_key", 0, 10));
  BinaryWriter writer;
  tuner.SaveState(&writer);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(tuner.LoadState(&reader).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace colt
