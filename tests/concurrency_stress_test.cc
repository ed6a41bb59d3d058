/// Thread-sanitizer stress for the places worker threads touch shared
/// state: the B+-tree read path (concurrent const scans while other
/// indexes are bulk-loaded on workers), Database::PrepareIndex (const,
/// catalog + frozen table data only), and full query serving racing the
/// live tuner's installs/drops/evictions (DESIGN.md §15). Results are
/// cross-checked against a serial recomputation, so this doubles as a
/// correctness test; its real value is under -DCOLT_SANITIZE=thread,
/// where any racy access aborts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/thread_pool.h"
#include "core/colt.h"
#include "core/serve.h"
#include "query/workload.h"
#include "storage/database.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeTestCatalog;

/// Checksum of a range scan: row-id sum plus hit count, so two scans agree
/// iff they returned the same multiset of rows.
uint64_t ScanChecksum(const BTreeIndex& tree, int64_t lo, int64_t hi) {
  std::vector<RowId> rows;
  tree.RangeScan(lo, hi, &rows);
  uint64_t sum = rows.size();
  for (RowId r : rows) sum += static_cast<uint64_t>(r) * 2654435761ULL;
  return sum;
}

TEST(ConcurrencyStressTest, ReadersRaceStagedBuilds) {
  Database db(MakeTestCatalog(), 7);
  ASSERT_TRUE(db.MaterializeAll().ok());
  Catalog& catalog = db.mutable_catalog();

  // Descriptors for every indexable column; the first is built up front so
  // readers always have at least one live tree to hammer.
  std::vector<IndexId> ids;
  for (TableId t = 0; t < catalog.table_count(); ++t) {
    for (ColumnId c = 0; c < catalog.table(t).column_count(); ++c) {
      Result<IndexDescriptor> desc = catalog.IndexOn(ColumnRef{t, c});
      ASSERT_TRUE(desc.ok());
      ids.push_back(desc.value().id);
    }
  }
  ASSERT_GE(ids.size(), 4u);
  ASSERT_TRUE(db.BuildIndex(ids[0]).ok());

  ThreadPool pool(4);
  // Each round stages one new index on a worker while the other workers
  // scan every already-installed tree; the install happens on this thread
  // after the round joins — the same quiescence discipline the Scheduler
  // uses (PrepareIndex on workers, InstallIndex at the owner's boundary).
  for (size_t next = 1; next < ids.size(); ++next) {
    std::vector<IndexId> built = db.BuiltIndexIds();
    const Database* reader_db = &db;

    std::future<Result<std::unique_ptr<BTreeIndex>>> staged =
        pool.Submit([reader_db, id = ids[next]] {
          return reader_db->PrepareIndex(id);
        });
    constexpr int kReaders = 8;
    std::vector<uint64_t> checksums =
        pool.Map(kReaders, [reader_db, &built](size_t task) {
          Rng rng = ThreadPool::TaskRng(/*parent_seed=*/31, task);
          uint64_t sum = 0;
          for (int i = 0; i < 50; ++i) {
            for (IndexId id : built) {
              const int64_t lo = rng.NextInRange(0, 5000);
              sum += ScanChecksum(reader_db->index(id), lo, lo + 100);
            }
          }
          return sum;
        });

    Result<std::unique_ptr<BTreeIndex>> tree = staged.get();
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ASSERT_TRUE(tree.value()->CheckInvariants().ok());
    ASSERT_TRUE(db.InstallIndex(ids[next], std::move(tree).value()).ok());

    // Serial recomputation of every reader's work must match bit-for-bit:
    // concurrent const scans may not perturb the trees or each other.
    for (int task = 0; task < kReaders; ++task) {
      Rng rng = ThreadPool::TaskRng(/*parent_seed=*/31,
                                    static_cast<uint64_t>(task));
      uint64_t expected = 0;
      for (int i = 0; i < 50; ++i) {
        for (IndexId id : built) {
          const int64_t lo = rng.NextInRange(0, 5000);
          expected += ScanChecksum(db.index(id), lo, lo + 100);
        }
      }
      EXPECT_EQ(checksums[static_cast<size_t>(task)], expected)
          << "reader " << task << " diverged";
    }
  }
  EXPECT_EQ(db.BuiltIndexIds().size(), ids.size());
  for (IndexId id : ids) {
    EXPECT_TRUE(db.index(id).CheckInvariants().ok());
  }
}

TEST(ConcurrencyStressTest, ServingRacesLiveTunerReconfiguration) {
  // Full query traffic on 4 client threads while the tuner installs,
  // drops, and (budget willing) evicts real B+-trees on the owner thread.
  // The trace shifts its focus twice so the tuner has reason to both
  // build and abandon indexes mid-run; the tight budget forces churn.
  Database db(MakeTestCatalog(), 7);
  ASSERT_TRUE(db.MaterializeAll(/*refresh_stats=*/true).ok());
  QueryOptimizer optimizer(&db.catalog());

  auto focused = [&db](const std::string& column) {
    QueryDistribution dist;
    dist.name = "focus_" + column;
    QueryTemplate tmpl;
    tmpl.name = column;
    tmpl.tables = {db.catalog().FindTable("big")};
    tmpl.selections = {{colt::testing::Ref(db.catalog(), "big", column),
                        0.001, 0.01, false}};
    dist.templates = {tmpl};
    dist.weights = {1.0};
    return dist;
  };
  WorkloadGenerator gen(&db.catalog(), 97);
  std::vector<Query> trace;
  for (const char* column : {"b_key", "b_val", "b_cat"}) {
    const QueryDistribution dist = focused(column);
    for (int i = 0; i < 100; ++i) trace.push_back(gen.Sample(dist));
  }

  ColtConfig config;
  // Room for roughly one 100k-row index at a time (each is ~2.5MB): the
  // shifting focus must evict or bypass the previous phase's winner, so
  // the built set keeps changing while clients serve.
  config.storage_budget_bytes = 4LL * 1024 * 1024;
  ColtTuner tuner(&db.mutable_catalog(), &optimizer, config, &db, 7);

  ServeOptions options;
  options.client_threads = 4;
  options.pin_threads = false;
  // Per-epoch audit at the quiescent drain: every installed tree passes
  // full structural validation, and the configuration history is
  // recorded to prove the reconfiguration actually overlapped serving.
  std::vector<std::vector<IndexId>> config_history;
  int audited_epochs = 0;
  options.on_epoch_end = [&](int) {
    ++audited_epochs;
    const std::vector<IndexId> built = db.BuiltIndexIds();
    for (IndexId id : built) {
      ASSERT_TRUE(db.index(id).CheckInvariants().ok())
          << "index " << id << " corrupted during serving";
    }
    config_history.push_back(built);
  };

  const ServeResult result =
      ServeWorkload(&db, &optimizer, &tuner, trace, options);

  // Forward progress: every query of the trace completed despite the
  // concurrent reconfiguration, none failed, and the stream is ordered.
  ASSERT_EQ(result.queries.size(), trace.size());
  for (size_t i = 0; i < result.queries.size(); ++i) {
    EXPECT_TRUE(result.queries[i].ok) << result.queries[i].error;
    EXPECT_EQ(result.queries[i].trace_index, static_cast<int64_t>(i));
  }
  EXPECT_EQ(audited_epochs, result.epochs);

  // The tuner really reconfigured while clients were serving: actions
  // happened, and the built set changed across epochs.
  EXPECT_GT(result.tuner_actions, 0);
  std::set<std::vector<IndexId>> distinct(config_history.begin(),
                                          config_history.end());
  EXPECT_GT(distinct.size(), 1u)
      << "configuration never changed; the race this test exists for "
         "did not occur";
}

TEST(ConcurrencyStressTest, ParallelPreparesOfDistinctIndexesAreIndependent) {
  Database db(MakeTestCatalog(), 7);
  ASSERT_TRUE(db.MaterializeAll().ok());
  Catalog& catalog = db.mutable_catalog();
  std::vector<IndexId> ids;
  for (TableId t = 0; t < catalog.table_count(); ++t) {
    for (ColumnId c = 0; c < catalog.table(t).column_count(); ++c) {
      Result<IndexDescriptor> desc = catalog.IndexOn(ColumnRef{t, c});
      ASSERT_TRUE(desc.ok());
      ids.push_back(desc.value().id);
    }
  }
  ThreadPool pool(4);
  const Database* reader_db = &db;
  // All columns bulk-load concurrently off the same frozen table data.
  std::vector<int64_t> entry_counts = pool.Map(ids.size(), [&](size_t i) {
    Result<std::unique_ptr<BTreeIndex>> tree =
        reader_db->PrepareIndex(ids[i]);
    EXPECT_TRUE(tree.ok());
    EXPECT_TRUE(tree.value()->CheckInvariants().ok());
    return tree.value()->entry_count();
  });
  for (size_t i = 0; i < ids.size(); ++i) {
    const IndexDescriptor& desc = catalog.index(ids[i]);
    EXPECT_EQ(entry_counts[i], catalog.table(desc.column.table).row_count())
        << desc.name;
  }
}

}  // namespace
}  // namespace colt
