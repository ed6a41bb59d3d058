/// Randomized end-to-end robustness: random catalogs, random query streams
/// (including degenerate shapes), full COLT pipeline. Asserts the global
/// invariants that must survive any input: budgets respected, no empty-set
/// violations, determinism, and plan validity.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/colt.h"
#include "core/serve.h"
#include "storage/database.h"
#include "test_util.h"

namespace colt {
namespace {

Catalog RandomCatalog(Rng& rng) {
  Catalog catalog;
  const int tables = 1 + static_cast<int>(rng.NextBelow(4));
  for (int t = 0; t < tables; ++t) {
    std::vector<ColumnDef> columns;
    const int ncols = 2 + static_cast<int>(rng.NextBelow(5));
    const int64_t rows = 100 + static_cast<int64_t>(rng.NextBelow(200'000));
    for (int c = 0; c < ncols; ++c) {
      ColumnDef col;
      col.name = "t" + std::to_string(t) + "_c" + std::to_string(c);
      col.width_bytes = 4 + 4 * static_cast<int32_t>(rng.NextBelow(10));
      col.ndv = 1 + static_cast<int64_t>(rng.NextBelow(
                        static_cast<uint64_t>(rows)));
      col.indexable = rng.NextBool(0.9);
      columns.push_back(col);
    }
    catalog.AddTable(
        TableSchema("table" + std::to_string(t), columns, rows));
  }
  return catalog;
}

Query RandomQuery(const Catalog& catalog, Rng& rng) {
  const TableId t = static_cast<TableId>(rng.NextBelow(
      static_cast<uint64_t>(catalog.table_count())));
  const TableSchema& schema = catalog.table(t);
  std::vector<SelectionPredicate> selections;
  const int npreds =
      1 + static_cast<int>(rng.NextBelow(
              static_cast<uint64_t>(schema.column_count())));
  for (int i = 0; i < npreds; ++i) {
    const ColumnId c = static_cast<ColumnId>(
        rng.NextBelow(static_cast<uint64_t>(schema.column_count())));
    const int64_t ndv = schema.column(c).ndv;
    const int64_t lo = rng.NextInRange(0, ndv - 1);
    const int64_t hi = rng.NextBool(0.3)
                           ? lo  // equality
                           : std::min<int64_t>(ndv - 1,
                                               lo + rng.NextInRange(0, ndv));
    selections.push_back(SelectionPredicate{{t, c}, lo, hi});
  }
  // Possibly add a join with another table.
  std::vector<TableId> tables = {t};
  std::vector<JoinPredicate> joins;
  if (catalog.table_count() > 1 && rng.NextBool(0.3)) {
    TableId other = static_cast<TableId>(rng.NextBelow(
        static_cast<uint64_t>(catalog.table_count())));
    if (other != t) {
      tables.push_back(other);
      const ColumnId c1 = static_cast<ColumnId>(rng.NextBelow(
          static_cast<uint64_t>(catalog.table(t).column_count())));
      const ColumnId c2 = static_cast<ColumnId>(rng.NextBelow(
          static_cast<uint64_t>(catalog.table(other).column_count())));
      joins.push_back(JoinPredicate{{t, c1}, {other, c2}});
    }
  }
  return Query(std::move(tables), std::move(joins), std::move(selections));
}

/// Random write statement against `catalog`: INSERT a batch, UPDATE a
/// random column (with a usually-present narrow WHERE), or DELETE a narrow
/// range. DELETEs always carry a WHERE so random streams do not simply
/// drain their tables.
Query RandomWrite(const Catalog& catalog, Rng& rng) {
  const TableId t = static_cast<TableId>(
      rng.NextBelow(static_cast<uint64_t>(catalog.table_count())));
  const TableSchema& schema = catalog.table(t);
  auto random_column = [&] {
    return static_cast<ColumnId>(
        rng.NextBelow(static_cast<uint64_t>(schema.column_count())));
  };
  auto narrow_where = [&] {
    const ColumnId c = random_column();
    const int64_t ndv = schema.column(c).ndv;
    const int64_t lo = rng.NextInRange(0, ndv - 1);
    const int64_t hi = std::min<int64_t>(ndv - 1, lo + rng.NextInRange(0, 16));
    return std::vector<SelectionPredicate>{SelectionPredicate{{t, c}, lo, hi}};
  };
  switch (rng.NextBelow(3)) {
    case 0:
      return Query::MakeInsert(t, 1 + rng.NextInRange(0, 400));
    case 1: {
      const ColumnId c = random_column();
      std::vector<SetClause> sets = {
          {c, rng.NextInRange(0, schema.column(c).ndv - 1)}};
      return Query::MakeUpdate(
          t, std::move(sets),
          rng.NextBool(0.8) ? narrow_where()
                            : std::vector<SelectionPredicate>{});
    }
    default:
      return Query::MakeDelete(t, narrow_where());
  }
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, InvariantsHoldOnRandomWorkloads) {
  Rng rng(GetParam() * 2654435761ULL + 17);
  Catalog catalog = RandomCatalog(rng);
  QueryOptimizer optimizer(&catalog);
  ColtConfig config;
  config.storage_budget_bytes =
      1 + static_cast<int64_t>(rng.NextBelow(256LL << 20));
  config.max_whatif_per_epoch =
      1 + static_cast<int>(rng.NextBelow(30));
  config.epoch_length = 1 + static_cast<int>(rng.NextBelow(20));
  config.mine_multicolumn_candidates = rng.NextBool(0.5);
  if (rng.NextBool(0.3)) {
    config.scheduling_strategy = SchedulingStrategy::kIdleTime;
  }
  ColtTuner tuner(&catalog, &optimizer, config);

  const int n = 100 + static_cast<int>(rng.NextBelow(200));
  for (int i = 0; i < n; ++i) {
    const Query q = RandomQuery(catalog, rng);
    ASSERT_TRUE(q.Validate(catalog).ok());
    const TuningStep step = tuner.OnQuery(q);
    ASSERT_NE(step.plan.plan, nullptr);
    ASSERT_GE(step.plan.cost, 0.0);
    ASSERT_GE(step.execution_seconds, 0.0);
    ASSERT_LE(step.whatif_calls, config.max_whatif_per_epoch);
  }
  // Storage budget invariant at every epoch.
  for (const auto& report : tuner.epoch_reports()) {
    ASSERT_LE(report.materialized_bytes, config.storage_budget_bytes);
    ASSERT_LE(report.whatif_used, config.max_whatif_per_epoch);
  }
  // Every materialized index descriptor is known to the catalog.
  for (IndexId id : tuner.materialized().ids()) {
    ASSERT_TRUE(catalog.HasIndex(id));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<uint64_t>(0, 20));

TEST(FuzzWrites, StatsOnlyVsPhysicalBitIdenticalUnderWrites) {
  // Random mixed read/write streams (~30% writes) on random catalogs,
  // tuner A statistics-only, tuner B applying every write to a real
  // Database — the strongest composition of the write-path invariants:
  // maintenance charges live in model currency (DESIGN.md §16), so
  // physical application must not move a single recorded double, across
  // live index installs and drops triggered by the shifting random
  // stream.
  bool any_installs = false;
  bool any_charge = false;
  for (uint64_t seed : {2ull, 13ull, 29ull, 47ull, 61ull, 83ull}) {
    Rng rng_a(seed * 1099511628211ULL + 3);
    Rng rng_b(seed * 1099511628211ULL + 3);
    Catalog cat_a = RandomCatalog(rng_a);
    Database db(RandomCatalog(rng_b), /*seed=*/seed);
    ASSERT_TRUE(db.MaterializeAll().ok());
    QueryOptimizer opt_a(&cat_a), opt_b(&db.mutable_catalog());
    ColtConfig config_a;
    config_a.storage_budget_bytes = 32LL << 20;
    config_a.epoch_length = 5;
    ColtTuner tuner_a(&cat_a, &opt_a, config_a, nullptr, seed);
    ColtTuner tuner_b(&db.mutable_catalog(), &opt_b, config_a, &db, seed);

    const int n = 120 + static_cast<int>(rng_a.NextBelow(120));
    rng_b.NextBelow(120);  // keep the two streams in lockstep
    for (int i = 0; i < n; ++i) {
      const Query qa = rng_a.NextBool(0.3) ? RandomWrite(cat_a, rng_a)
                                           : RandomQuery(cat_a, rng_a);
      const Query qb = rng_b.NextBool(0.3)
                           ? RandomWrite(db.catalog(), rng_b)
                           : RandomQuery(db.catalog(), rng_b);
      ASSERT_TRUE(qa.Validate(cat_a).ok());
      const TuningStep sa = tuner_a.OnQuery(qa);
      const TuningStep sb = tuner_b.OnQuery(qb);
      ASSERT_EQ(sa.plan.cost, sb.plan.cost) << "seed " << seed << " q " << i;
      ASSERT_EQ(sa.execution_seconds, sb.execution_seconds)
          << "seed " << seed << " q " << i;
      ASSERT_EQ(sa.maintenance_seconds, sb.maintenance_seconds)
          << "seed " << seed << " q " << i;
      ASSERT_EQ(sa.profiling_seconds, sb.profiling_seconds)
          << "seed " << seed << " q " << i;
      ASSERT_EQ(sa.actions.size(), sb.actions.size())
          << "seed " << seed << " q " << i;
      any_installs = any_installs || !sa.actions.empty();
    }
    ASSERT_EQ(tuner_a.materialized().ids(), tuner_b.materialized().ids());
    const auto& reports_a = tuner_a.epoch_reports();
    const auto& reports_b = tuner_b.epoch_reports();
    ASSERT_EQ(reports_a.size(), reports_b.size());
    for (size_t e = 0; e < reports_a.size(); ++e) {
      ASSERT_EQ(reports_a[e].materialized_ids, reports_b[e].materialized_ids)
          << "seed " << seed << " epoch " << e;
      ASSERT_EQ(reports_a[e].maintenance_charged,
                reports_b[e].maintenance_charged)
          << "seed " << seed << " epoch " << e;
      any_charge = any_charge || reports_a[e].maintenance_charged > 0.0;
    }
    // Physical side: the applied writes left every surviving tree
    // structurally valid and exactly tracking its table's live rows.
    EXPECT_EQ(db.BuiltIndexIds(), tuner_b.materialized().ids());
    for (IndexId id : db.BuiltIndexIds()) {
      ASSERT_TRUE(db.index(id).CheckInvariants().ok());
      const TableId table = db.catalog().index(id).column.table;
      ASSERT_EQ(db.index(id).entry_count(),
                db.data(table).live_row_count());
    }
  }
  // Across the seed pool the streams must have exercised the interesting
  // paths: real installs/drops interleaved with charged write epochs.
  EXPECT_TRUE(any_installs);
  EXPECT_TRUE(any_charge);
}

TEST(FuzzDeterminism, IdenticalRunsProduceIdenticalResults) {
  for (uint64_t seed : {3ull, 11ull}) {
    Rng rng_a(seed), rng_b(seed);
    Catalog cat_a = RandomCatalog(rng_a);
    Catalog cat_b = RandomCatalog(rng_b);
    QueryOptimizer opt_a(&cat_a), opt_b(&cat_b);
    ColtConfig config;
    config.storage_budget_bytes = 64LL << 20;
    ColtTuner tuner_a(&cat_a, &opt_a, config, nullptr, 5);
    ColtTuner tuner_b(&cat_b, &opt_b, config, nullptr, 5);
    for (int i = 0; i < 150; ++i) {
      const Query qa = RandomQuery(cat_a, rng_a);
      const Query qb = RandomQuery(cat_b, rng_b);
      const TuningStep sa = tuner_a.OnQuery(qa);
      const TuningStep sb = tuner_b.OnQuery(qb);
      ASSERT_DOUBLE_EQ(sa.execution_seconds, sb.execution_seconds);
      ASSERT_EQ(sa.whatif_calls, sb.whatif_calls);
      ASSERT_EQ(sa.actions.size(), sb.actions.size());
    }
    ASSERT_EQ(tuner_a.materialized().ids(), tuner_b.materialized().ids());
  }
}

TEST(FuzzTunerSnapshot, MutatedSnapshotBytesNeverCrashLoadState) {
  // Bit-flipped, truncated, and extended tuner snapshots must come back as
  // a Status from LoadState — never a crash, hang, or huge allocation.
  // (The checkpoint layer's checksum normally screens these out; this
  // attacks the deserializers directly.)
  Rng rng(0xD15C);
  Catalog catalog = RandomCatalog(rng);
  QueryOptimizer optimizer(&catalog);
  ColtConfig config;
  config.storage_budget_bytes = 64LL << 20;
  ColtTuner victim(&catalog, &optimizer, config, nullptr, 5);
  for (int i = 0; i < 60; ++i) victim.OnQuery(RandomQuery(catalog, rng));
  BinaryWriter writer;
  victim.SaveState(&writer);
  const std::string good(writer.buffer());

  // Recovery wants the catalog as it was at startup (index definitions are
  // replayed from the snapshot), so regenerate it from the same seed.
  auto fresh_catalog = [] {
    Rng catalog_rng(0xD15C);
    return RandomCatalog(catalog_rng);
  };

  {
    // Control: the unmutated snapshot loads into an identical tuner.
    Catalog cat = fresh_catalog();
    QueryOptimizer fresh_optimizer(&cat);
    ColtTuner fresh(&cat, &fresh_optimizer, config, nullptr, 5);
    BinaryReader reader(good);
    const Status status = fresh.LoadState(&reader);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(fresh.materialized().ids(), victim.materialized().ids());
    ASSERT_EQ(fresh.queries_observed(), victim.queries_observed());
  }

  for (int round = 0; round < 300; ++round) {
    std::string bytes = good;
    const int mutations = 1 + static_cast<int>(rng.NextBelow(8));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.NextBelow(3)) {
        case 0:
          bytes[rng.NextBelow(bytes.size())] ^=
              static_cast<char>(1 + rng.NextBelow(255));
          break;
        case 1:
          bytes.resize(rng.NextBelow(bytes.size()));
          if (bytes.empty()) bytes = std::string(1, '\0');
          break;
        default:
          bytes.push_back(static_cast<char>(rng.NextBelow(256)));
          break;
      }
      if (bytes.empty()) break;
    }
    Catalog cat = fresh_catalog();
    QueryOptimizer fresh_optimizer(&cat);
    ColtTuner fresh(&cat, &fresh_optimizer, config, nullptr, 5);
    BinaryReader reader(bytes);
    const Status status = fresh.LoadState(&reader);
    if (status.ok()) {
      // A mutation the format cannot detect (e.g. flipping one statistics
      // double) may load; the tuner must still be usable.
      fresh.OnQuery(RandomQuery(cat, rng));
    }
  }
}

TEST(FuzzServe, ConcurrentServingMatchesSerialUnderRandomTunerActions) {
  // Randomized serving round (DESIGN.md §15): random physical traces are
  // drained by a random number of client threads while the tuner tunes
  // AND a seeded adversary injects extra index builds/drops at epoch
  // boundaries. The oracle is the serial run of the same seed: the served
  // stream (results, page accounting, errors) must match bit-for-bit, and
  // every surviving tree must stay structurally valid. Random manual
  // drops may orphan a plan's index and fail that query — that is fine,
  // as long as both runs fail identically.
  for (uint64_t seed : {1ull, 8ull, 19ull}) {
    auto run_once = [seed](int clients) {
      Rng rng(seed * 40503ULL + 11);
      Database db(colt::testing::MakeTestCatalog(), /*seed=*/7);
      EXPECT_TRUE(db.MaterializeAll(/*refresh_stats=*/true).ok());
      QueryOptimizer optimizer(&db.catalog());
      ColtConfig config;
      config.epoch_length = 3 + static_cast<int>(rng.NextBelow(10));
      config.storage_budget_bytes =
          (1 + static_cast<int64_t>(rng.NextBelow(8))) << 20;
      ColtTuner tuner(&db.mutable_catalog(), &optimizer, config, &db, seed);

      // Physical execution needs single-table, join-free traffic (the
      // test catalog materializes both tables, but RandomQuery joins can
      // explode row counts); build range queries directly.
      std::vector<Query> trace;
      const int queries = 60 + static_cast<int>(rng.NextBelow(60));
      for (int i = 0; i < queries; ++i) {
        const TableId t = rng.NextBool(0.8) ? db.catalog().FindTable("big")
                                            : db.catalog().FindTable("small");
        const TableSchema& schema = db.catalog().table(t);
        const ColumnId c = static_cast<ColumnId>(
            rng.NextBelow(static_cast<uint64_t>(schema.column_count())));
        const int64_t ndv = schema.column(c).ndv;
        const int64_t lo = rng.NextInRange(0, ndv - 1);
        const int64_t hi =
            std::min<int64_t>(ndv - 1, lo + rng.NextInRange(0, ndv / 10 + 1));
        trace.push_back(Query({t}, {}, {SelectionPredicate{{t, c}, lo, hi}}));
      }

      ServeOptions options;
      options.client_threads = clients;
      options.pin_threads = false;
      // Epoch-boundary adversary, deterministic in (seed, epoch): builds
      // or drops random indexes behind the tuner's back while clients are
      // quiescent. Identical in both runs by construction.
      Database* db_ptr = &db;
      options.on_epoch_end = [db_ptr, seed](int epoch) {
        Rng chaos(seed * 7919ULL + static_cast<uint64_t>(epoch));
        if (chaos.NextBool(0.3)) {
          const std::vector<IndexId> built = db_ptr->BuiltIndexIds();
          if (!built.empty()) {
            db_ptr->DropIndex(built[chaos.NextBelow(built.size())]);
          }
        }
        if (chaos.NextBool(0.3)) {
          const TableId t = db_ptr->catalog().FindTable("big");
          const ColumnId c = static_cast<ColumnId>(chaos.NextBelow(
              static_cast<uint64_t>(db_ptr->catalog().table(t).column_count())));
          Result<IndexDescriptor> desc =
              db_ptr->mutable_catalog().IndexOn(ColumnRef{t, c});
          if (desc.ok()) {
            ColtIgnoreStatus(db_ptr->BuildIndex(desc.value().id));
          }
        }
        for (IndexId id : db_ptr->BuiltIndexIds()) {
          EXPECT_TRUE(db_ptr->index(id).CheckInvariants().ok());
        }
      };
      return ServeWorkload(&db, &optimizer, &tuner, trace, options);
    };

    const ServeResult serial = run_once(/*clients=*/1);
    const ServeResult parallel =
        run_once(/*clients=*/2 + static_cast<int>(seed % 3));
    ASSERT_EQ(serial.queries.size(), parallel.queries.size());
    for (size_t i = 0; i < serial.queries.size(); ++i) {
      const ServedQuery& a = serial.queries[i];
      const ServedQuery& b = parallel.queries[i];
      ASSERT_EQ(a.trace_index, b.trace_index);
      ASSERT_EQ(a.ok, b.ok) << "seed " << seed << " query " << i << ": "
                            << a.error << " vs " << b.error;
      ASSERT_EQ(a.error, b.error) << "seed " << seed << " query " << i;
      ASSERT_EQ(a.result.output_rows, b.result.output_rows)
          << "seed " << seed << " query " << i;
      ASSERT_EQ(a.result.pages_seq, b.result.pages_seq);
      ASSERT_EQ(a.result.pages_random, b.result.pages_random);
      ASSERT_EQ(a.result.pages_bitmap, b.result.pages_bitmap);
      ASSERT_EQ(a.result.pages_index, b.result.pages_index);
      ASSERT_EQ(a.result.tuples_processed, b.result.tuples_processed);
    }
    EXPECT_EQ(serial.tuner_actions, parallel.tuner_actions) << "seed " << seed;
    EXPECT_EQ(serial.epochs, parallel.epochs) << "seed " << seed;
  }
}

}  // namespace
}  // namespace colt
