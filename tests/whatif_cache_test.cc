/// Unit and differential tests for the cross-epoch what-if plan cache
/// (DESIGN.md §11): signature canonicalization, catalog-version
/// invalidation, LRU byte budgets, deterministic epoch-boundary merges,
/// and the headline contract — cache-on runs are bit-identical to
/// cache-off runs at every worker count.
#include "optimizer/whatif_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/colt.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeRangeQuery;
using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

// ---------------------------------------------------------------------------
// QueryPlanSignature canonicalization.
// ---------------------------------------------------------------------------

TEST(QueryPlanSignatureTest, SelectionOrderDoesNotMatter) {
  Catalog catalog = MakeTestCatalog();
  const SelectionPredicate a{Ref(catalog, "big", "b_key"), 10, 20};
  const SelectionPredicate b{Ref(catalog, "big", "b_val"), 5, 7};
  const Query q1({catalog.FindTable("big")}, {}, {a, b});
  const Query q2({catalog.FindTable("big")}, {}, {b, a});
  EXPECT_EQ(QueryPlanSignature(q1), QueryPlanSignature(q2));
}

TEST(QueryPlanSignatureTest, JoinCommutativityDoesNotMatter) {
  Catalog catalog = MakeTestCatalog();
  const ColumnRef big_key = Ref(catalog, "big", "b_key");
  const ColumnRef small_ref = Ref(catalog, "small", "s_ref");
  const TableId big = catalog.FindTable("big");
  const TableId small = catalog.FindTable("small");
  const Query q1({big, small}, {JoinPredicate{big_key, small_ref}}, {});
  const Query q2({small, big}, {JoinPredicate{small_ref, big_key}}, {});
  EXPECT_EQ(QueryPlanSignature(q1), QueryPlanSignature(q2));
}

TEST(QueryPlanSignatureTest, DistinguishesPredicateBounds) {
  Catalog catalog = MakeTestCatalog();
  const Query narrow = MakeRangeQuery(catalog, "big", "b_key", 10, 20);
  const Query wide = MakeRangeQuery(catalog, "big", "b_key", 10, 21);
  EXPECT_NE(QueryPlanSignature(narrow), QueryPlanSignature(wide));
}

TEST(QueryPlanSignatureTest, DistinguishesColumnsAndTables) {
  Catalog catalog = MakeTestCatalog();
  const Query on_key = MakeRangeQuery(catalog, "big", "b_key", 0, 10);
  const Query on_val = MakeRangeQuery(catalog, "big", "b_val", 0, 10);
  const Query on_small = MakeRangeQuery(catalog, "small", "s_ref", 0, 10);
  EXPECT_NE(QueryPlanSignature(on_key), QueryPlanSignature(on_val));
  EXPECT_NE(QueryPlanSignature(on_key), QueryPlanSignature(on_small));
}

TEST(QueryPlanSignatureTest, IgnoresQueryId) {
  Catalog catalog = MakeTestCatalog();
  Query q1 = MakeRangeQuery(catalog, "big", "b_key", 0, 10);
  Query q2 = MakeRangeQuery(catalog, "big", "b_key", 0, 10);
  q1.set_id(7);
  q2.set_id(4242);
  EXPECT_EQ(QueryPlanSignature(q1), QueryPlanSignature(q2));
}

// ---------------------------------------------------------------------------
// Lookup / Peek / version invalidation.
// ---------------------------------------------------------------------------

WhatIfCacheKey Key(uint64_t q, uint64_t c) { return WhatIfCacheKey{q, c}; }

CachedPlanCost Value(double cost, uint64_t version) {
  CachedPlanCost v;
  v.cost = cost;
  v.rows = 10.0;
  v.catalog_version = version;
  return v;
}

TEST(WhatIfPlanCacheTest, MissThenHit) {
  WhatIfPlanCache cache(/*max_bytes=*/0);
  EXPECT_EQ(cache.Lookup(Key(1, 2), /*catalog_version=*/1), nullptr);
  EXPECT_EQ(cache.stats().misses, 1);
  cache.Insert(Key(1, 2), Value(42.0, 1));
  const CachedPlanCost* hit = cache.Lookup(Key(1, 2), 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cost, 42.0);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().inserts, 1);
}

TEST(WhatIfPlanCacheTest, VersionBumpInvalidates) {
  WhatIfPlanCache cache(0);
  cache.Insert(Key(1, 2), Value(42.0, /*version=*/1));
  // Same key, newer catalog: stale — a miss plus one invalidation, and the
  // entry stays resident until a merge prunes it.
  EXPECT_EQ(cache.Lookup(Key(1, 2), /*catalog_version=*/2), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.size(), 1u);
  bool stale = false;
  EXPECT_EQ(cache.Peek(Key(1, 2), 2, &stale), nullptr);
  EXPECT_TRUE(stale);
  // At the original version the entry still answers.
  EXPECT_NE(cache.Lookup(Key(1, 2), 1), nullptr);
}

TEST(WhatIfPlanCacheTest, PeekDoesNotTouchLruOrStats) {
  WhatIfPlanCache cache(2 * WhatIfPlanCache::kEntryBytes);
  cache.Insert(Key(1, 0), Value(1.0, 1));
  cache.Insert(Key(2, 0), Value(2.0, 1));
  // Peek the LRU-tail entry; a Lookup would move it to the front.
  EXPECT_NE(cache.Peek(Key(1, 0), 1), nullptr);
  EXPECT_EQ(cache.stats().hits, 0);
  // A third insert must still evict key 1 (the peek left it at the tail).
  cache.Insert(Key(3, 0), Value(3.0, 1));
  EXPECT_EQ(cache.Peek(Key(1, 0), 1), nullptr);
  EXPECT_NE(cache.Peek(Key(2, 0), 1), nullptr);
}

TEST(WhatIfPlanCacheTest, LruEvictionRespectsByteBudget) {
  WhatIfPlanCache cache(3 * WhatIfPlanCache::kEntryBytes);
  for (uint64_t i = 1; i <= 4; ++i) cache.Insert(Key(i, 0), Value(1.0, 1));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_LE(cache.bytes(), cache.max_bytes());
  EXPECT_EQ(cache.stats().evictions, 1);
  // Key 1 was least recently used.
  EXPECT_EQ(cache.Peek(Key(1, 0), 1), nullptr);
  // A Lookup refreshes recency: touch key 2, insert key 5, key 3 dies.
  EXPECT_NE(cache.Lookup(Key(2, 0), 1), nullptr);
  cache.Insert(Key(5, 0), Value(1.0, 1));
  EXPECT_EQ(cache.Peek(Key(3, 0), 1), nullptr);
  EXPECT_NE(cache.Peek(Key(2, 0), 1), nullptr);
}

// ---------------------------------------------------------------------------
// Epoch-boundary merge determinism.
// ---------------------------------------------------------------------------

std::vector<std::pair<WhatIfCacheKey, CachedPlanCost>> Sorted(
    WhatIfPlanCache* cache) {
  std::vector<std::pair<WhatIfCacheKey, CachedPlanCost>> out;
  cache->DrainEntriesInto(&out);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

TEST(WhatIfPlanCacheTest, MergeDropsStaleAndDuplicates) {
  WhatIfPlanCache cache(0);
  cache.Insert(Key(1, 0), Value(1.0, /*version=*/1));  // resident, stale
  std::vector<std::pair<WhatIfCacheKey, CachedPlanCost>> fresh;
  fresh.emplace_back(Key(2, 0), Value(2.0, 2));
  fresh.emplace_back(Key(2, 0), Value(2.0, 2));  // duplicate across segments
  fresh.emplace_back(Key(3, 0), Value(3.0, 1));  // stale fresh entry
  const WhatIfPlanCache::MergeOutcome out =
      cache.MergeFreshEntries(std::move(fresh), /*catalog_version=*/2);
  EXPECT_EQ(out.inserted, 1);
  EXPECT_EQ(out.duplicates, 1);
  EXPECT_EQ(out.stale_dropped, 2);  // resident key 1 + fresh key 3
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Peek(Key(2, 0), 2), nullptr);
}

TEST(WhatIfPlanCacheTest, MergeIsInvariantToSegmentDistribution) {
  // The same multiset of fresh entries split differently across segments
  // (as different worker counts would) must produce identical caches.
  auto entry = [](uint64_t q) {
    return std::make_pair(Key(q, q * 31), Value(static_cast<double>(q), 1));
  };
  Rng rng(7);
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 40; ++i) keys.push_back(1 + rng.NextBelow(25));

  WhatIfPlanCache a(8 * WhatIfPlanCache::kEntryBytes);
  WhatIfPlanCache b(8 * WhatIfPlanCache::kEntryBytes);
  // "Serial": one segment in stream order.
  std::vector<std::pair<WhatIfCacheKey, CachedPlanCost>> one;
  for (uint64_t k : keys) one.push_back(entry(k));
  a.MergeFreshEntries(std::move(one), 1);
  // "Parallel": four interleaved segments, drained in reverse.
  std::vector<std::vector<std::pair<WhatIfCacheKey, CachedPlanCost>>> segs(4);
  for (size_t i = 0; i < keys.size(); ++i) {
    segs[i % 4].push_back(entry(keys[i]));
  }
  std::vector<std::pair<WhatIfCacheKey, CachedPlanCost>> flat;
  for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
    flat.insert(flat.end(), it->begin(), it->end());
  }
  b.MergeFreshEntries(std::move(flat), 1);

  const auto ea = Sorted(&a);
  const auto eb = Sorted(&b);
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].first, eb[i].first);
    EXPECT_EQ(ea[i].second.cost, eb[i].second.cost);
  }
}

// ---------------------------------------------------------------------------
// Differential: cache-on == cache-off, bit for bit, at every worker count.
// ---------------------------------------------------------------------------

std::vector<Query> RepetitiveWorkload(const Catalog& catalog, int n,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  for (int i = 0; i < n; ++i) {
    const int64_t lo = rng.NextInRange(0, 9000);
    switch (rng.NextBelow(4)) {
      case 0:
        out.push_back(
            MakeRangeQuery(catalog, "big", "b_val", lo % 1000, lo % 1000 + 5));
        break;
      case 1:
        out.push_back(MakeRangeQuery(catalog, "small", "s_ref", lo % 1000,
                                     lo % 1000 + 10));
        break;
      default:
        // Concentrated benefit so COLT materializes (and keeps probing)
        // the b_key index; lo % 50 keeps distinct bounds few enough that
        // the cross-epoch cache actually gets repeat hits.
        out.push_back(
            MakeRangeQuery(catalog, "big", "b_key", lo % 50, lo % 50 + 20));
        break;
    }
  }
  return out;
}

std::string EpochCsv(const ColtRunResult& run) {
  std::ostringstream out;
  EXPECT_TRUE(WriteEpochReportCsv(run.epochs, out).ok());
  return out.str();
}

std::string PerQueryCsv(const ColtRunResult& run) {
  std::ostringstream out;
  EXPECT_TRUE(WritePerQueryCsv(run, /*offline_seconds=*/{}, out).ok());
  return out.str();
}

ColtRunResult RunWithCacheBytes(int workers, int64_t cache_bytes) {
  Catalog catalog = MakeTestCatalog();
  const std::vector<Query> workload = RepetitiveWorkload(catalog, 300, 23);
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  config.num_workers = workers;
  config.whatif_cache_bytes = cache_bytes;
  // Probe aggressively: on a stable workload, re-budgeting suspends
  // profiling and adaptive sampling throttles what-if calls to a trickle,
  // leaving the cache idle — the differential and hit-rate assertions
  // want the cache under real load.
  config.enable_rebudgeting = false;
  config.enable_adaptive_sampling = false;
  config.uniform_sample_rate = 1.0;
  config.max_whatif_per_epoch = 60;
  return RunColtWorkload(&catalog, workload, config);
}

TEST(WhatIfCacheDifferentialTest, CacheOnMatchesCacheOffBitForBit) {
  for (int workers : {0, 4}) {
    const ColtRunResult off = RunWithCacheBytes(workers, 0);
    const ColtRunResult on =
        RunWithCacheBytes(workers, 8LL * 1024 * 1024);
    ASSERT_FALSE(off.final_materialized.empty()) << "workers=" << workers;
    ASSERT_FALSE(off.epochs.empty());
    ASSERT_EQ(off.per_query.size(), on.per_query.size());
    for (size_t i = 0; i < off.per_query.size(); ++i) {
      // EXPECT_EQ on doubles is deliberate: bit-identity, not tolerance.
      ASSERT_EQ(off.per_query[i].execution, on.per_query[i].execution)
          << "workers=" << workers << " query " << i;
      ASSERT_EQ(off.per_query[i].profiling, on.per_query[i].profiling)
          << "workers=" << workers << " query " << i;
      ASSERT_EQ(off.per_query[i].build, on.per_query[i].build)
          << "workers=" << workers << " query " << i;
    }
    EXPECT_EQ(off.final_materialized.ids(), on.final_materialized.ids());
    EXPECT_EQ(EpochCsv(off), EpochCsv(on)) << "workers=" << workers;
    EXPECT_EQ(PerQueryCsv(off), PerQueryCsv(on)) << "workers=" << workers;
  }
}

TEST(WhatIfCacheDifferentialTest, TinyBudgetStillBitIdentical) {
  // A 4-entry cache thrashes constantly; eviction pressure must change hit
  // rates only, never results.
  const ColtRunResult off = RunWithCacheBytes(0, 0);
  const ColtRunResult tiny =
      RunWithCacheBytes(0, 4 * WhatIfPlanCache::kEntryBytes);
  EXPECT_EQ(EpochCsv(off), EpochCsv(tiny));
  EXPECT_EQ(PerQueryCsv(off), PerQueryCsv(tiny));
}

TEST(WhatIfCacheDifferentialTest, CacheProducesHitsAndSpeedsUpProfiling) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.Reset();
  reg.set_enabled(true);
  const ColtRunResult on = RunWithCacheBytes(0, 8LL * 1024 * 1024);
  reg.set_enabled(false);
  ASSERT_FALSE(on.epochs.empty());
  const int64_t shortcircuit =
      reg.GetCounter("profiler.whatif_cache.shortcircuit_hits")->value();
  const int64_t hits =
      reg.GetCounter("optimizer.whatif_cache.hits")->value();
  const int64_t inserts =
      reg.GetCounter("optimizer.whatif_cache.inserts")->value();
  // A build with metrics compiled out counts nothing.
#ifndef COLT_DISABLE_METRICS
  EXPECT_GT(inserts, 0);
  EXPECT_GT(shortcircuit + hits, 0)
      << "a repetitive workload must produce cross-epoch cache hits";
#else
  EXPECT_EQ(inserts, 0);
  EXPECT_EQ(shortcircuit + hits, 0);
#endif
  reg.Reset();
}

// ---------------------------------------------------------------------------
// Degraded mode: lost what-if calls answered from the frozen cache.
// ---------------------------------------------------------------------------

TEST(WhatIfCacheDegradedTest, DegradedProbesHitTheFrozenCache) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.Reset();
  reg.set_enabled(true);
  Catalog catalog = MakeTestCatalog();
  const std::vector<Query> workload = RepetitiveWorkload(catalog, 400, 31);
  ColtConfig config;
  config.storage_budget_bytes = 64LL * 1024 * 1024;
  config.fault.Fail(fault_sites::kWhatIfOptimize, 0.25);
  config.enable_rebudgeting = false;
  config.enable_adaptive_sampling = false;
  config.uniform_sample_rate = 1.0;
  config.max_whatif_per_epoch = 60;
  const ChaosRunResult result = RunChaosWorkload(&catalog, workload, config);
  reg.set_enabled(false);
  EXPECT_TRUE(result.ok());
  ASSERT_GT(result.degraded_whatif, 0);
  // With a quarter of what-if calls lost on a repetitive stream, some
  // degraded probes must find both costs in the frozen cross-epoch cache.
  // A build with metrics compiled out counts nothing.
#ifndef COLT_DISABLE_METRICS
  EXPECT_GT(reg.GetCounter("profiler.degraded.cache_hit")->value(), 0);
#else
  EXPECT_EQ(reg.GetCounter("profiler.degraded.cache_hit")->value(), 0);
#endif
  reg.Reset();
}

}  // namespace
}  // namespace colt
