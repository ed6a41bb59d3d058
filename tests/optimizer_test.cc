#include "common/status.h"
#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "test_util.h"

namespace colt {
namespace {

using ::colt::testing::MakeRangeQuery;
using ::colt::testing::MakeTestCatalog;
using ::colt::testing::Ref;

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : catalog_(MakeTestCatalog()), optimizer_(&catalog_) {
    b_key_ = catalog_.IndexOn(Ref(catalog_, "big", "b_key"))->id;
    b_val_ = catalog_.IndexOn(Ref(catalog_, "big", "b_val"))->id;
    s_ref_ = catalog_.IndexOn(Ref(catalog_, "small", "s_ref"))->id;
  }

  Query JoinQuery(int64_t small_lo, int64_t small_hi) {
    return Query({0, 1},
                 {JoinPredicate{Ref(catalog_, "big", "b_key"),
                                Ref(catalog_, "small", "s_ref")}},
                 {SelectionPredicate{Ref(catalog_, "small", "s_val"),
                                     small_lo, small_hi}});
  }

  Catalog catalog_;
  QueryOptimizer optimizer_;
  IndexId b_key_, b_val_, s_ref_;
};

/// Checks every what-if gain, bit for bit, against the difference of two
/// separate Optimize calls.
void ExpectGainsMatchSeparateOptimizes(
    QueryOptimizer* optimizer, const Query& q,
    const IndexConfiguration& materialized,
    const std::vector<IndexId>& probation) {
  const double base = optimizer->Optimize(q, materialized).cost;
  const std::vector<IndexGain> gains =
      optimizer->WhatIfOptimize(q, materialized, probation);
  ASSERT_EQ(gains.size(), probation.size());
  for (size_t i = 0; i < probation.size(); ++i) {
    const IndexId id = probation[i];
    EXPECT_EQ(gains[i].index, id);
    const double expected =
        materialized.Contains(id)
            ? optimizer->Optimize(q, materialized.Without(id)).cost - base
            : base - optimizer->Optimize(q, materialized.With(id)).cost;
    EXPECT_EQ(gains[i].gain, expected) << "probe " << id;
  }
}

TEST_F(OptimizerTest, SeqScanWithoutIndexes) {
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  const PlanResult plan = optimizer_.Optimize(q, {});
  ASSERT_NE(plan.plan, nullptr);
  EXPECT_EQ(plan.plan->type, PlanNodeType::kSeqScan);
  EXPECT_TRUE(plan.UsedIndexes().empty());
  EXPECT_GT(plan.cost, 0.0);
}

TEST_F(OptimizerTest, SelectiveQueryUsesIndex) {
  // 10 of 10000 key values => 0.1% selectivity.
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  IndexConfiguration config;
  config.Add(b_key_);
  const PlanResult plan = optimizer_.Optimize(q, config);
  EXPECT_TRUE(plan.plan->type == PlanNodeType::kIndexScan ||
              plan.plan->type == PlanNodeType::kBitmapScan);
  EXPECT_EQ(plan.plan->index_id, b_key_);
  // Using the index must never be worse than the no-index plan.
  const PlanResult without = optimizer_.Optimize(q, {});
  EXPECT_LE(plan.cost, without.cost);
}

TEST_F(OptimizerTest, NonSelectiveQueryIgnoresIndex) {
  // 80% of the key domain: sequential scan wins.
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 7999);
  IndexConfiguration config;
  config.Add(b_key_);
  const PlanResult plan = optimizer_.Optimize(q, config);
  EXPECT_EQ(plan.plan->type, PlanNodeType::kSeqScan);
}

TEST_F(OptimizerTest, IrrelevantIndexNeverHurts) {
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  IndexConfiguration relevant;
  relevant.Add(b_key_);
  IndexConfiguration both = relevant.With(s_ref_);
  EXPECT_DOUBLE_EQ(optimizer_.Optimize(q, relevant).cost,
                   optimizer_.Optimize(q, both).cost);
}

TEST_F(OptimizerTest, PicksBestAmongMultipleIndexes) {
  // Query has predicates on both b_key (0.1%) and b_val (10%): the b_key
  // index should drive the scan.
  Query q({0}, {},
          {SelectionPredicate{Ref(catalog_, "big", "b_key"), 0, 9},
           SelectionPredicate{Ref(catalog_, "big", "b_val"), 0, 99}});
  IndexConfiguration config;
  config.Add(b_key_);
  config.Add(b_val_);
  const PlanResult plan = optimizer_.Optimize(q, config);
  ASSERT_TRUE(plan.plan->type == PlanNodeType::kIndexScan ||
              plan.plan->type == PlanNodeType::kBitmapScan);
  EXPECT_EQ(plan.plan->index_id, b_key_);
  // The other predicate is a residual filter.
  ASSERT_EQ(plan.plan->filter_predicates.size(), 1u);
  EXPECT_EQ(plan.plan->filter_predicates[0].column,
            (Ref(catalog_, "big", "b_val")));
}


TEST_F(OptimizerTest, BitmapScanChosenAtMidSelectivity) {
  // ~5% of b_key: too many rows for random fetches, few enough that the
  // sorted bitmap fetch beats reading every page.
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 499);
  IndexConfiguration config;
  config.Add(b_key_);
  const PlanResult plan = optimizer_.Optimize(q, config);
  EXPECT_EQ(plan.plan->type, PlanNodeType::kBitmapScan);
  EXPECT_LT(plan.cost, optimizer_.Optimize(q, {}).cost);
}

TEST_F(OptimizerTest, JoinProducesJoinPlan) {
  const Query q = JoinQuery(0, 0);
  const PlanResult plan = optimizer_.Optimize(q, {});
  ASSERT_NE(plan.plan, nullptr);
  EXPECT_TRUE(plan.plan->type == PlanNodeType::kHashJoin ||
              plan.plan->type == PlanNodeType::kNestLoopJoin ||
              plan.plan->type == PlanNodeType::kIndexNLJoin);
  EXPECT_GT(plan.rows, 0.0);
}

TEST_F(OptimizerTest, IndexNestedLoopChosenForSelectiveOuter) {
  // Selective filter on small (1 of 100 values) with an index on the big
  // join column: probing big per outer row beats scanning it.
  const Query q = JoinQuery(0, 0);
  IndexConfiguration config;
  config.Add(b_key_);
  const PlanResult plan = optimizer_.Optimize(q, config);
  EXPECT_EQ(plan.plan->type, PlanNodeType::kIndexNLJoin);
  EXPECT_EQ(plan.plan->index_id, b_key_);
  const PlanResult without = optimizer_.Optimize(q, {});
  EXPECT_LT(plan.cost, without.cost);
}

TEST_F(OptimizerTest, WhatIfGainMatchesCostDifference) {
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  IndexConfiguration empty;
  const double base = optimizer_.Optimize(q, empty).cost;
  IndexConfiguration with;
  with.Add(b_key_);
  const double with_cost = optimizer_.Optimize(q, with).cost;

  const auto gains = optimizer_.WhatIfOptimize(q, empty, {b_key_});
  ASSERT_EQ(gains.size(), 1u);
  EXPECT_EQ(gains[0].index, b_key_);
  EXPECT_NEAR(gains[0].gain, base - with_cost, 1e-9);

  // Two-table join. Probing an index on one table leaves the other
  // table's access path unchanged, which is the shape whose access paths
  // could be shared between the base plan and a probe.
  const IndexId s_val = catalog_.IndexOn(Ref(catalog_, "small", "s_val"))->id;
  const std::vector<IndexId> two_table = {b_key_, b_val_, s_ref_, s_val};
  for (const Query& join : {JoinQuery(0, 0), JoinQuery(0, 10)}) {
    ExpectGainsMatchSeparateOptimizes(&optimizer_, join, {}, two_table);
    IndexConfiguration materialized;
    materialized.Add(b_key_);
    materialized.Add(s_val);
    ExpectGainsMatchSeparateOptimizes(&optimizer_, join, materialized,
                                      two_table);
  }

  // Three-table chain join, big - mid - small, with a selection on every
  // table.
  Catalog catalog = MakeTestCatalog();
  catalog.AddTable(TableSchema(
      "mid",
      {
          {"m_id", ColumnType::kInt64, 8, 5'000, true},
          {"m_ref", ColumnType::kInt64, 8, 1'000, true},
          {"m_val", ColumnType::kInt64, 8, 500, true},
      },
      5'000));
  QueryOptimizer optimizer(&catalog);
  const Query chain(
      {0, 1, 2},
      {JoinPredicate{Ref(catalog, "big", "b_key"), Ref(catalog, "mid", "m_id")},
       JoinPredicate{Ref(catalog, "mid", "m_ref"),
                     Ref(catalog, "small", "s_ref")}},
      {SelectionPredicate{Ref(catalog, "big", "b_val"), 0, 49},
       SelectionPredicate{Ref(catalog, "mid", "m_val"), 0, 4},
       SelectionPredicate{Ref(catalog, "small", "s_val"), 0, 0}});
  std::vector<IndexId> three_table;
  for (const auto& [table, column] :
       std::vector<std::pair<const char*, const char*>>{
           {"big", "b_key"}, {"big", "b_val"}, {"mid", "m_id"},
           {"mid", "m_ref"}, {"mid", "m_val"}, {"small", "s_ref"},
           {"small", "s_val"}}) {
    three_table.push_back(catalog.IndexOn(Ref(catalog, table, column))->id);
  }
  ExpectGainsMatchSeparateOptimizes(&optimizer, chain, {}, three_table);
  IndexConfiguration materialized;
  materialized.Add(three_table[2]);  // mid.m_id
  materialized.Add(three_table[6]);  // small.s_val
  ExpectGainsMatchSeparateOptimizes(&optimizer, chain, materialized,
                                    three_table);
}

TEST_F(OptimizerTest, WhatIfOnMaterializedIndexIsRemovalGain) {
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  IndexConfiguration config;
  config.Add(b_key_);
  const double with_cost = optimizer_.Optimize(q, config).cost;
  const double without_cost = optimizer_.Optimize(q, {}).cost;
  const auto gains = optimizer_.WhatIfOptimize(q, config, {b_key_});
  ASSERT_EQ(gains.size(), 1u);
  EXPECT_NEAR(gains[0].gain, without_cost - with_cost, 1e-9);
}

TEST_F(OptimizerTest, WhatIfGainNonNegativeForUnmaterialized) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const int64_t lo = rng.NextInRange(0, 9000);
    const int64_t hi = lo + rng.NextInRange(0, 900);
    const Query q = MakeRangeQuery(catalog_, "big", "b_key", lo, hi);
    const auto gains = optimizer_.WhatIfOptimize(q, {}, {b_key_, b_val_});
    for (const auto& g : gains) {
      EXPECT_GE(g.gain, -1e-9);
    }
  }
}

TEST_F(OptimizerTest, WhatIfCountsCalls) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  const bool was_enabled = registry.enabled();
  registry.Reset();
  registry.set_enabled(true);
  const Query q = MakeRangeQuery(catalog_, "big", "b_key", 0, 9);
  ColtIgnoreStatus(optimizer_.WhatIfOptimize(q, {}, {b_key_, b_val_, s_ref_}));
  const int64_t probes =
      registry.GetCounter("optimizer.whatif.probes")->value();
  const int64_t optimize_calls =
      registry.GetCounter("optimizer.optimize.calls")->value();
  registry.Reset();
  registry.set_enabled(was_enabled);
  EXPECT_EQ(probes, 3);
  EXPECT_EQ(optimize_calls, 1);
}

TEST_F(OptimizerTest, CrudeGainNonNegativeAndZeroForMismatch) {
  const SelectionPredicate pred{Ref(catalog_, "big", "b_key"), 0, 9};
  const IndexDescriptor& key_index = catalog_.index(b_key_);
  EXPECT_GT(optimizer_.CrudeGain(pred, key_index), 0.0);
  const IndexDescriptor& val_index = catalog_.index(b_val_);
  EXPECT_DOUBLE_EQ(optimizer_.CrudeGain(pred, val_index), 0.0);
  // Non-selective predicate: no gain.
  const SelectionPredicate wide{Ref(catalog_, "big", "b_key"), 0, 9000};
  EXPECT_DOUBLE_EQ(optimizer_.CrudeGain(wide, key_index), 0.0);
}

TEST_F(OptimizerTest, RelevantIndexesFiltersByQuery) {
  IndexConfiguration config;
  config.Add(b_key_);
  config.Add(b_val_);
  config.Add(s_ref_);
  const Query selection = MakeRangeQuery(catalog_, "big", "b_val", 0, 9);
  EXPECT_EQ(optimizer_.RelevantIndexes(selection, config),
            (std::vector<IndexId>{b_val_}));
  const Query join = JoinQuery(0, 10);
  const auto relevant = optimizer_.RelevantIndexes(join, config);
  // b_key and s_ref are join columns; b_val untouched.
  EXPECT_EQ(relevant.size(), 2u);
}

TEST_F(OptimizerTest, PlanCardinalityTracksSelectivity) {
  const Query narrow = MakeRangeQuery(catalog_, "big", "b_val", 0, 0);
  const Query wide = MakeRangeQuery(catalog_, "big", "b_val", 0, 499);
  EXPECT_LT(optimizer_.Optimize(narrow, {}).rows,
            optimizer_.Optimize(wide, {}).rows);
}

TEST_F(OptimizerTest, PlanToStringRenders) {
  IndexConfiguration config;
  config.Add(b_key_);
  const Query q = JoinQuery(0, 0);
  const PlanResult plan = optimizer_.Optimize(q, config);
  const std::string s = plan.plan->ToString(catalog_);
  EXPECT_NE(s.find("cost="), std::string::npos);
  EXPECT_NE(s.find("big"), std::string::npos);
}

TEST_F(OptimizerTest, CloneProducesEqualTree) {
  IndexConfiguration config;
  config.Add(b_key_);
  const PlanResult plan = optimizer_.Optimize(JoinQuery(0, 5), config);
  const auto clone = plan.plan->Clone();
  EXPECT_EQ(clone->type, plan.plan->type);
  EXPECT_DOUBLE_EQ(clone->cost, plan.plan->cost);
  std::vector<IndexId> a, b;
  plan.plan->CollectUsedIndexes(&a);
  clone->CollectUsedIndexes(&b);
  EXPECT_EQ(a, b);
}

/// Three-table chain join: the DP plan must be at least as good as every
/// manually-constructed two-join ordering costed by the same model. We
/// verify a weaker but robust property: adding an index never increases
/// plan cost, and the full plan covers all tables.
TEST_F(OptimizerTest, ThreeTableJoin) {
  Catalog catalog = MakeTestCatalog();
  catalog.AddTable(TableSchema(
      "mid",
      {
          {"m_id", ColumnType::kInt64, 8, 5'000, true},
          {"m_ref", ColumnType::kInt64, 8, 1'000, true},
      },
      5'000));
  QueryOptimizer optimizer(&catalog);
  Query q({0, 1, 2},
          {JoinPredicate{Ref(catalog, "big", "b_key"),
                         Ref(catalog, "mid", "m_id")},
           JoinPredicate{Ref(catalog, "mid", "m_ref"),
                         Ref(catalog, "small", "s_ref")}},
          {SelectionPredicate{Ref(catalog, "small", "s_val"), 0, 0}});
  const PlanResult base = optimizer.Optimize(q, {});
  ASSERT_NE(base.plan, nullptr);
  // Count leaf tables in the plan.
  std::vector<TableId> seen;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    if (node.table != kInvalidTableId) seen.push_back(node.table);
    if (node.left) walk(*node.left);
    if (node.right) walk(*node.right);
  };
  walk(*base.plan);
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(seen.size(), 3u);

  IndexConfiguration config;
  config.Add(catalog.IndexOn(Ref(catalog, "big", "b_key"))->id);
  EXPECT_LE(optimizer.Optimize(q, config).cost, base.cost + 1e-9);
}

TEST_F(OptimizerTest, DisconnectedJoinGraphStillPlans) {
  // Two tables, no join predicate: cross product fallback.
  Query q({0, 1}, {},
          {SelectionPredicate{Ref(catalog_, "big", "b_key"), 0, 0},
           SelectionPredicate{Ref(catalog_, "small", "s_val"), 0, 0}});
  const PlanResult plan = optimizer_.Optimize(q, {});
  ASSERT_NE(plan.plan, nullptr);
  EXPECT_GT(plan.cost, 0.0);
}

/// Property sweep: for random configurations, a superset configuration is
/// never costlier than a subset (monotonicity of optimization).
class ConfigMonotonicityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConfigMonotonicityTest, MoreIndexesNeverHurt) {
  Catalog catalog = MakeTestCatalog();
  QueryOptimizer optimizer(&catalog);
  const IndexId ids[3] = {
      catalog.IndexOn(Ref(catalog, "big", "b_key"))->id,
      catalog.IndexOn(Ref(catalog, "big", "b_val"))->id,
      catalog.IndexOn(Ref(catalog, "small", "s_ref"))->id,
  };
  Rng rng(GetParam());
  for (int i = 0; i < 20; ++i) {
    const int64_t lo = rng.NextInRange(0, 9000);
    const int64_t hi = lo + rng.NextInRange(0, 2000);
    Query q({0, 1},
            {JoinPredicate{Ref(catalog, "big", "b_key"),
                           Ref(catalog, "small", "s_ref")}},
            {SelectionPredicate{Ref(catalog, "big", "b_key"), lo, hi},
             SelectionPredicate{Ref(catalog, "small", "s_val"), 0,
                                rng.NextInRange(0, 50)}});
    IndexConfiguration subset, superset;
    for (IndexId id : ids) {
      const bool in_subset = rng.NextBool(0.5);
      if (in_subset) subset.Add(id);
      if (in_subset || rng.NextBool(0.5)) superset.Add(id);
    }
    EXPECT_LE(optimizer.Optimize(q, superset).cost,
              optimizer.Optimize(q, subset).cost + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigMonotonicityTest,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace colt
