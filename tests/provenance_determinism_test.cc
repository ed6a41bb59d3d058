/// Tests for the provenance determinism contract (DESIGN.md §13): the
/// decision-event stream is part of the run's result, so it must be
/// ordered and complete, and *true*: replaying it through
/// ExplainIndexAtEpoch reproduces the per-epoch materialized sets the
/// tuner actually reported.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baseline/offline_tuner.h"
#include "common/provenance.h"
#include "harness/experiment.h"
#include "harness/workloads.h"
#include "storage/tpch_schema.h"

namespace colt {
namespace {

/// The Fig. 4 experiment at reduced scale: 4 phases x 60 queries,
/// 20-query gradual transitions, TPC-H catalog.
std::vector<Query> ShiftingWorkload(Catalog* catalog) {
  const std::vector<QueryDistribution> dists =
      ExperimentWorkloads::ShiftingPhases(catalog);
  std::vector<WorkloadPhase> phases;
  for (const auto& d : dists) phases.push_back({d, 60});
  WorkloadGenerator gen(catalog, /*seed=*/99);
  return GeneratePhasedWorkload(gen, phases, /*transition_length=*/20);
}

int64_t ShiftingBudget() {
  Catalog catalog = MakeTpchCatalog();
  const std::vector<QueryDistribution> dists =
      ExperimentWorkloads::ShiftingPhases(&catalog);
  QueryOptimizer opt(&catalog);
  OfflineTuner miner(&catalog, &opt);
  WorkloadGenerator gen(&catalog, 1234);
  std::vector<Query> sample;
  for (const auto& d : dists) {
    for (int i = 0; i < 60; ++i) sample.push_back(gen.Sample(d));
  }
  Result<std::vector<IndexId>> relevant = miner.MineRelevantIndexes(sample);
  EXPECT_TRUE(relevant.ok());
  return BudgetForIndexes(catalog, relevant.value(), 4.0);
}

ColtRunResult RunShifting(int64_t budget) {
  Catalog catalog = MakeTpchCatalog();
  const std::vector<Query> workload = ShiftingWorkload(&catalog);
  ColtConfig config;
  config.storage_budget_bytes = budget;
  config.provenance_events = 1 << 16;  // ample: no ring drops in this run
  return RunColtWorkload(&catalog, workload, config);
}

TEST(ProvenanceDeterminismTest, StreamIsInOrderWithoutDrops) {
  const ColtRunResult run = RunShifting(ShiftingBudget());
  int64_t last_id = -1;
  int64_t last_epoch = 0;
  for (const ProvenanceEvent& e : run.provenance) {
    EXPECT_GT(e.id, last_id);
    EXPECT_GE(e.epoch, last_epoch);
    last_id = e.id;
    last_epoch = e.epoch;
  }
  // Ids are dense from 0 when nothing was dropped (capacity was ample).
  EXPECT_EQ(last_id, static_cast<int64_t>(run.provenance.size()) - 1);
}

TEST(ProvenanceDeterminismTest, ReplayMatchesReportedMaterializedSets) {
  const ColtRunResult run = RunShifting(ShiftingBudget());
  ASSERT_FALSE(run.epochs.empty());

  // Ground truth: the per-epoch materialized sets the tuner reported.
  // Replaying the decision stream must land on exactly the same sets for
  // every index at every epoch — this is the "colt_explain reconstructs
  // the install/drop timeline" acceptance gate, checked exhaustively.
  std::vector<int64_t> mentioned;
  for (const ProvenanceEvent& e : run.provenance) {
    if (e.index >= 0) mentioned.push_back(e.index);
  }
  ASSERT_FALSE(mentioned.empty());
  for (const EpochReport& report : run.epochs) {
    for (int64_t index : mentioned) {
      const IndexEpochState state =
          ExplainIndexAtEpoch(run.provenance, index, report.epoch);
      const bool reported = std::find(report.materialized_ids.begin(),
                                      report.materialized_ids.end(),
                                      index) != report.materialized_ids.end();
      EXPECT_EQ(state.materialized, reported)
          << "index " << index << " at epoch " << report.epoch;
    }
  }

  // And at least one index lived a full install -> drop arc on this
  // shifting workload, with causes recorded at both decisions.
  bool saw_full_arc = false;
  for (int64_t index : mentioned) {
    const std::vector<ProvenanceEvent> timeline =
        BuildIndexTimeline(run.provenance, index);
    bool installed = false, dropped_after = false;
    for (const ProvenanceEvent& e : timeline) {
      if (e.name == "scheduler.install") installed = true;
      if (installed && e.name == "scheduler.drop") dropped_after = true;
    }
    if (installed && dropped_after) {
      saw_full_arc = true;
      const IndexEpochState end = ExplainIndexAtEpoch(
          run.provenance, index, run.epochs.back().epoch);
      EXPECT_FALSE(end.last_action.empty());
      EXPECT_FALSE(end.last_cause.empty());
      break;
    }
  }
  EXPECT_TRUE(saw_full_arc)
      << "no index was installed and later dropped on the shifting "
         "workload; the timeline assertion needs a richer trace";
}

}  // namespace
}  // namespace colt
