/// Reproduces Figure 4 of the paper: COLT vs. OFFLINE on a shifting
/// workload — 4 phases of 300 queries from different distributions with
/// gradual 50-query transitions (1350 queries total). Expected shape: COLT
/// outperforms OFFLINE for the majority of queries (paper: 33% lower total
/// execution time, 49% lower in phase 2), because OFFLINE must pick one
/// configuration that is only good on average.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/metrics.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/workloads.h"
#include "storage/tpch_schema.h"

int main(int argc, char** argv) {
  // --obs-dir=DIR enables the decision-provenance recorder and writes the
  // introspection export there (DESIGN.md §13).
  std::string obs_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--obs-dir=", 10) == 0) {
      obs_dir = argv[i] + 10;
    }
  }

  colt::Catalog catalog = colt::MakeTpchCatalog();
  const std::vector<colt::QueryDistribution> dists =
      colt::ExperimentWorkloads::ShiftingPhases(&catalog);

  std::vector<colt::WorkloadPhase> phases;
  for (const auto& d : dists) phases.push_back({d, 300});

  colt::WorkloadGenerator gen(&catalog, /*seed=*/99);
  std::vector<int> phase_of_query;
  const std::vector<colt::Query> workload =
      colt::GeneratePhasedWorkload(gen, phases, /*transition_length=*/50,
                                   &phase_of_query);
  std::printf("Figure 4 (shifting workload): %zu queries, 4 phases x 300 + "
              "3 x 50 transitions\n\n", workload.size());

  // Budget identical to the stable experiment (paper: "the disk budget and
  // total number of relevant indices are the same as the previous
  // experiment") — sized against one phase's relevant set.
  colt::QueryOptimizer probe_opt(&catalog);
  colt::OfflineTuner miner(&catalog, &probe_opt);
  colt::WorkloadGenerator phase_gen(&catalog, 1234);
  std::vector<colt::Query> mixed_sample;
  for (const auto& d : dists) {
    for (int i = 0; i < 200; ++i) mixed_sample.push_back(phase_gen.Sample(d));
  }
  auto relevant = miner.MineRelevantIndexes(mixed_sample);
  if (!relevant.ok()) {
    std::fprintf(stderr, "%s\n", relevant.status().ToString().c_str());
    return 1;
  }
  const int64_t budget = colt::BudgetForIndexes(catalog, relevant.value(), 4.0);

  colt::ColtConfig config;
  config.storage_budget_bytes = budget;
  if (!obs_dir.empty()) {
    config.provenance_events = 1 << 16;
    config.epoch_metrics_snapshot = true;
    colt::MetricsRegistry::Default().set_enabled(true);
  }
  const colt::ColtRunResult colt_run =
      colt::RunColtWorkload(&catalog, workload, config);

  if (!obs_dir.empty()) {
    const colt::Status obs_status = colt::WriteObservabilityDir(
        obs_dir, colt_run, colt::MetricsRegistry::Default().Snapshot());
    if (!obs_status.ok()) {
      std::fprintf(stderr, "observability export failed: %s\n",
                   obs_status.ToString().c_str());
      return 1;
    }
    std::printf("observability export: %s (%zu provenance events)\n",
                obs_dir.c_str(), colt_run.provenance.size());
  }

  auto offline =
      colt::RunOfflineWorkload(&catalog, workload, workload, budget);
  if (!offline.ok()) {
    std::fprintf(stderr, "%s\n", offline.status().ToString().c_str());
    return 1;
  }

  const int kBucket = 50;
  colt::PrintComparisonTable(
      "Per-50-query execution time (paper Fig. 4)",
      colt::BucketTotals(colt::PerQueryTotals(colt_run), kBucket),
      colt::BucketTotals(offline->per_query_seconds, kBucket), kBucket);

  // Per-phase totals and the paper's headline ratios.
  double phase_colt[4] = {0, 0, 0, 0};
  double phase_off[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < workload.size(); ++i) {
    const int p = phase_of_query[i];
    phase_colt[p] += colt_run.per_query[i].total();
    phase_off[p] += offline->per_query_seconds[i];
  }
  std::printf("\nPer-phase totals:\n");
  double total_c = 0, total_o = 0;
  for (int p = 0; p < 4; ++p) {
    total_c += phase_colt[p];
    total_o += phase_off[p];
    std::printf("  phase %d: COLT %8.1f s, OFFLINE %8.1f s  "
                "(reduction %5.1f%%)\n",
                p + 1, phase_colt[p], phase_off[p],
                100.0 * (1.0 - phase_colt[p] / phase_off[p]));
  }
  std::printf("  overall: COLT %8.1f s, OFFLINE %8.1f s  (reduction %5.1f%%;"
              " paper: 33%%, phase 2: 49%%)\n",
              total_c, total_o, 100.0 * (1.0 - total_c / total_o));
  std::printf("\nOFFLINE chose:");
  for (colt::IndexId id : offline->tuning.configuration.ids()) {
    std::printf(" %s", catalog.index(id).name.c_str());
  }
  std::printf("\nDistinct indexes profiled by COLT: %lld\n",
              static_cast<long long>(colt_run.distinct_indexes_profiled));
  return 0;
}
