/// Reproduces Figure 3 of the paper: COLT vs. the idealized OFFLINE
/// technique on a 500-query workload with a fixed distribution. Expected
/// shape: COLT pays monitoring + index-build overhead during roughly the
/// first 100 queries, then tracks OFFLINE within a few percent.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/timeline.h"
#include "harness/workloads.h"
#include "storage/tpch_schema.h"

int main(int argc, char** argv) {
  // --state-dir=DIR checkpoints tuner state there every epoch (DESIGN.md
  // §12; empty disables). Commits happen outside the tuning math, so CI
  // diffs persistence-on vs persistence-off CSVs: the knob may not change
  // a single output byte.
  // --obs-dir=DIR enables the decision-provenance recorder plus per-epoch
  // metrics snapshots and writes the live-introspection export there
  // (DESIGN.md §13: provenance.jsonl, metrics.prom, epoch_NNNN.jsonl) for
  // tools/colt_explain and tools/colt_top. Provenance is record-only, so
  // CI diffs obs-on vs obs-off CSVs the same way.
  std::string state_dir;
  std::string obs_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--state-dir=", 12) == 0) {
      state_dir = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--obs-dir=", 10) == 0) {
      obs_dir = argv[i] + 10;
    }
  }

  colt::Catalog catalog = colt::MakeTpchCatalog();
  const colt::QueryDistribution dist =
      colt::ExperimentWorkloads::Focused(&catalog, 0);

  colt::WorkloadGenerator gen(&catalog, /*seed=*/1234);
  std::vector<colt::Query> workload;
  const int kQueries = 500;
  workload.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) workload.push_back(gen.Sample(dist));

  // Budget fits ~4.5 of the 18 relevant indexes (paper: "3 to 6").
  colt::QueryOptimizer probe_opt(&catalog);
  colt::OfflineTuner miner(&catalog, &probe_opt);
  auto relevant = miner.MineRelevantIndexes(workload);
  if (!relevant.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 relevant.status().ToString().c_str());
    return 1;
  }
  const int64_t budget =
      colt::BudgetForIndexes(catalog, relevant.value(), 4.0);
  // The tuner runs single-threaded; "workers = 0" keeps the header line
  // of earlier runs comparable byte for byte.
  std::printf("Figure 3 (stable workload): %d queries, %zu relevant indexes, "
              "budget = %.1f MB, workers = 0\n\n",
              kQueries, relevant.value().size(),
              budget / (1024.0 * 1024.0));

  colt::ColtConfig config;
  config.storage_budget_bytes = budget;
  config.state_dir = state_dir;
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

  auto offline = colt::RunOfflineWorkload(&catalog, workload, workload,
                                          budget);
  if (!offline.ok()) {
    std::fprintf(stderr, "offline failed: %s\n",
                 offline.status().ToString().c_str());
    return 1;
  }

  const char* csv_env = std::getenv("COLT_CSV_DIR");
  const std::string csv_dir = csv_env != nullptr ? csv_env : "";
  colt::ColtIgnoreStatus(
      colt::MaybeWriteCsvFile(csv_dir, "fig3_per_query.csv",
                              [&](std::ostream& out) {
                                return colt::WritePerQueryCsv(
                                    colt_run, offline->per_query_seconds, out);
                              }));
  colt::ColtIgnoreStatus(
      colt::MaybeWriteCsvFile(csv_dir, "fig3_epochs.csv",
                              [&](std::ostream& out) {
                                return colt::WriteEpochReportCsv(
                                    colt_run.epochs, out);
                              }));

  const int kBucket = 50;
  colt::PrintComparisonTable(
      "Per-50-query execution time (paper Fig. 3)",
      colt::BucketTotals(colt::PerQueryTotals(colt_run), kBucket),
      colt::BucketTotals(offline->per_query_seconds, kBucket), kBucket);

  // Convergence check mirroring the paper's "negligible deviation of 1%"
  // after query 100.
  double colt_tail = 0.0, off_tail = 0.0;
  for (int i = 100; i < kQueries; ++i) {
    colt_tail += colt_run.per_query[i].total();
    off_tail += offline->per_query_seconds[i];
  }
  std::printf("\nAfter query 100: COLT/OFFLINE = %.3f (paper: ~1.01)\n",
              off_tail > 0 ? colt_tail / off_tail : 0.0);
  colt::Timeline colt_lat, off_lat;
  colt_lat.RecordAll(colt::PerQueryTotals(colt_run));
  off_lat.RecordAll(offline->per_query_seconds);
  std::printf("COLT    latency: %s\n",
              colt_lat.SummarizeRange(100, 500).ToString().c_str());
  std::printf("OFFLINE latency: %s\n",
              off_lat.SummarizeRange(100, 500).ToString().c_str());
  std::printf("OFFLINE configuration: %zu indexes, %lld configurations "
              "evaluated (exhaustive=%d)\n",
              offline->tuning.configuration.size(),
              static_cast<long long>(offline->tuning.configurations_evaluated),
              offline->tuning.exhaustive);
  std::printf("COLT final materialized: %zu indexes; distinct profiled: %lld\n",
              colt_run.final_materialized.size(),
              static_cast<long long>(colt_run.distinct_indexes_profiled));

  if (std::getenv("COLT_VERBOSE") != nullptr) {
    std::printf("\nOFFLINE chose:");
    for (colt::IndexId id : offline->tuning.configuration.ids()) {
      std::printf(" %s", catalog.index(id).name.c_str());
    }
    std::printf("\nEpoch trace:\n");
    for (const auto& e : colt_run.epochs) {
      std::printf("  ep%3d wi=%2d/%2d next=%2d r=%5.2f |C|=%lld M={",
                  e.epoch, e.whatif_used, e.whatif_limit,
                  e.next_whatif_limit, e.rebudget_ratio,
                  static_cast<long long>(e.candidate_count));
      for (colt::IndexId id : e.materialized_ids) {
        std::printf(" %s", catalog.index(id).name.c_str());
      }
      std::printf(" } H={");
      for (colt::IndexId id : e.hot_ids) {
        std::printf(" %s", catalog.index(id).name.c_str());
      }
      std::printf(" }\n");
    }
  }
  return 0;
}
