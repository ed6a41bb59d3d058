/// Reproduces Figure 5 of the paper: the number of what-if calls COLT
/// issues per epoch over the shifting workload of Figure 4. Expected
/// shape: four discernible peaks (up to #WI_max = 20) coinciding with the
/// phase transitions, and less than half the budget used in stable
/// stretches; only a small fraction of the relevant indexes is ever
/// profiled (paper: ~11%).
///
/// This binary doubles as the observability-layer overhead check: it runs
/// the same workload twice in one process — metrics disabled, then
/// enabled — and reports
///  * the wall-clock overhead of the instrumentation
///    (`instrumentation_overhead_pct=`), and
///  * the per-component tuning-overhead breakdown from the metrics
///    histograms (`breakdown_*`), whose components should sum to within
///    10% of the measured OnQuery total.
/// With --smoke, a shortened workload keeps the run CI-sized. The traced
/// run's metrics snapshot and spans (one per ScopedTimer reading) are
/// exported as JSONL/Chrome-trace into COLT_CSV_DIR (when set); the
/// snapshot is re-parsed in-process to validate its round trip.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_json.h"
#include "common/status.h"
#include "common/metrics.h"
#include "common/provenance.h"
#include "common/tracing.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/workloads.h"
#include "storage/tpch_schema.h"

namespace {

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return out.good();
}

/// Sum of a histogram's recorded values, 0 when the name is unknown.
double HistSum(const colt::MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int queries_per_phase = smoke ? 60 : 300;
  const int transition_length = smoke ? 20 : 50;

  colt::Catalog catalog = colt::MakeTpchCatalog();
  const std::vector<colt::QueryDistribution> dists =
      colt::ExperimentWorkloads::ShiftingPhases(&catalog);
  std::vector<colt::WorkloadPhase> phases;
  for (const auto& d : dists) phases.push_back({d, queries_per_phase});

  colt::WorkloadGenerator gen(&catalog, /*seed=*/99);
  const std::vector<colt::Query> workload =
      colt::GeneratePhasedWorkload(gen, phases, transition_length);

  colt::QueryOptimizer probe_opt(&catalog);
  colt::OfflineTuner miner(&catalog, &probe_opt);
  colt::WorkloadGenerator phase_gen(&catalog, 1234);
  std::vector<colt::Query> sample;
  for (const auto& d : dists) {
    for (int i = 0; i < 200; ++i) sample.push_back(phase_gen.Sample(d));
  }
  auto relevant = miner.MineRelevantIndexes(sample);
  const int64_t budget =
      colt::BudgetForIndexes(catalog, relevant.value(), 4.0);

  colt::ColtConfig config;
  config.storage_budget_bytes = budget;

  colt::MetricsRegistry& registry = colt::MetricsRegistry::Default();
  colt::SpanRing ring;

  // ---- Pass 0: warmup (not measured; fills caches, faults no one).
  colt::ColtIgnoreStatus(colt::RunColtWorkload(&catalog, workload, config));

  // The overhead gate compares the metrics layer enabled vs disabled in
  // one process. Disabled and enabled passes are interleaved so both see
  // the same frequency/noise environment, and the minimum per-pass time
  // is the robust estimator of the true cost. The span ring is the opt-in
  // debugging layer and is attached only for the traced pass below.
  const int repeats = smoke ? 15 : 5;
  auto timed_run = [&](const colt::ColtConfig& cfg) {
    colt::WallTimer timer;
    colt::ColtIgnoreStatus(colt::RunColtWorkload(&catalog, workload, cfg));
    return timer.Seconds();
  };
  // The provenance leg measures the flight recorder alone: metrics stay
  // disabled, only the event ring records (DESIGN.md §13).
  colt::ColtConfig prov_config = config;
  prov_config.provenance_events = 1 << 16;
  registry.Reset();
  double disabled_seconds = 0.0;
  double enabled_seconds = 0.0;
  double provenance_seconds = 0.0;
  auto measure_round = [&](bool first) {
    for (int i = 0; i < repeats; ++i) {
      const bool seed = first && i == 0;
      registry.set_enabled(false);
      const double off = timed_run(config);
      if (seed || off < disabled_seconds) disabled_seconds = off;
      registry.set_enabled(true);
      const double on = timed_run(config);
      if (seed || on < enabled_seconds) enabled_seconds = on;
      registry.set_enabled(false);
      const double prov = timed_run(prov_config);
      if (seed || prov < provenance_seconds) provenance_seconds = prov;
    }
  };
  measure_round(/*first=*/true);
  // The minimum is a monotone estimator: extra rounds can only lower it.
  // On loaded runners a single leg's minimum can still land entirely in
  // noisy windows, so when a 5% gate below would trip, re-measure up to
  // twice before believing it — a genuine regression keeps failing, a
  // noise spike converges away.
  auto pct_over_disabled = [&](double seconds) {
    return disabled_seconds > 0.0
               ? 100.0 * (seconds - disabled_seconds) / disabled_seconds
               : 0.0;
  };
  for (int retry = 0;
       retry < 2 && (pct_over_disabled(enabled_seconds) > 5.0 ||
                     pct_over_disabled(provenance_seconds) > 5.0);
       ++retry) {
    measure_round(/*first=*/false);
  }

  // ---- Pass 3: metrics enabled with the span ring attached — the run
  // the figure, the breakdown, and the exports are taken from.
  registry.Reset();
  registry.set_enabled(true);
  ring.Clear();
  registry.set_span_ring(&ring);
  colt::WallTimer traced_timer;
  const colt::ColtRunResult run =
      colt::RunColtWorkload(&catalog, workload, config);
  const double traced_seconds = traced_timer.Seconds();
  registry.set_enabled(false);
  registry.set_span_ring(nullptr);

  const colt::MetricsSnapshot snapshot = registry.Snapshot();

  // ---- Exports (COLT_CSV_DIR): epoch CSV, metrics JSONL, trace dumps.
  const char* csv_env = std::getenv("COLT_CSV_DIR");
  const std::string csv_dir = csv_env != nullptr ? csv_env : "";
  colt::ColtIgnoreStatus(
      colt::MaybeWriteCsvFile(csv_dir, "fig5_epochs.csv",
                              [&](std::ostream& out) {
                                return colt::WriteEpochReportCsv(
                                    run.epochs, out);
                              }));
  if (!csv_dir.empty()) {
    WriteTextFile(csv_dir + "/fig5_metrics.jsonl", snapshot.ToJsonl());
    WriteTextFile(csv_dir + "/fig5_trace.jsonl", ring.ToJsonl());
    WriteTextFile(csv_dir + "/fig5_trace_chrome.json", ring.ToChromeTrace());
  }

  // ---- Round-trip validation: the exported JSONL must parse back losslessly.
  const auto reparsed = colt::MetricsSnapshot::FromJsonl(snapshot.ToJsonl());
  const bool metrics_roundtrip_ok =
      reparsed.ok() && reparsed.value() == snapshot;

  // ---- Figure 5 proper.
  std::printf("Figure 5 (self-regulated overhead): what-if calls per epoch "
              "(#WI_max = %d, epoch = %d queries)%s\n",
              config.max_whatif_per_epoch, config.epoch_length,
              smoke ? " [smoke]" : "");
  if (!smoke) {
    std::printf(
        "Phase transitions occur near epochs 30-35, 65-70, 100-105.\n");
  }
  std::printf("\n%6s %8s %8s   histogram\n", "epoch", "used", "limit");
  int64_t total_calls = 0;
  int epochs_above_half = 0;
  for (const auto& e : run.epochs) {
    total_calls += e.whatif_used;
    if (e.whatif_used > config.max_whatif_per_epoch / 2) ++epochs_above_half;
    std::printf("%6d %8d %8d   ", e.epoch, e.whatif_used, e.whatif_limit);
    for (int i = 0; i < e.whatif_used; ++i) std::printf("#");
    std::printf("\n");
  }
  std::printf("\nTotal what-if calls: %lld over %zu epochs (avg %.2f, "
              "budget %d)\n",
              static_cast<long long>(total_calls), run.epochs.size(),
              static_cast<double>(total_calls) / run.epochs.size(),
              config.max_whatif_per_epoch);
  std::printf("Epochs using more than half the budget: %d of %zu\n",
              epochs_above_half, run.epochs.size());
  std::printf("Distinct indexes profiled: %lld of %zu relevant (%.0f%%; "
              "the paper reports ~11%% against a much larger universe of "
              "relevant attributes)\n",
              static_cast<long long>(run.distinct_indexes_profiled),
              relevant.value().size(),
              100.0 * run.distinct_indexes_profiled /
                  std::max<size_t>(1, relevant.value().size()));

  // ---- Instrumented tuning-overhead breakdown (wall-clock, from the
  // metrics histograms of the enabled pass). profiler.profile.seconds
  // already contains the nested what-if optimizer time, so the what-if
  // line is shown for reference but not added to the component sum.
  const double plan_s = HistSum(snapshot, "optimizer.plan.seconds");
  const double profile_s = HistSum(snapshot, "profiler.profile.seconds");
  const double whatif_s = HistSum(snapshot, "optimizer.whatif.seconds");
  const double knapsack_s =
      HistSum(snapshot, "self_organizer.knapsack.seconds");
  const double epoch_end_s =
      HistSum(snapshot, "self_organizer.epoch_end.seconds");
  const double apply_s = HistSum(snapshot, "scheduler.apply.seconds");
  const double on_query_s = HistSum(snapshot, "colt.on_query.seconds");
  const double component_sum = plan_s + profile_s + epoch_end_s + apply_s;

  std::printf("\nTuning-pipeline wall-clock breakdown (instrumented run):\n");
  std::printf("  %-34s %12.6f s\n", "optimizer.plan (normal plans)", plan_s);
  std::printf("  %-34s %12.6f s\n", "profiler.profile (incl. what-if)",
              profile_s);
  std::printf("  %-34s %12.6f s\n", "  of which optimizer.whatif", whatif_s);
  std::printf("  %-34s %12.6f s\n", "self_organizer.epoch_end", epoch_end_s);
  std::printf("  %-34s %12.6f s\n", "  of which knapsack solves", knapsack_s);
  std::printf("  %-34s %12.6f s\n", "scheduler.apply (builds/drops)",
              apply_s);
  std::printf("  %-34s %12.6f s\n", "component sum", component_sum);
  std::printf("  %-34s %12.6f s\n", "colt.on_query total", on_query_s);
  const double coverage =
      on_query_s > 0.0 ? component_sum / on_query_s : 0.0;
  std::printf("breakdown_component_sum_s=%.6f\n", component_sum);
  std::printf("breakdown_on_query_total_s=%.6f\n", on_query_s);
  std::printf("breakdown_coverage=%.4f\n", coverage);

  // ---- Instrumentation overhead: enabled vs disabled, same process.
  const double overhead_pct =
      disabled_seconds > 0.0
          ? 100.0 * (enabled_seconds - disabled_seconds) / disabled_seconds
          : 0.0;
  std::printf("\nInstrumentation overhead (min of %d passes):\n", repeats);
  std::printf("  disabled: %.4f s, metrics enabled: %.4f s, "
              "metrics+spans: %.4f s\n",
              disabled_seconds, enabled_seconds, traced_seconds);
  std::printf("instrumentation_overhead_pct=%.2f\n", overhead_pct);
  const double provenance_overhead_pct =
      disabled_seconds > 0.0
          ? 100.0 * (provenance_seconds - disabled_seconds) / disabled_seconds
          : 0.0;
  std::printf("  provenance recorder: %.4f s\n", provenance_seconds);
  std::printf("provenance_overhead_pct=%.2f\n", provenance_overhead_pct);
  std::printf("metrics_jsonl_roundtrip=%s\n",
              metrics_roundtrip_ok ? "ok" : "FAILED");
  std::printf("trace_spans=%zu dropped=%lld\n", ring.Spans().size(),
              static_cast<long long>(ring.dropped()));

  // ---- Machine-readable results: one JSONL record per headline metric,
  // written as BENCH_fig5.json into COLT_CSV_DIR (or the working
  // directory) so CI can track figures without scraping stdout.
  {
    const std::string variant = smoke ? "smoke" : "full";
    std::vector<colt::bench_json::Record> records;
    auto add = [&](const std::string& metric, double value,
                   const std::string& units) {
      records.push_back({"fig5_overhead", variant, metric, value, units});
    };
    add("instrumentation_overhead_pct", overhead_pct, "percent");
    add("provenance_overhead_pct", provenance_overhead_pct, "percent");
    add("breakdown_component_sum_s", component_sum, "seconds");
    add("breakdown_on_query_total_s", on_query_s, "seconds");
    add("breakdown_coverage", coverage, "ratio");
    add("total_whatif_calls", static_cast<double>(total_calls), "count");
    if (!colt::bench_json::Write("BENCH_fig5.json", records)) {
      std::printf("FAILED: could not write BENCH_fig5.json\n");
      return 1;
    }
    std::printf("bench_json=BENCH_fig5.json records=%zu\n", records.size());
  }

  if (!metrics_roundtrip_ok) return 1;
  // The breakdown must explain the OnQuery total: components within 10%.
  if (on_query_s > 0.0 && (coverage < 0.9 || coverage > 1.1)) {
    std::printf("FAILED: breakdown components do not sum to within 10%% of "
                "the OnQuery total\n");
    return 1;
  }
  if (overhead_pct > 5.0) {
    std::printf("FAILED: instrumentation overhead above the 5%% budget\n");
    return 1;
  }
  if (provenance_overhead_pct > 5.0) {
    std::printf("FAILED: provenance recorder overhead above the 5%% "
                "budget\n");
    return 1;
  }
  return 0;
}
