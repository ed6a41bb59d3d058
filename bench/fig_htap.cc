/// HTAP write-workload experiment (DESIGN.md §16, beyond the paper): a
/// 3-phase workload over one schema instance whose read/write ratio flips
/// mid-run. Phase 0 is read-heavy lineitem analytics (indexes on
/// l_shipdate/l_partkey earn their keep); phase 1 hammers those same
/// columns with INSERT/UPDATE traffic while reads move to orders/customer;
/// phase 2 returns to the phase-0 mix. With maintenance charging on
/// (ColtConfig::charge_index_maintenance, the default) the Self-Organizer
/// folds each epoch's per-index maintenance cost into the gain statistics,
/// so the write-hot lineitem indexes' net benefit goes negative and COLT
/// drops them; the maintenance-blind ablation (charging off) keeps paying
/// write amplification on indexes that no longer pay for themselves.
///
/// Gates (exit non-zero on failure; CI greps the `=` lines):
///   dropped_write_hot_index=<name>  — a lineitem index materialized in the
///     read-heavy prefix is dropped once the write phase is in force, in
///     an epoch that actually charged maintenance.
///   maintenance_charge_advantage=ok — the charged run's total simulated
///     seconds (execution + tuning overheads; write execution always
///     includes maintenance page costs, in both runs) beat the blind run.
///   hotspot_run=ok — the leanstore-style hot-spot write scenario (1% hot
///     keys, composite-key read shape) completes with writes recorded.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/workloads.h"
#include "storage/tpch_schema.h"

namespace {

colt::ColumnRef Col(colt::Catalog* catalog, const std::string& table,
                    const std::string& column) {
  const colt::TableId t = catalog->FindTable(table);
  const colt::ColumnId c = catalog->table(t).FindColumn(column);
  return colt::ColumnRef{t, c};
}

double RunTotal(const colt::ColtRunResult& run) {
  double total = 0.0;
  for (const auto& q : run.per_query) total += q.total();
  return total;
}

double ChargedTotal(const colt::ColtRunResult& run) {
  double total = 0.0;
  for (const auto& e : run.epochs) total += e.maintenance_charged;
  return total;
}

int64_t WriteQueries(const colt::ColtRunResult& run) {
  int64_t total = 0;
  for (const auto& e : run.epochs) total += e.write_queries;
  return total;
}

bool Contains(const std::vector<colt::IndexId>& ids, colt::IndexId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool debug = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--debug") == 0) {
      debug = true;
    }
  }

  colt::Catalog catalog = colt::MakeTpchCatalog();
  const std::vector<colt::QueryDistribution> dists =
      colt::ExperimentWorkloads::HtapPhases(&catalog);

  // The write phase runs three times as long as the read phases: the
  // forecaster needs ~history_depth epochs of write pressure before the
  // phase-0 benefit history washes out and the forecast sinks, and the
  // drop only pays off in the epochs that follow; the read phases only
  // need enough run to show (re-)adoption.
  const int phase_len = smoke ? 100 : 300;
  const int transition = smoke ? 20 : 50;
  std::vector<colt::WorkloadPhase> phases;
  for (const auto& d : dists) phases.push_back({d, phase_len});
  phases[1].length = 3 * phase_len;

  colt::WorkloadGenerator gen(&catalog, /*seed=*/77);
  std::vector<int> phase_of_query;
  const std::vector<colt::Query> workload = colt::GeneratePhasedWorkload(
      gen, phases, transition, &phase_of_query);
  int64_t write_count = 0;
  for (const auto& q : workload) write_count += q.is_write() ? 1 : 0;
  std::printf("HTAP experiment: %zu queries (%lld writes), phases "
              "%d/%d/%d + 2 x %d transitions\n\n",
              workload.size(), static_cast<long long>(write_count),
              phases[0].length, phases[1].length, phases[2].length,
              transition);

  // Budget sized like the shifting experiment, against the union of the
  // phases' read shapes (the miner reasons about SELECT plans; the write
  // templates' maintenance pressure is what the run itself measures).
  colt::QueryOptimizer probe_opt(&catalog);
  colt::OfflineTuner miner(&catalog, &probe_opt);
  colt::WorkloadGenerator mine_gen(&catalog, 1234);
  std::vector<colt::Query> read_sample;
  for (const auto& d : dists) {
    for (int i = 0; i < 200; ++i) {
      colt::Query q = mine_gen.Sample(d);
      if (!q.is_write()) read_sample.push_back(std::move(q));
    }
  }
  auto relevant = miner.MineRelevantIndexes(read_sample);
  if (!relevant.ok()) {
    std::fprintf(stderr, "%s\n", relevant.status().ToString().c_str());
    return 1;
  }
  const int64_t budget =
      colt::BudgetForIndexes(catalog, relevant.value(), 4.0);

  colt::ColtConfig config;
  config.storage_budget_bytes = budget;
  config.charge_index_maintenance = true;  // the default, stated for clarity
  if (debug) config.provenance_events = 1 << 16;
  const colt::ColtRunResult charged =
      colt::RunColtWorkload(&catalog, workload, config);

  if (debug) {
    // Per-epoch benefit-vs-charge trace for the write-hot lineitem
    // indexes, straight from the flight recorder (DESIGN.md §13).
    for (const auto& e : charged.provenance) {
      if (e.name == "self_organizer.maintenance_charge") {
        const auto* b = e.FindAttr("benefit");
        const auto* c = e.FindAttr("charge");
        std::printf("debug epoch %lld index %lld benefit %.1f charge %.1f\n",
                    static_cast<long long>(e.epoch),
                    static_cast<long long>(e.index),
                    b != nullptr ? b->double_value : 0.0,
                    c != nullptr ? c->double_value : 0.0);
      }
      if (e.name == "self_organizer.schedule_drop" ||
          e.name == "self_organizer.schedule_install") {
        const auto* nb = e.FindAttr("net_benefit");
        std::printf("debug epoch %lld %s index %lld net %.1f\n",
                    static_cast<long long>(e.epoch), e.name.c_str(),
                    static_cast<long long>(e.index),
                    nb != nullptr ? nb->double_value : 0.0);
      }
    }
  }

  colt::ColtConfig blind_config = config;
  blind_config.charge_index_maintenance = false;  // maintenance-blind ablation
  const colt::ColtRunResult blind =
      colt::RunColtWorkload(&catalog, workload, blind_config);

  const char* csv_env = std::getenv("COLT_CSV_DIR");
  const std::string csv_dir = csv_env != nullptr ? csv_env : "";
  colt::ColtIgnoreStatus(colt::MaybeWriteCsvFile(
      csv_dir, "fig_htap_epochs.csv", [&](std::ostream& out) {
        return colt::WriteEpochReportCsv(charged.epochs, out);
      }));
  colt::ColtIgnoreStatus(colt::MaybeWriteCsvFile(
      csv_dir, "fig_htap_per_query.csv", [&](std::ostream& out) {
        return colt::WritePerQueryCsv(charged, {}, out);
      }));

  // Per-phase totals, charged vs maintenance-blind. Both runs price write
  // maintenance into execution (OptimizeWrite always does); they differ
  // only in whether the tuner *knows* about it when picking indexes.
  const int num_phases = static_cast<int>(dists.size());
  std::vector<double> phase_charged(num_phases, 0.0);
  std::vector<double> phase_blind(num_phases, 0.0);
  for (size_t i = 0; i < workload.size(); ++i) {
    phase_charged[phase_of_query[i]] += charged.per_query[i].total();
    phase_blind[phase_of_query[i]] += blind.per_query[i].total();
  }
  std::printf("Per-phase totals (charged vs maintenance-blind):\n");
  for (int p = 0; p < num_phases; ++p) {
    std::printf("  phase %d (%s): charged %8.1f s, blind %8.1f s\n", p,
                dists[p].name.c_str(), phase_charged[p], phase_blind[p]);
  }
  if (debug) {
    auto split = [&](const char* tag, const colt::ColtRunResult& run) {
      std::vector<double> exec(num_phases, 0.0), prof(num_phases, 0.0),
          build(num_phases, 0.0), maint(num_phases, 0.0);
      for (size_t i = 0; i < workload.size(); ++i) {
        const auto& q = run.per_query[i];
        exec[phase_of_query[i]] += q.execution;
        prof[phase_of_query[i]] += q.profiling;
        build[phase_of_query[i]] += q.build + q.wasted_build;
        maint[phase_of_query[i]] += q.maintenance;
      }
      for (int p = 0; p < num_phases; ++p) {
        std::printf("debug %s phase %d exec %.1f (maint %.1f) prof %.1f "
                    "build %.1f\n",
                    tag, p, exec[p], maint[p], prof[p], build[p]);
      }
    };
    split("charged", charged);
    split("blind", blind);
  }
  const double charged_total = RunTotal(charged);
  const double blind_total = RunTotal(blind);
  std::printf("\ncharged_total_s=%.3f\n", charged_total);
  std::printf("blind_total_s=%.3f\n", blind_total);
  // The tuner-side charge is in optimizer cost units (it offsets benefit
  // in the gain statistics), unlike the simulated-seconds totals above.
  std::printf("maintenance_charged_units=%.3f\n", ChargedTotal(charged));
  std::printf("write_queries=%lld\n",
              static_cast<long long>(WriteQueries(charged)));

  int failures = 0;

  // Gate: the knob actually gates — the charged run folded a non-zero
  // maintenance charge into the gain statistics, the blind run none.
  if (ChargedTotal(charged) <= 0.0) {
    std::printf("FAIL: charged run recorded no maintenance charge\n");
    ++failures;
  }
  if (ChargedTotal(blind) != 0.0) {
    std::printf("FAIL: maintenance-blind run charged maintenance\n");
    ++failures;
  }

  // Gate: a write-hot lineitem index is adopted while reads dominate and
  // dropped once the write phase makes it a net loss. The drop epoch must
  // itself have charged maintenance (i.e. writes were in force).
  const std::vector<colt::IndexId> write_hot = {
      catalog.IndexOn(Col(&catalog, "lineitem_0", "l_shipdate"))->id,
      catalog.IndexOn(Col(&catalog, "lineitem_0", "l_partkey"))->id,
  };
  std::string dropped_name;
  for (colt::IndexId id : write_hot) {
    int adopted_epoch = -1;
    for (const auto& e : charged.epochs) {
      const bool mat = Contains(e.materialized_ids, id);
      if (mat && adopted_epoch < 0) adopted_epoch = e.epoch;
      if (!mat && adopted_epoch >= 0 &&
          (e.maintenance_charged > 0.0 || e.write_queries > 0)) {
        dropped_name = catalog.index(id).name;
        std::printf("index %s: adopted at epoch %d, dropped by epoch %d\n",
                    dropped_name.c_str(), adopted_epoch, e.epoch);
        break;
      }
    }
    if (!dropped_name.empty()) break;
  }
  if (dropped_name.empty()) {
    std::printf("FAIL: no write-hot lineitem index was dropped under "
                "write pressure\n");
    ++failures;
  } else {
    std::printf("dropped_write_hot_index=%s\n", dropped_name.c_str());
  }

  // Gate: knowing about maintenance must not cost total performance. The
  // margin can be modest (the blind tuner also sheds lineitem indexes
  // eventually, as their read benefit fades), but the sign must be right.
  if (charged_total < blind_total) {
    std::printf("maintenance_charge_advantage=ok\n");
  } else {
    std::printf("FAIL: charged run (%.3f s) not cheaper than "
                "maintenance-blind run (%.3f s)\n",
                charged_total, blind_total);
    ++failures;
  }

  // Leanstore-style hot-spot scenario: UPDATE/DELETE ranges confined to
  // the hottest 1% of the key domain against a composite-key read shape.
  // Exercises skewed maintenance pressure + the multi-column miner.
  {
    const colt::QueryDistribution hot =
        colt::ExperimentWorkloads::HotSpotWrites(&catalog);
    colt::WorkloadGenerator hot_gen(&catalog, /*seed=*/41);
    std::vector<colt::Query> hot_workload;
    const int hot_len = smoke ? 150 : 400;
    for (int i = 0; i < hot_len; ++i) {
      hot_workload.push_back(hot_gen.Sample(hot));
    }
    colt::ColtConfig hot_config = config;
    hot_config.mine_multicolumn_candidates = true;
    const colt::ColtRunResult hot_run =
        colt::RunColtWorkload(&catalog, hot_workload, hot_config);
    const int64_t hot_writes = WriteQueries(hot_run);
    std::printf("\nhot-spot scenario: %d queries, %lld writes, "
                "maintenance charged %.3f cost units\n",
                hot_len, static_cast<long long>(hot_writes),
                ChargedTotal(hot_run));
    if (hot_writes > 0 && ChargedTotal(hot_run) > 0.0) {
      std::printf("hotspot_run=ok\n");
    } else {
      std::printf("FAIL: hot-spot scenario recorded no write pressure\n");
      ++failures;
    }
  }

  if (failures > 0) {
    std::printf("\n%d gate(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
