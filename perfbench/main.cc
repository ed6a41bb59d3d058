/// colt_perfbench: runs one workload of the COLT benchmark for a fixed
/// time and prints its metrics. perfbench/run.py builds and drives it; see
/// perfbench/README.md for the workloads and metric definitions.
///
///   colt_perfbench --workload tune_shift|serve_shift|htap_flip --seed N
///                  --seconds S --trace 0|1 [--trace-out FILE]
///
/// A run repeats rounds (fresh set-up, then the timed loop over the same
/// seeded inputs) until the time is up. Untraced runs report end-to-end
/// metrics; traced runs alternate untraced and traced rounds and report
/// per-layer metrics from spans recorded around each public call. Every
/// round's deterministic digest must match; the last line of output is
/// `RESULT {json}`. Exits 1 when a correctness check fails, 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Untraced runs make at least this many rounds, traced runs this many
/// untraced/traced pairs, however short --seconds is.
constexpr size_t kMinRounds = 2;
constexpr size_t kMinPairs = 1;
/// setup_s is the median of at least this many set-ups.
constexpr size_t kMinSetups = 5;
/// No new round starts once it would end past this (the run must exit
/// within 180 s).
constexpr double kHardCapSeconds = 140.0;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (key == "--trace") {
      opt->trace = std::atoi(value);
    } else if (key == "--trace-out") {
      opt->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && opt->seconds > 0.0 &&
         (opt->trace == 0 || opt->trace == 1);
}

std::unique_ptr<Workload> MakeWorkload(const Options& opt) {
  if (opt.workload == "tune_shift") return MakeTuneShift(opt.seed);
  if (opt.workload == "serve_shift") return MakeServeShift(opt.seed);
  if (opt.workload == "htap_flip") return MakeHtapFlip(opt.seed);
  return nullptr;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Samples the value rests on (calls for timings, rounds for per-round
  /// figures).
  size_t n = 0;
};

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The samples of `family` pooled over `rounds`.
std::vector<double> Pooled(const std::vector<Round>& rounds,
                           const std::string& family) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    auto it = r.samples.find(family);
    if (it != r.samples.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

/// Median across rounds of a per-round value (rounds lacking it count 0).
double MedianValue(const std::vector<Round>& rounds, const std::string& key) {
  std::vector<double> values;
  for (const Round& r : rounds) {
    auto it = r.values.find(key);
    values.push_back(it != r.values.end() ? it->second : 0.0);
  }
  return Median(values);
}

class Summary {
 public:
  explicit Summary(std::vector<std::string>* failures) : failures_(failures) {}

  void Add(const std::string& name, const std::string& unit, double value,
           size_t n) {
    if (!std::isfinite(value)) {
      failures_->push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, unit, value, n});
  }

  /// Median of `samples` scaled by `scale`; 0 when the layer did no such
  /// work on this workload.
  void AddMedian(const std::string& name, const std::string& unit,
                 const std::vector<double>& samples, double scale) {
    Add(name, unit, Median(samples) * scale, samples.size());
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<std::string>* failures_;
  std::vector<Metric> metrics_;
};

/// Sample families of a workload's read latencies, then write latencies.
std::vector<std::string> LatencyFamilies(const std::string& workload) {
  if (workload == "tune_shift") return {"tune"};
  if (workload == "serve_shift") return {"serve"};
  return {"htap_read", "htap_write"};
}

/// The i-th call's fastest time across rounds, for every call i of
/// `family`. Rounds replay identical work, so the i-th call of every round
/// does the same thing; other work on a shared machine only ever adds
/// time, and on the machine this was written on it slowed whole stretches
/// of a run by up to 40%. A call's best time over the replays is the
/// least disturbed measurement of it; a regression slows every replay.
std::vector<double> FastestPerCall(const std::vector<Round>& rounds,
                                   const std::string& family) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    const std::vector<double>& calls = r.samples.at(family);
    if (out.empty()) {
      out = calls;
    } else if (calls.size() == out.size()) {  // else the digest check fails
      for (size_t i = 0; i < calls.size(); ++i) {
        out[i] = std::min(out[i], calls[i]);
      }
    }
  }
  return out;
}

/// End-to-end metrics from the fastest time of each call across rounds.
/// On the single-client workloads throughput is calls / Σ fastest call
/// times; serve_shift's clients overlap, so its throughput is the median
/// round's `ServeResult::aggregate_qps`.
void EndToEnd(const std::string& workload, const std::vector<Round>& rounds,
              const std::vector<double>& setups, double peak_rss_mb,
              Summary* s, std::vector<std::string>* failures) {
  const std::vector<std::string> families = LatencyFamilies(workload);
  std::map<std::string, std::vector<double>> fastest;
  double statements = 0.0;
  double seconds = 0.0;
  for (const std::string& family : families) {
    fastest[family] = FastestPerCall(rounds, family);
    statements += static_cast<double>(fastest[family].size());
    for (double t : fastest[family]) seconds += t;
  }
  const double throughput = workload == "serve_shift"
                                ? MedianValue(rounds, "stmt_per_s")
                                : statements / seconds;
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
  }

  auto tail = [&](const std::string& name, const std::string& unit,
                  const std::string& family, double p, double scale) {
    const std::vector<double>& calls = fastest[family];
    const std::optional<double> value = TailPercentile(calls, p);
    if (!value) {
      failures->push_back(name + " rests on only " +
                          std::to_string(calls.size()) + " calls");
      return;
    }
    s->Add(name, unit, *value * scale, calls.size());
  };
  const size_t n = rounds.size();
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const double sim_total_s = rounds.front().digest.sim_total_s;

  // BENCHMARK.json's workload-generic metrics.
  s->Add("stmt_per_s", "1/s", throughput, n);
  tail("read_p50_us", "us", families[0], 50.0, 1e6);
  tail("read_p99_us", "us", families[0], 99.0, 1e6);
  s->Add("peak_rss_mb", "MiB", peak_rss_mb, 1);
  s->Add("setup_s", "s", Median(setups), setups.size());
  // The same measurements under their workload-specific names.
  if (workload == "tune_shift") {
    s->Add("sim_total_s", "sim_s", sim_total_s, 1);
    s->Add("tune_qps", "1/s", throughput, n);
    tail("tune_p50_us", "us", "tune", 50.0, 1e6);
    tail("tune_p99_us", "us", "tune", 99.0, 1e6);
  } else if (workload == "serve_shift") {
    s->Add("failed_frac", "ratio", failed_frac, n);
    s->Add("serve_qps", "1/s", throughput, n);
    tail("serve_p50_ms", "ms", "serve", 50.0, 1e3);
    tail("serve_p99_ms", "ms", "serve", 99.0, 1e3);
  } else {
    s->Add("failed_frac", "ratio", failed_frac, n);
    s->Add("sim_total_s", "sim_s", sim_total_s, 1);
    s->Add("htap_stmt_per_s", "1/s", throughput, n);
    tail("htap_read_p50_us", "us", "htap_read", 50.0, 1e6);
    tail("htap_read_p99_us", "us", "htap_read", 99.0, 1e6);
    tail("htap_write_p50_us", "us", "htap_write", 50.0, 1e6);
    tail("htap_write_p99_us", "us", "htap_write", 99.0, 1e6);
  }
}

void PerLayer(const std::vector<Round>& untraced,
              const std::vector<Round>& traced, Summary* s) {
  const size_t n = traced.size();
  s->AddMedian("optimizer.plan_us", "us", Pooled(traced, "optimizer.plan"),
               1e6);
  s->Add("optimizer.whatif_cache_hit_ratio", "ratio",
         MedianValue(traced, "optimizer.whatif_cache_hit_ratio"), n);
  s->Add("optimizer.whatif_cache_lookups", "count",
         MedianValue(traced, "optimizer.whatif_cache_lookups"), n);
  s->AddMedian("core.on_query_us", "us", Pooled(traced, "core.on_query"), 1e6);
  s->AddMedian("core.on_query_steady_us", "us",
               Pooled(traced, "core.on_query_steady"), 1e6);
  s->AddMedian("core.on_query_epoch_end_us", "us",
               Pooled(traced, "core.on_query_epoch_end"), 1e6);
  s->AddMedian("core.on_query_read_us", "us",
               Pooled(traced, "core.on_query_read"), 1e6);
  s->AddMedian("core.on_query_write_us", "us",
               Pooled(traced, "core.on_query_write"), 1e6);
  s->Add("core.epoch_end_share", "ratio",
         MedianValue(traced, "core.epoch_end_share"), n);
  s->AddMedian("core.knapsack_us", "us", Pooled(traced, "core.knapsack"), 1e6);
  for (const char* count : {"core.whatif_calls_per_query",
                            "core.index_actions", "index.builds",
                            "index.entry_ops_per_write",
                            "storage.rows_inserted"}) {
    s->Add(count, "count", MedianValue(traced, count), n);
  }
  s->Add("core.maintenance_charged", "cost",
         MedianValue(traced, "core.maintenance_charged"), n);
  for (const char* seconds :
       {"core.build_query_s", "core.serve_owner_wait_s", "exec.client_busy_s",
        "storage.materialize_s"}) {
    s->Add(seconds, "s", MedianValue(traced, seconds), n);
  }
  s->Add("core.serve_idle_frac", "ratio",
         MedianValue(traced, "core.serve_idle_frac"), n);
  s->AddMedian("exec.execute_us", "us", Pooled(traced, "exec.execute"), 1e6);

  std::vector<double> seqscan_frac;
  std::vector<double> pages_per_query;
  std::vector<double> coverage;
  for (const Round& r : traced) {
    auto reads = r.values.find("exec.reads");
    const double n_reads = reads != r.values.end() ? reads->second : 0.0;
    auto seq = r.values.find("exec.seqscan_reads");
    const double n_seq = seq != r.values.end() ? seq->second : 0.0;
    seqscan_frac.push_back(n_reads > 0.0 ? n_seq / n_reads : 0.0);
    pages_per_query.push_back(
        n_reads > 0.0 ? static_cast<double>(r.digest.pages) / n_reads : 0.0);
    coverage.push_back(r.values.at("trace.top_level_s") / r.loop_s);
  }
  s->Add("exec.seqscan_frac", "ratio", Median(seqscan_frac), n);
  s->Add("exec.pages_per_query", "count", Median(pages_per_query), n);

  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  for (const Round& r : untraced) untraced_wall.push_back(r.loop_s);
  for (const Round& r : traced) traced_wall.push_back(r.loop_s);
  s->Add("trace.overhead_frac", "ratio",
         Median(traced_wall) / Median(untraced_wall) - 1.0, n);
  s->Add("trace.coverage", "ratio", Median(coverage), n);
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload tune_shift|serve_shift|htap_flip "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(opt);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const bool traced_run = opt.trace == 1;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace);

  std::vector<Round> untraced;
  std::vector<Round> traced;
  std::vector<double> setups;
  std::vector<std::string> failures;
  std::map<std::string, SpanTotals> span_totals;
  // Taken after the first round: later rounds only add allocator
  // fragmentation, which varies with their number.
  double peak_rss_mb = 0.0;
  auto run_round = [&](bool trace) {
    Round round;
    const double start = Now();
    workload->Setup();
    round.setup_s = Now() - start;
    workload->Run(trace, &round);
    setups.push_back(round.setup_s);
    std::printf("round %zu%s: setup %.3f s, loop %.3f s, %.1f stmt/s, %s\n",
                untraced.size() + traced.size(), trace ? " traced" : "",
                round.setup_s, round.loop_s, round.values["stmt_per_s"],
                round.digest.ToString().c_str());
    if (trace) {
      round.values["trace.top_level_s"] = round.spans.TopLevelSeconds();
      for (const auto& [name, t] : round.spans.Totals()) {
        SpanTotals& sum = span_totals[name];
        sum.count += t.count;
        sum.seconds += t.seconds;
        sum.self_seconds += t.self_seconds;
      }
      if (traced.empty() && !opt.trace_out.empty() &&
          !round.spans.WriteJsonl(opt.trace_out, opt.workload, opt.seed)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     opt.trace_out.c_str());
      }
      round.spans.Clear();
      traced.push_back(std::move(round));
    } else {
      untraced.push_back(std::move(round));
    }
    if (peak_rss_mb == 0.0) peak_rss_mb = PeakRssMiB();
    return Now() - start;
  };

  const double begin = Now();
  auto more = [&](size_t done, size_t minimum, double last) {
    const double next_end = Now() - begin + last;
    if (next_end > kHardCapSeconds) return false;
    return done < minimum || next_end <= opt.seconds;
  };
  if (traced_run) {
    for (size_t pairs = 0;; ++pairs) {
      double last = run_round(false);
      last += run_round(true);
      if (!more(pairs + 1, kMinPairs, last)) break;
    }
  } else {
    for (size_t rounds = 0;; ++rounds) {
      const double last = run_round(false);
      if (!more(rounds + 1, kMinRounds, last)) break;
    }
  }
  while (!traced_run && setups.size() < kMinSetups) {
    const double start = Now();
    workload->Setup();
    setups.push_back(Now() - start);
    workload->Teardown();
  }

  // Correctness: every check held, nothing failed, and every round of
  // this seed produced the same deterministic outputs.
  int64_t attempted = 0;
  int64_t failed = 0;
  const Digest& reference = untraced.front().digest;
  for (const std::vector<Round>* set : {&untraced, &traced}) {
    for (const Round& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      failures.insert(failures.end(), r.check_failures.begin(),
                      r.check_failures.end());
      if (!(r.digest == reference)) {
        failures.push_back("digest mismatch: " + r.digest.ToString() +
                           " vs " + reference.ToString());
      }
    }
  }

  Summary summary(&failures);
  if (traced_run) {
    PerLayer(untraced, traced, &summary);
    std::printf("span self time (all traced rounds):\n");
    for (const auto& [name, t] : span_totals) {
      std::printf("  %-26s count %9lld  total %10.4f s  self %10.4f s\n",
                  name.c_str(), static_cast<long long>(t.count), t.seconds,
                  t.self_seconds);
    }
  } else {
    EndToEnd(opt.workload, untraced, setups, peak_rss_mb, &summary,
             &failures);
  }
  for (const Metric& m : summary.metrics()) {
    std::printf("metric %-34s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n);
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = failures.empty() && failed == 0;

  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false");
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"digest\":" + JsonString(reference.ToString());
  json += ",\"env\":{\"nproc\":" +
          std::to_string(colt::ThreadPool::HardwareConcurrency());
  json += ",\"cpu\":" + JsonString(CpuModel());
#ifdef __clang__
  json += ",\"compiler\":" + JsonString("clang " __clang_version__);
#else
  json += ",\"compiler\":" + JsonString("gcc " __VERSION__);
#endif
  json += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  json += ",\"workload\":" + JsonString(opt.workload);
  json += ",\"seed\":" + std::to_string(opt.seed) + "}";
  json += ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : summary.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "" : ",") + JsonString(m.name) + ":{\"value\":" + value +
            ",\"unit\":" + JsonString(m.unit) +
            ",\"n\":" + std::to_string(m.n) + "}";
    first = false;
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
