#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/colt.h"
#include "exec/executor.h"
#include "query/workload.h"
#include "spans.h"
#include "storage/database.h"

namespace perfbench {

/// Deterministic outputs of one round. Identical for every round of one
/// seed, traced or not; a pure speed change leaves it bit-identical.
struct Digest {
  /// Σ TuningStep execution + profiling + build + wasted-build seconds
  /// (simulated; COLT's objective). 0 on serve_shift, whose untraced loop
  /// (ServeWorkload) does not expose the steps.
  double sim_total_s = 0.0;
  int64_t index_actions = 0;
  int64_t epochs = 0;
  /// Σ over executed reads.
  int64_t output_rows = 0;
  int64_t pages = 0;

  bool operator==(const Digest&) const = default;
  std::string ToString() const;
};

/// Everything one round of a workload measured.
struct Round {
  double setup_s = 0.0;
  /// Wall time of the timed loop.
  double loop_s = 0.0;
  Digest digest;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Correctness checks that failed, one line each.
  std::vector<std::string> check_failures;
  /// Per-call wall times in seconds, by family, in call order. Untraced
  /// rounds are reduced to each call's fastest time across rounds; traced
  /// rounds are pooled.
  std::map<std::string, std::vector<double>> samples;
  /// Per-round scalars; reported as the median across rounds.
  std::map<std::string, double> values;
  /// Spans of a traced round (empty otherwise).
  SpanRecorder spans;

  void CheckThat(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// One benchmark workload. A round is Setup() then Run() on fresh state;
/// every round of one seed replays identical inputs.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds fresh state: everything before the first timed call.
  virtual void Setup() = 0;
  /// Runs the timed loop over the state Setup() built, checks the outputs
  /// and releases the state. Records spans into out->spans when `traced`.
  virtual void Run(bool traced, Round* out) = 0;
  /// Releases state built by Setup() without running it.
  virtual void Teardown() = 0;
};

std::unique_ptr<Workload> MakeTuneShift(uint64_t seed);
std::unique_ptr<Workload> MakeServeShift(uint64_t seed);
std::unique_ptr<Workload> MakeHtapFlip(uint64_t seed);

// ---- Helpers shared by the workloads ----

/// Times `fn()`; records a span named `name` when `spans` is non-null.
template <typename Fn>
double Timed(SpanRecorder* spans, const char* name, int64_t trace_index,
             Fn&& fn) {
  if (spans != nullptr) {
    const int32_t id = spans->Open(name, trace_index);
    fn();
    return spans->Close(id);
  }
  const double start = Now();
  fn();
  return Now() - start;
}

/// Only the query traces vary with --seed. The table data and the budget
/// are fixtures, so that seeds vary the workload, not the machine it runs
/// on (different data would change selectivities, plans and the budget).
inline constexpr uint64_t kDataSeed = 42;

/// Storage budget fitting about four relevant indexes, mined as in fig4
/// from a fixed sample of `dists`.
int64_t MineBudget(colt::Catalog* catalog,
                   const std::vector<colt::QueryDistribution>& dists);

/// The Fig. 4 schedule cycled: `cycles` passes over the four shifting
/// phases, 300 queries per phase and 50-query transitions between
/// consecutive phases.
std::vector<colt::Query> ShiftingTrace(
    const colt::Catalog& catalog,
    const std::vector<colt::QueryDistribution>& dists, int cycles,
    uint64_t seed);

/// Per-layer accounting of the tuner's OnQuery calls, accumulated call by
/// call so no TuningStep (which owns a plan tree) is kept.
class TunerLayer {
 public:
  void Add(const colt::Query& q, const colt::TuningStep& step,
           double seconds);
  /// Writes samples and per-round values into `out`.
  void Report(const colt::ColtTuner& tuner, Round* out);

 private:
  std::vector<double> all_, steady_, epoch_end_, read_, write_;
  double build_query_s_ = 0.0;
  int64_t builds_ = 0;
  int64_t actions_ = 0;
  int64_t whatif_calls_ = 0;
};

/// Adds `step`'s simulated cost and actions to the digest.
void AddStep(const colt::TuningStep& step, Digest* digest);

/// Adds one executed read to the digest and the exec-layer read counts.
void AddRead(const colt::ExecutionResult& r, Digest* digest, Round* out);

/// Checks every built index: entry_count() == live_row_count() of its
/// table, and CheckInvariants() passes.
void CheckBuiltIndexes(const colt::Database& db, Round* out);

/// The bench-side knapsack probe at an epoch end: the pool the tuner
/// solves (hot set ∪ materialized, valued by NetBenefit, capped by the
/// storage budget), solved once more outside the program and timed.
void KnapsackProbe(const colt::Catalog& catalog, colt::ColtTuner* tuner,
                   SpanRecorder* spans, int64_t trace_index, Round* out);

/// Reads the what-if cache counters the program keeps in the default
/// MetricsRegistry into out->values, then resets the registry.
void TakeCacheHitRatio(Round* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
