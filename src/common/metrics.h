#ifndef COLT_COMMON_METRICS_H_
#define COLT_COMMON_METRICS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace colt {

class MetricsRegistry;
class SpanRing;

/// Monotonic wall-clock stopwatch, the clock behind ScopedTimer and the
/// benches (no ad-hoc chrono snippets at call sites). On x86-64 it reads
/// the invariant TSC with a one-time calibration against steady_clock —
/// under half the cost of a clock_gettime-backed read, which matters when
/// instrumenting microsecond-scale pipeline stages; elsewhere it is
/// steady_clock.
class WallTimer {
 public:
  WallTimer() : start_(Now()) {}
  void Reset() { start_ = Now(); }
  /// Seconds elapsed since construction / last Reset().
  double Seconds() const { return Now() - start_; }
  /// Monotonic seconds since an arbitrary process-stable epoch.
  static double Now();

 private:
  double start_;
};

/// Monotonic counter. Updates are dropped while the owning registry is
/// disabled, so a disabled run observes nothing (and pays one predictable
/// branch per update).
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(int64_t n) {
    if (*enabled_) value_ += n;
  }
  int64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(const bool* enabled) : enabled_(enabled) {}
  void Reset() { value_ = 0; }

  const bool* enabled_;
  int64_t value_ = 0;
};

/// Last-value gauge (e.g. budget utilization, current hot-set size).
class Gauge {
 public:
  void Set(double v) {
    if (*enabled_) value_ = v;
  }
  double value() const { return value_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const bool* enabled) : enabled_(enabled) {}
  void Reset() { value_ = 0.0; }

  const bool* enabled_;
  double value_ = 0.0;
};

/// Bucket layout of a histogram. Bucket i covers
/// (upper_bounds[i-1], upper_bounds[i]]; values above the last bound land
/// in a dedicated overflow bucket. Defaults suit wall-clock seconds from
/// ~100ns up to ~100s.
struct HistogramOptions {
  std::vector<double> upper_bounds;

  /// Exponential bounds: first_upper * growth^i, `buckets` of them.
  static HistogramOptions Exponential(double first_upper = 1e-7,
                                      double growth = 4.0, int buckets = 16);
  /// Equal-width bounds over (lo, hi].
  static HistogramOptions Linear(double lo, double hi, int buckets);
};

/// Percentile summary of a histogram at snapshot time.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<double> upper_bounds;
  std::vector<int64_t> bucket_counts;  // same length as upper_bounds
  int64_t overflow = 0;

  bool operator==(const HistogramSnapshot&) const = default;
};

/// Fixed-bucket histogram with exact count/sum/min/max and interpolated
/// percentiles. Single-writer, like the rest of the tuning stack.
class Histogram {
 public:
  void Record(double value);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  /// The p-th percentile (0 < p <= 100) by linear interpolation inside the
  /// containing bucket; exact min/max clamp the ends. 0 when empty.
  double Percentile(double p) const;

  HistogramSnapshot Snapshot() const;

 private:
  friend class MetricsRegistry;
  friend class ScopedTimer;
  Histogram(const MetricsRegistry* registry, std::string_view name,
            HistogramOptions options);
  void Reset();
  /// Folds `other` in bucket-wise; bucket layouts must match.
  void Merge(const Histogram& other);

  const MetricsRegistry* registry_;
  /// The registry's map key, which never moves; spans point at it.
  std::string_view name_;
  std::vector<double> upper_bounds_;
  std::vector<int64_t> buckets_;
  int64_t overflow_ = 0;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// RAII wall-clock timer recording into a histogram on scope exit: the one
/// way the code times itself. When the histogram's registry has a span
/// ring attached, the same reading also goes into the ring as a span named
/// after the histogram, parented by the innermost open timer. When the
/// registry is disabled at construction the timer never reads the clock,
/// so instrumented scopes cost one branch.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist);
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { Stop(); }

  /// Records now instead of at scope exit; further Stop()s are no-ops.
  /// Returns the elapsed seconds (0 when inactive).
  double Stop();

 private:
  Histogram* hist_ = nullptr;  // null = inactive
  SpanRing* ring_ = nullptr;   // null = no span
  int64_t span_id_ = 0;
  double start_ = 0.0;
};

/// Full point-in-time view of a registry, exportable as JSONL (one JSON
/// object per line) and re-parsable for offline diffing.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  std::string ToJsonl() const;
  static Result<MetricsSnapshot> FromJsonl(std::string_view text);

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Human-readable rendering of one snapshot / of the delta between two
/// (counters: after - before; gauges: before -> after; histograms: count
/// and sum deltas plus the after-side percentiles).
std::string FormatSnapshot(const MetricsSnapshot& snapshot);
std::string FormatSnapshotDiff(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

/// Prometheus text exposition of a snapshot: dotted names map to
/// underscores, counters gain the `_total` suffix, histograms export
/// cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// Name-keyed registry of counters, gauges and histograms. Disabled by
/// default: instruments can be registered and cached at any time, but
/// record nothing until set_enabled(true), so the fault-injector pattern
/// holds — an untouched run is observationally identical to one without
/// the metrics layer. Instrument pointers are stable for the registry's
/// lifetime; call sites fetch them once and update through the pointer.
///
/// Thread-compatibility: a registry is single-writer, NOT synchronized.
/// Parallel code follows the per-worker-buffer rule (DESIGN.md §10): each
/// pool worker records into a private registry it exclusively owns, and
/// the owning thread folds those buffers into the main registry with
/// MergeFrom() once the workers are quiescent.
/// Default() is the main thread's registry and must not be touched from
/// worker tasks.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the tuning stack instruments against.
  /// Owner-only: worker code instruments its per-worker registry, merged
  /// in worker order once the workers are quiescent (DESIGN.md §10).
  COLT_OWNER_ONLY static MetricsRegistry& Default();

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Attaches a span ring (null detaches): while the registry is enabled,
  /// every ScopedTimer on its histograms records its reading there too.
  /// Spans point at histogram names, so export them before destroying
  /// the registry.
  void set_span_ring(SpanRing* ring) { span_ring_ = ring; }
  SpanRing* span_ring() const { return span_ring_; }

  /// Returns the named instrument, creating it on first use. A histogram's
  /// options are fixed by its first registration.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name, HistogramOptions options =
                                                     HistogramOptions());

  /// Zeroes every instrument; registrations (and pointers) survive.
  void Reset();

  /// Folds another registry's recorded values into this one: counters add,
  /// histograms merge bucket-wise (count/sum/min/max/overflow; layouts of
  /// same-named histograms must match). Gauges are deliberately skipped —
  /// a last-value instrument has no meaningful cross-buffer merge. `other`
  /// is left untouched; callers Reset() it to start the next epoch's
  /// buffer. The merge records regardless of either registry's enabled
  /// flag: it moves bookkeeping, it is not an instrumentation site.
  COLT_OWNER_ONLY void MergeFrom(const MetricsRegistry& other);

  MetricsSnapshot Snapshot() const;

 private:
  bool enabled_ = false;
  SpanRing* span_ring_ = nullptr;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace colt

#endif  // COLT_COMMON_METRICS_H_
