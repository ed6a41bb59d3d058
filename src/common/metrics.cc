#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <utility>

#include "common/json_util.h"
#include "common/logging.h"
#include "common/tracing.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace colt {

namespace {

double SteadyNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#if defined(__x86_64__)
// Seconds per TSC tick, calibrated once against steady_clock. Modern
// x86-64 TSCs are invariant (constant_tsc/nonstop_tsc), so a single
// short calibration holds for the process lifetime; ~0.1% calibration
// error is irrelevant for overhead histograms but a TSC read costs less
// than half of a clock_gettime-backed steady_clock read, which matters
// when timers wrap microsecond-scale pipeline stages.
double SecondsPerTick() {
  static const double seconds_per_tick = [] {
    const double t0 = SteadyNow();
    const uint64_t c0 = __rdtsc();
    double t1;
    do {
      t1 = SteadyNow();
    } while (t1 - t0 < 2e-3);
    const uint64_t c1 = __rdtsc();
    return (t1 - t0) / static_cast<double>(c1 - c0);
  }();
  return seconds_per_tick;
}
#endif

}  // namespace

double WallTimer::Now() {
#if defined(__x86_64__)
  return static_cast<double>(__rdtsc()) * SecondsPerTick();
#else
  return SteadyNow();
#endif
}

HistogramOptions HistogramOptions::Exponential(double first_upper,
                                               double growth, int buckets) {
  HistogramOptions options;
  double bound = first_upper;
  for (int i = 0; i < buckets; ++i) {
    options.upper_bounds.push_back(bound);
    bound *= growth;
  }
  return options;
}

HistogramOptions HistogramOptions::Linear(double lo, double hi, int buckets) {
  HistogramOptions options;
  const double width = (hi - lo) / buckets;
  for (int i = 1; i <= buckets; ++i) {
    options.upper_bounds.push_back(lo + width * i);
  }
  return options;
}

Histogram::Histogram(const MetricsRegistry* registry, std::string_view name,
                     HistogramOptions options)
    : registry_(registry),
      name_(name),
      upper_bounds_(std::move(options.upper_bounds)) {
  if (upper_bounds_.empty()) {
    upper_bounds_ = HistogramOptions::Exponential().upper_bounds;
  }
  buckets_.assign(upper_bounds_.size(), 0);
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  overflow_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

void Histogram::Record(double value) {
  if (!registry_->enabled()) return;
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  if (it == upper_bounds_.end()) {
    ++overflow_;
  } else {
    ++buckets_[static_cast<size_t>(it - upper_bounds_.begin())];
  }
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count_);
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const int64_t before = cumulative;
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) >= target) {
      const double lower = i == 0 ? 0.0 : upper_bounds_[i - 1];
      const double upper = upper_bounds_[i];
      const double fraction = (target - static_cast<double>(before)) /
                              static_cast<double>(buckets_[i]);
      const double value = lower + fraction * (upper - lower);
      return std::clamp(value, min_, max_);
    }
  }
  return max_;  // target lies in the overflow bucket
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  COLT_CHECK(upper_bounds_ == other.upper_bounds_)
      << "histogram merge with mismatched bucket layouts";
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min();
  snap.max = max();
  snap.p50 = Percentile(50.0);
  snap.p95 = Percentile(95.0);
  snap.p99 = Percentile(99.0);
  snap.upper_bounds = upper_bounds_;
  snap.bucket_counts = buckets_;
  snap.overflow = overflow_;
  return snap;
}

ScopedTimer::ScopedTimer(Histogram* hist) {
  // A disabled registry is the default; its timers fall straight through.
  if (hist != nullptr && hist->registry_->enabled()) [[unlikely]] {
    hist_ = hist;
    ring_ = hist->registry_->span_ring();
    if (ring_ != nullptr) span_id_ = ring_->Open();
    start_ = WallTimer::Now();
  }
}

double ScopedTimer::Stop() {
  if (hist_ == nullptr) return 0.0;
  const double elapsed = WallTimer::Now() - start_;
  hist_->Record(elapsed);
  if (ring_ != nullptr) ring_->Close(span_id_, hist_->name_, start_, elapsed);
  hist_ = nullptr;
  return elapsed;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      // colt-lint: allow-next-line(raw-new-delete): the
                      // Counter constructor is private (friend
                      // MetricsRegistry), so make_unique cannot reach it;
                      // the unique_ptr adopts in the same expression.
                      std::unique_ptr<Counter>(new Counter(&enabled_)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      // colt-lint: allow-next-line(raw-new-delete): the
                      // Gauge constructor is private (friend
                      // MetricsRegistry), so make_unique cannot reach it;
                      // the unique_ptr adopts in the same expression.
                      std::unique_ptr<Gauge>(new Gauge(&enabled_)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         HistogramOptions options) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), nullptr).first;
    // The histogram views its own map key as its name (keys never move).
    // colt-lint: allow-next-line(raw-new-delete): the Histogram
    // constructor is private (friend MetricsRegistry), so make_unique
    // cannot reach it; reset() adopts it in the same expression.
    it->second.reset(new Histogram(this, it->first, std::move(options)));
  }
  return it->second.get();
}

void MetricsRegistry::Reset() {
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    if (c->value_ == 0) continue;
    GetCounter(name)->value_ += c->value_;
  }
  for (const auto& [name, h] : other.histograms_) {
    HistogramOptions options;
    options.upper_bounds = h->upper_bounds_;
    GetHistogram(name, std::move(options))->Merge(*h);
  }
  // Gauges carry last-value semantics; see the header contract for why
  // they do not transfer.
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Snapshot();
  }
  return snap;
}

// ---------------------------------------------------------------------------
// JSONL export / import, built on the shared common/json_util subset
// writer/reader; FromJsonl only guarantees to parse what ToJsonl writes.

std::string MetricsSnapshot::ToJsonl() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += "{\"type\":\"counter\",\"name\":";
    json::AppendString(name, &out);
    out += ",\"value\":";
    json::AppendInt(value, &out);
    out += "}\n";
  }
  for (const auto& [name, value] : gauges) {
    out += "{\"type\":\"gauge\",\"name\":";
    json::AppendString(name, &out);
    out += ",\"value\":";
    json::AppendDouble(value, &out);
    out += "}\n";
  }
  for (const auto& [name, h] : histograms) {
    out += "{\"type\":\"histogram\",\"name\":";
    json::AppendString(name, &out);
    out += ",\"count\":";
    json::AppendInt(h.count, &out);
    out += ",\"sum\":";
    json::AppendDouble(h.sum, &out);
    out += ",\"min\":";
    json::AppendDouble(h.min, &out);
    out += ",\"max\":";
    json::AppendDouble(h.max, &out);
    out += ",\"p50\":";
    json::AppendDouble(h.p50, &out);
    out += ",\"p95\":";
    json::AppendDouble(h.p95, &out);
    out += ",\"p99\":";
    json::AppendDouble(h.p99, &out);
    out += ",\"bounds\":";
    json::AppendDoubleArray(h.upper_bounds, &out);
    out += ",\"buckets\":";
    json::AppendIntArray(h.bucket_counts, &out);
    out += ",\"overflow\":";
    json::AppendInt(h.overflow, &out);
    out += "}\n";
  }
  return out;
}

namespace {

// Prometheus metric names admit [a-zA-Z0-9_:]; the registry's dotted
// snake_case maps onto it by turning dots into underscores.
std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendPrometheusDouble(double v, std::string* out) {
  if (std::isnan(v)) {
    *out += "NaN";
  } else if (std::isinf(v)) {
    *out += v > 0 ? "+Inf" : "-Inf";
  } else {
    json::AppendDouble(v, out);
  }
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusName(name) + "_total";
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    AppendPrometheusDouble(value, &out);
    out += "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " histogram\n";
    int64_t cumulative = 0;
    for (size_t i = 0; i < h.upper_bounds.size(); ++i) {
      cumulative += i < h.bucket_counts.size() ? h.bucket_counts[i] : 0;
      out += prom + "_bucket{le=\"";
      AppendPrometheusDouble(h.upper_bounds[i], &out);
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += prom + "_sum ";
    AppendPrometheusDouble(h.sum, &out);
    out += "\n";
    out += prom + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

Result<MetricsSnapshot> MetricsSnapshot::FromJsonl(std::string_view text) {
  MetricsSnapshot snap;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line =
        json::StripLineEnding(text.substr(pos, end - pos));
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    const auto malformed = [&](const std::string& why) {
      return Status::InvalidArgument("metrics jsonl line " +
                                     std::to_string(line_no) + ": " + why);
    };
    json::Reader reader(line);
    if (!reader.Consume('{')) return malformed("expected object");
    std::string type;
    std::string name;
    // A counter's value is an integer and a gauge's a double, so "value"
    // is parsed once the line's type is known, from this saved cursor.
    std::optional<json::Reader> value;
    HistogramSnapshot hist;
    bool first = true;
    while (!reader.Consume('}')) {
      if (!first && !reader.Consume(',')) return malformed("expected ','");
      first = false;
      std::string key;
      if (!reader.ReadString(&key) || !reader.Consume(':')) {
        return malformed("expected key");
      }
      bool ok = true;
      if (key == "type") {
        ok = reader.ReadString(&type);
      } else if (key == "name") {
        ok = reader.ReadString(&name);
      } else if (key == "value") {
        value = reader;
        double skipped = 0.0;
        ok = reader.ReadDouble(&skipped);
      } else if (key == "count") {
        ok = reader.ReadInt(&hist.count);
      } else if (key == "sum") {
        ok = reader.ReadDouble(&hist.sum);
      } else if (key == "min") {
        ok = reader.ReadDouble(&hist.min);
      } else if (key == "max") {
        ok = reader.ReadDouble(&hist.max);
      } else if (key == "p50") {
        ok = reader.ReadDouble(&hist.p50);
      } else if (key == "p95") {
        ok = reader.ReadDouble(&hist.p95);
      } else if (key == "p99") {
        ok = reader.ReadDouble(&hist.p99);
      } else if (key == "bounds") {
        ok = reader.ReadDoubleArray(&hist.upper_bounds);
      } else if (key == "buckets") {
        ok = reader.ReadIntArray(&hist.bucket_counts);
      } else if (key == "overflow") {
        ok = reader.ReadInt(&hist.overflow);
      } else {
        return malformed("unknown key '" + key + "'");
      }
      if (!ok) return malformed("bad value for '" + key + "'");
    }
    // Anything after the closing brace means the line is not the JSONL
    // this writer produces; silently accepting it would let truncated or
    // concatenated exports parse as clean snapshots.
    if (!reader.AtEnd()) return malformed("trailing characters");
    if (name.empty()) return malformed("missing name");
    if (type == "counter") {
      if (!value || !value->ReadInt(&snap.counters[name])) {
        return malformed("bad value for counter '" + name + "'");
      }
    } else if (type == "gauge") {
      if (!value || !value->ReadDouble(&snap.gauges[name])) {
        return malformed("bad value for gauge '" + name + "'");
      }
    } else if (type == "histogram") {
      snap.histograms[name] = std::move(hist);
    } else {
      return malformed("unknown type '" + type + "'");
    }
  }
  return snap;
}

namespace {

std::string FormatSeconds(double v) {
  char buf[48];
  if (std::fabs(v) >= 1.0 || v == 0.0) {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  } else if (std::fabs(v) >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3fm", v * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fu", v * 1e6);
  }
  return buf;
}

}  // namespace

std::string FormatSnapshot(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  if (!snapshot.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : snapshot.counters) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  if (!snapshot.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, value] : snapshot.gauges) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  if (!snapshot.histograms.empty()) {
    out << "histograms:\n";
    for (const auto& [name, h] : snapshot.histograms) {
      out << "  " << name << ": count=" << h.count << " sum="
          << FormatSeconds(h.sum) << " min=" << FormatSeconds(h.min)
          << " p50=" << FormatSeconds(h.p50) << " p95="
          << FormatSeconds(h.p95) << " p99=" << FormatSeconds(h.p99)
          << " max=" << FormatSeconds(h.max) << "\n";
    }
  }
  return out.str();
}

std::string FormatSnapshotDiff(const MetricsSnapshot& before,
                               const MetricsSnapshot& after) {
  std::ostringstream out;
  out << "counters (after - before):\n";
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const int64_t prior = it == before.counters.end() ? 0 : it->second;
    if (value == prior) continue;
    out << "  " << name << " " << (value - prior >= 0 ? "+" : "")
        << (value - prior) << " (" << prior << " -> " << value << ")\n";
  }
  for (const auto& [name, value] : before.counters) {
    if (after.counters.find(name) == after.counters.end()) {
      out << "  " << name << " removed (was " << value << ")\n";
    }
  }
  out << "gauges (before -> after):\n";
  for (const auto& [name, value] : after.gauges) {
    const auto it = before.gauges.find(name);
    const double prior = it == before.gauges.end() ? 0.0 : it->second;
    if (value == prior) continue;
    out << "  " << name << " " << prior << " -> " << value << "\n";
  }
  out << "histograms (count/sum deltas; after-side percentiles):\n";
  for (const auto& [name, h] : after.histograms) {
    const auto it = before.histograms.find(name);
    const int64_t prior_count =
        it == before.histograms.end() ? 0 : it->second.count;
    const double prior_sum =
        it == before.histograms.end() ? 0.0 : it->second.sum;
    if (h.count == prior_count && h.sum == prior_sum) continue;
    out << "  " << name << ": count +" << (h.count - prior_count)
        << " sum +" << FormatSeconds(h.sum - prior_sum) << " p50="
        << FormatSeconds(h.p50) << " p95=" << FormatSeconds(h.p95)
        << " p99=" << FormatSeconds(h.p99) << "\n";
  }
  return out.str();
}

}  // namespace colt
