#ifndef COLT_COMMON_TRACING_H_
#define COLT_COMMON_TRACING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace colt {

/// One finished timed scope: a ScopedTimer's reading. `name` is the name
/// of the histogram the timer recorded into; it views that registry's map
/// key, so it stays valid for the registry's lifetime. Times are seconds
/// relative to the ring's epoch (construction / last Clear), and the
/// duration is exactly the value the histogram recorded.
struct Span {
  int64_t id = 0;
  /// Enclosing span's id; 0 for roots.
  int64_t parent = 0;
  std::string_view name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Fixed-capacity ring of finished spans, fed by the ScopedTimers of the
/// registry it is attached to (MetricsRegistry::set_span_ring). The newest
/// `capacity` spans are kept and older ones are dropped (counted, never
/// resized); the ring is preallocated, so recording allocates nothing.
/// Open timers form a stack: the innermost one parents the next, and they
/// must close innermost-first, which lexical scoping guarantees.
///
/// Thread-compatibility: single-writer, like the registry it is attached
/// to. Attach it only to the owner's MetricsRegistry::Default(); serve
/// clients time into private registries that have no ring.
class SpanRing {
 public:
  explicit SpanRing(size_t capacity = 8192);
  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  /// Finished spans, oldest first (at most `capacity`).
  std::vector<Span> Spans() const;
  /// Spans evicted from the ring so far.
  int64_t dropped() const { return dropped_; }

  /// Forgets all finished spans and restarts the clock epoch. Open timers
  /// survive (their start times stay on the old epoch; avoid mixing).
  void Clear();

  /// One JSON object per line: {"id","parent","name","start","dur"}.
  std::string ToJsonl() const;
  /// Chrome trace_event JSON ("X" complete events) for about:tracing /
  /// Perfetto.
  std::string ToChromeTrace() const;

 private:
  friend class ScopedTimer;
  /// Pushes a new open span under the innermost one; returns its id.
  int64_t Open();
  /// Pops the innermost open span, which must be `id`, and sinks it.
  /// `start` is an absolute WallTimer::Now() reading.
  void Close(int64_t id, std::string_view name, double start,
             double duration);

  size_t capacity_;
  /// Ring of finished spans: ring_[(start_ + i) % size] for i < size.
  std::vector<Span> ring_;
  size_t ring_start_ = 0;
  int64_t dropped_ = 0;
  int64_t next_id_ = 1;
  double epoch_;
  /// Ids of the open spans, innermost last.
  std::vector<int64_t> open_;
};

}  // namespace colt

#endif  // COLT_COMMON_TRACING_H_
