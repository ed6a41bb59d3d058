#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady clock).
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer of the program, recorded from outside it.
struct Span {
  /// Dotted "<layer>.<call>" name; must point at a string literal.
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  /// Index of the enclosing span in the recorder, or -1 at top level.
  int32_t parent = -1;
  /// Position of the statement in the workload trace, or -1.
  int64_t trace_index = -1;

  double seconds() const { return end - start; }
};

/// Aggregate of every span with one name.
struct SpanTotals {
  int64_t count = 0;
  double seconds = 0.0;
  /// Time not covered by the span's own children.
  double self_seconds = 0.0;
};

/// In-memory span log of one traced round. Spans nest through an explicit
/// open-span stack on the recording (owner) thread; spans timed on other
/// threads are attached afterwards with Add(). Nothing is written out
/// until the caller asks for it, so recording costs two clock reads and a
/// vector append.
class SpanRecorder {
 public:
  /// Opens a span as a child of the innermost open span.
  int32_t Open(const char* name, int64_t trace_index = -1) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.trace_index = trace_index;
    spans_.push_back(span);
    const int32_t id = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(id);
    spans_[static_cast<size_t>(id)].start = Now();
    return id;
  }

  /// Closes the innermost open span (which must be `id`); returns its
  /// duration in seconds.
  double Close(int32_t id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = Now();
    open_.pop_back();
    return span.seconds();
  }

  /// Attaches a finished span timed elsewhere.
  void Add(const Span& span) { spans_.push_back(span); }

  void Clear() {
    spans_.clear();
    open_.clear();
  }

  /// Total duration of the top-level spans.
  double TopLevelSeconds() const;

  /// Count, total and self time per span name. A span's self time is its
  /// duration minus the part of its interval covered by the union of its
  /// children's intervals (children timed on other threads may overlap).
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool WriteJsonl(const std::string& path, const std::string& workload,
                  uint64_t seed) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII wrapper around Open/Close for call sites whose duration is not
/// needed separately; records nothing when `recorder` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             int64_t trace_index = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Open(name, trace_index) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
