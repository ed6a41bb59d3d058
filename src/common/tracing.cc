#include "common/tracing.h"

#include "common/json_util.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace colt {

SpanRing::SpanRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), epoch_(WallTimer::Now()) {
  ring_.reserve(capacity_);
}

int64_t SpanRing::Open() {
  const int64_t id = next_id_++;
  open_.push_back(id);
  return id;
}

void SpanRing::Close(int64_t id, std::string_view name, double start,
                     double duration) {
  COLT_CHECK(!open_.empty() && open_.back() == id)
      << "timed scopes must close innermost-first (closing span " << id
      << ", innermost open " << (open_.empty() ? 0 : open_.back()) << ")";
  open_.pop_back();
  Span span;
  span.id = id;
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = name;
  span.start_seconds = start - epoch_;
  span.duration_seconds = duration;
  if (ring_.size() < capacity_) {
    ring_.push_back(span);
    return;
  }
  ring_[ring_start_] = span;
  ring_start_ = (ring_start_ + 1) % ring_.size();
  ++dropped_;
}

std::vector<Span> SpanRing::Spans() const {
  std::vector<Span> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_start_ + i) % ring_.size()]);
  }
  return out;
}

void SpanRing::Clear() {
  ring_.clear();
  ring_start_ = 0;
  dropped_ = 0;
  epoch_ = WallTimer::Now();
}

std::string SpanRing::ToJsonl() const {
  std::string out;
  for (const Span& span : Spans()) {
    out += "{\"id\":";
    json::AppendInt(span.id, &out);
    out += ",\"parent\":";
    json::AppendInt(span.parent, &out);
    out += ",\"name\":";
    json::AppendString(span.name, &out);
    out += ",\"start\":";
    json::AppendDouble(span.start_seconds, &out);
    out += ",\"dur\":";
    json::AppendDouble(span.duration_seconds, &out);
    out += "}\n";
  }
  return out;
}

std::string SpanRing::ToChromeTrace() const {
  // Complete ("X") events; timestamps in microseconds as about:tracing
  // expects. One ring records one thread, so all spans share one
  // process/thread id and nesting renders from the time ranges alone.
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Span& span : Spans()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    json::AppendString(span.name, &out);
    out += ",\"cat\":\"colt\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    json::AppendDouble(span.start_seconds * 1e6, &out);
    out += ",\"dur\":";
    json::AppendDouble(span.duration_seconds * 1e6, &out);
    out += ",\"args\":{\"id\":";
    json::AppendInt(span.id, &out);
    out += ",\"parent\":";
    json::AppendInt(span.parent, &out);
    out += "}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace colt
