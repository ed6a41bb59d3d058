#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double SpanRecorder::TopLevelSeconds() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) total += span.seconds();
  }
  return total;
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  std::vector<std::vector<int32_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
  std::map<std::string, SpanTotals> totals;
  std::vector<std::pair<double, double>> covered;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    covered.clear();
    for (int32_t c : children[i]) {
      const Span& child = spans_[static_cast<size_t>(c)];
      const double lo = std::max(span.start, child.start);
      const double hi = std::min(span.end, child.end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double child_union = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) child_union += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) child_union += run_hi - run_lo;

    SpanTotals& t = totals[span.name];
    ++t.count;
    t.seconds += span.seconds();
    t.self_seconds += span.seconds() - child_union;
  }
  return totals;
}

bool SpanRecorder::WriteJsonl(const std::string& path,
                              const std::string& workload,
                              uint64_t seed) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  bool ok = true;
  for (size_t i = 0; i < spans_.size() && ok; ++i) {
    const Span& s = spans_[i];
    ok = std::fprintf(out,
                      "{\"workload\":\"%s\",\"seed\":%llu,\"id\":%zu,"
                      "\"name\":\"%s\",\"parent\":%d,\"trace_index\":%lld,"
                      "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                      workload.c_str(), static_cast<unsigned long long>(seed),
                      i, s.name, s.parent,
                      static_cast<long long>(s.trace_index),
                      (s.start - origin) * 1e6, (s.end - origin) * 1e6) > 0;
  }
  return std::fclose(out) == 0 && ok;
}

}  // namespace perfbench
