/// Unit test of the benchmark's percentile and span helpers. Plain main():
/// prints each failed expectation and exits 1 if any failed. Run by
/// perfbench/run.py after every build, and by ctest in the build tree.
#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> Range(int n) {
  // n..1, descending, so the helpers must sort.
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

void NearestRankMatchesLatencyPercentile() {
  using perfbench::NearestRank;
  // Nearest rank: the smallest value with at least p% at or below it.
  Expect(Near(NearestRank(Range(10), 50.0), 5.0), "p50 of 1..10 is 5");
  Expect(Near(NearestRank(Range(10), 99.0), 10.0), "p99 of 1..10 is 10");
  Expect(Near(NearestRank(Range(100), 99.0), 99.0), "p99 of 1..100 is 99");
  Expect(Near(NearestRank(Range(1000), 99.0), 990.0),
         "p99 of 1..1000 is 990");
  Expect(Near(NearestRank(Range(3), 50.0), 2.0), "median of 1..3 is 2");
  Expect(Near(NearestRank(Range(2), 50.0), 1.0),
         "median of two samples is the lower one");
  Expect(Near(NearestRank(Range(7), 0.0), 1.0), "p0 is the minimum");
  Expect(Near(NearestRank(Range(7), 100.0), 7.0), "p100 is the maximum");
  Expect(Near(NearestRank({}, 50.0), 0.0), "empty sample gives 0");
}

void TailNeedsTenSamplesBeyond() {
  using perfbench::TailPercentile;
  Expect(!TailPercentile(Range(999), 99.0).has_value(),
         "p99 of 999 samples is not reported (only 9 beyond it)");
  Expect(TailPercentile(Range(1000), 99.0).has_value(),
         "p99 of 1000 samples is reported (10 beyond it)");
  Expect(Near(*TailPercentile(Range(1000), 99.0), 990.0),
         "reported p99 is the nearest-rank value");
  Expect(!TailPercentile(Range(19), 50.0).has_value(),
         "p50 of 19 samples is not reported");
  Expect(TailPercentile(Range(20), 50.0).has_value(),
         "p50 of 20 samples is reported");
  Expect(perfbench::SamplesBeyond(1000, 99.0) == 10, "10 beyond p99 of 1000");
}

void SelfTimeSubtractsChildUnion() {
  perfbench::SpanRecorder rec;
  perfbench::Span parent{"a.parent", 0.0, 10.0, -1, -1};
  rec.Add(parent);
  // Two overlapping children [1,4] and [3,6] cover 5 s; a third [8,12]
  // is clipped to the parent's end and covers 2 s.
  rec.Add({"b.child", 1.0, 4.0, 0, -1});
  rec.Add({"b.child", 3.0, 6.0, 0, -1});
  rec.Add({"b.child", 8.0, 12.0, 0, -1});
  const auto totals = rec.Totals();
  Expect(Near(totals.at("a.parent").self_seconds, 3.0),
         "parent self time is 10 - (5 + 2)");
  Expect(Near(totals.at("b.child").seconds, 10.0), "children total 10 s");
  Expect(totals.at("b.child").count == 3, "three child spans");
  Expect(Near(rec.TopLevelSeconds(), 10.0), "only the parent is top level");
}

}  // namespace

int main() {
  NearestRankMatchesLatencyPercentile();
  TailNeedsTenSamplesBeyond();
  SelfTimeSubtractsChildUnion();
  if (failures > 0) {
    std::printf("%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_stats_test: all expectations held\n");
  return 0;
}
