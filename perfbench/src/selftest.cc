// Self-test of the benchmark's own arithmetic on small hand-built inputs:
// the percentile rule, the latency histogram, span self-time subtraction
// and hit/miss classification by sample_run pointer. Exits non-zero on any mismatch.
//
//   .bench_build/perfbench_selftest

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "classify.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentiles() {
  using namespace perfbench;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // Nearest rank: p50 of 1..1000 is the 500th value, p99 the 990th.
  Expect(PercentileSorted(v, kP50) == 500.0, "p50 of 1..1000");
  Expect(PercentileSorted(v, kP99) == 990.0, "p99 of 1..1000");
  Expect(SamplesBeyond(1000, kP99) == 10, "10 samples beyond p99 of 1000");
  Expect(SamplesBeyond(999, kP99) == 9, "9 samples beyond p99 of 999");
  // The rule: the highest percentile with at least 10 samples beyond it.
  Expect(HighestReportablePercentile(1000) == kP99, "1000 samples report p99");
  Expect(HighestReportablePercentile(999) == kP90, "999 samples report p90");
  Expect(HighestReportablePercentile(10000) == kP999, "10000 samples report p99.9");
  Expect(HighestReportablePercentile(100) == kP90, "100 samples report p90");
  Expect(HighestReportablePercentile(19) == 0, "19 samples report nothing");
  Expect(HighestReportablePercentile(20) == kP50, "20 samples report p50");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.0, "nearest-rank median of four");
  Expect(PercentileSorted({}, kP50) == 0.0, "empty sample");
  Expect(PercentileSorted({7.0}, kP99) == 7.0, "single sample");
}

void TestHistogram() {
  using namespace perfbench;
  // Values on both sides of the exact range, split over two histograms:
  // the merged percentiles equal those of the sorted samples.
  LatencyHistogram a, b;
  std::vector<double> sorted_ms;
  for (int64_t i = 0; i < 1000; ++i) {
    const int64_t ns = i % 7 == 0 ? LatencyHistogram::kExactNs + 1000 * i : 300 + 3 * (i % 50);
    (i % 2 == 0 ? a : b).Add(ns);
    sorted_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  std::sort(sorted_ms.begin(), sorted_ms.end());
  a.Merge(b);
  Expect(a.size() == 1000, "merged histogram counts every sample");
  for (int64_t bp : {int64_t{1}, kP50, kP90, kP99, kP999, int64_t{10000}}) {
    Expect(a.PercentileMs(bp) == PercentileSorted(sorted_ms, bp),
           "histogram percentile equals the sorted-sample percentile");
  }
  LatencyHistogram empty;
  Expect(empty.PercentileMs(kP50) == 0.0, "empty histogram");
  empty.Add(LatencyHistogram::kExactNs - 1);
  Expect(empty.PercentileMs(kP99) == static_cast<double>(LatencyHistogram::kExactNs - 1) / 1e6,
         "last exact bin");
}

perfbench::Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTimes() {
  using perfbench::SelfTimesNs;
  // Root [0, 100) with children [10, 30), [20, 50) (overlapping: union
  // [10, 50) = 40) and [90, 120) (sticks out: only [90, 100) = 10 counts).
  // Child 2 has its own child [25, 35): child 2's self time is 30 - 10.
  std::vector<perfbench::Span> spans = {
      MakeSpan(1, 0, 0, 100),  MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 90, 120), MakeSpan(5, 3, 25, 35), MakeSpan(6, 0, 200, 210),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 100 - 40 - 10, "root self time subtracts the covered union");
  Expect(self[1] == 20, "leaf child keeps its whole duration");
  Expect(self[2] == 30 - 10, "nested child subtracts its own child");
  Expect(self[3] == 30, "child sticking out keeps its duration");
  Expect(self[5] == 10, "root without children keeps its duration");
  // A span whose parent is missing (dropped from a full lane) is a root.
  std::vector<perfbench::Span> orphan = {MakeSpan(7, 99, 0, 5)};
  Expect(SelfTimesNs(orphan)[0] == 5, "orphan span keeps its duration");
  // Lane ids are unique across lanes and a full lane records nothing.
  perfbench::Lane a(1, 2), b(2, 2);
  const uint64_t a1 = a.Record("x", 0, 0, 0, 1);
  const uint64_t b1 = b.Record("x", 0, 0, 0, 1);
  Expect(a1 != b1, "span ids differ across lanes");
  a.Record("y", a1, 0, 0, 1);
  Expect(a.full() && a.Open("z", 0, 0) == 0, "full lane refuses spans");
}

void TestClassification() {
  using perfbench::HitMiss;
  perfbench::SampleRunTracker tracker(2);
  auto run_a = std::make_shared<int>(1);
  auto run_b = std::make_shared<int>(2);
  Expect(tracker.Classify(0, run_a) == HitMiss::kUnknown, "first sighting is unclassified");
  Expect(tracker.Classify(0, run_a) == HitMiss::kHit, "same artifact again is a hit");
  Expect(tracker.Classify(1, run_a) == HitMiss::kUnknown, "plans are tracked independently");
  Expect(tracker.Classify(0, run_b) == HitMiss::kMiss, "a new artifact is a miss");
  Expect(tracker.Classify(0, run_b) == HitMiss::kHit, "then hits again");
  Expect(tracker.Classify(0, run_a) == HitMiss::kMiss, "an older artifact coming back is a miss");
  // The tracker keeps the latest artifact alive, so its address cannot be
  // reused by a fresh allocation that would then read as a hit.
  std::weak_ptr<int> weak = run_a;
  run_a.reset();
  Expect(!weak.expired(), "tracker keeps the latest artifact alive");
}

}  // namespace

int main() {
  TestPercentiles();
  TestHistogram();
  TestSelfTimes();
  TestClassification();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
