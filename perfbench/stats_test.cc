// Checks the benchmark's statistics (stats.h): the percentile support
// rule, nearest-rank percentiles, time windows, the open-loop schedule and
// its lateness accounting, and the base of every ratio. run.py runs this
// binary after each build; a failure stops the benchmark before it reports
// anything.
//
//   .bench_build/perfbench/perfbench_stats_test

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> xs;
  for (size_t i = n; i >= 1; --i) xs.push_back(static_cast<double>(i));
  return xs;
}

void TestSupportRule() {
  using perfbench::SamplesBeyond;
  using perfbench::SupportsPercentile;
  // p99 needs 1000 samples: rank 990 leaves exactly 10 beyond.
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(SupportsPercentile(1000, 99));
  EXPECT(!SupportsPercentile(999, 99));
  // p90 needs 100, p50 needs 20.
  EXPECT(SupportsPercentile(100, 90));
  EXPECT(!SupportsPercentile(99, 90));
  EXPECT(SupportsPercentile(20, 50));
  EXPECT(!SupportsPercentile(19, 50));
  EXPECT(!SupportsPercentile(0, 50));
}

void TestPercentiles() {
  using perfbench::Percentile;
  EXPECT(Near(Percentile(OneTo(1000), 99), 990));
  EXPECT(Near(Percentile(OneTo(1000), 50), 500));
  EXPECT(Near(Percentile(OneTo(100), 90), 90));
  EXPECT(Near(Percentile(OneTo(7), 100), 7));
  EXPECT(Near(Percentile({3.0}, 50), 3));
  EXPECT(Near(Percentile({}, 50), 0));
  EXPECT(Near(perfbench::Median({4, 1, 3, 2}), 2.5));
  EXPECT(Near(perfbench::Median({5, 1, 3}), 3));
}

void TestWindows() {
  using perfbench::SplitByTime;
  // Five windows of 2 s over a 10 s run; t = 10 (a request that finished
  // as the run closed) belongs to the last one.
  auto w = SplitByTime({1, 2, 3, 4, 5}, {0.0, 1.9, 2.0, 9.9, 10.0}, 10, 5);
  EXPECT(w.size() == 5);
  EXPECT(w[0].size() == 2 && w[1].size() == 1 && w[4].size() == 2);
  EXPECT(w[2].empty() && w[3].empty());
  EXPECT(Near(w[1][0], 3));
  EXPECT(SplitByTime({1}, {0.5}, 1, 0).empty());
}

void TestOpenLoop() {
  perfbench::OpenLoopSchedule s(200, 5);
  // A fixed offer: rate x duration requests, whatever the server does.
  EXPECT(s.size() == 1000);
  EXPECT(Near(s.DueS(0), 0));
  EXPECT(Near(s.DueS(200), 1.0));
  EXPECT(perfbench::OpenLoopSchedule(100, 0.5).size() == 50);
  EXPECT(perfbench::OpenLoopSchedule(0, 5).size() == 0);

  // On time: latency is the service time alone.
  perfbench::OpenLoopTiming on_time{1.0, 1.0, 1.004};
  EXPECT(Near(on_time.LateMs(), 0));
  EXPECT(std::fabs(on_time.LatencyMs() - 4) < 1e-6);
  // Sent 30 ms late behind a stall: the user waited from the due time.
  perfbench::OpenLoopTiming late{2.0, 2.030, 2.035};
  EXPECT(std::fabs(late.LateMs() - 30) < 1e-6);
  EXPECT(std::fabs(late.LatencyMs() - 35) < 1e-6);
  // A send a hair early (clock granularity) is not negative lateness.
  perfbench::OpenLoopTiming early{3.0, 2.9999, 3.001};
  EXPECT(Near(early.LateMs(), 0));
}

void TestRatioBases() {
  using perfbench::HitRatio;
  using perfbench::PerOp;
  using perfbench::Share;
  using perfbench::SkippedRatio;
  EXPECT(Near(HitRatio(3, 1), 0.75));   // base: hits + misses
  EXPECT(Near(HitRatio(0, 0), 0));      // no lookups: 0, not NaN
  EXPECT(Near(SkippedRatio(1, 3), 0.25));  // base: scanned + skipped
  EXPECT(Near(SkippedRatio(0, 0), 0));
  EXPECT(Near(PerOp(50, 10), 5));
  EXPECT(Near(PerOp(50, 0), 0));
  EXPECT(Near(Share(9, 10), 0.9));
  EXPECT(Near(Share(1, 0), 0));
}

}  // namespace

int main() {
  TestSupportRule();
  TestPercentiles();
  TestWindows();
  TestOpenLoop();
  TestRatioBases();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_stats_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_stats_test: ok\n");
  return 0;
}
