// The benchmark's own statistics: percentiles and the rule for which ones a
// sample supports, the open-loop send schedule with its lateness
// accounting, and the ratios every per-layer figure is built from. Kept
// apart from the engine so stats_test.cc can check them in isolation.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer it would describe a handful of outliers, not a
/// tail.
inline constexpr size_t kSamplesBeyondTail = 10;

/// 1-based nearest rank of the `pct`-th percentile (0 < pct <= 100) in a
/// sample of `n`: ceil(pct * n / 100), in integer arithmetic so that, e.g.,
/// the 99th percentile of 1000 samples is rank 990 exactly.
size_t NearestRank(size_t n, int pct);

/// Samples strictly beyond the `pct`-th percentile's rank.
size_t SamplesBeyond(size_t n, int pct);

/// True when a sample of `n` supports the `pct`-th percentile: at least
/// kSamplesBeyondTail samples beyond it.
bool SupportsPercentile(size_t n, int pct);

/// Nearest-rank percentile of `xs` (unsorted; copied). 0 for an empty
/// sample.
double Percentile(std::vector<double> xs, int pct);

/// Median by interpolation of the two middle values (used for small
/// samples such as repeated set-ups, where nearest rank is too coarse).
double Median(std::vector<double> xs);

/// Splits `values` into `windows` equal spans of time: value i goes to the
/// window holding times[i] within [0, span_s) (later times go to the last
/// window). A figure taken per window and reported as the median of the
/// windows is not moved by one noisy stretch of a run.
std::vector<std::vector<double>> SplitByTime(const std::vector<double>& values,
                                             const std::vector<double>& times,
                                             double span_s, size_t windows);

/// Open-loop sends: request i is due `i / rate` seconds after the start,
/// whether or not earlier requests have completed. A run of `duration_s`
/// seconds offers exactly floor(rate * duration_s) requests, so the number
/// attempted does not depend on how fast the server answers.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_per_s, double duration_s);

  size_t size() const { return count_; }
  double rate() const { return rate_; }

  /// Seconds from the start at which request `i` is due.
  double DueS(size_t i) const;

 private:
  double rate_;
  size_t count_;
};

/// One open-loop request's timeline, in seconds from the schedule start.
struct OpenLoopTiming {
  double due_s = 0;
  double sent_s = 0;
  double done_s = 0;

  /// What the user sees: completion minus the time the request was due,
  /// so a stall also charges the wait it imposes on later requests.
  double LatencyMs() const;

  /// How late the generator sent it (0 when on time; never negative).
  double LateMs() const;
};

/// part / whole, and 0 when whole is 0. Every ratio in the report is one
/// of the named forms below, so its base is stated in one place.
double Share(double part, double whole);

/// hits / (hits + misses): the base is every lookup.
double HitRatio(uint64_t hits, uint64_t misses);

/// skipped / (scanned + skipped): the base is every pair the join
/// considered merging (pruned pairs are neither).
double SkippedRatio(uint64_t skipped, uint64_t scanned);

/// total / ops: a per-operation average; 0 when no operation completed.
double PerOp(double total, uint64_t ops);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
