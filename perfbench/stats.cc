#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t NearestRank(size_t n, int pct) {
  if (n == 0 || pct <= 0) return 0;
  if (pct >= 100) return n;
  const size_t p = static_cast<size_t>(pct);
  return std::max<size_t>(1, (p * n + 99) / 100);
}

size_t SamplesBeyond(size_t n, int pct) { return n - NearestRank(n, pct); }

bool SupportsPercentile(size_t n, int pct) {
  return n > 0 && SamplesBeyond(n, pct) >= kSamplesBeyondTail;
}

double Percentile(std::vector<double> xs, int pct) {
  if (xs.empty()) return 0;
  const size_t rank = NearestRank(xs.size(), pct);
  std::nth_element(xs.begin(), xs.begin() + (rank - 1), xs.end());
  return xs[rank - 1];
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t mid = xs.size() / 2;
  return xs.size() % 2 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2;
}

std::vector<std::vector<double>> SplitByTime(const std::vector<double>& values,
                                             const std::vector<double>& times,
                                             double span_s, size_t windows) {
  std::vector<std::vector<double>> out(windows);
  if (windows == 0) return out;
  for (size_t i = 0; i < values.size() && i < times.size(); ++i) {
    const double at = span_s > 0 ? times[i] / span_s : 0;
    const size_t w = at <= 0 ? 0
                              : std::min(windows - 1,
                                         static_cast<size_t>(at * windows));
    out[w].push_back(values[i]);
  }
  return out;
}

OpenLoopSchedule::OpenLoopSchedule(double rate_per_s, double duration_s)
    : rate_(rate_per_s),
      count_(rate_per_s > 0 && duration_s > 0
                 ? static_cast<size_t>(std::floor(rate_per_s * duration_s))
                 : 0) {}

double OpenLoopSchedule::DueS(size_t i) const {
  return static_cast<double>(i) / rate_;
}

double OpenLoopTiming::LatencyMs() const { return (done_s - due_s) * 1e3; }

double OpenLoopTiming::LateMs() const {
  return std::max(0.0, (sent_s - due_s) * 1e3);
}

double Share(double part, double whole) {
  return whole == 0 ? 0.0 : part / whole;
}

double HitRatio(uint64_t hits, uint64_t misses) {
  return Share(static_cast<double>(hits), static_cast<double>(hits + misses));
}

double SkippedRatio(uint64_t skipped, uint64_t scanned) {
  return Share(static_cast<double>(skipped),
               static_cast<double>(skipped + scanned));
}

double PerOp(double total, uint64_t ops) {
  return Share(total, static_cast<double>(ops));
}

}  // namespace perfbench
