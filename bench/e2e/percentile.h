// Exact percentiles over raw samples.
//
// The repo's LatencyHistogram reports bucket edges (on a 4-site token ring it
// prints fault p50 = 128 ms against an exact median of 88.4 ms), so nothing
// here goes through it: every sample is kept and ranked.
#ifndef BENCH_E2E_PERCENTILE_H_
#define BENCH_E2E_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

// A percentile is reported only when at least this many samples lie beyond
// its rank, so that one outlier cannot set it.
inline constexpr std::size_t kSamplesBeyond = 10;

inline std::vector<std::int64_t> Sorted(std::vector<std::int64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples:
// the smallest rank r with r >= p% of n. Percentiles carry at most two
// decimals, so p*n/100 is a multiple of 1e-4 and the 1e-6 slack only absorbs
// rounding error.
inline std::size_t NearestRank(std::size_t n, double p) {
  const double r = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-6);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

// Nearest-rank percentile of ascending `sorted`; 0 for no samples. The result
// is always one of the samples, so it never exceeds the maximum.
inline std::int64_t Percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  return sorted[NearestRank(sorted.size(), p) - 1];
}

// Percentile of ascending µs samples, in ms.
inline double PercentileMs(const std::vector<std::int64_t>& sorted_us, double p) {
  return static_cast<double>(Percentile(sorted_us, p)) / 1000.0;
}

// True when percentile `p` of `n` samples has kSamplesBeyond samples past it.
inline bool Reportable(std::size_t n, double p) {
  return n > 0 && n - NearestRank(n, p) >= kSamplesBeyond;
}

}  // namespace e2e

#endif  // BENCH_E2E_PERCENTILE_H_
