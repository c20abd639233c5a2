#pragma once

// Latency statistics of the benchmark: nearest-rank percentiles, the
// reporting rule for tail percentiles and the latency histogram.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentiles expressed in basis points (1/100 of a percent), so the rank
/// arithmetic stays in integers: 0.99 * 1000 is not exactly 990 in binary
/// floating point, and a ceil() on it would pick the wrong rank.
inline constexpr int64_t kP50 = 5000;
inline constexpr int64_t kP90 = 9000;
inline constexpr int64_t kP99 = 9900;
inline constexpr int64_t kP999 = 9990;

/// A tail percentile is reported only with at least this many samples
/// strictly beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest rank (1-based) of percentile `bp` over n samples:
/// ceil(bp * n / 10000), at least 1. Requires n >= 1.
inline size_t NearestRank(size_t n, int64_t bp) {
  const uint64_t num = static_cast<uint64_t>(bp) * n;
  const size_t rank = static_cast<size_t>((num + 9999) / 10000);
  return std::max<size_t>(1, std::min(rank, n));
}

/// Samples strictly beyond the nearest-rank percentile `bp`.
inline size_t SamplesBeyond(size_t n, int64_t bp) {
  return n == 0 ? 0 : n - NearestRank(n, bp);
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
inline double PercentileSorted(const std::vector<double>& sorted, int64_t bp) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), bp) - 1];
}

/// Sorts a copy and takes the nearest-rank percentile.
inline double Percentile(std::vector<double> v, int64_t bp) {
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, bp);
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), kP50); }

/// The highest of p50, p90, p99, p99.9 that has at least kMinSamplesBeyond
/// samples beyond it over n samples, in basis points; 0 when none has.
inline int64_t HighestReportablePercentile(size_t n) {
  int64_t best = 0;
  for (int64_t bp : {kP50, kP90, kP99, kP999}) {
    if (SamplesBeyond(n, bp) >= kMinSamplesBeyond) best = bp;
  }
  return best;
}

/// Per-request latencies in whole nanoseconds: exact counts below kExactNs,
/// the values themselves above it. A run of tens of millions of sub-µs
/// requests then takes fixed memory, and a percentile reads the same value
/// as PercentileSorted over the sorted samples.
class LatencyHistogram {
 public:
  static constexpr int64_t kExactNs = int64_t{1} << 20;  ///< about 1.05 ms

  void Add(int64_t ns) {
    ++n_;
    if (ns < 0) ns = 0;
    if (ns < kExactNs) {
      if (counts_.empty()) counts_.assign(static_cast<size_t>(kExactNs), 0);
      ++counts_[static_cast<size_t>(ns)];
    } else {
      above_.push_back(ns);
      sorted_ = false;
    }
  }

  void Merge(const LatencyHistogram& o) {
    if (!o.counts_.empty()) {
      if (counts_.empty()) counts_.assign(static_cast<size_t>(kExactNs), 0);
      for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    }
    above_.insert(above_.end(), o.above_.begin(), o.above_.end());
    sorted_ = o.above_.empty() && sorted_;
    n_ += o.n_;
  }

  size_t size() const { return n_; }

  /// Nearest-rank percentile `bp` in ms; 0 when empty.
  double PercentileMs(int64_t bp) {
    if (n_ == 0) return 0.0;
    size_t rank = NearestRank(n_, bp);
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (rank <= counts_[i]) return static_cast<double>(i) / 1e6;
      rank -= counts_[i];
    }
    if (!sorted_) {
      std::sort(above_.begin(), above_.end());
      sorted_ = true;
    }
    return static_cast<double>(above_[rank - 1]) / 1e6;
  }

 private:
  std::vector<uint64_t> counts_;  ///< counts_[ns]; empty until a value below kExactNs
  std::vector<int64_t> above_;
  bool sorted_ = true;
  size_t n_ = 0;
};

inline double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace perfbench
