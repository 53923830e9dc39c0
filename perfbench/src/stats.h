// Sample statistics for the benchmark: exact nearest-rank percentiles and
// the tail rule "report the highest percentile that still has at least
// ten samples beyond it".
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of an ascending sample: the smallest value with
// at least ceil(q*n) samples <= it. 0 on an empty sample.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

struct Tail {
  double quantile = 0;  // e.g. 0.99; 1.0 means "the maximum"
  double value = 0;
  std::size_t samples = 0;

  // "p99", "p99.9", "max".
  std::string Label() const;
};

// Samples strictly beyond the nearest-rank q-quantile of n samples.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

// The highest quantile no larger than `cap` from the fixed ladder
// {99.9, 99, 98, 95, 90, 75, 50} that leaves at least ten of `n` samples
// beyond it; 1.0 (the maximum) when even the median does not (n < 20).
inline double TailQuantile(std::size_t n, double cap = 0.99) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.98, 0.95,
                                       0.90,  0.75, 0.50};
  for (double q : kLadder) {
    if (q <= cap + 1e-12 && SamplesBeyond(n, q) >= 10) return q;
  }
  return 1.0;
}

// The tail of an ascending sample at TailQuantile.
inline Tail TailOf(const std::vector<double>& sorted, double cap = 0.99) {
  Tail tail;
  tail.samples = sorted.size();
  tail.quantile = TailQuantile(sorted.size(), cap);
  tail.value = Percentile(sorted, tail.quantile);
  return tail;
}

inline std::string Tail::Label() const {
  if (quantile >= 1.0) return "max";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", quantile * 100.0);
  return buf;
}

}  // namespace perfbench
