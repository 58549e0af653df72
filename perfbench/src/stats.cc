#include "stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    const double only = values.empty() ? 0.0 : values[0];
    return {only, only, only};
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles, method='exclusive': m = n + 1, position i*m/4,
  // clamped to [1, n-1], linear interpolation in exact integer steps.
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return out;
}

namespace {

// Nearest-rank position (1-based) of a percentile: ceil(p * n / 100).
size_t Rank(size_t n, unsigned percentile) {
  return (static_cast<size_t>(percentile) * n + 99) / 100;
}

}  // namespace

Tail HighestTail(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  for (unsigned p = 99; p >= 50; --p) {
    const size_t rank = Rank(n, p);
    if (rank >= 1 && n - rank >= kTailBeyond) {
      tail.percentile = p;
      tail.value = values[rank - 1];
      tail.beyond = n - rank;
      return tail;
    }
  }
  tail.percentile = 100;
  tail.value = values.back();
  tail.beyond = 0;
  return tail;
}

double Slope(const std::vector<double>& xs, const std::vector<double>& ys) {
  const size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  double mean_x = 0.0, mean_y = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_x += xs[i];
    mean_y += ys[i];
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mean_x) * (ys[i] - mean_y);
    sxx += (xs[i] - mean_x) * (xs[i] - mean_x);
  }
  return sxx == 0.0 ? 0.0 : sxy / sxx;
}

}  // namespace perfbench
