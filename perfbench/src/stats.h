// Summary statistics and failure accounting for the benchmark.
//
// The end-to-end timings report a run's best repetition; setup_s and the
// per-layer figures report medians (maxima for the error gauges). A tail is
// the highest percentile that still has at least kTailBeyond samples beyond
// it (with the sample count stated next to it). The quartiles match Python's
// statistics.quantiles(values, n=4), which is how run-to-run spread is
// judged outside the binary.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Samples a tail percentile must leave beyond it.
inline constexpr size_t kTailBeyond = 10;

// Median; 0 for an empty sample.
double Median(std::vector<double> values);

// {Q1, Q2, Q3} by the 'exclusive' method of Python's
// statistics.quantiles(values, n=4). Needs at least two values; fewer
// returns every quartile equal to the single value (or 0 when empty).
std::array<double, 3> Quartiles(std::vector<double> values);

struct Tail {
  unsigned percentile = 0;  // 100 = too few samples: `value` is the maximum
  double value = 0.0;
  size_t beyond = 0;        // samples strictly above the percentile's rank
  size_t samples = 0;
};

// The highest whole percentile, capped at 99, whose nearest-rank position
// leaves at least kTailBeyond samples beyond it. Samples too few for even
// the median to qualify report the maximum as percentile 100.
Tail HighestTail(std::vector<double> values);

// Least-squares slope of ys against xs; 0 with fewer than two points.
double Slope(const std::vector<double>& xs, const std::vector<double>& ys);

// Operations attempted and failed. A repetition that errors or fails its
// correctness gate counts every operation it attempted as failed.
class Tally {
 public:
  void Record(uint64_t operations, bool ok) {
    attempted_ += operations;
    if (!ok) failed_ += operations;
  }
  // Operations that failed inside an otherwise passing repetition (e.g. a
  // round the coordinator timed out on); attempts were already recorded.
  void AddFailures(uint64_t operations) { failed_ += operations; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_ < attempted_ ? failed_ : attempted_; }
  double FailedShare() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed()) /
                                 static_cast<double>(attempted_);
  }
  bool AllPassed() const { return attempted_ > 0 && failed_ == 0; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
