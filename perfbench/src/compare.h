// Bitwise comparisons shared by the correctness gates and the self-tests:
// θ and φ̂ are held to exact equality, never to a tolerance.

#ifndef PERFBENCH_COMPARE_H_
#define PERFBENCH_COMPARE_H_

#include <cstring>
#include <vector>

#include "core/contribution.h"
#include "tensor/vec.h"

namespace perfbench {

inline bool BitEqual(const digfl::Vec& a, const digfl::Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

inline bool BitEqual(const std::vector<digfl::Vec>& a,
                     const std::vector<digfl::Vec>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEqual(a[i], b[i])) return false;
  }
  return true;
}

inline bool SameReport(const digfl::ContributionReport& a,
                       const digfl::ContributionReport& b) {
  return BitEqual(a.total, b.total) && BitEqual(a.per_epoch, b.per_epoch);
}

}  // namespace perfbench

#endif  // PERFBENCH_COMPARE_H_
