#include <algorithm>
#include <cmath>

#include "bench.h"

namespace perfbench {

namespace {

// 1-based nearest rank of the q-th percentile among n sorted samples.
size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

bool TailSupported(size_t n, double q) {
  return n > 0 && n - NearestRank(n, q) >= 10;
}

Summary Summarize(const std::vector<double>& values) {
  Summary summary;
  summary.n = static_cast<int64_t>(values.size());
  summary.p50 = Percentile(values, 0.50);
  summary.p99 = Percentile(values, 0.99);
  return summary;
}

}  // namespace perfbench
