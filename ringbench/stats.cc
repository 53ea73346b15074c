#include "stats.h"

#include <algorithm>

namespace ringbench {

std::optional<double> Percentile(std::vector<double> samples, int pct) {
  const size_t n = samples.size();
  if (n == 0 || pct <= 0 || pct >= 100) return std::nullopt;
  // Integer nearest rank, ceil(pct * n / 100), 1-based.
  const size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Ratio(double num, double base) { return base == 0.0 ? 0.0 : num / base; }

}  // namespace ringbench
