// Summary statistics of the ring benchmark: percentiles under the
// sample-count rule, medians of repeated measurements, and ratios whose
// base is named and may be zero.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace ringbench {

/// A percentile is reported only when at least this many samples lie beyond
/// it; with fewer, the tail it claims to describe is a handful of outliers.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile `pct` (1..99) of `samples`, or nullopt when fewer
/// than kMinTailSamples samples lie strictly beyond its rank.
std::optional<double> Percentile(std::vector<double> samples, int pct);

/// Median of repeated measurements (set-up repeats, probe repeats), which the
/// tail rule does not govern. 0 for an empty set.
double Median(std::vector<double> samples);

/// `num / base`, or 0 when the base is zero (the work it normalises by never
/// happened in the window, e.g. commits on a read-only workload).
double Ratio(double num, double base);

}  // namespace ringbench
