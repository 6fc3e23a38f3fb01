// Order statistics and arrival schedules used by every workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace h2bench {

/// Nearest-rank percentile (p in [0, 100]) of an ascending sample.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The reporting rule for tails: the highest of p50, p90, p99, p99.9,
/// p99.99 and p99.999 that has at least ten samples beyond it; 0 when even
/// the median has fewer.
double highest_reportable_percentile(std::size_t n);

/// "p99", "p99.9", ...: a percentile as the notes print it.
std::string percentile_label(double p);

/// Median of an unsorted sample (0 for an empty one).
double median(std::vector<double> values);

/// Distribution summary of a latency-like sample.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  double max = 0;
  double tail_percentile = 0;  ///< highest_reportable_percentile(n)
};
Summary summarize(std::vector<double> values);

/// Nearest-rank q-quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);

/// The nearest-rank p-th percentile of each consecutive block of `block`
/// samples (in arrival order); a trailing partial block is dropped.
std::vector<double> block_percentiles(const std::vector<double>& samples,
                                      std::size_t block, double p);

/// Median of the values of each key that has at least `min_count` of them
/// (values[i] belongs to keys[i]), in key order.
std::vector<double> per_key_medians(const std::vector<double>& values,
                                    const std::vector<std::size_t>& keys,
                                    std::size_t min_count);

/// Calm-window estimates. Other tenants of a shared machine only ever slow
/// a run down, in spells that cover some windows of it and not others; the
/// calmest twentieth of a run's windows is the best estimate of the
/// program's own speed. Times and costs take the 5th percentile over
/// windows, rates the 95th.
inline constexpr double kCalmQuantile = 0.05;
inline double calm_time(const std::vector<double>& per_window) {
  return quantile(per_window, kCalmQuantile);
}
inline double calm_rate(const std::vector<double>& per_window) {
  return quantile(per_window, 1.0 - kCalmQuantile);
}

/// Poisson arrivals: due offsets in nanoseconds from the phase start, at
/// `rate_per_s` for `duration_s`, drawn from `seed` alone.
std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                            double rate_per_s,
                                            double duration_s);

}  // namespace h2bench
