#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "util/rng.h"

namespace h2bench {

namespace {

/// 1-based nearest rank of the p-th percentile of n samples; the epsilon
/// keeps e.g. 99.9 % of 10000 at rank 9990 despite rounding.
std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(std::max(rank, 1.0));
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t rank = nearest_rank(sorted.size(), p);
  return sorted[std::min(rank, sorted.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  const std::size_t rank = nearest_rank(n, p);
  return rank >= n ? 0 : n - rank;
}

double highest_reportable_percentile(std::size_t n) {
  static constexpr double kLadder[] = {99.999, 99.99, 99.9, 99, 90, 50};
  for (const double p : kLadder) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0;
}

std::string percentile_label(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", p);
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = percentile_sorted(values, 50);
  s.p99 = percentile_sorted(values, 99);
  s.max = values.back();
  s.tail_percentile = highest_reportable_percentile(values.size());
  return s;
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, q * 100.0);
}

std::vector<double> block_percentiles(const std::vector<double>& samples,
                                      std::size_t block, double p) {
  std::vector<double> per_block;
  for (std::size_t start = 0; block > 0 && start + block <= samples.size();
       start += block) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(start);
    std::vector<double> part(first,
                             first + static_cast<std::ptrdiff_t>(block));
    std::sort(part.begin(), part.end());
    per_block.push_back(percentile_sorted(part, p));
  }
  return per_block;
}

std::vector<double> per_key_medians(const std::vector<double>& values,
                                    const std::vector<std::size_t>& keys,
                                    std::size_t min_count) {
  std::map<std::size_t, std::vector<double>> by_key;
  for (std::size_t i = 0; i < values.size() && i < keys.size(); ++i) {
    by_key[keys[i]].push_back(values[i]);
  }
  std::vector<double> out;
  for (auto& [key, group] : by_key) {
    if (group.size() >= min_count) out.push_back(median(std::move(group)));
  }
  return out;
}

std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                            double rate_per_s,
                                            double duration_s) {
  std::vector<std::uint64_t> due;
  if (rate_per_s <= 0 || duration_s <= 0) return due;
  h2push::util::Rng rng =
      h2push::util::Rng(seed).fork("h2bench-open-loop-arrivals");
  const double mean_gap_ns = 1e9 / rate_per_s;
  const double end_ns = duration_s * 1e9;
  due.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0;
  while (true) {
    t += rng.exponential(mean_gap_ns);
    if (t >= end_ns) break;
    due.push_back(static_cast<std::uint64_t>(t));
  }
  return due;
}

}  // namespace h2bench
