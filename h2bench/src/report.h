// Run options, metric collection and the result line.
//
// Every workload fills one Report: named metrics with units, the count of
// operations attempted and failed, and the correctness verdict. main.cc
// prints the human-readable lines and, last, the one-line JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace h2bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Open-loop arrival rates (requests/s) of the live workloads.
  double get_rate = 0;
  double push_rate = 0;
  /// "<workload> <seed> <digest>" lines; empty = no recorded digests.
  std::string digests_path;
  /// Directory for the traced run's span log; empty = keep in memory only.
  std::string spans_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count, percentile rule, definition
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< correctness failures
  std::vector<std::string> info;    ///< context lines (digest, budget, ...)
  /// Non-empty: the run cannot give valid numbers (load budget exceeded,
  /// generator fell behind, server failed to start) and reports nothing.
  std::string refusal;

  void add(std::string name, double value, std::string unit,
           std::string note = "");
  void fail(std::string why);
};

/// Machine fingerprint stamped on every result.
std::string fingerprint_json();

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Report& report);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// `<workload> <seed> <hex digest>` lookup; empty when absent.
std::string recorded_digest(const std::string& path,
                            const std::string& workload, std::uint64_t seed);

std::string hex64(std::uint64_t value);

/// FNV-1a over 64-bit words: order-sensitive digest of load results.
class Digest {
 public:
  void add(std::uint64_t word) noexcept;
  void add_double(double value) noexcept;
  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace h2bench
