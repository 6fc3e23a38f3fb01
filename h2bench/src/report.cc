#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace h2bench {
namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.erase(0, 1);
        return value;
      }
    }
  }
  return "unknown";
}

std::string git_describe() {
  FILE* pipe =
      ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {0};
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown (not a git checkout)" : out;
}

}  // namespace

void Report::add(std::string name, double value, std::string unit,
                 std::string note) {
  metrics.push_back({std::move(name), value, std::move(unit),
                     std::move(note)});
}

void Report::fail(std::string why) {
  correct = false;
  errors.push_back(std::move(why));
}

std::string fingerprint_json() {
  std::ostringstream out;
  out << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu\": \"" << json_escape(cpu_model()) << "\""
      << ", \"compiler\": \"" << json_escape(H2BENCH_COMPILER) << "\""
      << ", \"build_type\": \"" << json_escape(H2BENCH_BUILD_TYPE) << "\""
      << ", \"git\": \"" << json_escape(git_describe()) << "\""
      << ", \"path\": \"loopback\"}";
  return out.str();
}

std::string result_json(const Report& report) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& metric : report.metrics) {
    char value[64];
    // %.17g keeps every digit the double carries; non-finite values are
    // not JSON, so they are written as 0 and flagged by the caller.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out << (first ? "" : ", ") << "\"" << json_escape(metric.name)
        << "\": {\"value\": " << value << ", \"unit\": \""
        << json_escape(metric.unit) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  struct rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

std::string recorded_digest(const std::string& path,
                            const std::string& workload, std::uint64_t seed) {
  if (path.empty()) return "";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    std::uint64_t line_seed = 0;
    if (fields >> name >> line_seed >> digest && name == workload &&
        line_seed == seed) {
      return digest;
    }
  }
  return "";
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

void Digest::add(std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (word >> (8 * i)) & 0xFF;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add_double(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add(bits);
}

}  // namespace h2bench
