// h2bench: one command for the repository's benchmark.
//
//   h2bench --workload sweep-fig2b|sweep-nopush|live-get|live-push --seed N
//           --seconds S --trace 0|1 [--get-rate R] [--push-rate R]
//           [--digests FILE] [--spans-dir DIR]
//   h2bench --print-digest --workload sweep-... --seed N   (digest line)
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that gives the per-layer metrics. Every metric
// is printed by name with its unit; the last stdout line is the JSON
// result. Exit codes: 0 correct, 1 an output was wrong (digest or byte
// mismatch; the result still says why), 2 the run refused to report
// (load budget, generator lag, bad arguments), 3 internal metric-set error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "live.h"
#include "report.h"
#include "sweep.h"

namespace {

using h2bench::Options;
using h2bench::Report;

// The metric sets BENCHMARK.json declares; every workload reports all of
// them (end-to-end with --trace 0, per-layer with --trace 1).
const std::vector<std::string> kEndToEnd = {
    "setup_s",        "loads_per_s",           "req_per_s",
    "goodput_mb_s",   "server_cpu_us_per_req", "latency_p50_ms",
    "latency_p99_ms", "peak_rss_mb",
};
const std::vector<std::string> kPerLayer = {
    "web.generate_ms_per_site",
    "core.load_ms_p50",
    "core.load_ms_p99",
    "core.unattributed_frac",
    "browser.css_parse_us_per_load",
    "browser.html_tokenize_us_per_load",
    "sim.tcp_transfer_us_per_load",
    "h2.hpack_us_per_load",
    "h2.codec_us_per_load",
    "h2.codec_us_per_req",
    "sim.packets_per_load",
    "sim.retransmissions_per_load",
    "sim.downlink_idle_frac",
    "h2.data_frames_per_load",
    "h2.headers_frames_per_load",
    "h2.push_promise_frames_per_load",
    "server.pushes_cancelled_per_load",
    "browser.pushed_before_request_frac",
    "trace.events_per_load.sim",
    "trace.events_per_load.h2",
    "trace.events_per_load.server",
    "trace.events_per_load.browser",
    "trace.overhead_frac",
    "net.server_util",
    "net.server_sys_frac",
    "net.server_ctxsw_per_req",
    "net.client_cpu_us_per_req",
    "net.bytes_written_per_req",
    "client.push_promises_per_req",
    "net.non_codec_us_per_req",
    "net.start_ms",
    "net.drain_ms",
    "client.lag_ms_p99",
    "client.latency_ms_p99_all",
    "net.failed_frac",
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "h2bench: %s\nusage: h2bench --workload "
               "sweep-fig2b|sweep-nopush|live-get|live-push --seed N "
               "--seconds S --trace 0|1 [--get-rate R] [--push-rate R] "
               "[--digests FILE] "
               "[--spans-dir DIR]\n       h2bench --print-digest --workload "
               "sweep-fig2b|sweep-nopush --seed N\n",
               why);
  std::exit(2);
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

/// The report must carry exactly the declared metric set, once each.
std::string check_metric_set(const Report& report,
                             const std::vector<std::string>& expected) {
  std::set<std::string> seen;
  for (const auto& metric : report.metrics) {
    if (!seen.insert(metric.name).second) return "duplicate " + metric.name;
  }
  for (const auto& name : expected) {
    if (seen.erase(name) == 0) return "missing " + name;
  }
  if (!seen.empty()) return "undeclared " + *seen.begin();
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool print_digest = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-digest") {
      print_digest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!parse_number(value, number) || number < 0) usage("bad --seed");
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_number(value, number) || number <= 0) usage("bad --seconds");
      options.seconds = number;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--get-rate") {
      if (!parse_number(value, number) || number <= 0) usage("bad --get-rate");
      options.get_rate = number;
    } else if (arg == "--push-rate") {
      if (!parse_number(value, number) || number <= 0) usage("bad --push-rate");
      options.push_rate = number;
    } else if (arg == "--digests") {
      options.digests_path = value;
    } else if (arg == "--spans-dir") {
      options.spans_dir = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  using h2bench::SweepArms;
  const bool sweep = options.workload == "sweep-fig2b" ||
                     options.workload == "sweep-nopush";
  const SweepArms arms = options.workload == "sweep-nopush"
                             ? SweepArms::kNoPush
                             : SweepArms::kFig2b;
  if (print_digest) {
    if (!sweep) usage("--print-digest needs a sweep --workload");
    std::printf("%s %llu %s\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                h2bench::hex64(h2bench::sweep_digest(arms, options.seed))
                    .c_str());
    return 0;
  }

  Report report;
  if (sweep) {
    report = h2bench::run_sweep(options, arms);
  } else if (options.workload == "live-get") {
    report = h2bench::run_live(options, /*push=*/false);
  } else if (options.workload == "live-push") {
    report = h2bench::run_live(options, /*push=*/true);
  } else {
    usage("unknown --workload");
  }

  std::printf("h2bench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("fingerprint %s\n", h2bench::fingerprint_json().c_str());
  for (const auto& line : report.info) std::printf("info: %s\n", line.c_str());
  if (!report.refusal.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "h2bench: refused to report: %s\n",
                 report.refusal.c_str());
    return 2;
  }
  for (const auto& metric : report.metrics) {
    std::printf("metric %-36s %14.6g %-6s %s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.note.c_str());
  }
  for (const auto& error : report.errors) {
    std::printf("error: %s\n", error.c_str());
  }
  const std::string set_error =
      check_metric_set(report, options.trace ? kPerLayer : kEndToEnd);
  if (!set_error.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "h2bench: metric set: %s\n", set_error.c_str());
    return 3;
  }
  std::printf("%s\n", h2bench::result_json(report).c_str());
  return report.correct ? 0 : 1;
}
