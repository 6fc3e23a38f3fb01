// Testbed orchestrator (paper §4.1).
//
// Recreates the Mahimahi deployment for one page load: a shared DSL access
// link (16 Mbit/s down, 1 Mbit/s up, 50 ms RTT via tc in the paper), one
// replay server per recorded IP, connection coalescing via generated SAN
// certificates, and a browser instance. Every stochastic input (network
// jitter in Internet mode, client compute jitter) derives from
// (seed, site, run_index), so a run is exactly reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "browser/page_load.h"
#include "core/strategy.h"
#include "sim/conditions.h"
#include "web/site.h"

namespace h2push::trace {
class TraceRecorder;
}

namespace h2push::core {

class RunCache;

/// Bytes the simulated wire copied, summed over a run's H2 sessions: what
/// TCP send-buffer compaction moved (both directions) and what the frame
/// parsers of both ends copied to reassemble frames split across
/// deliveries. Body bytes travel by reference, so both count only frame
/// headers and control frames.
struct WireCounts {
  std::uint64_t compacted = 0;
  std::uint64_t parser_copied = 0;
};

struct RunConfig {
  sim::NetworkConditions net = sim::NetworkConditions::testbed();
  browser::BrowserConfig browser;
  std::uint64_t seed = 1;
  int run_index = 0;
  /// Optional event trace of the run (null = tracing disabled). Intended
  /// for single runs: pass a fresh recorder per run_page_load call. The
  /// testbed registers the tracks, wires the recorder through every layer,
  /// and finalizes TraceSummary (link utilization, run span, PLT/SI marks).
  trace::TraceRecorder* trace = nullptr;
  /// Optional content-addressed result cache (core/memo.h; null = off).
  /// run_page_load consults it before simulating and stores misses, so
  /// every consumer that copies this config — run_repeated,
  /// compute_push_order, learn_strategy, the bench harnesses — memoizes
  /// automatically. Traced runs bypass the cache (a cached result cannot
  /// replay the event stream). Safe to share across ParallelRunner workers.
  RunCache* cache = nullptr;
  /// Optional byte-path tally of the run (null = off); like `trace`, a
  /// run that fills it bypasses the cache.
  WireCounts* wire = nullptr;
};

/// Replay `site` once under `strategy`.
browser::PageLoadResult run_page_load(const web::Site& site,
                                      const Strategy& strategy,
                                      const RunConfig& config);

/// Replay `runs` times with varying run_index (the paper uses 31).
std::vector<browser::PageLoadResult> run_repeated(const web::Site& site,
                                                  const Strategy& strategy,
                                                  RunConfig config,
                                                  int runs = 31);

class ParallelRunner;

/// Same sweep fanned across `runner`'s thread pool. Each task owns a
/// private Simulator (created inside run_page_load), and results come back
/// in run_index order — output is byte-identical to the serial overload
/// for any job count. config.trace must be null: a TraceRecorder is a
/// single-run object and is not shared across workers.
std::vector<browser::PageLoadResult> run_repeated(const web::Site& site,
                                                  const Strategy& strategy,
                                                  RunConfig config, int runs,
                                                  ParallelRunner& runner);

/// Median / error helpers over repeated runs.
struct MetricSeries {
  std::vector<double> plt_ms;
  std::vector<double> speed_index_ms;
  std::vector<double> bytes_pushed;

  double plt_median() const;
  double si_median() const;
  double plt_std_error() const;
  double si_std_error() const;
};

MetricSeries collect(const std::vector<browser::PageLoadResult>& results);

}  // namespace h2push::core
