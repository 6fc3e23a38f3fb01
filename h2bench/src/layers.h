// Per-layer measurement of the simulator-side stack, timed from outside.
//
// A page load (core::run_page_load) runs every layer at once. The traced
// run takes it apart: each load's inputs are replayed through one layer at
// a time — stylesheets through browser::parse_css, HTML through
// browser::HtmlTokenizer, the load's bytes through sim::TcpConnection over
// sim::Link, its header blocks through an HPACK encoder/decoder pair, and
// its requests and responses through an in-memory client/server
// h2::Connection pair — and each replay is timed with the steady clock.
// The exact per-load counts come from trace::TraceSummary via
// RunConfig::trace, which must repeat bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "browser/page_load.h"
#include "core/strategy.h"
#include "replay/record.h"
#include "report.h"
#include "spans.h"
#include "web/site.h"

namespace h2push::trace {
class TraceRecorder;
}

namespace h2bench {

using UrlKey = std::pair<std::string, std::string>;  ///< (host, path)

/// One simulated page load: a site under one strategy, as repetition
/// `run_index` of the paper's repeated loads.
struct LoadTask {
  const h2push::web::Site* site = nullptr;
  h2push::core::Strategy strategy;
  int run_index = 0;
};

/// Digest word of one load: PLT, SpeedIndex, bytes pushed, bytes total and
/// pushed count.
std::uint64_t load_hash(const h2push::browser::PageLoadResult& result);

/// Run one load, traced into `recorder` when non-null.
h2push::browser::PageLoadResult simulate_load(
    const LoadTask& task, std::uint64_t seed,
    h2push::trace::TraceRecorder* recorder = nullptr);

/// Client/server h2::Connection pair exchanging `requests`; the server
/// answers from `store` and, on the first request, promises `push_urls`
/// (absolute URLs) before responding. Codec time is split by side.
struct PairReplay {
  double client_ns = 0;
  double server_ns = 0;
  std::uint64_t requests = 0;
  std::string error;  ///< empty when every body arrived complete
};
PairReplay replay_h2_pair(const h2push::replay::RecordStore& store,
                          const std::vector<UrlKey>& requests,
                          const std::vector<std::string>& push_urls);

/// Simulator-side per-layer metrics over `tasks`: untraced passes until at
/// least `min_loads` loads (core.load_ms_*), one traced pass (TraceSummary
/// counts, trace.overhead_frac), and one layer replay per task. Adds the
/// metrics to `report`; digests of the first untraced and the traced pass
/// go to the out-parameters, and the server side of the codec replays to
/// `codec_server_ns` / `codec_requests`.
struct SimLayerTotals {
  std::uint64_t untraced_digest = 0;
  std::uint64_t traced_digest = 0;
  double codec_server_ns = 0;
  std::uint64_t codec_requests = 0;
  std::uint64_t loads = 0;
};
SimLayerTotals measure_sim_layers(const std::vector<LoadTask>& tasks,
                                  std::uint64_t seed, std::size_t min_loads,
                                  Report& report, SpanLog* spans);

}  // namespace h2bench
