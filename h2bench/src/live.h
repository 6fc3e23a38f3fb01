// live-get and live-push: the h2pushd serving core over loopback.
//
// One net::Server thread serves a live corpus built by
// net::build_live_corpus; one generator thread (loadgen.h) drives it on at
// most nproc connections. Each run has a closed-loop saturation phase (the
// delivered rate) and an open-loop phase with Poisson arrivals at a fixed
// absolute rate (latency from the due time). Afterwards net::fetch_urls
// fetches every URL with push on under the workload's scheduler, and every
// body must equal the RecordStore's byte for byte.
//
//   live-get:  parent-first scheduler, no push, requests round-robin over
//              the corpus's full all_urls mix.
//   live-push: interleaving scheduler, push-all, the client requests only
//              landing pages with push enabled; one request = one page.
#pragma once

#include "report.h"
#include "spans.h"

namespace h2bench {

/// Sites in a live corpus: enough that the seed-to-seed spread of the mix
/// (bytes per URL, pushes and bytes per page) stays a few percent.
inline constexpr int kLiveGetSites = 128;
inline constexpr int kLivePushSites = 256;

Report run_live(const Options& options, bool push);

/// The live path's per-layer metrics (net.*, client.*) for a sweep's
/// traced run: a short run over a small live corpus of the same seed —
/// GETs, or push-all pages when `push` — so those layers are measured on
/// every workload.
void measure_live_layers_for_sweep(const Options& options, bool push,
                                   Report& report, SpanLog* spans);

}  // namespace h2bench
