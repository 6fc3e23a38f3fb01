#include "sweep.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "layers.h"
#include "live.h"
#include "procstat.h"
#include "spans.h"
#include "stats.h"
#include "web/corpus.h"

namespace h2bench {
namespace {

namespace core = h2push::core;
namespace web = h2push::web;

constexpr int kSetupRepeats = 3;
constexpr std::size_t kWarmupLoads = 8;
/// Every load repeats at least this often, so each has a calm (fastest)
/// time to count.
constexpr int kMinRepeats = 2;
/// Wall seconds one repetition of the whole population takes on a
/// 2.1 GHz Xeon (7–9 s); --seconds divided by it sets the repeats per load.
constexpr double kNominalPassS = 9;

web::PopulationProfile sweep_profile() {
  auto profile = web::PopulationProfile::random100();
  profile.mark_recorded_push = true;
  return profile;
}

/// The two loads of `site`: (strategy, run index).
std::vector<LoadTask> loads_for(SweepArms arms, const web::Site& site) {
  if (arms == SweepArms::kFig2b) {
    return {{&site, core::push_recorded(site), 0}, {&site, core::no_push(), 0}};
  }
  return {{&site, core::no_push(), 0}, {&site, core::no_push(), 1}};
}

/// Sites [first, first + count) of the population — each site depends on
/// (profile, name, seed) alone, exactly as web::generate_population builds
/// them — with both arms per site.
struct Chunk {
  std::vector<web::Site> sites;
  std::vector<LoadTask> tasks;
};

/// Build one chunk in place; returns the wall seconds it took.
double build_chunk(SweepArms arms, std::uint64_t seed, int first, int count,
                   Chunk& chunk) {
  chunk.tasks.clear();
  chunk.sites.clear();
  chunk.sites.shrink_to_fit();  // never hold two chunks at once
  const auto profile = sweep_profile();
  const std::uint64_t t0 = now_ns();
  chunk.sites.reserve(static_cast<std::size_t>(count));
  for (int i = first; i < first + count; ++i) {
    chunk.sites.push_back(web::build_site(web::generate_page(
        profile, profile.label + "-" + std::to_string(i), seed)));
  }
  for (const auto& site : chunk.sites) {
    for (auto& task : loads_for(arms, site)) {
      chunk.tasks.push_back(std::move(task));
    }
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Call body(chunk) for each chunk of the first `sites` sites, in order.
template <typename Body>
void for_each_chunk(SweepArms arms, std::uint64_t seed, int sites,
                    Body&& body) {
  Chunk chunk;
  for (int first = 0; first < sites; first += kSweepChunkSites) {
    build_chunk(arms, seed, first, std::min(kSweepChunkSites, sites - first),
                chunk);
    body(chunk);
  }
}

/// Wall seconds to generate the whole population, one chunk at a time.
double generate_population_s(SweepArms arms, std::uint64_t seed) {
  double total = 0;
  Chunk chunk;
  for (int first = 0; first < kSweepSites; first += kSweepChunkSites) {
    total += build_chunk(arms, seed, first,
                         std::min(kSweepChunkSites, kSweepSites - first),
                         chunk);
  }
  return total;
}

void check_recorded_digest(const Options& options, SweepArms arms,
                           std::uint64_t digest, Report& report) {
  const std::string recorded = recorded_digest(
      options.digests_path, sweep_name(arms), options.seed);
  if (recorded.empty()) {
    report.info.push_back("digest " + hex64(digest) +
                          " (no digest recorded for this seed)");
  } else if (recorded != hex64(digest)) {
    report.fail("digest " + hex64(digest) + " != recorded " + recorded);
  } else {
    report.info.push_back("digest " + hex64(digest) + " matches the record");
  }
}

void timed_sweep(const Options& options, SweepArms arms, Report& report) {
  const int repeats = std::max(
      kMinRepeats, static_cast<int>(std::lround(options.seconds /
                                                kNominalPassS)));
  // Per load, over all passes.
  const std::size_t total = 2 * static_cast<std::size_t>(kSweepSites);
  std::vector<std::uint64_t> first_hash(total, 0);
  std::vector<double> fastest_s(total, std::numeric_limits<double>::infinity());
  std::vector<double> fastest_cpu_s(total,
                                    std::numeric_limits<double>::infinity());
  std::vector<std::uint64_t> requests(total, 0), body_bytes(total, 0);
  std::uint64_t loads = 0, mismatches = 0;
  double timed_s = 0;

  // Each pass regenerates the chunks, so a load's repetitions lie a whole
  // pass apart and a slow spell of the machine rarely covers all of them.
  for (int rep = 0; rep < repeats; ++rep) {
    std::size_t offset = 0;
    for_each_chunk(arms, options.seed, kSweepSites, [&](const Chunk& chunk) {
      const auto& tasks = chunk.tasks;
      if (rep == 0 && offset == 0) {
        for (std::size_t i = 0; i < kWarmupLoads && i < tasks.size(); ++i) {
          simulate_load(tasks[i], options.seed);
        }
      }
      // Closed and serial: each load starts when the previous one ends.
      const std::uint64_t start = now_ns();
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const std::size_t k = offset + i;
        const double cpu0 = thread_cpu_s();
        const std::uint64_t t0 = now_ns();
        const auto result = simulate_load(tasks[i], options.seed);
        const std::uint64_t t1 = now_ns();
        const double cpu = thread_cpu_s() - cpu0;
        ++loads;
        ++report.attempted;
        if (!result.complete) ++report.failed;
        const std::uint64_t hash = load_hash(result);
        if (rep == 0) {
          first_hash[k] = hash;
        } else if (hash != first_hash[k]) {
          ++mismatches;
        }
        fastest_s[k] =
            std::min(fastest_s[k], static_cast<double>(t1 - t0) / 1e9);
        fastest_cpu_s[k] = std::min(fastest_cpu_s[k], cpu);
        requests[k] = result.num_requests;
        body_bytes[k] = result.bytes_total;
      }
      timed_s += static_cast<double>(now_ns() - start) / 1e9;
      if (rep == 0) {
        // One load per chunk again through core::run_repeated, an
        // independent public path.
        const std::size_t i = tasks.size() / 2;
        core::RunConfig config;
        config.seed = options.seed;
        const auto again = core::run_repeated(
            *tasks[i].site, tasks[i].strategy, config, tasks[i].run_index + 1);
        ++report.attempted;
        if (again.empty() ||
            load_hash(again.back()) != first_hash[offset + i]) {
          ++report.failed;
          report.fail("run_repeated disagrees with run_page_load on " +
                      tasks[i].site->name);
        }
      }
      offset += tasks.size();
    });
  }

  Digest digest;
  std::uint64_t total_requests = 0, total_bytes = 0;
  double calm_s = 0, calm_cpu_s = 0;
  std::vector<double> latency_ms;
  for (std::size_t k = 0; k < total; ++k) {
    digest.add(first_hash[k]);
    calm_s += fastest_s[k];
    calm_cpu_s += fastest_cpu_s[k];
    total_requests += requests[k];
    total_bytes += body_bytes[k];
    latency_ms.push_back(fastest_s[k] * 1e3);
  }

  if (mismatches > 0) {
    report.fail(std::to_string(mismatches) +
                " repeated loads differ from their first result");
  }
  check_recorded_digest(options, arms, digest.value(), report);
  const std::size_t n = latency_ms.size();
  report.info.push_back(
      "timed " + std::to_string(loads) + " loads (" + std::to_string(n) +
      " x " + std::to_string(repeats) + ") in " + std::to_string(timed_s) +
      " s: " + std::to_string(static_cast<double>(loads) / timed_s) +
      " loads/s over the whole run");

  const Summary latency = summarize(latency_ms);
  if (latency.tail_percentile < 99) {
    report.fail("too few loads for a p99: " + std::to_string(latency.n));
  }
  const std::string calm_note = "each of " + std::to_string(n) +
                                " loads at its fastest of " +
                                std::to_string(repeats) + " repetitions";
  report.add("loads_per_s", static_cast<double>(n) / calm_s, "1/s",
             "simulated page loads per wall second, jobs 1; " + calm_note);
  report.add("req_per_s", static_cast<double>(total_requests) / calm_s, "1/s",
             "simulated requests (fetched + pushed); " + calm_note);
  report.add("goodput_mb_s", static_cast<double>(total_bytes) / calm_s / 1e6,
             "MB/s", "simulated body bytes; " + calm_note);
  report.add("server_cpu_us_per_req",
             total_requests > 0
                 ? calm_cpu_s * 1e6 / static_cast<double>(total_requests)
                 : 0,
             "us", "CPU of the sweep thread per simulated request");
  report.add("latency_p50_ms", latency.p50, "ms",
             "wall time per page load; " + calm_note);
  report.add("latency_p99_ms", latency.p99, "ms",
             "wall time per page load; " + calm_note + "; tail rule allows " +
                 percentile_label(latency.tail_percentile));
}

void traced_sweep(const Options& options, SweepArms arms, double setup_s,
                  Report& report, SpanLog* spans) {
  {
    // The layers are taken apart on the first chunk; its traced and
    // untraced passes must agree bit for bit.
    Chunk chunk;
    build_chunk(arms, options.seed, 0, kSweepChunkSites, chunk);
    const SimLayerTotals totals =
        measure_sim_layers(chunk.tasks, options.seed, 1000, report, spans);
    if (totals.traced_digest != totals.untraced_digest) {
      report.fail("traced digest " + hex64(totals.traced_digest) +
                  " != untraced digest " + hex64(totals.untraced_digest));
    }
    report.add("h2.codec_us_per_req",
               totals.codec_requests > 0
                   ? totals.codec_server_ns /
                         static_cast<double>(totals.codec_requests) / 1e3
                   : 0,
               "us", "server side of the codec replay, per request");
  }
  {
    ScopedSpan span(spans, "check.population_digest");
    check_recorded_digest(options, arms, sweep_digest(arms, options.seed),
                          report);
  }
  report.add("web.generate_ms_per_site", setup_s * 1e3 / kSweepSites, "ms");
  // No server runs in this workload; a short live probe measures the live
  // path's layers on a corpus of the same seed: push-all pages for
  // sweep-fig2b, GETs for sweep-nopush (see live.h).
  measure_live_layers_for_sweep(options, arms == SweepArms::kFig2b, report,
                                spans);
}

}  // namespace

const char* sweep_name(SweepArms arms) {
  return arms == SweepArms::kFig2b ? "sweep-fig2b" : "sweep-nopush";
}

Report run_sweep(const Options& options, SweepArms arms) {
  Report report;
  SpanLog log;
  SpanLog* spans = options.trace ? &log : nullptr;

  std::vector<double> setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    ScopedSpan span(spans, "setup.generate_population", -1, k);
    setup.push_back(generate_population_s(arms, options.seed));
  }
  const double setup_s = median(setup);

  if (options.trace) {
    traced_sweep(options, arms, setup_s, report, spans);
  } else {
    report.add("setup_s", setup_s, "s",
               "median of " + std::to_string(kSetupRepeats) +
                   " generations of the " + std::to_string(kSweepSites) +
                   "-site population, " + std::to_string(kSweepChunkSites) +
                   " sites at a time");
    timed_sweep(options, arms, report);
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  if (spans != nullptr && !options.spans_dir.empty()) {
    const std::string path = options.spans_dir + "/spans-" +
                             sweep_name(arms) + "-" +
                             std::to_string(options.seed) + ".jsonl";
    if (log.write(path)) report.info.push_back("spans: " + path);
  }
  return report;
}

std::uint64_t sweep_digest(SweepArms arms, std::uint64_t seed, int sites) {
  Digest digest;
  for_each_chunk(arms, seed, sites, [&](const Chunk& chunk) {
    for (const auto& task : chunk.tasks) {
      digest.add(load_hash(simulate_load(task, seed)));
    }
  });
  return digest.value();
}

}  // namespace h2bench
