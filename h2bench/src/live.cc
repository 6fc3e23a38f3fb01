#include "live.h"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/strategy.h"
#include "http/url.h"
#include "layers.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/corpus.h"
#include "net/server.h"
#include "procstat.h"
#include "stats.h"
#include "util/rng.h"
#include "web/corpus.h"

namespace h2bench {
namespace {

namespace core = h2push::core;
namespace http = h2push::http;
namespace net = h2push::net;
namespace web = h2push::web;

// Load budget: server threads + generator threads <= nproc and
// connections <= nproc, so the generator never competes with the server
// for a core it needs.
constexpr int kServerThreads = 1;
constexpr int kGeneratorThreads = 1;
constexpr int kMaxConnections = 4;
constexpr int kSetupRepeats = 5;
constexpr double kWarmupS = 0.5;
/// The open-loop phase is invalid when the generator's p99 send lag in the
/// calm blocks exceeds this: it no longer offered the load it was asked
/// to. A stall of the machine delays some blocks, not the calm ones.
constexpr double kMaxLagMs = 10;
/// Closed/open phase pairs per run, and rate windows per closed phase.
constexpr int kRounds = 16;
constexpr int kWindowsPerRound = 2;
/// Open-loop send lag is judged per block of this many consecutive
/// requests: the smallest block whose p99 has ten samples beyond it.
constexpr std::size_t kLagBlock = 1000;
/// Open-loop samples each target needs for its median latency to count.
constexpr std::size_t kMinSamplesPerTarget = 5;
/// Sites of the sweep population served by the sweep's live probe.
constexpr int kProbeSites = 16;

struct LivePlan {
  bool push = false;
  int sites = kLiveGetSites;
  double closed_s = 4;
  double open_s = 6;
  double rate = 0;  ///< open-loop arrivals per second
  int depth = 8;    ///< closed loop: requests in flight per connection
};

struct LiveRun {
  std::vector<double> setup_s, generate_s, start_ms, drain_ms;
  int connections = 0;
  LoadStats closed;
  ThreadUsage server_closed;
  std::vector<double> round_cpu_us;  ///< server CPU per request, per round
  double closed_wall_s = 0;
  double client_cpu_s = 0;
  LoadStats open;
  net::ServerStats server_stats;
  double codec_us_per_req = 0;
  std::uint64_t urls = 0;
  std::uint64_t pages = 0;
  std::size_t targets = 0;  ///< distinct requests in the mix
};

/// Puts the server threads and the generator (the calling thread) on
/// disjoint halves of the allowed CPUs for the measured phases, so neither
/// waits for the other's time slice; restores the caller's CPUs when it
/// goes out of scope.
class CpuPlacement {
 public:
  explicit CpuPlacement(const std::vector<int>& server_tids)
      : original_(allowed_cpus()) {
    if (original_.size() < 2) return;
    const auto half = original_.begin() +
                      static_cast<std::ptrdiff_t>(original_.size() / 2);
    server_.assign(original_.begin(), half);
    generator_.assign(half, original_.end());
    for (const int tid : server_tids) set_thread_cpus(tid, server_);
    pinned_ = set_thread_cpus(current_tid(), generator_);
  }
  ~CpuPlacement() {
    if (pinned_) set_thread_cpus(current_tid(), original_);
  }
  CpuPlacement(const CpuPlacement&) = delete;
  CpuPlacement& operator=(const CpuPlacement&) = delete;

  std::string describe() const {
    if (!pinned_) return "threads not pinned (fewer than 2 CPUs)";
    auto list = [](const std::vector<int>& cpus) {
      std::string out;
      for (const int cpu : cpus) {
        if (!out.empty()) out += ',';
        out += std::to_string(cpu);
      }
      return out;
    };
    return "server on CPUs " + list(server_) + ", generator on CPUs " +
           list(generator_);
  }

 private:
  std::vector<int> original_;
  std::vector<int> server_;
  std::vector<int> generator_;
  bool pinned_ = false;
};

void merge(LoadStats& into, const LoadStats& part) {
  into.attempted += part.attempted;
  into.completed += part.completed;
  into.failed += part.failed;
  into.body_bytes += part.body_bytes;
  into.push_promises += part.push_promises;
  into.elapsed_s += part.elapsed_s;
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(into.latency_ms, part.latency_ms);
  into.latency_target.insert(into.latency_target.end(),
                             part.latency_target.begin(),
                             part.latency_target.end());
  append(into.lag_ms, part.lag_ms);
  append(into.window_rate, part.window_rate);
  append(into.window_mb_s, part.window_mb_s);
}

std::uint64_t body_size(const net::LiveCorpus& corpus, const std::string& host,
                        const std::string& path) {
  const auto* exchange = corpus.store.find(host, path);
  return exchange != nullptr && exchange->body ? exchange->body->size() : 0;
}

/// URLs the server will push on `landing`: the policy's, as ReplayServer
/// filters them (authoritative origin, present in the store).
std::vector<UrlKey> pushed_urls(const net::LiveCorpus& corpus,
                                const UrlKey& landing) {
  std::vector<UrlKey> out;
  const auto it = corpus.policies.find(landing.first);
  if (it == corpus.policies.end()) return out;
  for (const auto& text : it->second.push_urls) {
    const auto url = http::parse_url(text);
    if (!url.has_value()) continue;
    if (!corpus.origins.is_authoritative(landing.first, url.value().host)) {
      continue;
    }
    if (corpus.store.find(url.value().host, url.value().path) == nullptr) {
      continue;
    }
    out.emplace_back(url.value().host, url.value().path);
  }
  return out;
}

/// The request mix in a seeded random order, so any stretch of requests —
/// a rate window, a latency block — is a fair sample of the whole corpus
/// rather than of a few neighbouring sites.
std::vector<Target> make_targets(const net::LiveCorpus& corpus, bool push,
                                 std::uint64_t seed) {
  std::vector<Target> targets;
  if (!push) {
    for (const auto& [host, path] : corpus.all_urls) {
      targets.push_back({host, path, body_size(corpus, host, path)});
    }
  } else {
    for (const auto& landing : corpus.landing_pages) {
      std::uint64_t bytes = body_size(corpus, landing.first, landing.second);
      for (const auto& [host, path] : pushed_urls(corpus, landing)) {
        bytes += body_size(corpus, host, path);
      }
      targets.push_back({landing.first, landing.second, bytes});
    }
  }
  h2push::util::Rng rng = h2push::util::Rng(seed).fork("h2bench-target-order");
  for (std::size_t i = targets.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(targets[i - 1], targets[j]);
  }
  return targets;
}

/// Fetch every URL with push on and compare each body with the store.
/// Live-push fetches each landing page on its own connection (so a pushed
/// URL arrives once) and then every URL that was not pushed.
void check_bytes(const net::LiveCorpus& corpus, std::uint16_t port, bool push,
                 Report& report) {
  std::set<UrlKey> seen;
  std::uint64_t mismatches = 0;
  auto verify = [&](const std::vector<UrlKey>& urls) {
    const auto fetched = net::fetch_urls("127.0.0.1", port, urls, {});
    report.attempted += urls.size();
    if (!fetched.has_value()) {
      report.failed += urls.size();
      report.fail("fetch_urls: " + fetched.error());
      return;
    }
    for (const auto& [key, response] : fetched.value()) {
      seen.insert(key);
      const auto* exchange = corpus.store.find(key.first, key.second);
      if (exchange == nullptr || !exchange->body ||
          *exchange->body != response.body ||
          exchange->response.status != response.status) {
        ++mismatches;
      }
    }
  };
  if (push) {
    for (const auto& landing : corpus.landing_pages) {
      const std::size_t before = seen.size();
      verify({landing});
      const std::size_t expect = 1 + pushed_urls(corpus, landing).size();
      if (seen.size() - before < expect) {
        report.fail("landing page " + landing.first + landing.second +
                    " delivered " + std::to_string(seen.size() - before) +
                    " of " + std::to_string(expect) + " new URLs");
      }
    }
  }
  // The rest in batches, so the fetched bodies never hold a second copy of
  // the whole corpus.
  constexpr std::size_t kBatch = 256;
  std::vector<UrlKey> rest;
  for (const auto& key : corpus.all_urls) {
    if (seen.count(key) != 0) continue;
    rest.push_back(key);
    if (rest.size() == kBatch) {
      verify(rest);
      rest.clear();
    }
  }
  if (!rest.empty()) verify(rest);
  for (const auto& key : corpus.all_urls) {
    if (seen.count(key) == 0) ++mismatches;
  }
  report.failed += mismatches;
  if (mismatches > 0) {
    report.fail(std::to_string(mismatches) +
                " URLs missing or not byte-identical to the RecordStore");
  } else {
    report.info.push_back("byte equality: " +
                          std::to_string(corpus.all_urls.size()) +
                          " URLs identical to the RecordStore");
  }
}

/// Server-side codec time per request of the live mix, from an in-memory
/// client/server h2::Connection pair.
double codec_us_per_request(const net::LiveCorpus& corpus, bool push,
                            Report& report) {
  double server_ns = 0;
  std::uint64_t requests = 0;
  auto account = [&](const PairReplay& pair) {
    if (!pair.error.empty()) report.fail("h2 pair replay: " + pair.error);
    server_ns += pair.server_ns;
  };
  if (push) {
    for (const auto& landing : corpus.landing_pages) {
      std::vector<std::string> urls;
      for (const auto& [host, path] : pushed_urls(corpus, landing)) {
        urls.push_back("https://" + host + path);
      }
      account(replay_h2_pair(corpus.store, {landing}, urls));
      ++requests;  // one request = one page
    }
  } else {
    constexpr std::size_t kPerConnection = 64;
    for (std::size_t i = 0; i < corpus.all_urls.size(); i += kPerConnection) {
      const std::size_t end =
          std::min(corpus.all_urls.size(), i + kPerConnection);
      std::vector<UrlKey> chunk(corpus.all_urls.begin() + i,
                                corpus.all_urls.begin() + end);
      account(replay_h2_pair(corpus.store, chunk, {}));
      requests += chunk.size();
    }
  }
  return requests > 0 ? server_ns / static_cast<double>(requests) / 1e3 : 0;
}

/// Everything a live run measures; false (with the reason in `report`)
/// when the run must not report.
bool measure_live(const Options& options, const LivePlan& plan,
                  Report& report, SpanLog* spans, LiveRun& run) {
  const int nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  run.connections = std::min(kMaxConnections, nproc);
  if (kServerThreads + kGeneratorThreads > nproc || run.connections < 1) {
    report.refusal = "load budget: " + std::to_string(kServerThreads) +
                     " server + " + std::to_string(kGeneratorThreads) +
                     " generator threads exceed nproc " +
                     std::to_string(nproc);
    return false;
  }
  report.info.push_back(
      "load budget: " + std::to_string(kServerThreads) + " server + " +
      std::to_string(kGeneratorThreads) + " generator threads, " +
      std::to_string(run.connections) + " connections, nproc " +
      std::to_string(nproc));

  net::LiveCorpusConfig corpus_config;
  corpus_config.profile = "random100";
  corpus_config.sites = plan.sites;
  corpus_config.seed = options.seed;
  if (plan.push) {
    corpus_config.scheduler = net::SchedulerKind::kInterleaving;
    corpus_config.push.kind = net::PushStrategySpec::Kind::kAll;
  }

  // Set-up: corpus generation plus server start, repeated; the last set-up
  // is the one measured.
  std::unique_ptr<net::LiveCorpus> corpus;
  std::unique_ptr<net::Server> server;
  std::vector<int> server_tids;
  for (int k = 0; k < kSetupRepeats; ++k) {
    ScopedSpan span(spans, "setup.corpus_and_server", -1, k);
    if (server) {
      const std::uint64_t t0 = now_ns();
      server->shutdown();
      run.drain_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      server.reset();
    }
    corpus.reset();
    const std::uint64_t t0 = now_ns();
    corpus = std::make_unique<net::LiveCorpus>(
        net::build_live_corpus(corpus_config));
    const std::uint64_t t1 = now_ns();
    net::ServerConfig server_config;
    server_config.threads = kServerThreads;
    server_config.store = &corpus->store;
    server_config.origins = &corpus->origins;
    server_config.policies = &corpus->policies;
    server_config.scheduler = corpus_config.scheduler;
    server = std::make_unique<net::Server>(server_config);
    const std::vector<int> before = list_task_ids();
    const std::uint64_t t2 = now_ns();
    if (!server->start()) {
      report.refusal = "server start: " + server->error();
      return false;
    }
    const std::uint64_t t3 = now_ns();
    run.generate_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    run.start_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    run.setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    server_tids.clear();
    for (const int tid : list_task_ids()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) {
        server_tids.push_back(tid);
      }
    }
  }
  if (static_cast<int>(server_tids.size()) != kServerThreads) {
    report.refusal = "found " + std::to_string(server_tids.size()) +
                     " new server threads, expected " +
                     std::to_string(kServerThreads);
    return false;
  }
  const CpuPlacement placement(server_tids);
  report.info.push_back(placement.describe());
  const std::vector<Target> targets =
      make_targets(*corpus, plan.push, options.seed);
  run.urls = corpus->all_urls.size();
  run.pages = corpus->landing_pages.size();
  run.targets = targets.size();

  // Warm caches and code paths through the program's own generator.
  {
    ScopedSpan span(spans, "warmup.run_load");
    std::vector<std::pair<std::string, std::string>> urls;
    for (const auto& target : targets) {
      urls.emplace_back(target.host, target.path);
    }
    net::LoadConfig warm;
    warm.port = server->port();
    warm.connections = run.connections;
    warm.threads = kGeneratorThreads;
    warm.duration_s = kWarmupS;
    warm.enable_push = plan.push;
    warm.urls = &urls;
    const auto warm_result = net::run_load(warm);
    if (warm_result.requests_ok == 0) {
      report.refusal = "warm-up completed no request";
      return false;
    }
  }

  LoadPlan load;
  load.port = server->port();
  load.connections = run.connections;
  load.enable_push = plan.push;
  load.targets = &targets;
  load.spans = spans;
  load.requests_per_connection = plan.push ? 4 : 100;
  load.window_s = plan.closed_s / kRounds / kWindowsPerRound;

  // Closed and open phases alternate over several rounds, so a slow spell
  // of the machine lands in some windows of each, not in a whole phase.
  for (int round = 0; round < kRounds; ++round) {
    {
      ScopedSpan span(spans, "phase.closed_loop", -1, round);
      load.schedule = nullptr;
      load.depth = plan.depth;
      load.duration_s = plan.closed_s / kRounds;
      load.parent_span = span.index();
      const ThreadUsage server0 = sample_threads(server_tids);
      const double client0 = thread_cpu_s();
      const std::uint64_t t0 = now_ns();
      const LoadStats part = run_client(load);
      run.closed_wall_s += static_cast<double>(now_ns() - t0) / 1e9;
      run.client_cpu_s += thread_cpu_s() - client0;
      const ThreadUsage used = sample_threads(server_tids) - server0;
      run.server_closed += used;
      if (part.completed > 0) {
        run.round_cpu_us.push_back(used.cpu_s() * 1e6 /
                                   static_cast<double>(part.completed));
      }
      if (!part.error.empty()) {
        report.refusal = "closed loop: " + part.error;
        return false;
      }
      merge(run.closed, part);
    }
    {
      ScopedSpan span(spans, "phase.open_loop", -1, round);
      const auto schedule = poisson_schedule(
          options.seed + static_cast<std::uint64_t>(round), plan.rate,
          plan.open_s / kRounds);
      load.schedule = &schedule;
      load.duration_s = plan.open_s / kRounds;
      load.parent_span = span.index();
      const LoadStats part = run_client(load);
      if (!part.error.empty()) {
        report.refusal = "open loop: " + part.error;
        return false;
      }
      merge(run.open, part);
    }
  }
  const Summary lag = summarize(run.open.lag_ms);
  const double calm_lag =
      calm_time(block_percentiles(run.open.lag_ms, kLagBlock, 99));
  report.info.push_back(
      "closed loop: " + std::to_string(run.closed.completed) + " done in " +
      std::to_string(run.closed.elapsed_s) + " s; open loop: " +
      std::to_string(run.open.completed) + " of " +
      std::to_string(run.open.attempted) + " at " + std::to_string(plan.rate) +
      "/s, send lag p50 " + std::to_string(lag.p50) + " ms, p99 " +
      std::to_string(lag.p99) + " ms (calm blocks " +
      std::to_string(calm_lag) + " ms), max " + std::to_string(lag.max) +
      " ms");
  if (calm_lag > kMaxLagMs) {
    report.refusal = "open loop invalid: generator fell behind, send lag p99 " +
                     std::to_string(calm_lag) + " ms even in calm blocks";
    return false;
  }

  {
    ScopedSpan span(spans, "check.byte_equality");
    check_bytes(*corpus, server->port(), plan.push, report);
  }
  report.attempted += run.closed.attempted + run.open.attempted;
  report.failed += run.closed.failed + run.open.failed;
  if (run.closed.failed + run.open.failed > 0) {
    report.fail(std::to_string(run.closed.failed + run.open.failed) +
                " load requests failed or lost");
  }

  {
    ScopedSpan span(spans, "teardown.shutdown");
    const std::uint64_t t0 = now_ns();
    server->shutdown();
    run.drain_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  run.server_stats = server->stats();
  if (options.trace) {
    ScopedSpan span(spans, "layers.h2_pair_replay");
    run.codec_us_per_req = codec_us_per_request(*corpus, plan.push, report);
  }
  server.reset();
  return true;
}

void add_end_to_end(const LiveRun& run, bool push, Report& report) {
  const double req_per_s = calm_rate(run.closed.window_rate);
  if (run.closed.window_rate.empty() || run.round_cpu_us.empty()) {
    report.fail("closed loop produced no complete rate window");
  }
  // Open-loop latency: every target is requested many times, and a stall
  // of the machine hits only a few of them, so each target counts with
  // its median latency; p50 and p99 are taken over targets. The spread of
  // object sizes still sets the tail.
  const Summary all = summarize(run.open.latency_ms);
  const Summary latency = summarize(per_key_medians(
      run.open.latency_ms, run.open.latency_target, kMinSamplesPerTarget));
  if (latency.n < run.targets) {
    report.fail(std::to_string(run.targets - latency.n) + " of " +
                std::to_string(run.targets) + " targets got fewer than " +
                std::to_string(kMinSamplesPerTarget) + " open-loop samples");
  }
  const std::string windows =
      "calm twentieth of " + std::to_string(run.closed.window_rate.size()) +
      " closed-loop windows";
  const std::string open_note =
      "open loop, from due time; over the medians of " +
      std::to_string(latency.n) + " targets (tail rule allows " +
      percentile_label(latency.tail_percentile) + "); over all " +
      std::to_string(all.n) + " requests: p50 " + std::to_string(all.p50) +
      " p99 " + std::to_string(all.p99) + " ms";
  report.add("setup_s", median(run.setup_s), "s",
             "median of " + std::to_string(run.setup_s.size()) +
                 " corpus builds + server starts");
  report.add("loads_per_s",
             push ? req_per_s
                  : req_per_s * static_cast<double>(run.pages) /
                        static_cast<double>(run.urls),
             "1/s",
             push ? "pages per second (= req_per_s)"
                  : "pages' worth of GETs per second: req_per_s * pages / "
                    "URLs");
  report.add("req_per_s", req_per_s, "1/s",
             windows + (push ? "; a completion is a whole page" : ""));
  report.add("goodput_mb_s", calm_rate(run.closed.window_mb_s), "MB/s",
             windows + "; body bytes, requested plus pushed");
  report.add("server_cpu_us_per_req", calm_time(run.round_cpu_us), "us",
             "server threads; calm twentieth of " +
                 std::to_string(run.round_cpu_us.size()) +
                 " closed-loop rounds");
  report.add("latency_p50_ms", latency.p50, "ms", open_note);
  report.add("latency_p99_ms", latency.p99, "ms", open_note);
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_live_layers(const LiveRun& run, Report& report) {
  const double completed = static_cast<double>(run.closed.completed);
  const double server_cpu_us =
      completed > 0 ? run.server_closed.cpu_s() * 1e6 / completed : 0;
  const double attempted =
      static_cast<double>(run.closed.attempted + run.open.attempted);
  report.add("net.server_util",
             run.closed_wall_s > 0
                 ? run.server_closed.cpu_s() / run.closed_wall_s /
                       kServerThreads
                 : 0,
             "frac", "server CPU / wall, closed loop");
  report.add("net.server_sys_frac",
             run.server_closed.user_s + run.server_closed.sys_s > 0
                 ? run.server_closed.sys_s /
                       (run.server_closed.user_s + run.server_closed.sys_s)
                 : 0,
             "frac");
  report.add("net.server_ctxsw_per_req",
             completed > 0
                 ? static_cast<double>(run.server_closed.voluntary_ctxsw) /
                       completed
                 : 0,
             "count", "voluntary, server threads");
  report.add("net.client_cpu_us_per_req",
             completed > 0 ? run.client_cpu_s * 1e6 / completed : 0, "us");
  report.add("net.bytes_written_per_req",
             run.server_stats.requests_served > 0
                 ? static_cast<double>(run.server_stats.bytes_written) /
                       static_cast<double>(run.server_stats.requests_served)
                 : 0,
             "bytes", "ServerStats over the server's life");
  report.add("client.push_promises_per_req",
             completed > 0 ? static_cast<double>(run.closed.push_promises) /
                                 completed
                           : 0,
             "count");
  report.add("net.non_codec_us_per_req", server_cpu_us - run.codec_us_per_req,
             "us", "server_cpu_us_per_req - h2.codec_us_per_req");
  report.add("net.start_ms", median(run.start_ms), "ms");
  report.add("net.drain_ms", median(run.drain_ms), "ms");
  report.add("client.lag_ms_p99", summarize(run.open.lag_ms).p99, "ms",
             "open-loop send lag, all requests");
  report.add("client.latency_ms_p99_all", summarize(run.open.latency_ms).p99,
             "ms", "open-loop latency over all requests, calm or not");
  report.add("net.failed_frac",
             attempted > 0 ? static_cast<double>(run.closed.failed +
                                                 run.open.failed) /
                                 attempted
                           : 0,
             "frac");
}

LivePlan plan_for(const Options& options, bool push) {
  LivePlan plan;
  plan.push = push;
  plan.sites = push ? kLivePushSites : kLiveGetSites;
  plan.closed_s = options.seconds * 0.3;
  plan.open_s = options.seconds * 0.7;
  plan.rate = push ? options.push_rate : options.get_rate;
  plan.depth = push ? 2 : 8;
  return plan;
}

}  // namespace

Report run_live(const Options& options, bool push) {
  Report report;
  SpanLog log;
  SpanLog* spans = options.trace ? &log : nullptr;
  const LivePlan plan = plan_for(options, push);
  if (plan.rate <= 0) {
    report.refusal = "no open-loop rate given for this workload";
    return report;
  }
  LiveRun run;
  if (!measure_live(options, plan, report, spans, run)) return report;

  if (!options.trace) {
    add_end_to_end(run, push, report);
  } else {
    add_live_layers(run, report);
    report.add("h2.codec_us_per_req", run.codec_us_per_req, "us",
               "server side of an in-memory pair replaying the live mix");
    report.add("web.generate_ms_per_site",
               median(run.generate_s) * 1e3 / plan.sites, "ms");
    // The simulator-side layers over the same pages, with the arm that
    // matches the live configuration.
    auto profile = web::PopulationProfile::random100();
    const auto sites = web::generate_population(profile, plan.sites,
                                                options.seed);
    std::vector<LoadTask> tasks;
    for (const auto& site : sites) {
      core::Strategy strategy = core::no_push();
      if (push) {
        strategy = core::push_all(site, web::resource_urls(site));
        strategy.interleaving = true;
      }
      tasks.push_back({&site, std::move(strategy)});
    }
    const SimLayerTotals totals =
        measure_sim_layers(tasks, options.seed, 1000, report, spans);
    if (totals.traced_digest != totals.untraced_digest) {
      report.fail("traced digest differs from untraced digest");
    }
  }
  if (spans != nullptr && !options.spans_dir.empty()) {
    const std::string path = options.spans_dir + "/spans-" +
                             (push ? "live-push" : "live-get") + "-" +
                             std::to_string(options.seed) + ".jsonl";
    if (log.write(path)) report.info.push_back("spans: " + path);
  }
  return report;
}

void measure_live_layers_for_sweep(const Options& options, bool push,
                                   Report& report, SpanLog* spans) {
  LivePlan plan = plan_for(options, push);
  plan.sites = kProbeSites;
  plan.closed_s = 1;
  plan.open_s = 1;
  if (plan.rate <= 0) plan.rate = push ? 100 : 1000;
  Options probe = options;
  probe.trace = true;  // the codec replay is part of the layer metrics
  Report probe_report;
  LiveRun run;
  if (!measure_live(probe, plan, probe_report, spans, run)) {
    report.fail("live probe: " + probe_report.refusal);
    return;
  }
  for (auto& error : probe_report.errors) report.fail("live probe: " + error);
  report.attempted += probe_report.attempted;
  report.failed += probe_report.failed;
  add_live_layers(run, report);
}

}  // namespace h2bench
