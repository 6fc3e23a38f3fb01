#include "core/testbed.h"

#include <cassert>
#include <map>
#include <memory>

#include "core/memo.h"
#include "core/runner.h"
#include "server/h1_replay_server.h"
#include "server/replay_server.h"
#include "sim/tcp.h"
#include "stats/descriptive.h"
#include "trace/trace.h"
#include "util/pump.h"

namespace h2push::core {
namespace {

using sim::TcpConnection;

/// One client↔server TCP session: the browser-facing ClientTransport plus
/// the server-side endpoint it terminates at — a ReplayServer (H2) or an
/// H1ReplayServer (the HTTP/1.1 baseline arm).
template <class Server>
class SimTransport final : public browser::ClientTransport {
 public:
  SimTransport(sim::Simulator& sim, sim::TcpConfig tcp_config,
               sim::Route up, sim::Route down,
               typename Server::Config server_config, util::Rng rng,
               sim::Time connect_stagger)
      : sim_(sim), server_(&sim, server_config, rng),
        connect_stagger_(connect_stagger) {
    TcpConnection::Callbacks callbacks;
    callbacks.on_connected = [this] {
      if (on_connected_) on_connected_();
    };
    callbacks.on_accepted = [this] { pump_server(); };
    callbacks.on_receive = [this](TcpConnection::Side side,
                                  util::WireBytes bytes) {
      if (side == TcpConnection::Side::kServer) {
        server_.connection().receive(bytes);
        pump_server();
      } else if (receiver_) {
        receiver_(bytes);
      }
    };
    callbacks.on_writable = [this](TcpConnection::Side side) {
      if (side == TcpConnection::Side::kServer) {
        pump_server();
      } else if (writable_cb_) {
        writable_cb_();
      }
    };
    tcp_ = std::make_unique<TcpConnection>(sim_, tcp_config, up, down,
                                           std::move(callbacks));
    if constexpr (requires { server_config.trace; }) {  // H1: untraced
      if (server_config.trace != nullptr) {
        // TCP counters share the server session's track: cwnd next to
        // frames.
        tcp_->set_trace(server_config.trace, server_config.trace_track);
      }
    }
    server_.set_write_ready([this] { pump_server(); });
  }

  void connect(std::function<void()> on_connected) override {
    on_connected_ = std::move(on_connected);
    // DNS lookup + socket setup take a few milliseconds even against local
    // resolvers; this also de-correlates the SYN burst a many-origin page
    // would otherwise fire into the access link in a single instant.
    if (connect_stagger_ > 0) {
      sim_.schedule_in(connect_stagger_, [this] { tcp_->connect(); });
    } else {
      tcp_->connect();
    }
  }
  void send(std::span<const std::uint8_t> bytes) override {
    tcp_->send(TcpConnection::Side::kClient, bytes);
  }
  bool writable() const override {
    return tcp_->writable(TcpConnection::Side::kClient);
  }
  std::size_t write_chunk() const override { return kWriteChunk; }
  void set_receiver(std::function<void(util::WireBytes)> receiver) override {
    receiver_ = std::move(receiver);
  }
  void set_writable_callback(std::function<void()> cb) override {
    writable_cb_ = std::move(cb);
  }
  sim::Time connect_end_time() const override {
    return tcp_->connect_end_time();
  }

  const TcpConnection& tcp() const { return *tcp_; }
  Server& server() { return server_; }

 private:
  static constexpr std::size_t kWriteChunk = 2 * 1460;  // the TCP watermark

  /// The server's end of the session as its pump's sink: the connection
  /// appends straight into the TCP send buffer, frame headers as owned
  /// bytes and DATA payloads as references into their bodies, so no body
  /// byte is copied on the way to the wire. Soft cap, like the client side
  /// (util/pump.h).
  struct ServerSink {
    static constexpr util::WriteCap kCap = util::WriteCap::kSoft;
    TcpConnection& tcp;
    std::size_t budget() const {
      return tcp.writable(TcpConnection::Side::kServer) ? kWriteChunk : 0;
    }
    util::WireOut& buffer() {
      return tcp.writer(TcpConnection::Side::kServer);
    }
    void commit(std::size_t appended) {
      tcp.commit(TcpConnection::Side::kServer, appended);
    }
  };

  void pump_server() { util::pump(server_.connection(), ServerSink{*tcp_}); }

  sim::Simulator& sim_;
  Server server_;
  std::unique_ptr<TcpConnection> tcp_;
  sim::Time connect_stagger_ = 0;
  std::function<void()> on_connected_;
  std::function<void(util::WireBytes)> receiver_;
  std::function<void()> writable_cb_;
};

/// The actual simulation, always executed on a cache miss (and on every
/// traced run — a cached result cannot reproduce the event stream).
browser::PageLoadResult run_page_load_uncached(const web::Site& site,
                                               const Strategy& strategy,
                                               const RunConfig& config) {
  sim::Simulator sim;
  util::Rng master(config.seed ^ util::hash64(site.name) ^
                   (0x9e3779b97f4a7c15ULL *
                    static_cast<std::uint64_t>(config.run_index + 1)));

  util::Rng net_rng = master.fork("net");
  const sim::ConditionSample sample =
      sim::sample_conditions(config.net, net_rng);

  sim::LinkConfig down_cfg;
  down_cfg.rate_bps = sample.down_bps;
  down_cfg.prop_delay = sim::from_ms(2);
  down_cfg.queue_capacity = config.net.queue_capacity;
  down_cfg.queue_packets = 1000;  // tc pfifo default
  down_cfg.random_loss = sample.loss;
  sim::LinkConfig up_cfg = down_cfg;
  up_cfg.rate_bps = sample.up_bps;
  auto downlink =
      std::make_unique<sim::Link>(sim, down_cfg, master.fork("loss-down"));
  auto uplink =
      std::make_unique<sim::Link>(sim, up_cfg, master.fork("loss-up"));

  trace::TraceRecorder* tr = config.trace;
  std::uint32_t browser_track = 0;
  if (tr != nullptr) {
    tr->set_clock([&sim] { return sim.now(); });
    browser_track = tr->register_track("browser");
    downlink->set_trace(tr, tr->register_track("link.down"));
    uplink->set_trace(tr, tr->register_track("link.up"));
  }

  // The push policy is served by whichever server hosts the trigger (the
  // primary origin). All servers share the store and origin map.
  std::map<std::string, server::PushPolicy> policies;
  if (!strategy.push_urls.empty() || !strategy.hint_urls.empty()) {
    server::PushPolicy& policy = policies[site.main_url.host];
    policy.trigger_host = site.main_url.host;
    policy.trigger_path = site.main_url.path;
    policy.push_urls = strategy.push_urls;
    policy.interleaving = strategy.interleaving;
    policy.interleave_offset = strategy.interleave_offset;
    policy.critical_count = strategy.critical_count;
    policy.hint_urls = strategy.hint_urls;
  }

  const std::string primary_ip = site.origins.ip_of(site.main_url.host);

  util::Rng rtt_rng = master.fork("rtt");
  util::Rng think_rng = master.fork("think");
  // H2 sessions only: the H1 arm has never counted retransmissions.
  std::vector<SimTransport<server::ReplayServer>*> transports;

  const bool use_http1 = config.browser.use_http1;
  browser::TransportFactory factory =
      [&sim, &site, &policies, &sample, &downlink, &uplink, primary_ip,
       &rtt_rng, &think_rng, &transports, use_http1, tr](
          const std::string& host)
      -> std::unique_ptr<browser::ClientTransport> {
    const std::string ip = site.origins.ip_of(host);
    sim::Time rtt = sample.origin_rtt(rtt_rng);
    if (const auto hit = site.plan.host_rtt_extra_ms.find(host);
        hit != site.plan.host_rtt_extra_ms.end()) {
      rtt += sim::from_ms(hit->second);
    }
    // Access-link propagation is 2 ms each way; the rest of the RTT is the
    // path beyond the access link.
    sim::Time extra = rtt / 2 - sim::from_ms(2);
    if (extra < 0) extra = 0;
    sim::Route up{uplink.get(), extra};
    sim::Route down{downlink.get(), extra};

    server::ReplayServer::Config sc;
    sc.store = site.store.get();
    sc.origins = &site.origins;
    sc.think_time_mean = sample.server_think_mean;
    if (ip == primary_ip && !policies.empty()) sc.policies = &policies;
    if (tr != nullptr) {
      sc.trace = tr;
      sc.trace_track = tr->register_track("server." + host);
    }

    sim::TcpConfig tcp_config;  // defaults: IW10, MSS 1460, TLS 1.2
    const auto stagger =
        sim::from_ms(rtt_rng.uniform(0.5, 12.0));  // DNS + socket setup
    if (use_http1) {
      server::H1ReplayServer::Config h1c;
      h1c.store = site.store.get();
      h1c.think_time_mean = sample.server_think_mean;
      return std::make_unique<SimTransport<server::H1ReplayServer>>(
          sim, tcp_config, up, down, h1c, think_rng.fork(host), stagger);
    }
    auto transport = std::make_unique<SimTransport<server::ReplayServer>>(
        sim, tcp_config, up, down, sc, think_rng.fork(host), stagger);
    transports.push_back(transport.get());
    return transport;
  };

  browser::BrowserConfig bc = config.browser;
  bc.enable_push = strategy.client_push_enabled;
  bc.trace = tr;
  bc.trace_track = browser_track;

  browser::PageLoad load(sim, bc, site.origins, site.main_url,
                         std::move(factory), master.fork("compute"));
  load.start();
  sim.run(bc.load_deadline);
  auto result = load.result();
  result.packets_dropped =
      downlink->dropped_packets() + uplink->dropped_packets();
  for (auto* t : transports) {
    result.retransmissions += t->tcp().retransmissions();
    if (config.wire != nullptr) {
      config.wire->compacted +=
          t->tcp().compacted_bytes(TcpConnection::Side::kClient) +
          t->tcp().compacted_bytes(TcpConnection::Side::kServer);
      config.wire->parser_copied +=
          t->server().connection().parser_copied_bytes();
    }
  }
  if (config.wire != nullptr) {
    config.wire->parser_copied += load.fetches().parser_copied_bytes();
  }
  if (tr != nullptr) {
    // Finalize the roll-up and stamp the derived marks at their true times;
    // the exporter orders by timestamp, so tracks stay monotonic.
    auto& s = tr->summary();
    s.run_span = sim.now();
    s.downlink_busy = downlink->busy_time();
    s.downlink_idle = s.run_span - s.downlink_busy;
    s.uplink_busy = uplink->busy_time();
    s.uplink_idle = s.run_span - s.uplink_busy;
    const sim::Time t0 = load.fetches().main_connect_end();
    tr->instant_at(t0, browser_track, "browser", "mark.connectEnd");
    if (result.complete) {
      tr->instant_at(t0 + sim::from_ms(result.plt_ms), browser_track,
                     "browser", "mark.PLT", {{"plt_ms", result.plt_ms}});
    }
    if (result.speed_index_ms > 0) {
      tr->instant_at(t0 + sim::from_ms(result.speed_index_ms), browser_track,
                     "browser", "mark.speedIndex",
                     {{"si_ms", result.speed_index_ms}});
    }
    if (result.first_paint_ms > 0) {
      tr->instant_at(t0 + sim::from_ms(result.first_paint_ms), browser_track,
                     "browser", "mark.firstPaint",
                     {{"ms", result.first_paint_ms}});
    }
    if (config.cache != nullptr) {
      // Traced runs bypass the cache, but the summary still reports the
      // cache's cumulative effectiveness for the surrounding sweep.
      const auto cs = config.cache->stats();
      s.extra["cache.hits"] = static_cast<double>(cs.hits);
      s.extra["cache.misses"] = static_cast<double>(cs.misses);
      s.extra["cache.hit_rate"] = cs.hit_rate();
      s.extra["cache.bytes_read"] = static_cast<double>(cs.bytes_read);
      s.extra["cache.bytes_written"] = static_cast<double>(cs.bytes_written);
    }
  }
  return result;
}

}  // namespace

browser::PageLoadResult run_page_load(const web::Site& site,
                                      const Strategy& strategy,
                                      const RunConfig& config) {
  RunCache* cache = config.cache;
  if (cache == nullptr || config.trace != nullptr || config.wire != nullptr) {
    return run_page_load_uncached(site, strategy, config);
  }
  const util::Hash128 key = cache->key(site, strategy, config);
  if (const auto hit = cache->lookup(key)) {
    if (cache->should_verify(key)) {
      cache->verify(key, *hit, run_page_load_uncached(site, strategy, config));
    }
    return *hit;
  }
  auto result = run_page_load_uncached(site, strategy, config);
  cache->store(key, result);
  return result;
}

std::vector<browser::PageLoadResult> run_repeated(const web::Site& site,
                                                  const Strategy& strategy,
                                                  RunConfig config,
                                                  int runs) {
  std::vector<browser::PageLoadResult> out;
  out.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    config.run_index = i;
    out.push_back(run_page_load(site, strategy, config));
  }
  return out;
}

std::vector<browser::PageLoadResult> run_repeated(const web::Site& site,
                                                  const Strategy& strategy,
                                                  RunConfig config, int runs,
                                                  ParallelRunner& runner) {
  assert(config.trace == nullptr &&
         "tracing is per-run; record with the serial run_page_load");
  return runner.map<browser::PageLoadResult>(
      static_cast<std::size_t>(runs), [&](std::size_t i) {
        RunConfig cfg = config;
        cfg.run_index = static_cast<int>(i);
        return run_page_load(site, strategy, cfg);
      });
}

MetricSeries collect(const std::vector<browser::PageLoadResult>& results) {
  MetricSeries s;
  for (const auto& r : results) {
    s.plt_ms.push_back(r.plt_ms);
    s.speed_index_ms.push_back(r.speed_index_ms);
    s.bytes_pushed.push_back(static_cast<double>(r.bytes_pushed));
  }
  return s;
}

double MetricSeries::plt_median() const { return stats::median(plt_ms); }
double MetricSeries::si_median() const {
  return stats::median(speed_index_ms);
}
double MetricSeries::plt_std_error() const {
  return stats::std_error(plt_ms);
}
double MetricSeries::si_std_error() const {
  return stats::std_error(speed_index_ms);
}

}  // namespace h2push::core
