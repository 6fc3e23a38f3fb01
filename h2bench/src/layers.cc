#include "layers.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "browser/css.h"
#include "browser/html.h"
#include "core/testbed.h"
#include "h2/connection.h"
#include "h2/hpack.h"
#include "http/url.h"
#include "sim/conditions.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/tcp.h"
#include "stats.h"
#include "trace/trace.h"

namespace h2bench {
namespace {

namespace h2 = h2push::h2;
namespace http = h2push::http;
namespace sim = h2push::sim;

http::HeaderBlock request_headers(const std::string& host,
                                  const std::string& path) {
  http::Request request;
  request.url = http::Url{"https", host, 443, path};
  return request.to_h2_headers();
}

std::uint64_t body_size(const h2push::replay::RecordedExchange& exchange) {
  return exchange.body ? exchange.body->size() : 0;
}

/// Moves `down_bytes` server→client and `up_bytes` client→server through
/// one TCP connection over the testbed's access link; returns false if the
/// simulator drained before every byte arrived.
bool tcp_transfer(const std::vector<std::uint8_t>& payload,
                  std::size_t down_bytes, std::size_t up_bytes) {
  const auto net = sim::NetworkConditions::testbed();
  sim::Simulator simulator;
  sim::LinkConfig down_config;
  down_config.rate_bps = net.down_bps;
  down_config.prop_delay = net.base_rtt / 2;
  down_config.queue_capacity = net.queue_capacity;
  sim::LinkConfig up_config = down_config;
  up_config.rate_bps = net.up_bps;
  sim::Link down(simulator, down_config, h2push::util::Rng(1));
  sim::Link up(simulator, up_config, h2push::util::Rng(2));
  std::uint64_t to_client = 0;
  std::uint64_t to_server = 0;
  std::unique_ptr<sim::TcpConnection> tcp;
  sim::TcpConnection::Callbacks callbacks;
  callbacks.on_connected = [&] {
    tcp->send(sim::TcpConnection::Side::kClient,
              {payload.data(), std::min(up_bytes, payload.size())});
    tcp->send(sim::TcpConnection::Side::kServer,
              {payload.data(), std::min(down_bytes, payload.size())});
  };
  callbacks.on_receive = [&](sim::TcpConnection::Side side,
                             std::span<const std::uint8_t> data) {
    (side == sim::TcpConnection::Side::kClient ? to_client : to_server) +=
        data.size();
  };
  tcp = std::make_unique<sim::TcpConnection>(
      simulator, sim::TcpConfig{}, sim::Route{&up, 0}, sim::Route{&down, 0},
      std::move(callbacks));
  tcp->connect();
  simulator.run();
  return to_client == std::min(down_bytes, payload.size()) &&
         to_server == std::min(up_bytes, payload.size());
}

/// Encodes and decodes every request and response header block of a load
/// with one HPACK context per direction, as one connection would. Returns
/// the number of blocks that did not round-trip.
std::size_t hpack_round_trip(
    const std::vector<const h2push::replay::RecordedExchange*>& exchanges) {
  h2::HpackEncoder client_encoder, server_encoder;
  h2::HpackDecoder client_decoder, server_decoder;
  std::vector<std::uint8_t> block;
  std::size_t mismatches = 0;
  for (const auto* exchange : exchanges) {
    const auto request = request_headers(exchange->request.url.host,
                                         exchange->request.url.path);
    client_encoder.encode_into(request, block);
    const auto decoded_request = server_decoder.decode(block);
    if (!decoded_request.has_value() || decoded_request.value() != request) {
      ++mismatches;
    }
    const auto response = exchange->response.to_h2_headers();
    server_encoder.encode_into(response, block);
    const auto decoded_response = client_decoder.decode(block);
    if (!decoded_response.has_value() ||
        decoded_response.value() != response) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

std::uint64_t load_hash(const h2push::browser::PageLoadResult& result) {
  Digest d;
  d.add_double(result.plt_ms);
  d.add_double(result.speed_index_ms);
  d.add(result.bytes_pushed);
  d.add(result.bytes_total);
  d.add(result.num_pushed);
  return d.value();
}

h2push::browser::PageLoadResult simulate_load(
    const LoadTask& task, std::uint64_t seed,
    h2push::trace::TraceRecorder* recorder) {
  h2push::core::RunConfig config;
  config.seed = seed;
  config.run_index = task.run_index;
  config.trace = recorder;
  return h2push::core::run_page_load(*task.site, task.strategy, config);
}

PairReplay replay_h2_pair(const h2push::replay::RecordStore& store,
                          const std::vector<UrlKey>& requests,
                          const std::vector<std::string>& push_urls) {
  PairReplay out;
  out.requests = requests.size();
  std::map<std::uint32_t, std::uint64_t> expected;  // client stream → bytes
  std::map<std::uint32_t, std::uint64_t> received;
  std::size_t closed = 0;
  std::string error;

  h2::Connection* server_ptr = nullptr;
  h2::Connection::Config client_config;
  client_config.role = h2::Role::kClient;
  client_config.enable_push = !push_urls.empty();
  client_config.initial_window = 16 * 1024 * 1024;
  client_config.connection_window_bonus = 16 * 1024 * 1024;
  h2::Connection::Callbacks client_callbacks;
  client_callbacks.on_data = [&](std::uint32_t stream,
                                 std::span<const std::uint8_t> data, bool) {
    received[stream] += data.size();
  };
  client_callbacks.on_push_promise = [&](std::uint32_t, std::uint32_t promised,
                                         http::HeaderBlock headers) {
    const auto* exchange =
        store.find(std::string(http::find_header(headers, ":authority")),
                   std::string(http::find_header(headers, ":path")));
    expected[promised] = exchange != nullptr ? body_size(*exchange) : 0;
  };
  client_callbacks.on_stream_closed = [&](std::uint32_t) { ++closed; };
  client_callbacks.on_connection_error = [&](const std::string& message) {
    error = "client: " + message;
  };

  h2::Connection::Config server_config;
  server_config.role = h2::Role::kServer;
  h2::Connection::Callbacks server_callbacks;
  bool pushed = false;
  server_callbacks.on_headers = [&](std::uint32_t stream,
                                    http::HeaderBlock headers, bool) {
    h2::Connection& server = *server_ptr;
    if (!pushed && !push_urls.empty()) {
      pushed = true;
      for (const auto& url_text : push_urls) {
        const auto url = http::parse_url(url_text);
        if (!url.has_value()) continue;
        const auto* exchange = store.find(url.value().host, url.value().path);
        if (exchange == nullptr) continue;
        const std::uint32_t promised = server.submit_push_promise(
            stream, request_headers(url.value().host, url.value().path));
        if (promised != 0) {
          server.submit_response(promised, exchange->response.to_h2_headers(),
                                 exchange->body);
        }
      }
    }
    const auto* exchange =
        store.find(std::string(http::find_header(headers, ":authority")),
                   std::string(http::find_header(headers, ":path")));
    if (exchange == nullptr) {
      http::Response not_found;
      not_found.status = 404;
      server.submit_response(stream, not_found.to_h2_headers(), nullptr);
      return;
    }
    server.submit_response(stream, exchange->response.to_h2_headers(),
                           exchange->body);
  };
  server_callbacks.on_connection_error = [&](const std::string& message) {
    error = "server: " + message;
  };

  h2::Connection client(client_config, std::move(client_callbacks));
  h2::Connection server(server_config, std::move(server_callbacks));
  server_ptr = &server;

  std::uint64_t t0 = now_ns();
  client.start();
  for (const auto& [host, path] : requests) {
    const std::uint32_t id = client.submit_request(request_headers(host, path));
    const auto* exchange = store.find(host, path);
    expected[id] = exchange != nullptr ? body_size(*exchange) : 0;
  }
  std::uint64_t t1 = now_ns();
  out.client_ns += static_cast<double>(t1 - t0);
  server.start();
  out.server_ns += static_cast<double>(now_ns() - t1);

  constexpr std::size_t kChunk = 64 * 1024;
  while (error.empty()) {
    bool moved = false;
    if (client.want_write()) {
      t0 = now_ns();
      const auto bytes = client.produce(kChunk);
      t1 = now_ns();
      server.receive(bytes);
      const std::uint64_t t2 = now_ns();
      out.client_ns += static_cast<double>(t1 - t0);
      out.server_ns += static_cast<double>(t2 - t1);
      moved = moved || !bytes.empty();
    }
    if (server.want_write()) {
      t0 = now_ns();
      const auto bytes = server.produce(kChunk);
      t1 = now_ns();
      client.receive(bytes);
      const std::uint64_t t2 = now_ns();
      out.server_ns += static_cast<double>(t1 - t0);
      out.client_ns += static_cast<double>(t2 - t1);
      moved = moved || !bytes.empty();
    }
    if (!moved) break;
  }
  if (!error.empty()) {
    out.error = error;
  } else if (closed != expected.size()) {
    out.error = std::to_string(expected.size() - closed) + " of " +
                std::to_string(expected.size()) + " streams did not close";
  } else {
    for (const auto& [stream, bytes] : expected) {
      if (received[stream] != bytes) {
        out.error = "stream " + std::to_string(stream) + " got " +
                    std::to_string(received[stream]) + " of " +
                    std::to_string(bytes) + " body bytes";
        break;
      }
    }
  }
  return out;
}

SimLayerTotals measure_sim_layers(const std::vector<LoadTask>& tasks,
                                  std::uint64_t seed, std::size_t min_loads,
                                  Report& report, SpanLog* spans) {
  SimLayerTotals totals;
  if (tasks.empty()) {
    report.fail("no page loads to measure");
    return totals;
  }
  const std::size_t reps = std::max<std::size_t>(
      1, (min_loads + tasks.size() - 1) / tasks.size());

  // Untraced passes: wall time of each run_page_load.
  std::vector<double> load_ms;
  load_ms.reserve(reps * tasks.size());
  double first_pass_ns = 0;
  Digest untraced;
  {
    ScopedSpan phase(spans, "sim.untraced_passes");
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const std::uint64_t t0 = now_ns();
        const auto result = simulate_load(tasks[i], seed, nullptr);
        const std::uint64_t t1 = now_ns();
        load_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        if (spans != nullptr) {
          spans->add("core.run_page_load", t0, t1, phase.index(), i);
        }
        ++report.attempted;
        if (!result.complete) ++report.failed;
        if (rep == 0) {
          untraced.add(load_hash(result));
          first_pass_ns += static_cast<double>(t1 - t0);
        }
      }
    }
  }
  totals.untraced_digest = untraced.value();

  // Traced pass: exact per-load counts from TraceSummary.
  Digest traced;
  double traced_ns = 0;
  std::uint64_t packets = 0, retransmissions = 0, cancelled = 0;
  std::uint64_t pushed_bytes = 0, pushed_before_request = 0;
  std::int64_t idle = 0, span = 0;
  std::map<std::string, std::uint64_t> frames, events;
  {
    ScopedSpan phase(spans, "sim.traced_pass");
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      h2push::trace::TraceRecorder recorder;
      const std::uint64_t t0 = now_ns();
      const auto result = simulate_load(tasks[i], seed, &recorder);
      const std::uint64_t t1 = now_ns();
      traced_ns += static_cast<double>(t1 - t0);
      if (spans != nullptr) {
        spans->add("core.run_page_load.traced", t0, t1, phase.index(), i);
      }
      ++report.attempted;
      if (!result.complete) ++report.failed;
      traced.add(load_hash(result));
      const auto& s = recorder.summary();
      packets += s.packets_delivered;
      retransmissions += s.retransmissions;
      cancelled += s.pushes_cancelled;
      pushed_bytes += s.bytes_pushed;
      pushed_before_request += s.bytes_pushed_before_request;
      idle += s.downlink_idle;
      span += s.run_span;
      for (const auto& [type, count] : s.frames_sent) frames[type] += count;
      for (const auto& event : recorder.events()) ++events[event.category];
    }
  }
  totals.traced_digest = traced.value();

  // Layer replays, one per load.
  double css_ns = 0, html_ns = 0, tcp_ns = 0, hpack_ns = 0, codec_ns = 0;
  std::size_t css_rules = 0, html_tokens = 0, tcp_failures = 0;
  std::size_t hpack_mismatches = 0;
  std::vector<std::uint8_t> payload;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& task = tasks[i];
    const auto& site = *task.site;
    ScopedSpan load_span(spans, "layers.replay", -1, i);

    std::vector<const h2push::replay::RecordedExchange*> exchanges;
    std::uint64_t site_bytes = 0;
    for (const auto& exchange : site.store->all()) {
      exchanges.push_back(&exchange);
      site_bytes += body_size(exchange);
    }
    if (payload.size() < site_bytes) payload.resize(site_bytes, 0x5A);

    {
      ScopedSpan s(spans, "browser.parse_css", load_span.index(), i);
      const std::uint64_t t0 = now_ns();
      for (const auto* exchange : exchanges) {
        if (exchange->response.type == http::ResourceType::kCss &&
            exchange->body) {
          css_rules += h2push::browser::parse_css(*exchange->body).rules.size();
        }
      }
      css_ns += static_cast<double>(now_ns() - t0);
    }
    {
      ScopedSpan s(spans, "browser.html_tokenize", load_span.index(), i);
      const std::uint64_t t0 = now_ns();
      for (const auto* exchange : exchanges) {
        if (exchange->response.type == http::ResourceType::kHtml &&
            exchange->body) {
          h2push::browser::HtmlTokenizer tokenizer(exchange->body.get());
          while (tokenizer.next().has_value()) ++html_tokens;
        }
      }
      html_ns += static_cast<double>(now_ns() - t0);
    }
    {
      ScopedSpan s(spans, "sim.tcp_transfer", load_span.index(), i);
      const std::uint64_t t0 = now_ns();
      if (!tcp_transfer(payload, site_bytes, 300 * exchanges.size())) {
        ++tcp_failures;
      }
      tcp_ns += static_cast<double>(now_ns() - t0);
    }
    {
      ScopedSpan s(spans, "h2.hpack", load_span.index(), i);
      const std::uint64_t t0 = now_ns();
      hpack_mismatches += hpack_round_trip(exchanges);
      hpack_ns += static_cast<double>(now_ns() - t0);
    }
    {
      ScopedSpan s(spans, "h2.codec", load_span.index(), i);
      std::vector<std::string> push_urls;
      if (task.strategy.client_push_enabled) {
        push_urls = task.strategy.push_urls;
      }
      std::set<UrlKey> pushed;
      for (const auto& url_text : push_urls) {
        const auto url = http::parse_url(url_text);
        if (url.has_value()) pushed.emplace(url.value().host, url.value().path);
      }
      std::vector<UrlKey> requests = {{site.main_url.host, site.main_url.path}};
      for (const auto* exchange : exchanges) {
        UrlKey key{exchange->request.url.host, exchange->request.url.path};
        if (key != requests.front() && pushed.count(key) == 0) {
          requests.push_back(std::move(key));
        }
      }
      const PairReplay pair = replay_h2_pair(*site.store, requests, push_urls);
      if (!pair.error.empty()) {
        report.fail("h2 pair replay of " + site.name + ": " + pair.error);
      }
      codec_ns += pair.client_ns + pair.server_ns;
      totals.codec_server_ns += pair.server_ns;
      totals.codec_requests += pair.requests;
    }
  }
  if (tcp_failures > 0) {
    report.fail(std::to_string(tcp_failures) + " TCP replays lost bytes");
  }
  if (hpack_mismatches > 0) {
    report.fail(std::to_string(hpack_mismatches) +
                " HPACK blocks did not round-trip");
  }

  const double n = static_cast<double>(tasks.size());
  totals.loads = tasks.size();
  const Summary load = summarize(load_ms);
  const std::string load_note = "n=" + std::to_string(load.n) +
                                ", tail rule allows " +
                                percentile_label(load.tail_percentile);
  report.add("core.load_ms_p50", load.p50, "ms", load_note);
  report.add("core.load_ms_p99", load.p99, "ms", load_note);
  const double css_us = css_ns / n / 1e3;
  const double html_us = html_ns / n / 1e3;
  const double tcp_us = tcp_ns / n / 1e3;
  const double codec_us = codec_ns / n / 1e3;
  // Replay costs are means per load, so they are set against the mean load
  // time; the median of a skewed sample would understate the whole.
  double load_mean_ms = 0;
  for (const double ms : load_ms) load_mean_ms += ms;
  load_mean_ms /= static_cast<double>(load_ms.size());
  report.add("core.unattributed_frac",
             1.0 - (css_us + html_us + tcp_us + codec_us) / 1e3 / load_mean_ms,
             "frac",
             "1 - (css + html + tcp + codec replays) / mean load " +
                 std::to_string(load_mean_ms) + " ms");
  report.add("browser.css_parse_us_per_load", css_us, "us",
             std::to_string(css_rules) + " rules parsed");
  report.add("browser.html_tokenize_us_per_load", html_us, "us",
             std::to_string(html_tokens) + " tokens");
  report.add("sim.tcp_transfer_us_per_load", tcp_us, "us");
  report.add("h2.hpack_us_per_load", hpack_ns / n / 1e3, "us");
  report.add("h2.codec_us_per_load", codec_us, "us", "client + server side");

  auto per_load = [n](std::uint64_t count) {
    return static_cast<double>(count) / n;
  };
  report.add("sim.packets_per_load", per_load(packets), "count");
  report.add("sim.retransmissions_per_load", per_load(retransmissions),
             "count");
  report.add("sim.downlink_idle_frac",
             span > 0 ? static_cast<double>(idle) / static_cast<double>(span)
                      : 0.0,
             "frac");
  report.add("h2.data_frames_per_load", per_load(frames["DATA"]), "count");
  report.add("h2.headers_frames_per_load", per_load(frames["HEADERS"]),
             "count");
  report.add("h2.push_promise_frames_per_load",
             per_load(frames["PUSH_PROMISE"]), "count");
  report.add("server.pushes_cancelled_per_load", per_load(cancelled), "count");
  report.add("browser.pushed_before_request_frac",
             pushed_bytes > 0 ? static_cast<double>(pushed_before_request) /
                                    static_cast<double>(pushed_bytes)
                              : 0.0,
             "frac");
  for (const char* category : {"sim", "h2", "server", "browser"}) {
    report.add(std::string("trace.events_per_load.") + category,
               per_load(events[category]), "count");
  }
  report.add("trace.overhead_frac",
             traced_ns > 0 ? 1.0 - first_pass_ns / traced_ns : 0.0, "frac",
             "1 - traced loads/s / untraced loads/s over the same loads");
  return totals;
}

}  // namespace h2bench
