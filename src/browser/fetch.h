// Resource fetching: H2 connection pool with coalescing and push adoption.
//
// One H2 connection per coalescing group (browsers use a single connection
// per origin group). Fetches are deduplicated by URL — the preload scanner
// and the DOM parser both "request" resources; the second caller subscribes
// to the in-flight transfer. PUSH_PROMISEs create pushed fetches keyed by
// URL: when the renderer later asks for that URL it adopts the pushed
// stream (including data already buffered). A promise for a URL already
// requested, or for a cached URL, is cancelled with RST_STREAM(CANCEL) —
// though, as the paper notes (§2.1), the pushed bytes may already be in
// flight by then and still cost bandwidth.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <deque>

#include "browser/config.h"
#include "browser/priorities.h"
#include "h2/connection.h"
#include "http1/connection.h"
#include "http/message.h"
#include "replay/origin.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/wire.h"

namespace h2push::browser {

/// Transport endpoint provided by the testbed (a TCP connection to the
/// right replay server).
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;
  virtual void connect(std::function<void()> on_connected) = 0;
  virtual void send(std::span<const std::uint8_t> bytes) = 0;
  virtual bool writable() const = 0;
  /// Preferred write granularity (the TCP watermark).
  virtual std::size_t write_chunk() const = 0;
  /// Received bytes, a run at a time (borrowed runs lie in a pinned
  /// response body, util/wire.h).
  virtual void set_receiver(
      std::function<void(util::WireBytes)> receiver) = 0;
  virtual void set_writable_callback(std::function<void()> cb) = 0;
  virtual sim::Time connect_end_time() const = 0;
};

using TransportFactory =
    std::function<std::unique_ptr<ClientTransport>(const std::string& host)>;

/// One resource transfer (shared by all interested parties).
class Fetch {
 public:
  struct Subscriber {
    /// Streaming data; a new subscriber first receives the text kept so
    /// far (see body()).
    std::function<void(std::span<const std::uint8_t>, bool fin)> on_data;
    std::function<void(const Fetch&)> on_complete;
  };

  const http::Url& url() const noexcept { return url_; }
  /// url().str(), built once when the fetch is created: its key.
  const std::string& key() const noexcept { return key_; }
  NetPriority priority() const noexcept { return priority_; }
  bool complete() const noexcept { return complete_; }
  bool pushed() const noexcept { return pushed_; }
  bool adopted() const noexcept { return adopted_; }
  bool from_cache() const noexcept { return from_cache_; }
  int status() const noexcept { return status_; }
  /// Body bytes received so far, of any type.
  std::size_t received_bytes() const noexcept { return received_; }
  /// The received body text, kept only for HTML and CSS — the only types
  /// anything parses. Other bodies are counted, not stored: empty here.
  const std::string& body() const noexcept { return body_; }
  /// content-length from the response headers (0 if unknown yet).
  std::size_t expected_size() const noexcept { return expected_size_; }
  http::ResourceType type() const noexcept { return type_; }
  sim::Time initiated_at() const noexcept { return t_initiated_; }
  sim::Time headers_at() const noexcept { return t_headers_; }
  sim::Time completed_at() const noexcept { return t_complete_; }
  /// Async-span id in the trace (0 when tracing is disabled).
  std::uint64_t trace_id() const noexcept { return trace_id_; }

  void subscribe(Subscriber subscriber);

 private:
  friend class FetchManager;

  http::Url url_;
  std::string key_;
  NetPriority priority_ = NetPriority::kLowest;
  bool complete_ = false;
  bool pushed_ = false;
  bool adopted_ = false;  // some consumer actually wants this resource
  bool from_cache_ = false;
  int status_ = 0;
  http::ResourceType type_ = http::ResourceType::kOther;
  std::size_t expected_size_ = 0;
  std::size_t received_ = 0;
  std::string body_;  // text types only
  sim::Time t_initiated_ = -1;
  sim::Time t_headers_ = -1;
  sim::Time t_complete_ = -1;
  std::vector<Subscriber> subscribers_;
  // Pushed streams: where the promise lives, so adoption can reprioritize.
  std::size_t group_id_ = 0;
  std::uint32_t stream_id_ = 0;
  std::uint64_t trace_id_ = 0;  // async-span id (fetch index, 1-based)
};

class FetchManager {
 public:
  FetchManager(sim::Simulator& sim, const BrowserConfig& config,
               const replay::OriginMap& origins, std::string primary_host,
               TransportFactory factory);

  /// Request a resource (deduplicated by URL). Returns the shared transfer.
  std::shared_ptr<Fetch> fetch(const http::Url& url, NetPriority priority);

  /// Adopted fetches still in flight.
  std::size_t outstanding() const;
  /// Invoked whenever outstanding() may have dropped to zero.
  void set_progress_callback(std::function<void()> cb) {
    progress_ = std::move(cb);
  }

  /// connectEnd of the primary-origin connection (the PLT reference).
  sim::Time main_connect_end() const;

  std::uint64_t pushed_bytes() const noexcept { return pushed_bytes_; }
  std::uint64_t total_body_bytes() const noexcept { return total_bytes_; }
  std::size_t pushes_cancelled() const noexcept { return pushes_cancelled_; }
  /// Bytes the H2 connections' frame parsers copied to reassemble frames
  /// (h2::Connection::parser_copied_bytes).
  std::uint64_t parser_copied_bytes() const;

  /// All fetches in initiation order (dependency analysis reads this).
  const std::vector<std::shared_ptr<Fetch>>& fetches() const noexcept {
    return fetches_;
  }

 private:
  struct H1Conn {
    std::unique_ptr<ClientTransport> transport;
    std::unique_ptr<http1::ClientConnection> conn;
    std::shared_ptr<Fetch> current;
    bool connected = false;
  };

  struct Group {
    std::size_t id = 0;
    std::string first_host;
    std::unique_ptr<ClientTransport> transport;
    std::unique_ptr<h2::Connection> conn;
    ChromiumPrioritizer prioritizer;
    bool connected = false;
    std::vector<std::shared_ptr<Fetch>> waiting;
    std::map<std::uint32_t, std::shared_ptr<Fetch>> by_stream;
    // --- HTTP/1.1 mode ---
    std::vector<std::unique_ptr<H1Conn>> h1_conns;
    std::deque<std::shared_ptr<Fetch>> h1_queue;
  };

  Group& group_for(const std::string& host);
  void pump(Group& g);
  void submit(Group& g, const std::shared_ptr<Fetch>& fetch);
  void handle_response_headers(const std::shared_ptr<Fetch>& fetch,
                               const http::HeaderBlock& headers, int status);
  void h1_dispatch(Group& g);
  void h1_pump(H1Conn& c);
  http::Request request_for(const Fetch& fetch) const;
  /// request_for(fetch) as an H2 header block, in one block reused across
  /// requests.
  const http::HeaderBlock& h2_request_headers(const Fetch& fetch);
  /// Body bytes arrived for `fetch`: count them, keep text, and stream
  /// them to the subscribers.
  void deliver(Fetch& fetch, std::span<const std::uint8_t> data, bool fin);
  void on_fetch_complete(const std::shared_ptr<Fetch>& fetch);
  void trace_fetch_begin(Fetch& fetch);
  bool should_delay(const Fetch& fetch) const;
  void release_delayed();

  sim::Simulator& sim_;
  const BrowserConfig& config_;
  const replay::OriginMap& origins_;
  std::string primary_host_;
  TransportFactory factory_;
  std::map<std::string, std::size_t> host_group_;
  std::map<std::size_t, std::unique_ptr<Group>> groups_;
  /// Keyed by Fetch::key(), which the fetch in the entry owns.
  std::map<std::string_view, std::shared_ptr<Fetch>, std::less<>> by_url_;
  std::vector<std::shared_ptr<Fetch>> fetches_;
  std::vector<std::shared_ptr<Fetch>> delayed_;  // throttled image requests
  std::function<void()> progress_;
  std::uint64_t pushed_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::size_t pushes_cancelled_ = 0;
  /// Produce buffer reused by every connection's pump (util/pump.h).
  std::vector<std::uint8_t> staging_;
  http::HeaderBlock h2_request_;  // see h2_request_headers()
};

}  // namespace h2push::browser
