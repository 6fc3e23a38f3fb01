// H2 Connection endpoint tests: a client/server pair wired through an
// in-memory pipe — request/response flow, push promise lifecycle, push
// cancellation, SETTINGS_ENABLE_PUSH, flow control enforcement, scheduler
// interaction and the interleaving scheduler's hard switch.
#include <gtest/gtest.h>

#include "alloc_counter.h"  // WarmDataPathAllocatesNothing
#include "h2/connection.h"

namespace h2push::h2 {
namespace {

struct Pair {
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
  std::vector<std::pair<std::uint32_t, std::string>> client_bodies;
  std::map<std::uint32_t, bool> client_stream_done;
  std::vector<std::uint32_t> promises;
  std::vector<std::pair<std::uint32_t, http::HeaderBlock>> requests;
  std::string client_error, server_error;

  explicit Pair(bool enable_push = true,
                std::uint32_t client_window = kDefaultInitialWindow) {
    Connection::Config cc;
    cc.role = Role::kClient;
    cc.enable_push = enable_push;
    cc.initial_window = client_window;
    Connection::Callbacks ccb;
    ccb.on_data = [this](std::uint32_t stream,
                         std::span<const std::uint8_t> data, bool fin) {
      body(stream).append(reinterpret_cast<const char*>(data.data()),
                          data.size());
      if (fin) client_stream_done[stream] = true;
    };
    ccb.on_headers = [this](std::uint32_t stream, http::HeaderBlock,
                            bool fin) {
      if (fin) client_stream_done[stream] = true;
    };
    ccb.on_push_promise = [this](std::uint32_t, std::uint32_t promised,
                                 http::HeaderBlock) {
      promises.push_back(promised);
    };
    ccb.on_connection_error = [this](const std::string& e) {
      client_error = e;
    };
    client = std::make_unique<Connection>(cc, std::move(ccb));

    Connection::Config sc;
    sc.role = Role::kServer;
    Connection::Callbacks scb;
    scb.on_headers = [this](std::uint32_t stream, http::HeaderBlock headers,
                            bool) {
      requests.emplace_back(stream, std::move(headers));
    };
    scb.on_connection_error = [this](const std::string& e) {
      server_error = e;
    };
    server = std::make_unique<Connection>(sc, std::move(scb));
    client->start();
    server->start();
  }

  std::string& body(std::uint32_t stream) {
    for (auto& [id, b] : client_bodies) {
      if (id == stream) return b;
    }
    client_bodies.emplace_back(stream, std::string{});
    return client_bodies.back().second;
  }

  /// Shuttle bytes until both sides go quiet. `chunk` limits per-produce
  /// bytes so scheduling decisions interleave like they do over TCP.
  void pump(std::size_t chunk = 4096, int max_iters = 10000) {
    for (int i = 0; i < max_iters; ++i) {
      bool any = false;
      if (client->want_write()) {
        auto bytes = client->produce(chunk);
        if (!bytes.empty()) {
          server->receive(bytes);
          any = true;
        }
      }
      if (server->want_write()) {
        auto bytes = server->produce(chunk);
        if (!bytes.empty()) {
          client->receive(bytes);
          any = true;
        }
      }
      if (!any) return;
    }
    FAIL() << "pump did not quiesce";
  }

  std::uint32_t get(const std::string& path) {
    http::Request req;
    req.url = http::Url{"https", "test.example", 443, path};
    return client->submit_request(req.to_h2_headers());
  }

  static Body make_body(std::size_t n, char c = 'x') {
    return std::make_shared<const std::string>(std::string(n, c));
  }
};

TEST(Connection, BasicRequestResponse) {
  Pair p;
  const auto id = p.get("/index.html");
  p.pump();
  ASSERT_EQ(p.requests.size(), 1u);
  EXPECT_EQ(http::find_header(p.requests[0].second, ":path"), "/index.html");
  http::Response resp;
  resp.status = 200;
  resp.body_size = 5000;
  p.server->submit_response(id, resp.to_h2_headers(), Pair::make_body(5000));
  p.pump();
  EXPECT_EQ(p.body(id).size(), 5000u);
  EXPECT_TRUE(p.client_stream_done[id]);
  EXPECT_TRUE(p.client->stream_closed(id));
  EXPECT_TRUE(p.server->stream_closed(id));
}

TEST(Connection, EmptyBodyResponseClosesWithHeaders) {
  Pair p;
  const auto id = p.get("/empty");
  p.pump();
  http::Response resp;
  resp.status = 204;
  p.server->submit_response(id, resp.to_h2_headers(), nullptr);
  p.pump();
  EXPECT_TRUE(p.client_stream_done[id]);
  EXPECT_TRUE(p.body(id).empty());
}

TEST(Connection, MultiplexedStreamsAllComplete) {
  Pair p;
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(p.get("/r" + std::to_string(i)));
  p.pump();
  ASSERT_EQ(p.requests.size(), 20u);
  for (const auto& [stream, headers] : p.requests) {
    http::Response resp;
    resp.body_size = 2000;
    p.server->submit_response(stream, resp.to_h2_headers(),
                              Pair::make_body(2000));
  }
  p.pump();
  for (const auto id : ids) {
    EXPECT_EQ(p.body(id).size(), 2000u) << "stream " << id;
  }
}

TEST(Connection, PushPromiseDeliversEvenStream) {
  Pair p;
  const auto id = p.get("/");
  p.pump();
  http::Request push_req;
  push_req.url = http::Url{"https", "test.example", 443, "/style.css"};
  const auto promised =
      p.server->submit_push_promise(id, push_req.to_h2_headers());
  ASSERT_NE(promised, 0u);
  EXPECT_EQ(promised % 2, 0u);
  http::Response resp;
  resp.body_size = 1234;
  p.server->submit_response(promised, resp.to_h2_headers(),
                            Pair::make_body(1234));
  p.server->submit_response(id, resp.to_h2_headers(), Pair::make_body(1234));
  p.pump();
  ASSERT_EQ(p.promises.size(), 1u);
  EXPECT_EQ(p.promises[0], promised);
  EXPECT_EQ(p.body(promised).size(), 1234u);
}

TEST(Connection, EnablePushZeroBlocksPromises) {
  Pair p(/*enable_push=*/false);
  const auto id = p.get("/");
  p.pump();
  EXPECT_FALSE(p.server->push_enabled_by_peer());
  http::Request push_req;
  push_req.url = http::Url{"https", "test.example", 443, "/style.css"};
  EXPECT_EQ(p.server->submit_push_promise(id, push_req.to_h2_headers()), 0u);
}

TEST(Connection, ClientCanCancelPush) {
  Pair p;
  const auto id = p.get("/");
  p.pump();
  http::Request push_req;
  push_req.url = http::Url{"https", "test.example", 443, "/cached.css"};
  const auto promised =
      p.server->submit_push_promise(id, push_req.to_h2_headers());
  p.pump();
  p.client->submit_rst(promised, ErrorCode::kCancel);
  p.pump();
  // A late response on the cancelled stream goes nowhere.
  http::Response resp;
  resp.body_size = 999;
  p.server->submit_response(promised, resp.to_h2_headers(),
                            Pair::make_body(999));
  p.pump();
  EXPECT_TRUE(p.body(promised).empty());
  EXPECT_TRUE(p.server->stream_closed(promised));
}

TEST(Connection, PushPromiseOnClosedParentFails) {
  Pair p;
  const auto id = p.get("/");
  p.pump();
  http::Response resp;
  p.server->submit_response(id, resp.to_h2_headers(), nullptr);
  p.pump();
  http::Request push_req;
  push_req.url = http::Url{"https", "test.example", 443, "/late.css"};
  EXPECT_EQ(p.server->submit_push_promise(id, push_req.to_h2_headers()), 0u);
}

TEST(Connection, FlowControlLimitsUntilWindowUpdate) {
  // Small client window: the server cannot send more than 65535 bytes
  // before the client replenishes (which our client does automatically).
  Pair p;
  const auto id = p.get("/big");
  p.pump();
  http::Response resp;
  resp.body_size = 500000;
  p.server->submit_response(id, resp.to_h2_headers(),
                            Pair::make_body(500000));
  p.pump();
  EXPECT_EQ(p.body(id).size(), 500000u);  // window updates kept it flowing
  EXPECT_TRUE(p.client_error.empty()) << p.client_error;
  EXPECT_TRUE(p.server_error.empty()) << p.server_error;
}

TEST(Connection, ProducedDataRespectsConnectionWindow) {
  Pair p;
  const auto id = p.get("/big");
  p.pump();
  http::Response resp;
  resp.body_size = 200000;
  p.server->submit_response(id, resp.to_h2_headers(),
                            Pair::make_body(200000));
  // Produce without delivering ACK-side window updates: the server must
  // stop at the default 65535-byte connection window.
  std::size_t produced_data = 0;
  while (p.server->want_write()) {
    auto bytes = p.server->produce(100000);
    if (bytes.empty()) break;
    produced_data += bytes.size();
  }
  EXPECT_LE(p.server->total_data_sent(), 65535u);
  EXPECT_GE(p.server->total_data_sent(), 65535u - kDefaultMaxFrameSize);
}

TEST(Connection, DataBytesSentTracksPerStream) {
  Pair p;
  const auto a = p.get("/a");
  const auto b = p.get("/b");
  p.pump();
  http::Response resp;
  p.server->submit_response(a, resp.to_h2_headers(), Pair::make_body(1000));
  p.server->submit_response(b, resp.to_h2_headers(), Pair::make_body(3000));
  p.pump();
  EXPECT_EQ(p.body(a).size(), 1000u);
  EXPECT_EQ(p.body(b).size(), 3000u);
  EXPECT_EQ(p.server->total_data_sent(), 4000u);
}

TEST(Connection, InterleavingSchedulerHardSwitch) {
  // The paper's Fig. 5a, at the connection level: parent HTML pauses at the
  // offset, the critical push drains completely, the parent resumes.
  Pair p;
  const auto id = p.get("/");
  p.pump();
  http::Request push_req;
  push_req.url = http::Url{"https", "test.example", 443, "/critical.css"};
  const auto promised =
      p.server->submit_push_promise(id, push_req.to_h2_headers());
  http::Response resp;
  p.server->submit_response(promised, resp.to_h2_headers(),
                            Pair::make_body(8000, 'c'));
  p.server->submit_response(id, resp.to_h2_headers(),
                            Pair::make_body(50000, 'h'));
  p.server->scheduler().configure(id, 4096, {promised});

  // Drive the server byte by byte and track arrival order at the client.
  std::string arrival_tags;
  std::size_t html_before_css_done = 0;
  bool css_done = false;
  while (p.server->want_write()) {
    auto bytes = p.server->produce(2048);
    if (bytes.empty()) break;
    p.client->receive(bytes);
    if (!css_done) html_before_css_done = p.body(id).size();
    if (p.body(promised).size() == 8000u) css_done = true;
    // Let window updates flow back.
    while (p.client->want_write()) {
      auto back = p.client->produce(4096);
      if (back.empty()) break;
      p.server->receive(back);
    }
  }
  EXPECT_EQ(p.body(id).size(), 50000u);
  EXPECT_EQ(p.body(promised).size(), 8000u);
  // The parent stopped at the offset until the pushed stream finished.
  EXPECT_LE(html_before_css_done, 4096u);
  EXPECT_GT(html_before_css_done, 0u);
}

TEST(Connection, PingIsAcked) {
  Pair p;
  p.pump();
  p.client->receive(serialize(Frame{PingFrame{false, 77}}));
  auto bytes = p.client->produce(1024);
  // Find a PING ack in the output.
  FrameParser parser;
  auto frames = parser.feed(bytes);
  ASSERT_TRUE(frames.has_value());
  bool found = false;
  for (const auto& f : *frames) {
    if (const auto* ping = std::get_if<PingFrame>(&f)) {
      if (ping->ack && ping->opaque == 77) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Connection, GarbageInputRaisesConnectionError) {
  Pair p;
  p.pump();
  std::vector<std::uint8_t> garbage{0xff, 0xff, 0xff, 0x01, 0x00,
                                    0x00, 0x00, 0x00, 0x01};
  p.server->receive(garbage);
  EXPECT_FALSE(p.server->last_error().empty());
}

// --- produce_into: one emitter, two cap policies ---
//
// The simulator's TCP sides drain the server under the soft cap, the live
// daemon's socket transport under the hard cap (util/pump.h; the sink picks
// the policy). These regression tests pin down that (a) produce() is
// bit-exact unchanged, (b) the hard cap never exceeds its byte budget,
// (c) the soft cap overshoots by at most one control chunk or one DATA
// frame, and (d) a connection drained through arbitrarily small budgets,
// under either policy, still delivers exactly the same bodies.

namespace {
/// A body whose bytes depend on their offset, so a misplaced slice shows.
std::string patterned(std::size_t n) {
  std::string body(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    body[i] = static_cast<char>('a' + i % 26);
  }
  return body;
}

/// Drive one request/response exchange, draining the server through
/// `produce` when cap == 0, through produce_into(cap, policy) otherwise;
/// returns the server's full wire byte stream.
std::vector<std::uint8_t> drain_server_wire(
    std::size_t body_size, std::size_t cap,
    util::WriteCap policy = util::WriteCap::kHard) {
  Pair p;
  const auto id = p.get("/bytes");
  p.pump();
  http::Response resp;
  resp.status = 200;
  resp.body_size = body_size;
  p.server->submit_response(
      id, resp.to_h2_headers(),
      std::make_shared<const std::string>(patterned(body_size)));
  constexpr std::size_t kUnbounded = std::size_t{1} << 22;
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 100000 && p.server->want_write(); ++i) {
    if (cap == 0) {
      const auto bytes = p.server->produce(kUnbounded);
      wire.insert(wire.end(), bytes.begin(), bytes.end());
    } else {
      const std::size_t before = wire.size();
      const std::size_t n = p.server->produce_into(wire, cap, policy);
      EXPECT_EQ(n, wire.size() - before);
      if (policy == util::WriteCap::kHard) {
        EXPECT_LE(n, cap) << "budget exceeded";
      } else {
        // Emission stops once the budget is reached, so only the last
        // control chunk or DATA frame (9 + peer max frame size; the
        // control chunks here are smaller) can cross it.
        EXPECT_LT(n, cap + kFrameHeaderSize + kDefaultMaxFrameSize)
            << "soft cap overshot by more than one frame";
      }
      if (n == 0) break;  // budget below one DATA header: caller retries
    }
  }
  p.client->receive(wire);
  EXPECT_EQ(p.body(id), patterned(body_size));
  return wire;
}

/// The DATA payload bytes of a server wire stream, frame boundaries
/// dropped: what the client's stream delivers.
std::string data_payload(const std::vector<std::uint8_t>& wire) {
  FrameParser parser;
  const auto frames = parser.feed(wire);
  EXPECT_TRUE(frames.has_value());
  std::string out;
  if (!frames) return out;
  for (const auto& frame : *frames) {
    if (const auto* data = std::get_if<DataFrame>(&frame)) {
      out.append(data->data.begin(), data->data.end());
    }
  }
  return out;
}
}  // namespace

TEST(Connection, ProduceIntoUnboundedMatchesProduceExactly) {
  const auto via_produce = drain_server_wire(50000, 0);
  const auto via_produce_into = drain_server_wire(50000, SIZE_MAX);
  EXPECT_EQ(via_produce, via_produce_into);
}

TEST(Connection, ProduceIntoNeverExceedsSmallBudgets) {
  // Budgets barely above the 9-byte frame header (1-byte DATA payloads)
  // through comfortable ones; every drain stays within its cap.
  for (const std::size_t cap : {10u, 64u, 100u, 1000u}) {
    const auto wire = drain_server_wire(20000, cap);
    EXPECT_FALSE(wire.empty());
  }
}

TEST(Connection, ProduceIntoBudgetBelowFrameHeaderSplitsControlThenStalls) {
  Pair p;
  const auto id = p.get("/tiny");
  p.pump();
  http::Response resp;
  resp.status = 200;
  resp.body_size = 5000;
  p.server->submit_response(id, resp.to_h2_headers(),
                            Pair::make_body(5000));
  // 3-byte budget: response HEADERS drains in 3-byte slices; DATA cannot
  // fit so produce_into reports 0 with bytes still owed.
  std::vector<std::uint8_t> wire;
  std::size_t n;
  do {
    const std::size_t before = wire.size();
    n = p.server->produce_into(wire, 3);
    EXPECT_LE(wire.size() - before, 3u);
  } while (n > 0);
  EXPECT_TRUE(p.server->want_write());  // stalled, not done
  // A real-sized budget finishes the job; the client sees a valid stream.
  while (p.server->want_write()) p.server->produce_into(wire, 4096);
  p.client->receive(wire);
  EXPECT_EQ(p.body(id).size(), 5000u);
}

TEST(Connection, ProduceIntoDeliversSameBodyAcrossChunkings) {
  // The wire stream differs across budgets (DATA framing), but the byte
  // content of the response must not.
  const auto a = drain_server_wire(30000, 17);
  const auto b = drain_server_wire(30000, 4096);
  // Frame-agnostic comparison already asserted inside drain_server_wire
  // (client body == expected). Additionally the tiny-budget stream can
  // only be larger (more frame headers), never smaller.
  EXPECT_GE(a.size(), b.size());
}

TEST(Connection, SoftCapOvershootsByAtMostOneFrame) {
  // The simulator's chunk (two MSS, the TCP watermark). Every call's bound
  // is asserted inside drain_server_wire; whole 16 KB frames make the soft
  // wire smaller than the hard one, whose frames fit the 2 920 bytes.
  constexpr std::size_t kSimChunk = 2 * 1460;
  const auto soft = drain_server_wire(50000, kSimChunk, util::WriteCap::kSoft);
  const auto hard = drain_server_wire(50000, kSimChunk, util::WriteCap::kHard);
  EXPECT_LT(soft.size(), hard.size());
  // produce() is the soft cap into a fresh vector.
  EXPECT_EQ(drain_server_wire(50000, std::size_t{1} << 22,
                              util::WriteCap::kSoft),
            drain_server_wire(50000, 0));
}

TEST(Connection, SoftCapDeliversSameBodyAsHardCap) {
  for (const std::size_t cap : {17u, 2920u, 100000u}) {
    const auto soft = drain_server_wire(30000, cap, util::WriteCap::kSoft);
    const auto hard = drain_server_wire(30000, cap, util::WriteCap::kHard);
    EXPECT_EQ(data_payload(soft), data_payload(hard)) << "cap " << cap;
    EXPECT_EQ(data_payload(soft), patterned(30000));
  }
}

// --- produce_into through a util::WireOut: DATA payloads by reference ---

namespace {
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Three responses of different sizes queued on one server, as a page's
/// objects are, so the scheduler interleaves their DATA frames (all
/// within the default flow-control windows).
struct ThreeResponses {
  Pair p;
  std::vector<std::pair<std::uint32_t, std::size_t>> streams;

  ThreeResponses() {
    const std::pair<const char*, std::size_t> objects[] = {
        {"/a", 30000}, {"/b", 1234}, {"/c", 20000}};
    for (const auto& [path, size] : objects) {
      streams.emplace_back(p.get(path), size);
    }
    p.pump();
    for (const auto& [id, size] : streams) {
      http::Response resp;
      resp.status = 200;
      resp.body_size = size;
      p.server->submit_response(
          id, resp.to_h2_headers(),
          std::make_shared<const std::string>(patterned(size)));
    }
  }

  /// Feed the server's `wire` to the client; every body must arrive.
  void expect_bodies(std::span<const std::uint8_t> wire) {
    p.client->receive(wire);
    for (const auto& [id, size] : streams) {
      EXPECT_EQ(p.body(id), patterned(size)) << "stream " << id;
    }
  }
};

/// The server's whole wire under produce_into(vector, cap, policy).
std::vector<std::uint8_t> vector_wire(std::size_t cap,
                                      util::WriteCap policy) {
  ThreeResponses r;
  std::vector<std::uint8_t> wire;
  while (r.p.server->want_write() &&
         r.p.server->produce_into(wire, cap, policy) > 0) {
  }
  EXPECT_FALSE(r.p.server->want_write());
  r.expect_bodies(wire);
  return wire;
}

struct OwnedBytes {
  std::vector<std::uint8_t> owned_bytes;
};

/// A sink that keeps body bytes by reference, as the simulator's TCP send
/// buffer does, each run pinned to its body.
class ReferencingOut final : private OwnedBytes, public util::WireOut {
 public:
  ReferencingOut() : util::WireOut(owned_bytes) {}

  /// The byte stream: the owned bytes with every kept run spliced in
  /// where it was appended.
  std::vector<std::uint8_t> stream() const {
    std::vector<std::uint8_t> out;
    std::size_t from = 0;
    for (const Run& run : runs_) {
      out.insert(out.end(), owned_bytes.begin() + from,
                 owned_bytes.begin() + run.at);
      out.insert(out.end(), run.bytes.begin(), run.bytes.end());
      from = run.at;
    }
    out.insert(out.end(), owned_bytes.begin() + from,
               owned_bytes.end());
    return out;
  }

 private:
  struct Run {
    std::ptrdiff_t at;  // owned bytes appended before it
    std::span<const std::uint8_t> bytes;
    util::Pin pin;
  };
  bool keep(std::span<const std::uint8_t> bytes, util::Pin&& pin) override {
    runs_.push_back(
        {static_cast<std::ptrdiff_t>(owned_bytes.size()), bytes,
         std::move(pin)});
    return true;
  }
  std::vector<Run> runs_;
};
}  // namespace

// The vector overload copies every payload into the vector, so its wire is
// byte for byte the one the copying emitter wrote before payloads could
// travel by reference: these digests were recorded from it, for the
// simulator's soft cap, a live socket's hard cap and produce().
TEST(Connection, VectorSinkWireIsUnchanged) {
  EXPECT_EQ(fnv1a(vector_wire(2 * 1460, util::WriteCap::kSoft)),
            0x903e349df38b7966ULL);
  EXPECT_EQ(fnv1a(vector_wire(1000, util::WriteCap::kHard)),
            0xc6b11b05806f314bULL);
  // Whole 16 KB frames either way: the soft cap's stream is produce()'s.
  ThreeResponses r;
  const auto whole = r.p.server->produce(std::size_t{1} << 22);
  r.expect_bodies(whole);
  EXPECT_EQ(fnv1a(whole), 0x903e349df38b7966ULL);
}

// Through a sink that keeps references, the same calls emit the same
// stream and report the same counts, but only frame headers and control
// frames are owned: every DATA payload is a run kept by reference.
TEST(Connection, ReferencingSinkEmitsTheSameStream) {
  for (const auto& [cap, policy] :
       {std::pair{std::size_t{2 * 1460}, util::WriteCap::kSoft},
        std::pair{std::size_t{1000}, util::WriteCap::kHard}}) {
    ThreeResponses r;
    ReferencingOut out;
    std::size_t appended = 0;
    while (r.p.server->want_write()) {
      const std::size_t n = r.p.server->produce_into(out, cap, policy);
      if (n == 0) break;
      appended += n;
    }
    const auto stream = out.stream();
    EXPECT_EQ(appended, stream.size());
    EXPECT_EQ(stream, vector_wire(cap, policy));
    EXPECT_LT(out.owned().size() * 20, stream.size());
    r.expect_bodies(stream);
  }
}

TEST(Connection, ProduceIntoInterleavedWithReceiveStaysConsistent) {
  // Alternate small produce_into drains with client receive/acks so flow
  // control windows refill mid-drain; invariants must hold throughout.
  Pair p;
  const auto id = p.get("/big");
  p.pump();
  http::Response resp;
  resp.status = 200;
  resp.body_size = 200000;
  p.server->submit_response(id, resp.to_h2_headers(),
                            Pair::make_body(200000, 'z'));
  for (int i = 0; i < 100000 && !p.client_stream_done[id]; ++i) {
    std::vector<std::uint8_t> chunk;
    p.server->produce_into(chunk, 1500);  // ~MTU-sized drains
    if (!chunk.empty()) p.client->receive(chunk);
    ASSERT_EQ(std::nullopt, p.server->check_invariants());
    if (p.client->want_write()) {
      const auto acks = p.client->produce(1 << 20);
      if (!acks.empty()) p.server->receive(acks);
    }
  }
  EXPECT_EQ(p.body(id).size(), 200000u);
  EXPECT_TRUE(p.server->stream_closed(id));
}

TEST(Connection, SubmitGoawayLetsStreamsFinish) {
  Pair p;
  const auto id = p.get("/drain");
  p.pump();
  http::Response resp;
  resp.status = 200;
  resp.body_size = 40000;
  p.server->submit_response(id, resp.to_h2_headers(),
                            Pair::make_body(40000));
  p.server->submit_goaway();
  EXPECT_FALSE(p.server->send_quiescent());  // body still pending
  p.pump();
  EXPECT_TRUE(p.client_stream_done[id]);
  EXPECT_EQ(p.body(id).size(), 40000u);
  EXPECT_TRUE(p.server->send_quiescent());
  EXPECT_TRUE(p.client_error.empty());  // graceful GOAWAY, not an error
}

TEST(Connection, BadPrefaceIsRejected) {
  Connection::Config sc;
  sc.role = Role::kServer;
  std::string error;
  Connection::Callbacks scb;
  scb.on_connection_error = [&error](const std::string& e) { error = e; };
  Connection server(sc, std::move(scb));
  server.start();
  const std::string bad = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  server.receive({reinterpret_cast<const std::uint8_t*>(bad.data()),
                  bad.size()});
  EXPECT_EQ(error, "bad client preface");
}

// Stream ids are never reused (RFC 7540 §5.1.1), so a closed stream needs
// no entry: both ends retire each stream once it closes or is reset, and a
// connection serving one exchange at a time holds at most one stream
// however many it has served. The second half is the Rapid Reset pattern
// (CVE-2023-44487): HEADERS then RST_STREAM, over and over.
TEST(Connection, ClosedStreamsLeaveTheTable) {
  constexpr std::size_t kExchanges = 100000;
  constexpr std::size_t kConcurrent = 1;
  std::size_t responses = 0;
  Connection::Config cc;
  cc.role = Role::kClient;
  Connection::Callbacks ccb;
  ccb.on_data = [&](std::uint32_t, std::span<const std::uint8_t>, bool fin) {
    responses += fin ? 1 : 0;
  };
  Connection client(cc, std::move(ccb));
  std::uint32_t last_request = 0;
  std::size_t resets = 0;
  Connection::Config sc;
  sc.role = Role::kServer;
  Connection::Callbacks scb;
  scb.on_headers = [&](std::uint32_t stream, const http::HeaderBlock&,
                       bool) { last_request = stream; };
  scb.on_rst = [&](std::uint32_t, ErrorCode) { ++resets; };
  Connection server(sc, std::move(scb));
  client.start();
  server.start();

  std::vector<std::uint8_t> wire;
  const auto shuttle = [&] {
    for (bool moved = true; moved;) {
      moved = false;
      for (auto [from, to] : {std::pair{&client, &server},
                              std::pair{&server, &client}}) {
        wire.clear();
        from->produce_into(wire, 1 << 16, util::WriteCap::kSoft);
        if (!wire.empty()) to->receive(wire);
        moved = moved || !wire.empty();
      }
    }
  };
  const auto check = [&](std::size_t i) {
    ASSERT_LE(client.stream_count(), kConcurrent) << "after exchange " << i;
    ASSERT_LE(server.stream_count(), kConcurrent) << "after exchange " << i;
    ASSERT_EQ(client.check_invariants(), std::nullopt);
    ASSERT_EQ(server.check_invariants(), std::nullopt);
  };
  http::Request request;
  request.url = http::Url{"https", "test.example", 443, "/r"};
  const http::HeaderBlock request_headers = request.to_h2_headers();
  const http::HeaderBlock response_headers = http::Response{}.to_h2_headers();
  const Body body = Pair::make_body(100);
  shuttle();

  for (std::size_t i = 0; i < kExchanges; ++i) {
    const std::uint32_t id = client.submit_request(request_headers);
    shuttle();
    ASSERT_EQ(last_request, id);
    server.submit_response(id, response_headers, body);
    shuttle();
    ASSERT_NO_FATAL_FAILURE(check(i));
  }
  EXPECT_EQ(responses, kExchanges);

  for (std::size_t i = 0; i < kExchanges; ++i) {
    const std::uint32_t id = client.submit_request(request_headers);
    client.submit_rst(id, ErrorCode::kCancel);
    shuttle();
    ASSERT_EQ(last_request, id);
    ASSERT_NO_FATAL_FAILURE(check(kExchanges + i));
  }
  EXPECT_EQ(resets, kExchanges);
  EXPECT_EQ(client.stream_count(), 0u);
  EXPECT_EQ(server.stream_count(), 0u);
  EXPECT_TRUE(client.last_error().empty()) << client.last_error();
  EXPECT_TRUE(server.last_error().empty()) << server.last_error();
}

// A PRIORITY frame may name any id (RFC 7540 §5.3.4), and each new one
// used to leave a node in the server's dependency tree for good: a million
// of them grew a server connection by about 100 MB. Idle nodes are capped,
// so the tree ends at the cap plus the live streams, which keep their place.
TEST(Connection, PriorityFramesOnIdleIdsStayBounded) {
  Connection::Config cc;
  cc.role = Role::kClient;
  Connection client(cc, {});
  Connection::Config sc;
  sc.role = Role::kServer;
  Connection server(sc, {});
  client.start();
  server.start();
  std::vector<std::uint8_t> wire;
  const auto shuttle = [&] {
    for (bool moved = true; moved;) {
      moved = false;
      for (auto [from, to] : {std::pair{&client, &server},
                              std::pair{&server, &client}}) {
        wire.clear();
        from->produce_into(wire, 1 << 20, util::WriteCap::kSoft);
        if (!wire.empty()) to->receive(wire);
        moved = moved || !wire.empty();
      }
    }
  };
  http::Request request;
  request.url = http::Url{"https", "test.example", 443, "/r"};
  const std::uint32_t a = client.submit_request(request.to_h2_headers());
  const std::uint32_t b =
      client.submit_request(request.to_h2_headers(), PrioritySpec{a, 64, true});
  shuttle();
  ASSERT_EQ(server.stream_count(), 2u);

  constexpr std::uint32_t kFrames = 1000000;
  constexpr std::uint32_t kBatch = 10000;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    const std::uint32_t id = 101 + 2 * i;
    // Some name an unknown parent too, some a live stream.
    const std::uint32_t parent = i % 3 == 0 ? id + 2 : (i % 3 == 1 ? a : 0);
    client.submit_priority(id, PrioritySpec{parent, 16, false});
    if ((i + 1) % kBatch == 0) {
      shuttle();
      ASSERT_LE(server.scheduler().tree().size(),
                1 + PriorityTree::kMaxIdleNodes + server.stream_count());
    }
  }
  const PriorityTree& tree = server.scheduler().tree();
  EXPECT_EQ(tree.idle_count(), PriorityTree::kMaxIdleNodes);
  EXPECT_EQ(tree.size(), 1 + PriorityTree::kMaxIdleNodes + 2);
  EXPECT_EQ(tree.parent_of(b), a);
  EXPECT_TRUE(server.last_error().empty()) << server.last_error();
  EXPECT_EQ(server.check_invariants(), std::nullopt);
}

// Once warm, moving DATA costs no heap work per frame on either side: the
// server appends frames straight into the caller's reused buffer, and the
// client parses them where they lie, DATA by view, reassembling frames split
// across TCP-sized chunks in a reused parser buffer. The client's
// WINDOW_UPDATEs travel back through the same reused control queue.
TEST(Connection, WarmDataPathAllocatesNothing) {
  std::uint64_t received = 0;
  bool done = false;
  Connection::Config cc;
  cc.role = Role::kClient;
  Connection::Callbacks ccb;
  ccb.on_data = [&](std::uint32_t, std::span<const std::uint8_t> data,
                    bool fin) {
    received += data.size();
    done = done || fin;
  };
  Connection client(cc, std::move(ccb));
  Connection::Config sc;
  sc.role = Role::kServer;
  std::vector<std::uint32_t> requests;
  Connection::Callbacks scb;
  scb.on_headers = [&](std::uint32_t stream, const http::HeaderBlock&,
                       bool) { requests.push_back(stream); };
  Connection server(sc, std::move(scb));
  client.start();
  server.start();

  std::vector<std::uint8_t> to_server;
  std::vector<std::uint8_t> to_client;
  // One round: the client's bytes up, then up to `budget` server bytes
  // down, delivered in 1460-byte pieces like TCP segments.
  const auto round = [&](std::size_t budget) {
    to_server.clear();
    client.produce_into(to_server, 1 << 20, util::WriteCap::kSoft);
    if (!to_server.empty()) server.receive(to_server);
    to_client.clear();
    server.produce_into(to_client, budget, util::WriteCap::kSoft);
    for (std::size_t at = 0; at < to_client.size(); at += 1460) {
      client.receive(std::span<const std::uint8_t>(to_client).subspan(
          at, std::min<std::size_t>(1460, to_client.size() - at)));
    }
  };

  constexpr std::size_t kBody = 8 << 20;
  http::Request request;
  request.url = http::Url{"https", "test.example", 443, "/big"};
  const std::uint32_t id = client.submit_request(request.to_h2_headers());
  round(64 * 1024);
  ASSERT_EQ(requests, std::vector<std::uint32_t>{id});
  http::Response response;
  response.body_size = kBody;
  server.submit_response(id, response.to_h2_headers(),
                         std::make_shared<const std::string>(kBody, 'b'));
  while (received < kBody / 8) round(64 * 1024);  // warm up

  const std::size_t frames_before = received / kDefaultMaxFrameSize;
  const std::size_t before = test_allocation_count();
  while (received < kBody / 2) round(64 * 1024);
  const std::size_t allocations = test_allocation_count() - before;
  EXPECT_EQ(allocations, 0u) << "over "
                             << received / kDefaultMaxFrameSize - frames_before
                             << " DATA frames";
  while (!done) round(64 * 1024);
  EXPECT_EQ(received, kBody);
  EXPECT_TRUE(client.last_error().empty()) << client.last_error();
  EXPECT_TRUE(server.last_error().empty()) << server.last_error();
}

}  // namespace
}  // namespace h2push::h2
