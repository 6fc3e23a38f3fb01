// Byte pump tests (util/pump.h): fake sinks drive the one loop that moves
// bytes from an HTTP endpoint to a transport — it stops at a zero budget,
// returns instead of spinning when bytes are owed but none fit, and a sink
// whose commit re-enters the pump (as sim::TcpConnection's writability
// signal does) while the source appends in place into its send buffer
// yields the same byte stream as one that does not.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "h2/connection.h"
#include "http1/connection.h"
#include "util/pump.h"

namespace h2push::util {
namespace {

std::string patterned(std::size_t n, char base) {
  std::string body(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    body[i] = static_cast<char>(base + i % 23);
  }
  return body;
}

/// Wraps a source: counts produce calls and, past `limit`, reports nothing
/// to write so a pump that would spin ends and the test can fail it.
template <class Source>
struct CountingSource {
  Source& source;
  std::size_t limit = 10000;
  std::size_t calls = 0;

  bool want_write() const { return calls < limit && source.want_write(); }
  std::size_t produce_into(WireOut& out, std::size_t max_bytes,
                           WriteCap cap) {
    ++calls;
    return source.produce_into(out, max_bytes, cap);
  }
};

/// Takes `total` bytes, at most `chunk` per turn, under cap policy `Cap`,
/// through a staging buffer it copies out of on commit.
template <WriteCap Cap>
struct BudgetSink {
  static constexpr WriteCap kCap = Cap;
  std::size_t total = 0;
  std::size_t chunk = 0;
  std::vector<std::uint8_t> staging{};
  WireOut out{staging};
  std::string wire{};
  std::size_t budget_calls = 0;

  std::size_t budget() {
    ++budget_calls;
    const std::size_t left = total > wire.size() ? total - wire.size() : 0;
    return std::min(chunk, left);
  }
  WireOut& buffer() {
    staging.clear();
    return out;
  }
  void commit(std::size_t appended) {
    EXPECT_EQ(appended, staging.size());
    wire.append(staging.begin(), staging.end());
  }
};

/// A server H2 endpoint with three responses of different sizes queued,
/// plus the client whose requests opened them.
struct H2Fixture {
  h2::Connection client{{.role = h2::Role::kClient}, {}};
  h2::Connection server{{.role = h2::Role::kServer}, {}};
  std::vector<std::uint32_t> streams;

  H2Fixture() {
    client.start();
    server.start();
    for (const char* path : {"/a", "/b", "/c"}) {
      http::Request req;
      req.url = http::Url{"https", "pump.test", 443, path};
      streams.push_back(client.submit_request(req.to_h2_headers()));
    }
    server.receive(client.produce(1 << 20));
    client.receive(server.produce(1 << 20));  // SETTINGS + ACK
    server.receive(client.produce(1 << 20));  // client's ACK
    std::size_t size = 12000;  // 57 000 bytes in all: inside the windows
    for (const auto id : streams) {
      http::Response resp;
      resp.status = 200;
      resp.body_size = size;
      server.submit_response(id, resp.to_h2_headers(),
                             std::make_shared<const std::string>(patterned(
                                 size, static_cast<char>('a' + id))));
      size += 7000;
    }
  }
};

TEST(Pump, StopsAtZeroBudget) {
  http1::ServerConnection server({});
  http::Response head;
  head.status = 200;
  head.body_size = 10000;
  server.submit_response(head, patterned(10000, 'a'));
  BudgetSink<WriteCap::kHard> sink{.total = 4000, .chunk = 1500};
  CountingSource<http1::ServerConnection> source{server};
  pump(source, sink);
  EXPECT_EQ(sink.wire.size(), 4000u);  // 1500 + 1500 + 1000, then 0
  EXPECT_EQ(source.calls, 3u);         // no produce call at zero budget
  EXPECT_EQ(sink.budget_calls, 4u);
  EXPECT_TRUE(server.want_write());    // bytes still owed
  // The next pump resumes exactly where this one stopped.
  sink.total = SIZE_MAX;
  pump(source, sink);
  EXPECT_FALSE(server.want_write());
  const std::string expected =
      http1::serialize_response_head(head) + patterned(10000, 'a');
  EXPECT_EQ(sink.wire, expected);
}

TEST(Pump, ReturnsWhenOwedBytesDoNotFit) {
  // A budget below a DATA frame header: control frames drain through it in
  // 5-byte slices, then the source has DATA owed that cannot fit and
  // produces nothing. The pump must return, not ask again forever.
  H2Fixture f;
  BudgetSink<WriteCap::kHard> sink{.total = SIZE_MAX, .chunk = 5};
  CountingSource<h2::Connection> source{f.server};
  pump(source, sink);
  ASSERT_LT(source.calls, source.limit) << "the pump spun";
  EXPECT_TRUE(f.server.want_write());  // DATA still owed
  const std::size_t control = sink.wire.size();
  EXPECT_GT(control, 0u);
  EXPECT_EQ(source.calls, (control + 4) / 5 + 1);  // slices + one empty turn
  // A budget that fits a frame finishes the job on the same stream.
  sink.chunk = 4096;
  pump(source, sink);
  EXPECT_FALSE(f.server.want_write());
  const auto& wire = sink.wire;
  f.client.receive({reinterpret_cast<const std::uint8_t*>(wire.data()),
                    wire.size()});
  EXPECT_TRUE(f.client.last_error().empty()) << f.client.last_error();
}

/// A sink shaped like one side of sim::TcpConnection: the source appends
/// in place into its send buffer, a 2-MSS watermark gates writes, every
/// commit transmits up to `per_commit` buffered bytes (here more than a
/// frame, so every commit that crosses the watermark falls back under
/// it), and crossing back under signals writability — which, when
/// `reenter` is set, runs the pump again from inside commit, appending
/// behind the bytes just committed.
struct TcpLikeSink {
  static constexpr WriteCap kCap = WriteCap::kSoft;
  static constexpr std::size_t kWatermark = 2 * 1460;

  h2::Connection* reenter = nullptr;
  std::size_t per_commit = 20000;
  std::vector<std::uint8_t> wire{};  // the send buffer, never cleared
  WireOut out{wire};
  std::size_t committed = 0;
  std::size_t unsent = 0;
  bool writable_low = true;
  int depth = 0;
  int max_depth = 0;

  std::size_t budget() const { return unsent < kWatermark ? kWatermark : 0; }
  WireOut& buffer() { return out; }
  void commit(std::size_t appended) {
    // Account for the bytes first, like TcpConnection::commit: what
    // follows may re-enter and append more.
    committed += appended;
    EXPECT_EQ(committed, wire.size());
    unsent += appended;
    if (unsent >= kWatermark) writable_low = false;
    unsent -= std::min(unsent, per_commit);
    if (unsent < kWatermark && !writable_low) {
      writable_low = true;
      if (reenter != nullptr) {
        ++depth;
        max_depth = std::max(max_depth, depth);
        pump(*reenter, *this);
        --depth;
      }
    }
  }
  /// The network drains everything (an ACK clock tick).
  void drain() {
    unsent = 0;
    writable_low = true;
  }
};

std::string tcp_like_stream(bool reentrant, int* max_depth) {
  H2Fixture f;
  TcpLikeSink sink;
  if (reentrant) sink.reenter = &f.server;
  for (int tick = 0; tick < 100000 && f.server.want_write(); ++tick) {
    pump(f.server, sink);
    sink.drain();
  }
  EXPECT_FALSE(f.server.want_write());
  f.client.receive(sink.wire);
  EXPECT_TRUE(f.client.last_error().empty()) << f.client.last_error();
  for (const auto id : f.streams) {
    EXPECT_TRUE(f.client.stream_closed(id));
  }
  *max_depth = sink.max_depth;
  return std::string(sink.wire.begin(), sink.wire.end());
}

TEST(Pump, ReentrantCommitYieldsSameStream) {
  int flat_depth = 0;
  int nested_depth = 0;
  const std::string flat = tcp_like_stream(false, &flat_depth);
  const std::string nested = tcp_like_stream(true, &nested_depth);
  EXPECT_EQ(flat_depth, 0);
  EXPECT_GE(nested_depth, 2) << "the sink never re-entered the pump";
  EXPECT_EQ(flat, nested);
}

}  // namespace
}  // namespace h2push::util
