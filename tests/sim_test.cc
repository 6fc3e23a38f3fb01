// Simulator, link, and TCP model tests: event ordering, cancellation,
// serialization/queueing arithmetic, handshake timing, slow start, loss
// recovery (content-verified), and determinism.
#include <gtest/gtest.h>

#include <thread>

#include "fuzz/invariants.h"
#include "sim/conditions.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/tcp.h"

// SteadyStateSchedulesWithoutHeapAllocation and WarmDataPathAllocatesNothing
// assert that the schedule/fire hot path and the TCP segment/ACK path stop
// touching the heap once warm.
#include "alloc_counter.h"

namespace h2push::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(from_ms(30), [&] { order.push_back(3); });
  sim.schedule_at(from_ms(10), [&] { order.push_back(1); });
  sim.schedule_at(from_ms(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), from_ms(30));
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(from_ms(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_in(from_ms(10), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInvalidIsNoop) {
  Simulator sim;
  sim.cancel(kInvalidEvent);
  sim.cancel(123456);
  EXPECT_FALSE(sim.step());
}

// Regression: cancelling an id that never existed, an id that already
// fired, or the same id twice used to grow the cancelled set without a
// matching queue entry, corrupting pending_events() for the rest of the
// run (it could even underflow below the number of live events).
TEST(Simulator, CancelBookkeepingStaysExact) {
  Simulator sim;
  sim.cancel(987654);  // never scheduled
  EXPECT_EQ(sim.pending_events(), 0u);

  const auto a = sim.schedule_in(from_ms(1), [] {});
  const auto b = sim.schedule_in(from_ms(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);

  sim.cancel(a);
  sim.cancel(a);  // double cancel: second is a no-op
  EXPECT_EQ(sim.pending_events(), 1u);

  EXPECT_TRUE(sim.step());  // fires b (a was cancelled)
  EXPECT_EQ(sim.now(), from_ms(2));
  EXPECT_EQ(sim.pending_events(), 0u);

  sim.cancel(b);  // cancel after fire: must not count
  EXPECT_EQ(sim.pending_events(), 0u);

  const auto c = sim.schedule_in(from_ms(1), [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.cancel(c);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsScheduledInPastClampToNow) {
  Simulator sim;
  sim.schedule_at(from_ms(10), [&] {
    bool ran = false;
    sim.schedule_at(from_ms(5), [&] { ran = true; });
    EXPECT_FALSE(ran);
  });
  sim.run();
  EXPECT_EQ(sim.now(), from_ms(10));
}

TEST(Simulator, RunRespectsDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(from_ms(10), [&] { ++count; });
  sim.schedule_at(from_ms(100), [&] { ++count; });
  sim.run(from_ms(50));
  EXPECT_EQ(count, 1);
}

// -------------------------------------------------------------- event pool

TEST(Simulator, PoolRecyclesNodesAcrossRuns) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(from_ms(i), [&] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 50);
  const std::size_t pooled = sim.pooled_nodes();
  EXPECT_GE(pooled, 50u);  // every fired node went back on the free list

  // A second burst draws from the pool instead of growing it.
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(from_ms(100 + i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.pooled_nodes(), pooled - 50);
  sim.run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.pooled_nodes(), pooled);
}

TEST(Simulator, CancelAfterPoolRecycleIsStaleNoop) {
  Simulator sim;
  const EventId first = sim.schedule_at(from_ms(1), [] {});
  sim.run();  // fires and recycles the node (generation bump)

  // The free list is LIFO, so the next event reuses the same slot; its id
  // must still differ and the stale id must not cancel the new occupant.
  bool fired = false;
  const EventId second = sim.schedule_at(from_ms(2), [&] { fired = true; });
  EXPECT_NE(first, second);
  sim.cancel(first);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, PendingEventsStaysExactUnderCancellation) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.schedule_at(from_ms(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 10u);
  sim.cancel(ids[3]);
  sim.cancel(ids[7]);
  EXPECT_EQ(sim.pending_events(), 8u);
  sim.cancel(ids[3]);  // double cancel: no double counting
  EXPECT_EQ(sim.pending_events(), 8u);
  while (sim.step()) {
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 8u);
}

TEST(Simulator, SteadyStateSchedulesWithoutHeapAllocation) {
  Simulator sim;
  std::uint64_t fired = 0;
  // Warm up: carve the pool blocks and let the priority queue's vector
  // reach its working capacity.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_in(from_ms(1), [&] { ++fired; });
    }
    sim.run();
  }

  const std::size_t before = test_allocation_count();
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_in(from_ms(1), [&] { ++fired; });
    }
    sim.run();
  }
  EXPECT_EQ(test_allocation_count(), before)
      << "schedule_at/step heap-allocated in steady state";
  EXPECT_EQ(fired, 19u * 64u);
}

TEST(Simulator, RearmMovesPendingEventWithoutDeadEntries) {
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.schedule_at(from_ms(10), [&] { order.push_back(1); });
  sim.schedule_at(from_ms(20), [&] { order.push_back(2); });
  const EventId moved =
      sim.rearm_at(a, from_ms(30), [&] { order.push_back(3); });
  EXPECT_NE(moved, a);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.allocated_nodes() - sim.pooled_nodes(), 2u);
  sim.cancel(a);  // the pre-re-arm id is stale
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(sim.now(), from_ms(30));
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(Simulator, RearmOfFiredOrInvalidIdSchedules) {
  Simulator sim;
  int fired = 0;
  const EventId a = sim.schedule_at(from_ms(1), [&] { ++fired; });
  sim.run();
  sim.rearm_at(a, from_ms(5), [&] { ++fired; });
  sim.rearm_in(kInvalidEvent, from_ms(1), [&] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RearmKeepsSameTimeFifoOfCancelPlusSchedule) {
  // A re-armed event queues behind events already due at its new time,
  // exactly as a freshly scheduled one would.
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.schedule_at(from_ms(1), [&] { order.push_back(0); });
  sim.schedule_at(from_ms(5), [&] { order.push_back(1); });
  sim.rearm_at(a, from_ms(5), [&] { order.push_back(2); });
  sim.schedule_at(from_ms(5), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SteadyStateRearmWithoutHeapAllocation) {
  Simulator sim;
  EventId timer = kInvalidEvent;
  std::uint64_t ticks = 0;
  for (int i = 0; i < 64; ++i) sim.schedule_in(from_ms(i), [&] { ++ticks; });
  timer = sim.rearm_in(timer, from_ms(1000), [] {});
  const std::size_t before = test_allocation_count();
  for (int i = 0; i < 1000; ++i) {
    timer = sim.rearm_in(timer, from_ms(1000 + i), [] {});
  }
  EXPECT_EQ(test_allocation_count(), before);
  EXPECT_EQ(sim.pending_events(), 65u);
  sim.run();
  EXPECT_EQ(ticks, 64u);
}

// -------------------------------------------------------------------- link

TEST(Link, SerializationDelayMatchesRate) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte/us
  cfg.prop_delay = from_ms(10);
  Link link(sim, cfg, util::Rng(1));
  Time delivered_at = -1;
  link.transmit(1000, 0, [&] { delivered_at = sim.now(); });
  sim.run();
  // 1000 bytes at 1 B/us = 1 ms serialization + 10 ms propagation.
  EXPECT_EQ(delivered_at, from_ms(11));
}

TEST(Link, BackToBackPacketsQueue) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  Link link(sim, cfg, util::Rng(1));
  std::vector<Time> deliveries;
  for (int i = 0; i < 3; ++i) {
    link.transmit(1000, 0, [&] { deliveries.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], from_ms(1));
  EXPECT_EQ(deliveries[1], from_ms(2));
  EXPECT_EQ(deliveries[2], from_ms(3));
}

TEST(Link, DropsWhenQueueFull) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 1e6;
  cfg.queue_capacity = 2500;
  Link link(sim, cfg, util::Rng(1));
  int delivered = 0;
  EXPECT_TRUE(link.transmit(1500, 0, [&] { ++delivered; }));
  EXPECT_TRUE(link.transmit(1000, 0, [&] { ++delivered; }));
  EXPECT_FALSE(link.transmit(1500, 0, [&] { ++delivered; }));  // over cap
  EXPECT_EQ(link.dropped_packets(), 1u);
  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.queued_bytes(), 0u);
  EXPECT_EQ(link.accepted_bytes(), 2500u);
  EXPECT_EQ(link.delivered_bytes(), 2500u);
  EXPECT_EQ(link.dropped_bytes(), 1500u);
  if (const auto v = fuzz::check_link_conservation(link)) FAIL() << *v;
}

TEST(Link, ExtraDelayAddsToPropagation) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = from_ms(2);
  Link link(sim, cfg, util::Rng(1));
  Time at = 0;
  Route route{&link, from_ms(23)};
  route.transmit(1000, [&] { at = sim.now(); });
  sim.run();
  EXPECT_EQ(at, from_ms(1 + 2 + 23));
}

// --------------------------------------------------------------------- tcp

struct TcpHarness {
  Simulator sim;
  // Every TCP test also runs under the mini-fuzz invariant checker: time
  // monotonic, pool accounting exact (fuzz/invariants.h).
  fuzz::SimChecker checker{sim};
  Link down, up;
  std::unique_ptr<TcpConnection> tcp;
  std::size_t client_received = 0;
  std::size_t client_borrowed = 0;  // of client_received, in borrowed runs
  std::size_t server_received = 0;
  bool mismatch = false;
  Time connected_at = -1;
  Time accepted_at = -1;
  std::size_t stream_target = 0;  // stream_pattern(): bytes to write
  std::size_t stream_written = 0;
  std::size_t stream_chunk = 0;

  static LinkConfig link_config(double rate, std::size_t queue_bytes,
                                double loss) {
    LinkConfig cfg;
    cfg.rate_bps = rate;
    cfg.prop_delay = from_ms(2);
    cfg.queue_capacity = queue_bytes;
    cfg.random_loss = loss;
    return cfg;
  }

  explicit TcpHarness(double loss = 0.0, std::uint64_t seed = 1,
                      std::size_t queue = 1000 * 1500)
      : down(sim, link_config(16e6, queue, loss), util::Rng(seed)),
        up(sim, link_config(1e6, queue, loss), util::Rng(seed ^ 1)) {
    TcpConnection::Callbacks cb;
    cb.on_connected = [this] { connected_at = sim.now(); };
    cb.on_accepted = [this] { accepted_at = sim.now(); };
    cb.on_receive = [this](TcpConnection::Side side, util::WireBytes run) {
      const std::span<const std::uint8_t> data = run;
      if (side == TcpConnection::Side::kClient) {
        if (run.borrowed()) client_borrowed += data.size();
        for (const auto byte : data) {
          if (byte != static_cast<std::uint8_t>(client_received % 251)) {
            mismatch = true;
          }
          ++client_received;
        }
      } else {
        server_received += data.size();
      }
    };
    cb.on_writable = [this](TcpConnection::Side side) {
      if (side == TcpConnection::Side::kServer) write_more();
    };
    tcp = std::make_unique<TcpConnection>(
        sim, TcpConfig{}, Route{&up, from_ms(23)}, Route{&down, from_ms(23)},
        std::move(cb));
  }

  /// Write `total` pattern bytes from the server the way the testbed's
  /// pump does: appended in place, a chunk at a time, while writable.
  void stream_pattern(std::size_t total, std::size_t chunk = 16 * 1024) {
    stream_target = stream_written + total;
    stream_chunk = chunk;
    write_more();
  }

  void write_more() {
    constexpr auto kServer = TcpConnection::Side::kServer;
    while (stream_written < stream_target && tcp->writable(kServer)) {
      std::vector<std::uint8_t>& buffer = tcp->writer(kServer).owned();
      const std::size_t n =
          std::min(stream_chunk, stream_target - stream_written);
      for (std::size_t i = 0; i < n; ++i) {
        buffer.push_back(static_cast<std::uint8_t>((stream_written + i) % 251));
      }
      stream_written += n;
      tcp->commit(kServer, n);  // may re-enter through on_writable
    }
  }

  void send_pattern(std::size_t total) {
    std::vector<std::uint8_t> buf(total);
    for (std::size_t i = 0; i < total; ++i) {
      buf[i] = static_cast<std::uint8_t>(i % 251);
    }
    tcp->send(TcpConnection::Side::kServer, buf);
  }
};

TEST(Tcp, HandshakeTakesTcpPlusTlsRoundTrips) {
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  // 3 round trips (TCP + 2x TLS) at 50 ms RTT plus serialization.
  EXPECT_GT(h.connected_at, from_ms(145));
  EXPECT_LT(h.connected_at, from_ms(185));
  // Server accepts half an RTT before the client connects.
  EXPECT_LT(h.accepted_at, h.connected_at);
}

TEST(Tcp, DeliversOrderedContent) {
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  h.send_pattern(300000);
  h.sim.run();
  EXPECT_EQ(h.client_received, 300000u);
  EXPECT_FALSE(h.mismatch);
  EXPECT_EQ(h.tcp->retransmissions(), 0u);
  ASSERT_FALSE(h.checker.violation().has_value()) << *h.checker.violation();
  if (const auto leak = fuzz::check_drained(h.sim)) FAIL() << *leak;
  if (const auto v = fuzz::check_link_conservation(h.down)) FAIL() << *v;
  if (const auto v = fuzz::check_link_conservation(h.up)) FAIL() << *v;
}

TEST(Tcp, SlowStartLimitsFirstRoundTrip) {
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  h.send_pattern(100000);
  // After ~1 RTT only about IW10 = 14.6 KB can have arrived.
  h.sim.run(h.connected_at + from_ms(60));
  EXPECT_LE(h.client_received, 16 * 1460u);
  EXPECT_GT(h.client_received, 0u);
  h.sim.run();
  EXPECT_EQ(h.client_received, 100000u);
}

TEST(Tcp, ThroughputApproachesLinkRate) {
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  const Time start = h.sim.now();
  h.send_pattern(2'000'000);
  h.sim.run();
  const double seconds = static_cast<double>(h.sim.now() - start) /
                         static_cast<double>(kSecond);
  const double mbps = 2'000'000 * 8.0 / seconds / 1e6;
  EXPECT_GT(mbps, 10.0);  // 16 Mbit/s link, minus slow start and overhead
}

class TcpLossRecovery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpLossRecovery, RecoversContentUnderHeavyLoss) {
  TcpHarness h(/*loss=*/0.05, /*seed=*/GetParam(), /*queue=*/64 * 1024);
  h.tcp->connect();
  h.sim.run(from_seconds(60));
  ASSERT_GE(h.connected_at, 0) << "handshake never completed";
  h.send_pattern(200000);
  h.sim.run(from_seconds(120));
  EXPECT_EQ(h.client_received, 200000u);
  EXPECT_FALSE(h.mismatch);
  EXPECT_GT(h.tcp->retransmissions(), 0u);
  // Under loss, dropped packets must never enter the queue: conservation
  // still holds on the delivered side.
  ASSERT_FALSE(h.checker.violation().has_value()) << *h.checker.violation();
  if (const auto v = fuzz::check_link_conservation(h.down)) FAIL() << *v;
  if (const auto v = fuzz::check_link_conservation(h.up)) FAIL() << *v;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpLossRecovery,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Tcp, UplinkIsSlower) {
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  std::vector<std::uint8_t> upload(100000, 'u');
  const Time start = h.sim.now();
  h.tcp->send(TcpConnection::Side::kClient, upload);
  h.sim.run();
  const double seconds = static_cast<double>(h.sim.now() - start) /
                         static_cast<double>(kSecond);
  // 100 KB at 1 Mbit/s ≈ 0.8 s minimum.
  EXPECT_GT(seconds, 0.7);
  EXPECT_EQ(h.server_received, 100000u);
}

TEST(Tcp, WritableSignalFiresOnDrain) {
  TcpHarness h;
  int writable_signals = 0;
  // Rebuild with a writable callback.
  TcpConnection::Callbacks cb;
  cb.on_connected = [&h] { h.connected_at = h.sim.now(); };
  cb.on_receive = [](TcpConnection::Side, std::span<const std::uint8_t>) {};
  cb.on_writable = [&writable_signals](TcpConnection::Side side) {
    if (side == TcpConnection::Side::kServer) ++writable_signals;
  };
  TcpConnection tcp(h.sim, TcpConfig{}, Route{&h.up, from_ms(23)},
                    Route{&h.down, from_ms(23)}, std::move(cb));
  tcp.connect();
  h.sim.run();
  std::vector<std::uint8_t> big(100000, 'x');
  tcp.send(TcpConnection::Side::kServer, big);
  EXPECT_FALSE(tcp.writable(TcpConnection::Side::kServer));
  h.sim.run();
  EXPECT_TRUE(tcp.writable(TcpConnection::Side::kServer));
  EXPECT_GT(writable_signals, 0);
}

// Segments travel as (seq, len) and ACKs as a cumulative number, both in
// the simulator's inline event storage, and the RTO timer is re-armed in
// place: once the buffers and the event pool are warm, moving more data
// touches the heap not at all.
TEST(Tcp, WarmDataPathAllocatesNothing) {
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  std::vector<std::uint8_t> chunk(251 * 800);  // keeps the byte pattern
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<std::uint8_t>(i % 251);
  }
  const std::vector<std::uint8_t> upload(20000, 'u');
  const auto move_round = [&] {
    h.tcp->send(TcpConnection::Side::kServer, chunk);
    h.tcp->send(TcpConnection::Side::kClient, upload);
    h.sim.run();
  };
  move_round();  // warm: buffers, event pool and heap reach working size
  move_round();
  const std::uint64_t executed = h.sim.executed_events();
  const std::size_t before = test_allocation_count();
  for (int round = 0; round < 4; ++round) move_round();
  EXPECT_EQ(test_allocation_count(), before)
      << "the warm segment/ACK path heap-allocated";
  // Sanity: the measured rounds moved real traffic, intact — at least a
  // data and an ACK arrival per downlink segment.
  const std::size_t segments = chunk.size() / TcpConfig{}.mss;
  EXPECT_GT(h.sim.executed_events() - executed, 4 * 2 * segments);
  EXPECT_EQ(h.client_received, 6 * chunk.size());
  EXPECT_EQ(h.server_received, 6 * upload.size());
  EXPECT_FALSE(h.mismatch);
  EXPECT_EQ(h.tcp->retransmissions(), 0u);
  ASSERT_FALSE(h.checker.violation().has_value()) << *h.checker.violation();
}

// Acknowledged bytes are dropped only once they are at least as many as the
// live ones behind them, so compaction moves at most as many bytes as were
// sent — also over this harness's deep queue, where the window in flight
// grows far past the bytes acknowledged between two ACKs.
TEST(Tcp, CompactionMovesAtMostTheBytesSent) {
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  constexpr std::size_t kTotal = 24u << 20;
  h.stream_pattern(kTotal);
  h.sim.run();
  EXPECT_EQ(h.client_received, kTotal);
  EXPECT_FALSE(h.mismatch);
  const std::uint64_t moved =
      h.tcp->compacted_bytes(TcpConnection::Side::kServer);
  EXPECT_GT(moved, 0u) << "the transfer never compacted";
  EXPECT_LE(moved, kTotal);
  ASSERT_FALSE(h.checker.violation().has_value()) << *h.checker.violation();
}

// Body bytes appended with append_borrowed() travel as extents of the send
// buffer, each pinning its body until acknowledged. Here the only outside
// reference to the body is dropped as soon as its bytes are queued, and
// under loss the sender re-reads them for retransmissions: the receiver
// still gets the stream intact, the body's bytes in borrowed runs, and
// compaction moves only owned bytes. Under AddressSanitizer a read of a
// freed body fails the test.
class TcpBorrowedBody : public ::testing::TestWithParam<double> {};

TEST_P(TcpBorrowedBody, DroppedBodyArrivesIntact) {
  constexpr std::size_t kTotal = 3u << 20;
  constexpr std::size_t kHeader = 9;
  constexpr std::size_t kPayload = 16 * 1024;
  TcpHarness h(/*loss=*/GetParam(), /*seed=*/7, /*queue=*/64 * 1024);
  h.tcp->connect();
  h.sim.run(from_seconds(60));
  ASSERT_GE(h.connected_at, 0) << "handshake never completed";
  // One body holding the whole stream's pattern. Frame-like: 9 owned
  // bytes copied out of it, then 16 KB of it by reference, repeated.
  std::string text(kTotal, '\0');
  for (std::size_t i = 0; i < kTotal; ++i) {
    text[i] = static_cast<char>(i % 251);
  }
  auto body = std::make_shared<const std::string>(std::move(text));
  const std::weak_ptr<const std::string> watch = body;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(body->data());
  constexpr auto kServer = TcpConnection::Side::kServer;
  util::WireOut& out = h.tcp->writer(kServer);
  std::size_t owned = 0;
  for (std::size_t at = 0; at < kTotal;) {
    const std::size_t header = std::min(kHeader, kTotal - at);
    out.owned().insert(out.owned().end(), bytes + at, bytes + at + header);
    owned += header;
    at += header;
    const std::size_t payload = std::min(kPayload, kTotal - at);
    out.append_borrowed({bytes + at, payload}, body);
    at += payload;
  }
  body.reset();
  h.tcp->commit(kServer, kTotal);
  EXPECT_FALSE(watch.expired()) << "in-flight extents must pin the body";
  h.sim.run(from_seconds(600));
  EXPECT_EQ(h.client_received, kTotal);
  EXPECT_EQ(h.client_borrowed, kTotal - owned);
  EXPECT_FALSE(h.mismatch);
  EXPECT_TRUE(watch.expired()) << "acknowledged extents must unpin";
  EXPECT_LE(h.tcp->compacted_bytes(kServer), owned);
  if (GetParam() > 0) {
    EXPECT_GT(h.tcp->retransmissions(), 0u);
  }
  ASSERT_FALSE(h.checker.violation().has_value()) << *h.checker.violation();
}

INSTANTIATE_TEST_SUITE_P(Loss, TcpBorrowedBody, ::testing::Values(0.0, 0.02));

// Send buffers go back to a per-thread pool: a second connection moving the
// same traffic starts with the capacity the first one grew, and never
// regrows it. (A fresh thread starts with an empty pool.)
TEST(Tcp, SecondConnectionReusesPooledBuffer) {
  constexpr std::size_t kTotal = 400000;
  std::size_t first_capacity = 0;
  std::size_t second_start = 0;
  std::size_t second_end = 0;
  std::thread([&] {
    const auto capacity = [](TcpHarness& h) {
      return h.tcp->writer(TcpConnection::Side::kServer).owned().capacity();
    };
    {
      TcpHarness first;
      first.tcp->connect();
      first.sim.run();
      first.stream_pattern(kTotal);
      first.sim.run();
      EXPECT_EQ(first.client_received, kTotal);
      first_capacity = capacity(first);
    }
    TcpHarness second;
    second_start = capacity(second);
    second.tcp->connect();
    second.sim.run();
    second.stream_pattern(kTotal);
    second.sim.run();
    EXPECT_EQ(second.client_received, kTotal);
    EXPECT_FALSE(second.mismatch);
    second_end = capacity(second);
  }).join();
  EXPECT_GT(first_capacity, 0u);
  EXPECT_EQ(second_start, first_capacity);
  EXPECT_EQ(second_end, second_start) << "the pooled buffer regrew";
}

// ------------------------------------------------------------- conditions

TEST(Conditions, TestbedIsDeterministic) {
  const auto cond = NetworkConditions::testbed();
  util::Rng rng(5);
  const auto s1 = sample_conditions(cond, rng);
  const auto s2 = sample_conditions(cond, rng);
  EXPECT_EQ(s1.down_bps, s2.down_bps);
  EXPECT_EQ(s1.base_rtt, s2.base_rtt);
  EXPECT_EQ(s1.loss, 0.0);
  util::Rng rtt_rng(9);
  EXPECT_EQ(s1.origin_rtt(rtt_rng), from_ms(50));
}

TEST(Conditions, InternetVaries) {
  const auto cond = NetworkConditions::internet();
  util::Rng rng(5);
  const auto s1 = sample_conditions(cond, rng);
  const auto s2 = sample_conditions(cond, rng);
  EXPECT_NE(s1.down_bps, s2.down_bps);
  util::Rng rtt_rng(9);
  const auto r1 = s1.origin_rtt(rtt_rng);
  const auto r2 = s1.origin_rtt(rtt_rng);
  EXPECT_NE(r1, r2);
  EXPECT_GE(r1, from_ms(5));
}

}  // namespace
}  // namespace h2push::sim
