// TCP connection model.
//
// A bidirectional byte stream between a client and a server over two Routes
// (uplink / downlink). The model is packet-granular Reno/NewReno:
//   - 3-way handshake (1 RTT) followed by a configurable number of TLS
//     round trips (2 by default, matching TLS 1.2 as deployed in 2018),
//   - IW10 slow start, congestion avoidance, per-segment cumulative ACKs,
//   - fast retransmit on 3 dup-ACKs with NewReno partial-ACK recovery,
//   - RTO with Karn-style backoff.
// The slow-start round structure is essential for the paper's results: it is
// what creates the "network idle time" that Server Push can fill, and what
// makes large HTML documents take multiple round trips (paper §4.3, s8).
//
// Applications see an ordered byte stream (on_receive) and a writability
// signal (on_writable) that fires when fewer than `write_watermark` unsent
// bytes remain buffered, so schedulers make frame-level decisions late —
// exactly how h2o interacts with its socket buffers.
//
// Segments carry no payload copy: a data packet is just (seq, len), and the
// receiver reads the bytes out of the sender's retransmission buffer when
// it delivers them. The buffer only drops bytes the receiver has already
// acknowledged, and delivery never reaches below the receiver's rcv_nxt, so
// every byte it hands over is still there.
//
// The send buffer holds owned bytes plus borrowed extents. A writer
// appends through writer(side) (util::WireOut) and commit()s the count:
// owned bytes (frame headers, control frames) land in the owned buffer
// once; bytes of an immutable body handed over with append_borrowed()
// become an extent {seq, len, pinned body} and are never copied. Delivery
// walks the extents with a monotone cursor and hands the receiver one
// util::WireBytes per run, flagged borrowed when it lies in a body. An
// extent holds its pin until every byte of it is acknowledged, so a body
// the application drops meanwhile stays alive; a receiver that keeps a
// borrowed view past on_receive copies the pin.
//
// Acknowledged owned bytes are dropped by compaction as soon as they are
// at least as many as the live (unacknowledged and unsent) owned ones
// behind them, and at least 64 KB, so compaction moves at most as many
// bytes as were sent and the buffer stays near twice the live bytes.
// Buffers are recycled through a small, bounded per-thread pool: a
// connection starts with the capacity an earlier one grew.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "sim/link.h"
#include "sim/simulator.h"
#include "util/wire.h"

namespace h2push::sim {

struct TcpConfig {
  std::size_t mss = 1460;
  std::size_t header_bytes = 40;     ///< TCP/IP header per packet
  double initial_cwnd = 10.0;        ///< segments (RFC 6928)
  double initial_ssthresh = 1e9;     ///< effectively "no limit"
  Time rto_min = from_ms(200);
  Time rto_initial = from_ms(1000);
  int tls_round_trips = 2;           ///< 2 = TLS 1.2 full handshake
  std::size_t tls_client_flight = 512;   ///< bytes (ClientHello/Finished)
  std::size_t tls_server_flight = 4096;  ///< bytes (cert chain)
  std::size_t write_watermark = 2 * 1460;
};

class TcpConnection {
 public:
  enum class Side { kClient, kServer };

  struct Callbacks {
    /// Fires on the client when the TCP+TLS handshake completes.
    std::function<void()> on_connected;
    /// Fires on the server half an RTT earlier (when its handshake ends).
    std::function<void()> on_accepted;
    /// In-order application bytes arriving at `side`, one run per call: a
    /// delivery that crosses owned bytes and borrowed extents arrives as
    /// several calls at the same instant. The bytes point into the sending
    /// side's buffer or a pinned body and are valid only for the duration
    /// of the call: copy what must outlive it (or, for borrowed bytes, the
    /// pin). Converts to std::span, so a span-taking callback fits.
    std::function<void(Side side, util::WireBytes)> on_receive;
    /// `side` may write again (unsent buffer below watermark).
    std::function<void(Side side)> on_writable;
  };

  /// `up` carries client→server packets, `down` server→client.
  TcpConnection(Simulator& sim, TcpConfig config, Route up, Route down,
                Callbacks callbacks);
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Begin the handshake. on_connected fires when the client may write.
  void connect();

  /// Queue application bytes for transmission from `side`: a copy into
  /// the send buffer, then commit(). Both ends of a simulated session
  /// write in place through writer() + commit() instead; this copying
  /// form stays for h2bench's TCP replay and for tests.
  void send(Side side, std::span<const std::uint8_t> data);

  /// Append-in-place send path: append owned bytes to writer(side).owned()
  /// and body bytes through writer(side).append_borrowed(), then hand the
  /// total count to commit(). Nothing else may change the buffer, and the
  /// reference to owned() is only good until the next call into this
  /// connection.
  util::WireOut& writer(Side side) noexcept { return half(side).writer; }
  /// Queue the `appended` bytes (owned and borrowed) just added through
  /// writer(side). May fire on_writable (and so re-enter the writer)
  /// before it returns.
  void commit(Side side, std::size_t appended);

  bool connected() const noexcept { return connected_; }
  Time connect_end_time() const noexcept { return connect_end_time_; }

  /// Unsent application bytes buffered on `side`.
  std::size_t unsent_bytes(Side side) const noexcept;
  bool writable(Side side) const noexcept;

  std::uint64_t retransmissions() const noexcept;
  /// Bytes `sender`'s buffer compaction has moved so far (owned bytes
  /// only: borrowed extents are never moved).
  std::uint64_t compacted_bytes(Side sender) const noexcept {
    return half(sender).compacted;
  }

  /// Attach a trace recorder: cwnd/ssthresh/srtt counter tracks, loss
  /// recovery and handshake instants.
  void set_trace(trace::TraceRecorder* recorder, std::uint32_t track) {
    trace_ = recorder;
    trace_track_ = track;
  }

 private:
  struct Half;

  /// Bytes of a pinned body in the send stream, in place of a copy.
  struct Extent {
    std::uint64_t seq = 0;       // sequence number of the first byte
    std::uint64_t owned_at = 0;  // owned bytes appended before it
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    util::Pin pin;  // held until every byte is acknowledged

    std::uint64_t end() const noexcept { return seq + len; }
  };

  /// writer(side): records borrowed bytes as an Extent of its half.
  class SendWriter final : public util::WireOut {
   public:
    explicit SendWriter(Half& h) noexcept;

   private:
    bool keep(std::span<const std::uint8_t> bytes, util::Pin&& pin) override;
    Half& h_;
  };

  // One direction of application data flow.
  struct Half {
    Route data_route;   // carries data segments
    Route ack_route;    // carries ACKs back to the sender
    // --- sender state ---
    // The stream [snd_una, app_end) interleaves owned bytes with borrowed
    // extents. Owned byte k (counting every owned byte ever appended) is
    // buffer[k - owned_base].
    std::vector<std::uint8_t> buffer;
    std::uint64_t owned_base = 0;
    std::uint64_t compacted = 0;  // owned bytes moved by compaction
    // Extents not yet fully acknowledged are [extent_head, size()), in
    // sequence order; deliver_extent is the first ending past rcv_nxt.
    std::vector<Extent> extents;
    std::size_t extent_head = 0;
    std::size_t deliver_extent = 0;
    SendWriter writer{*this};
    std::uint64_t snd_una = 0;
    std::uint64_t snd_nxt = 0;
    std::uint64_t app_end = 0;
    double cwnd = 10.0;
    double ssthresh = 1e9;
    int dup_acks = 0;
    bool in_recovery = false;
    std::uint64_t recover = 0;
    EventId rto_timer = kInvalidEvent;
    Time rto = from_ms(1000);
    Time srtt = 0;
    Time rttvar = 0;
    bool rtt_seeded = false;
    std::uint64_t retransmissions = 0;
    bool writable_low = true;  // below watermark (edge-triggered signal)
    // RTT sampling (one outstanding sample, Karn's rule).
    std::uint64_t sample_seq = 0;
    Time sample_sent_at = -1;
    // --- receiver state ---
    std::uint64_t rcv_nxt = 0;
    std::map<std::uint64_t, std::uint64_t> ooo;  // past a hole: seq → end
    std::uint64_t last_ack_sent = 0;
  };

  Half& half(Side sender) noexcept {
    return sender == Side::kClient ? up_ : down_;
  }
  const Half& half(Side sender) const noexcept {
    return sender == Side::kClient ? up_ : down_;
  }
  static Side receiver_of(Side sender) noexcept {
    return sender == Side::kClient ? Side::kServer : Side::kClient;
  }

  void advance_handshake(int arrived_step);
  void send_handshake_packet();
  void try_send(Side sender);
  void transmit_segment(Side sender, std::uint64_t seq, std::size_t len,
                        bool is_retransmit);
  void on_segment(Side sender, std::uint64_t seq, std::size_t len);
  /// Hand [from, to) of `sender`'s stream to the receiver, a run at a time.
  void deliver(Side sender, std::uint64_t from, std::uint64_t to);
  void send_ack(Side data_sender);
  void on_ack(Side sender, std::uint64_t ack);
  /// Index into h.buffer of the owned byte at or after stream offset `seq`,
  /// where `next` is the first extent ending past `seq`.
  static std::size_t owned_index(const Half& h, std::uint64_t seq,
                                 std::size_t next) noexcept;
  void compact(Half& h);
  void arm_rto(Side sender);
  void on_rto(Side sender);
  void maybe_signal_writable(Side sender);
  void trace_congestion(Side sender);

  Simulator& sim_;
  TcpConfig config_;
  Callbacks callbacks_;
  Half up_;    // client → server
  Half down_;  // server → client
  bool connected_ = false;
  Time connect_end_time_ = 0;

  // Handshake state machine: steps alternate directions (SYN, SYN/ACK,
  // then one client + one server flight per TLS round trip). Lost
  // handshake packets are retransmitted with exponential backoff.
  int handshake_step_ = -1;
  int handshake_total_steps_ = 0;
  EventId handshake_timer_ = kInvalidEvent;
  Time handshake_rto_ = from_ms(1000);

  trace::TraceRecorder* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

}  // namespace h2push::sim
