#include "sim/tcp.h"

#include <algorithm>
#include <cassert>

#include "sim/vector_pool.h"
#include "trace/trace.h"

namespace h2push::sim {
namespace {

const char* side_name(TcpConnection::Side side) {
  return side == TcpConnection::Side::kClient ? "client" : "server";
}

/// Send buffers of finished connections, per thread and per sending side.
/// With bodies borrowed, an H2 connection's owned bytes are frame headers
/// and control frames, and its buffer stays within a few KB (6.2 KB at most
/// over a `bench_fig2b_push_vs_nopush --quick` sweep); the pool's byte
/// bound only caps what owned-only writers (the HTTP/1.1 arm, send()) grow.
using BufferPool = VectorPool<std::uint8_t>;

BufferPool& buffer_pool(TcpConnection::Side side) {
  thread_local BufferPool pools[2];
  return pools[side == TcpConnection::Side::kClient ? 0 : 1];
}

}  // namespace

TcpConnection::SendWriter::SendWriter(Half& h) noexcept
    : util::WireOut(h.buffer), h_(h) {}

bool TcpConnection::SendWriter::keep(std::span<const std::uint8_t> bytes,
                                     util::Pin&& pin) {
  if (bytes.empty()) return true;
  const std::uint64_t owned_at = h_.owned_base + h_.buffer.size();
  h_.extents.push_back(Extent{owned_at + borrowed(), owned_at, bytes.data(),
                              bytes.size(), std::move(pin)});
  return true;
}

TcpConnection::TcpConnection(Simulator& sim, TcpConfig config, Route up,
                             Route down, Callbacks callbacks)
    : sim_(sim), config_(config), callbacks_(std::move(callbacks)) {
  up_.data_route = up;
  up_.ack_route = down;
  down_.data_route = down;
  down_.ack_route = up;
  for (Half* h : {&up_, &down_}) {
    h->cwnd = config_.initial_cwnd;
    h->ssthresh = config_.initial_ssthresh;
    h->rto = config_.rto_initial;
  }
  up_.buffer = buffer_pool(Side::kClient).acquire();
  down_.buffer = buffer_pool(Side::kServer).acquire();
}

TcpConnection::~TcpConnection() {
  buffer_pool(Side::kClient).release(std::move(up_.buffer));
  buffer_pool(Side::kServer).release(std::move(down_.buffer));
}

void TcpConnection::connect() {
  // Handshake packets travel the real routes so they experience queueing
  // and loss like everything else; a lost packet is retransmitted with
  // exponential backoff (RFC 6298-style initial timer).
  handshake_step_ = 0;
  handshake_total_steps_ = 2 + 2 * std::max(0, config_.tls_round_trips);
  handshake_rto_ = config_.rto_initial;
  send_handshake_packet();
}

void TcpConnection::send_handshake_packet() {
  const int step = handshake_step_;
  if (step >= handshake_total_steps_) return;
  const bool upstream = (step % 2) == 0;  // client flights on even steps
  std::size_t bytes = config_.header_bytes;
  if (step >= 2) {
    bytes += upstream ? config_.tls_client_flight : config_.tls_server_flight;
  }
  const Route& route = upstream ? up_.data_route : down_.data_route;
  route.transmit(bytes, [this, step] { advance_handshake(step); });
  handshake_timer_ =
      sim_.rearm_in(handshake_timer_, handshake_rto_, [this, step] {
        if (handshake_step_ != step) return;  // progressed meanwhile
        handshake_rto_ =
            std::min<Time>(handshake_rto_ * 2, from_seconds(20));
        send_handshake_packet();
      });
}

void TcpConnection::advance_handshake(int arrived_step) {
  if (arrived_step != handshake_step_) return;  // stale duplicate
  handshake_step_ = arrived_step + 1;
  sim_.cancel(handshake_timer_);
  handshake_timer_ = kInvalidEvent;
  const bool was_last_up = handshake_total_steps_ > 2 &&
                           (arrived_step % 2) == 0 &&
                           arrived_step == handshake_total_steps_ - 2;
  const bool was_last_down = arrived_step == handshake_total_steps_ - 1;
  if (was_last_up && callbacks_.on_accepted) {
    // Server-side handshake completes when it receives the final client
    // flight; the server may start writing (e.g. its SETTINGS frame).
    if (trace_) trace_->instant(trace_track_, "tcp", "accepted");
    callbacks_.on_accepted();
  }
  if (was_last_down) {
    connected_ = true;
    connect_end_time_ = sim_.now();
    if (trace_) trace_->instant(trace_track_, "tcp", "connected");
    if (handshake_total_steps_ == 2 && callbacks_.on_accepted) {
      callbacks_.on_accepted();  // no TLS: accept == connect
    }
    if (callbacks_.on_connected) callbacks_.on_connected();
    return;
  }
  send_handshake_packet();
}

void TcpConnection::send(Side side, std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t>& buffer = half(side).buffer;
  buffer.insert(buffer.end(), data.begin(), data.end());
  commit(side, data.size());
}

void TcpConnection::commit(Side side, std::size_t appended) {
  Half& h = half(side);
  h.app_end += appended;
  assert(h.owned_base + h.buffer.size() + h.writer.borrowed() == h.app_end);
  if (unsent_bytes(side) >= config_.write_watermark) h.writable_low = false;
  try_send(side);
}

std::size_t TcpConnection::unsent_bytes(Side side) const noexcept {
  const Half& h = half(side);
  return static_cast<std::size_t>(h.app_end - h.snd_nxt);
}

bool TcpConnection::writable(Side side) const noexcept {
  return unsent_bytes(side) < config_.write_watermark;
}

std::uint64_t TcpConnection::retransmissions() const noexcept {
  return up_.retransmissions + down_.retransmissions;
}

void TcpConnection::trace_congestion(Side sender) {
  // Counter tracks per sending side; the server→client (down) direction is
  // the one whose slow-start rounds shape push behaviour.
  const Half& h = half(sender);
  const std::string side(side_name(sender));
  trace_->counter(trace_track_, "tcp", "cwnd." + side, h.cwnd);
  if (h.ssthresh < 1e8) {
    trace_->counter(trace_track_, "tcp", "ssthresh." + side, h.ssthresh);
  }
}

void TcpConnection::try_send(Side sender) {
  Half& h = half(sender);
  const auto mss = static_cast<std::uint64_t>(config_.mss);
  while (h.snd_nxt < h.app_end) {
    const std::uint64_t in_flight = h.snd_nxt - h.snd_una;
    const auto cwnd_bytes =
        static_cast<std::uint64_t>(h.cwnd * static_cast<double>(mss));
    if (in_flight + mss > cwnd_bytes && in_flight > 0) break;
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(mss, h.app_end - h.snd_nxt));
    transmit_segment(sender, h.snd_nxt, len, /*is_retransmit=*/false);
    h.snd_nxt += len;
  }
  maybe_signal_writable(sender);
}

void TcpConnection::transmit_segment(Side sender, std::uint64_t seq,
                                     std::size_t len, bool is_retransmit) {
  Half& h = half(sender);
  assert(seq >= h.snd_una && seq + len <= h.app_end);
  if (is_retransmit) {
    ++h.retransmissions;
    if (trace_) {
      trace_->instant(trace_track_, "tcp",
                      std::string("retransmit.") + side_name(sender),
                      {{"seq", seq}, {"len", len}});
      ++trace_->summary().retransmissions;
    }
  }
  // Karn: only sample RTT on fresh transmissions, one sample at a time.
  if (!is_retransmit && h.sample_sent_at < 0) {
    h.sample_seq = seq + len;
    h.sample_sent_at = sim_.now();
  } else if (is_retransmit && seq < h.sample_seq) {
    h.sample_sent_at = -1;  // invalidate sample spanning a retransmit
  }
  h.data_route.transmit(len + config_.header_bytes,
                        [this, sender, seq, len] {
                          on_segment(sender, seq, len);
                        });
  arm_rto(sender);
}

void TcpConnection::on_segment(Side sender, std::uint64_t seq,
                               std::size_t len) {
  Half& h = half(sender);
  const std::uint64_t end = seq + len;
  if (end <= h.rcv_nxt) {
    send_ack(sender);  // duplicate of already-received data
    return;
  }
  if (seq > h.rcv_nxt) {
    h.ooo.emplace(seq, end);  // hole: buffer out of order
    send_ack(sender);
    return;
  }
  // In-order (possibly partially duplicate) segment: deliver, together
  // with any out-of-order segments that are now contiguous.
  const std::uint64_t from = h.rcv_nxt;
  h.rcv_nxt = end;
  while (!h.ooo.empty()) {
    auto it = h.ooo.begin();
    if (it->first > h.rcv_nxt) break;
    h.rcv_nxt = std::max(h.rcv_nxt, it->second);
    h.ooo.erase(it);
  }
  send_ack(sender);
  if (callbacks_.on_receive) deliver(sender, from, h.rcv_nxt);
}

std::size_t TcpConnection::owned_index(const Half& h, std::uint64_t seq,
                                       std::size_t next) noexcept {
  // Owned bytes before `seq` are seq less the borrowed bytes before it;
  // the next extent (or, past the last, the writer's total) tells how
  // many those are.
  std::uint64_t owned;
  if (next < h.extents.size()) {
    const Extent& e = h.extents[next];
    owned = e.seq > seq ? e.owned_at - (e.seq - seq) : e.owned_at;
  } else {
    owned = seq - h.writer.borrowed();
  }
  return static_cast<std::size_t>(owned - h.owned_base);
}

void TcpConnection::deliver(Side sender, std::uint64_t from,
                            std::uint64_t to) {
  // [from, to) is unacknowledged, so its owned bytes are still in the
  // sender's buffer and its extents still pinned. The cursor only moves
  // forward: deliveries are in order.
  Half& h = half(sender);
  const Side receiver = receiver_of(sender);
  std::size_t& next = h.deliver_extent;
  while (from < to) {
    util::WireBytes run;
    std::uint64_t end = to;
    if (next < h.extents.size() && h.extents[next].seq <= from) {
      const Extent& e = h.extents[next];
      end = std::min(to, e.end());
      run.bytes = {e.data + (from - e.seq),
                   static_cast<std::size_t>(end - from)};
      run.pin = &e.pin;
      if (end == e.end()) ++next;
    } else {
      if (next < h.extents.size()) end = std::min(to, h.extents[next].seq);
      run.bytes = std::span<const std::uint8_t>(h.buffer).subspan(
          owned_index(h, from, next), static_cast<std::size_t>(end - from));
    }
    callbacks_.on_receive(receiver, run);
    from = end;
  }
}

void TcpConnection::send_ack(Side data_sender) {
  Half& h = half(data_sender);
  const std::uint64_t ack = h.rcv_nxt;
  h.last_ack_sent = ack;
  h.ack_route.transmit(config_.header_bytes,
                       [this, data_sender, ack] { on_ack(data_sender, ack); });
}

void TcpConnection::on_ack(Side sender, std::uint64_t ack) {
  Half& h = half(sender);
  const auto mss_d = static_cast<double>(config_.mss);
  if (ack > h.snd_una) {
    const std::uint64_t newly = ack - h.snd_una;
    h.snd_una = ack;
    // RTT sample.
    if (h.sample_sent_at >= 0 && ack >= h.sample_seq) {
      const Time rtt = sim_.now() - h.sample_sent_at;
      h.sample_sent_at = -1;
      if (!h.rtt_seeded) {
        h.srtt = rtt;
        h.rttvar = rtt / 2;
        h.rtt_seeded = true;
      } else {
        const Time err = std::abs(h.srtt - rtt);
        h.rttvar = (3 * h.rttvar + err) / 4;
        h.srtt = (7 * h.srtt + rtt) / 8;
      }
      h.rto = std::max(config_.rto_min, h.srtt + 4 * h.rttvar);
      if (trace_) {
        trace_->counter(trace_track_, "tcp",
                        std::string("srtt_ms.") + side_name(sender),
                        to_ms(h.srtt));
      }
    }
    // Karn: a backed-off RTO is retained until a fresh RTT sample — resets
    // on mere ACK progress re-arm spurious timeouts when ACKs are merely
    // delayed (e.g. queued behind requests on the thin uplink).
    if (h.in_recovery) {
      if (ack >= h.recover) {
        h.in_recovery = false;
        h.dup_acks = 0;
        h.cwnd = h.ssthresh;
      } else {
        // NewReno partial ACK: retransmit the next hole immediately.
        const std::size_t len = static_cast<std::size_t>(std::min<
            std::uint64_t>(config_.mss, h.app_end - h.snd_una));
        if (len > 0)
          transmit_segment(sender, h.snd_una, len, /*is_retransmit=*/true);
      }
    } else {
      h.dup_acks = 0;
      const double acked_segments = static_cast<double>(newly) / mss_d;
      if (h.cwnd < h.ssthresh) {
        h.cwnd += acked_segments;  // slow start
      } else {
        h.cwnd += acked_segments / h.cwnd;  // congestion avoidance
      }
    }
    compact(h);
    if (h.snd_una == h.app_end) {
      sim_.cancel(h.rto_timer);
      h.rto_timer = kInvalidEvent;
    } else {
      arm_rto(sender);
    }
  } else if (ack == h.snd_una && h.snd_nxt > h.snd_una) {
    ++h.dup_acks;
    if (h.dup_acks == 3 && !h.in_recovery) {
      // Fast retransmit + NewReno recovery.
      const double flight =
          static_cast<double>(h.snd_nxt - h.snd_una) / mss_d;
      h.ssthresh = std::max(flight / 2.0, 2.0);
      h.cwnd = h.ssthresh + 3.0;
      h.in_recovery = true;
      h.recover = h.snd_nxt;
      if (trace_) {
        trace_->instant(trace_track_, "tcp",
                        std::string("fast_retransmit.") + side_name(sender),
                        {{"seq", h.snd_una}});
      }
      const std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>(config_.mss, h.app_end - h.snd_una));
      if (len > 0)
        transmit_segment(sender, h.snd_una, len, /*is_retransmit=*/true);
    } else if (h.dup_acks > 3 && h.in_recovery) {
      h.cwnd += 1.0;  // inflate during recovery
    }
  }
  if (trace_) trace_congestion(sender);
  try_send(sender);
}

void TcpConnection::compact(Half& h) {
  // Acknowledged extents release their pins. The released prefix of the
  // extent array is dropped once it is empty behind them or at least half
  // the array, so each extent is moved at most once on average.
  static constexpr std::size_t kMinExtentPrefix = 64;
  while (h.extent_head < h.extents.size() &&
         h.extents[h.extent_head].end() <= h.snd_una) {
    h.extents[h.extent_head++].pin.reset();
  }
  // Acknowledged bytes were delivered, so the delivery cursor is past
  // them, unless there is no receiver to walk it.
  h.deliver_extent = std::max(h.deliver_extent, h.extent_head);
  if (h.extent_head == h.extents.size()) {
    h.extents.clear();
    h.extent_head = 0;
    h.deliver_extent = 0;
  } else if (h.extent_head >= kMinExtentPrefix &&
             2 * h.extent_head >= h.extents.size()) {
    h.extents.erase(h.extents.begin(),
                    h.extents.begin() +
                        static_cast<std::ptrdiff_t>(h.extent_head));
    h.deliver_extent -= h.extent_head;
    h.extent_head = 0;
  }
  // Drop the acknowledged owned prefix once it is at least as long as the
  // live owned tail behind it (and at least kMinPrefix): the tail moved
  // then costs no more bytes than the prefix dropped, so compaction moves
  // at most as many bytes as were sent. Compacting as soon as that holds,
  // rather than when the capacity runs out, keeps the buffer near twice
  // the live bytes and its writes in the same cache-warm region, where a
  // buffer refilled up to its (pooled) capacity streams every byte through
  // cold memory. A fully acknowledged buffer is just emptied.
  static constexpr std::size_t kMinPrefix = 64 * 1024;
  const std::size_t acked = owned_index(h, h.snd_una, h.extent_head);
  const std::size_t live = h.buffer.size() - acked;
  if (acked == 0) return;
  if (live > 0 && (acked < live || acked < kMinPrefix)) return;
  h.buffer.erase(h.buffer.begin(),
                 h.buffer.begin() + static_cast<std::ptrdiff_t>(acked));
  h.compacted += live;
  h.owned_base += acked;
}

void TcpConnection::arm_rto(Side sender) {
  Half& h = half(sender);
  h.rto_timer =
      sim_.rearm_in(h.rto_timer, h.rto, [this, sender] { on_rto(sender); });
}

void TcpConnection::on_rto(Side sender) {
  Half& h = half(sender);
  h.rto_timer = kInvalidEvent;
  if (h.snd_una >= h.app_end) return;  // nothing outstanding
  const double flight =
      static_cast<double>(h.snd_nxt - h.snd_una) / static_cast<double>(
          config_.mss);
  h.ssthresh = std::max(flight / 2.0, 2.0);
  h.cwnd = 1.0;
  h.dup_acks = 0;
  h.in_recovery = false;
  h.rto = std::min<Time>(h.rto * 2, from_seconds(60));  // Karn backoff
  // Go-back-N: multiple holes in one window would otherwise each cost one
  // (exponentially growing) RTO. The receiver buffers out-of-order data and
  // acks cumulatively, so redundant retransmissions resolve instantly.
  h.snd_nxt = h.snd_una;
  h.sample_sent_at = -1;  // Karn: no sampling across a timeout
  ++h.retransmissions;
  if (trace_) {
    trace_->instant(trace_track_, "tcp",
                    std::string("rto.") + side_name(sender),
                    {{"next_rto_ms", to_ms(h.rto)}});
    ++trace_->summary().retransmissions;
    trace_congestion(sender);
  }
  try_send(sender);
}

void TcpConnection::maybe_signal_writable(Side sender) {
  Half& h = half(sender);
  const bool low = unsent_bytes(sender) < config_.write_watermark;
  if (low && !h.writable_low) {
    h.writable_low = true;
    if (callbacks_.on_writable) callbacks_.on_writable(sender);
  } else if (!low) {
    h.writable_low = false;
  }
}

}  // namespace h2push::sim
