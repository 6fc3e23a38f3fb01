// Links and routes.
//
// A Link models one direction of a bottleneck: fixed rate, propagation
// delay, and a droptail byte queue. All page-load connections share the two
// access-link directions (16 Mbit/s down, 1 Mbit/s up in the paper's DSL
// profile), which is what creates bandwidth contention between concurrent
// push streams (paper §5, w10). A Route is a Link plus an extra per-path
// propagation delay (server distance behind the access link).
//
// A packet leaves the queue when its serialization ends. The link does not
// schedule an event for that: enqueue() reserves the key the departure
// event would have had (Simulator::reserve_seq()) and appends {departure
// time, key, bytes} to a FIFO whose times only rise. Before the queue is
// read — enqueue(), queued_bytes(), queued_packets() — every entry whose
// key the simulator has passed (Simulator::passed()) is retired, which is
// exactly the set of departure events that would have fired by then, ties
// at the same instant included. So a page load costs one event per packet,
// its delivery. A traced link still schedules the departure event, on the
// reserved key, only to stamp the queue counters at departure: traced and
// untraced runs then consume the same sequence numbers and fire every
// other event in the same order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace h2push::trace {
class TraceRecorder;
}

namespace h2push::sim {

struct LinkConfig {
  double rate_bps = 16e6;            ///< serialization rate, bits/second
  Time prop_delay = 0;               ///< one-way propagation on this link
  /// Droptail buffer. tc's default pfifo qdisc limits the queue in
  /// *packets* (1000), so a flood of 40-byte ACKs cannot build seconds of
  /// queueing delay the way a byte-capped buffer would; the byte cap is a
  /// safety backstop.
  std::size_t queue_packets = 1000;
  std::size_t queue_capacity = 1000 * 1500;  ///< bytes backstop
  double random_loss = 0.0;          ///< iid loss probability (Internet mode)
};

class Link {
 public:
  /// A queued packet: it leaves when the simulator passes its departure
  /// event's key (at, seq).
  struct Departure {
    Time at;
    std::uint64_t seq;
    std::size_t bytes;
  };

  Link(Simulator& sim, LinkConfig config, util::Rng loss_rng);
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Enqueue a packet of `bytes` (incl. headers). `on_delivered` fires after
  /// queueing + serialization + propagation (+ extra_delay); it is stored in
  /// the simulator's inline event storage, so a small capture costs no heap
  /// allocation. Returns false if the queue was full and the packet was
  /// dropped. A random loss returns true: the network took the packet and
  /// silently lost it, so `on_delivered` never fires.
  template <typename F>
  bool transmit(std::size_t bytes, Time extra_delay, F&& on_delivered) {
    Time arrival = 0;
    if (!enqueue(bytes, extra_delay, arrival)) return false;
    if (arrival < 0) return true;  // random loss
    sim_.schedule_at(
        arrival, [this, bytes, cb = std::forward<F>(on_delivered)]() mutable {
          deliver(bytes);
          cb();
        });
    return true;
  }

  std::size_t queued_bytes() const noexcept {
    retire();
    return queued_bytes_;
  }
  std::size_t queued_packets() const noexcept {
    retire();
    return queued_count_;
  }
  std::uint64_t delivered_packets() const noexcept { return delivered_; }
  std::uint64_t dropped_packets() const noexcept { return dropped_; }

  // Byte conservation (fuzz/invariants.h): every byte accepted onto the
  // link is eventually delivered; dropped bytes never enter the queue.
  // With the simulator drained: accepted == delivered and queued == 0.
  std::uint64_t accepted_bytes() const noexcept { return accepted_bytes_; }
  std::uint64_t delivered_bytes() const noexcept { return delivered_bytes_; }
  std::uint64_t dropped_bytes() const noexcept { return dropped_bytes_; }
  /// Cumulative serialization time: (now - busy_time) is the link's idle
  /// time, the resource Server Push tries to fill (paper §4.3).
  Time busy_time() const noexcept { return busy_time_; }
  const LinkConfig& config() const noexcept { return config_; }

  /// Attach a trace recorder (queue-depth counters, drop instants).
  void set_trace(trace::TraceRecorder* recorder, std::uint32_t track) {
    trace_ = recorder;
    track_ = track;
  }

 private:
  /// Queue accounting and the departure key. Returns false on queue
  /// overflow; otherwise sets `arrival` to the delivery time, or to -1 for
  /// a random loss.
  bool enqueue(std::size_t bytes, Time extra_delay, Time& arrival);
  void deliver(std::size_t bytes);
  /// Drop the queued packets whose departure the simulator has passed.
  void retire() const noexcept;
  void trace_queue() const;

  Simulator& sim_;
  LinkConfig config_;
  util::Rng loss_rng_;
  Time busy_until_ = 0;
  Time busy_time_ = 0;
  // The queue: a ring over departures_ (its size a power of two, recycled
  // per thread) of queued_count_ entries from queued_head_. Retiring is
  // bookkeeping the const accessors may do, hence mutable.
  mutable std::vector<Departure> departures_;
  mutable std::size_t queued_head_ = 0;
  mutable std::size_t queued_count_ = 0;
  mutable std::size_t queued_bytes_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t accepted_bytes_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  trace::TraceRecorder* trace_ = nullptr;
  std::uint32_t track_ = 0;
};

/// One direction of a path: the shared access link plus path-specific extra
/// propagation (distance to this origin's server).
struct Route {
  Link* link = nullptr;
  Time extra_prop = 0;

  template <typename F>
  bool transmit(std::size_t bytes, F&& on_delivered) const {
    return link->transmit(bytes, extra_prop, std::forward<F>(on_delivered));
  }
};

}  // namespace h2push::sim
