#include "sim/link.h"

#include <algorithm>
#include <bit>

#include "sim/vector_pool.h"
#include "trace/trace.h"

namespace h2push::sim {
namespace {

// Departure rings of finished links: a page load's two links start at the
// size earlier ones grew to, so a warm load allocates none.
VectorPool<Link::Departure>& departure_pool() {
  thread_local VectorPool<Link::Departure> pool;
  return pool;
}

constexpr std::size_t kMinRing = 64;

}  // namespace

Link::Link(Simulator& sim, LinkConfig config, util::Rng loss_rng)
    : sim_(sim),
      config_(config),
      loss_rng_(loss_rng),
      departures_(departure_pool().acquire()) {
  // A recycled ring comes back empty: its capacity, a power of two as
  // grown below, is its size again.
  departures_.resize(std::bit_floor(departures_.capacity()));
}

Link::~Link() { departure_pool().release(std::move(departures_)); }

void Link::retire() const noexcept {
  const std::size_t mask = departures_.size() - 1;
  while (queued_count_ > 0) {
    const Departure& d = departures_[queued_head_];
    if (!sim_.passed(d.at, d.seq)) break;
    queued_bytes_ -= d.bytes;
    queued_head_ = (queued_head_ + 1) & mask;
    --queued_count_;
  }
}

void Link::trace_queue() const {
  trace_->counter(track_, "sim", "queue_bytes",
                  static_cast<double>(queued_bytes_));
  trace_->counter(track_, "sim", "queue_packets",
                  static_cast<double>(queued_count_));
}

bool Link::enqueue(std::size_t bytes, Time extra_delay, Time& arrival) {
  retire();
  if (queued_bytes_ + bytes > config_.queue_capacity ||
      queued_count_ >= config_.queue_packets) {
    ++dropped_;
    dropped_bytes_ += bytes;
    if (trace_) {
      trace_->instant(track_, "sim", "drop.queue_full", {{"bytes", bytes}});
      ++trace_->summary().packets_dropped;
    }
    return false;
  }
  if (config_.random_loss > 0 && loss_rng_.bernoulli(config_.random_loss)) {
    ++dropped_;
    dropped_bytes_ += bytes;
    if (trace_) {
      trace_->instant(track_, "sim", "drop.random_loss", {{"bytes", bytes}});
      ++trace_->summary().packets_dropped;
    }
    arrival = -1;  // consumed by the network, silently lost
    return true;
  }
  const double ser_seconds =
      static_cast<double>(bytes) * 8.0 / config_.rate_bps;
  const Time ser = from_seconds(ser_seconds);
  const Time start = std::max(sim_.now(), busy_until_);
  const Time depart = start + ser;
  busy_until_ = depart;
  busy_time_ += ser;
  if (queued_count_ == departures_.size()) {
    // Full ring: unroll it into one twice the size.
    std::vector<Departure> grown(std::max(kMinRing, 2 * departures_.size()));
    for (std::size_t i = 0; i < queued_count_; ++i) {
      grown[i] = departures_[(queued_head_ + i) & (departures_.size() - 1)];
    }
    departures_ = std::move(grown);
    queued_head_ = 0;
  }
  // Bytes leave the queue when serialization completes...
  const std::uint64_t seq = sim_.reserve_seq();
  departures_[(queued_head_ + queued_count_) & (departures_.size() - 1)] =
      Departure{depart, seq, bytes};
  ++queued_count_;
  queued_bytes_ += bytes;
  accepted_bytes_ += bytes;
  if (trace_) {
    trace_queue();
    sim_.schedule_reserved(depart, seq, [this] {
      retire();
      trace_queue();
    });
  }
  // ...and arrive after propagation.
  arrival = depart + config_.prop_delay + extra_delay;
  return true;
}

void Link::deliver(std::size_t bytes) {
  ++delivered_;
  delivered_bytes_ += bytes;
  if (trace_) ++trace_->summary().packets_delivered;
}

}  // namespace h2push::sim
