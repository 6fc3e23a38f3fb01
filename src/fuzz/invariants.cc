#include "fuzz/invariants.h"

namespace h2push::fuzz {

SimChecker::SimChecker(sim::Simulator& sim) : sim_(sim) {
  last_time_ = sim.now();
  sim.set_fire_hook([this](sim::Time t) {
    ++events_;
    if (violation_) return;
    if (t < last_time_) {
      violation_ = "event time went backwards: " + std::to_string(t) +
                   " after " + std::to_string(last_time_);
      return;
    }
    last_time_ = t;
    if (t != sim_.now()) {
      violation_ = "fire hook time disagrees with now()";
      return;
    }
    const std::size_t live =
        sim_.allocated_nodes() - sim_.pooled_nodes();
    if (sim_.pending_events() + 1 != live) {
      // +1: the firing node is released only after its callback runs. Any
      // other live node would be a dead heap entry or a leak.
      violation_ = "pending events (" +
                   std::to_string(sim_.pending_events()) +
                   ") + 1 != live pool nodes (" + std::to_string(live) + ")";
    }
  });
}

std::optional<std::string> check_drained(const sim::Simulator& sim) {
  if (sim.pending_events() != 0) {
    return "queue not drained: " + std::to_string(sim.pending_events()) +
           " pending events";
  }
  if (sim.pooled_nodes() != sim.allocated_nodes()) {
    return "pool leak: " +
           std::to_string(sim.allocated_nodes() - sim.pooled_nodes()) +
           " nodes not recycled";
  }
  return std::nullopt;
}

std::optional<std::string> check_link_conservation(const sim::Link& link) {
  if (link.queued_bytes() != 0) {
    return "link still holds " + std::to_string(link.queued_bytes()) +
           " queued bytes";
  }
  if (link.queued_packets() != 0) {
    return "link still holds " + std::to_string(link.queued_packets()) +
           " queued packets";
  }
  if (link.accepted_bytes() != link.delivered_bytes()) {
    return "byte conservation violated: accepted " +
           std::to_string(link.accepted_bytes()) + " != delivered " +
           std::to_string(link.delivered_bytes());
  }
  return std::nullopt;
}

}  // namespace h2push::fuzz
