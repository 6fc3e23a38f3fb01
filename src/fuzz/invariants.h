// Simulator invariant checking (tentpole pillar 4).
//
// SimChecker hooks Simulator::set_fire_hook and validates, on every event:
//   * event-time monotonicity (time never goes backwards);
//   * exact pool accounting: live nodes (allocated - pooled) are the
//     pending events plus the firing one, so the heap holds no dead
//     entries.
// Free functions validate end-state conservation laws for links and the
// event pool. All failures are collected, not thrown, so a fuzz iteration
// can report the seed alongside the first violation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/link.h"
#include "sim/simulator.h"

namespace h2push::fuzz {

class SimChecker {
 public:
  /// Installs the fire hook; replaces any previous hook.
  explicit SimChecker(sim::Simulator& sim);

  /// First violation observed by the hook (nullopt = clean so far).
  const std::optional<std::string>& violation() const noexcept {
    return violation_;
  }
  std::uint64_t events_checked() const noexcept { return events_; }

 private:
  sim::Simulator& sim_;
  sim::Time last_time_ = 0;
  std::uint64_t events_ = 0;
  std::optional<std::string> violation_;
};

/// After run(): the queue must be empty and every pool node recycled.
std::optional<std::string> check_drained(const sim::Simulator& sim);

/// Byte conservation on a drained link: accepted == delivered, nothing
/// still queued, and packet counters consistent with byte counters.
std::optional<std::string> check_link_conservation(const sim::Link& link);

}  // namespace h2push::fuzz
