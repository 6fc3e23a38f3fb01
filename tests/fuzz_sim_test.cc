// Seeded mini-fuzz for the discrete-event simulator and link layer.
//
// Random schedule/cancel/reschedule workloads (including from inside
// callbacks, the pattern TCP retransmission timers use) under the
// SimChecker fire hook: event times never go backwards, pool accounting
// stays exact, links conserve bytes. rearm_at is checked against its
// definition (cancel + schedule_at) on random operation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "fuzz/invariants.h"
#include "fuzz/random.h"
#include "fuzz_common.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace h2push {
namespace {

using fuzz::Random;
using fuzz_test::iterations;
using fuzz_test::seed_msg;

TEST(FuzzSim, RandomScheduleCancelWorkloads) {
  const std::size_t iters = iterations(1000);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kSimSeed + i;
    Random r(seed);
    sim::Simulator sim;
    fuzz::SimChecker checker(sim);

    std::vector<sim::EventId> ids;
    std::uint64_t fired = 0;
    auto plan = r.fork("plan");
    // Seed events; each may reschedule or cancel others when it fires —
    // the self-modifying pattern TCP retransmission timers follow.
    const std::size_t initial = plan.range(1, 40);
    for (std::size_t j = 0; j < initial; ++j) {
      const auto t = static_cast<sim::Time>(plan.range(0, 1000));
      // The callback's own draws come from a fork so adding events does
      // not perturb the planner stream.
      auto cb_rng = plan.fork("cb");
      ids.push_back(sim.schedule_at(
          t, [&sim, &ids, &fired, cb_rng]() mutable {
            ++fired;
            Random cr(cb_rng);
            if (cr.chance(0.3) && !ids.empty()) {
              sim.cancel(ids[cr.index(ids.size())]);
            }
            if (cr.chance(0.4)) {
              ids.push_back(sim.schedule_in(
                  static_cast<sim::Time>(cr.range(0, 50)), [&fired] {
                    ++fired;
                  }));
            }
          }));
    }
    // Cancel a random subset up front, including double-cancels and ids
    // that will have fired by then — all must be safe no-ops.
    auto chaos = r.fork("chaos");
    const std::size_t cancels = chaos.small_count(10);
    for (std::size_t j = 0; j < cancels; ++j) {
      sim.cancel(ids[chaos.index(ids.size())]);
    }
    sim.cancel(sim::kInvalidEvent);

    sim.run();

    ASSERT_FALSE(checker.violation().has_value())
        << *checker.violation() << seed_msg(seed);
    if (auto leak = fuzz::check_drained(sim)) {
      FAIL() << *leak << seed_msg(seed);
    }
    // The hook fires once per executed (non-cancelled) event; with an
    // aggressive-enough chaos pass everything can legitimately be cancelled.
    EXPECT_EQ(checker.events_checked(), fired) << seed_msg(seed);
  }
}

TEST(FuzzSim, LinkByteConservationUnderRandomLoads) {
  const std::size_t iters = iterations(500);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kSimSeed + (1u << 20) + i;
    Random r(seed);
    sim::Simulator sim;
    fuzz::SimChecker checker(sim);

    sim::LinkConfig config;
    config.rate_bps = 1e6 * static_cast<double>(r.range(1, 100));
    config.prop_delay = static_cast<sim::Time>(r.range(0, 10000));
    config.queue_packets = r.range(1, 64);
    config.queue_capacity = r.range(1500, 64 * 1500);
    sim::Link link(sim, config, util::Rng(r.next()));

    std::uint64_t delivered_cb = 0;
    std::uint64_t accepted = 0;
    auto load = r.fork("load");
    const std::size_t packets = load.range(1, 200);
    for (std::size_t j = 0; j < packets; ++j) {
      const auto bytes = static_cast<std::size_t>(load.range(40, 1500));
      if (link.transmit(bytes, 0, [&delivered_cb] { ++delivered_cb; })) {
        accepted += bytes;
      }
      // Occasionally let the queue drain part-way so arrival patterns mix
      // bursts with steady state.
      if (load.chance(0.2)) {
        sim.run(sim.now() + static_cast<sim::Time>(load.range(0, 20000)));
      }
    }
    sim.run();

    ASSERT_FALSE(checker.violation().has_value())
        << *checker.violation() << seed_msg(seed);
    if (auto leak = fuzz::check_drained(sim)) {
      FAIL() << *leak << seed_msg(seed);
    }
    if (auto violation = fuzz::check_link_conservation(link)) {
      FAIL() << *violation << seed_msg(seed);
    }
    EXPECT_EQ(link.accepted_bytes(), accepted) << seed_msg(seed);
    EXPECT_EQ(link.delivered_packets(), delivered_cb) << seed_msg(seed);
  }
}

// Pooled-event generation safety: ids from long-recycled nodes must never
// cancel the node's current occupant.
TEST(FuzzSim, StaleEventIdsNeverCancelRecycledNodes) {
  const std::size_t iters = iterations(500);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kSimSeed + (2u << 20) + i;
    Random r(seed);
    sim::Simulator sim;

    // Round 1: run events to completion and keep their (now stale) ids.
    std::vector<sim::EventId> stale;
    const std::size_t n = r.range(1, 30);
    std::uint64_t fired = 0;
    for (std::size_t j = 0; j < n; ++j) {
      stale.push_back(sim.schedule_at(
          static_cast<sim::Time>(r.range(0, 100)), [&fired] { ++fired; }));
    }
    sim.run();
    ASSERT_EQ(fired, n) << seed_msg(seed);

    // Round 2: new events recycle the pool nodes; stale cancels must be
    // no-ops and every new event must still fire.
    std::uint64_t fired2 = 0;
    for (std::size_t j = 0; j < n; ++j) {
      sim.schedule_at(static_cast<sim::Time>(r.range(200, 300)),
                      [&fired2] { ++fired2; });
    }
    for (const auto id : stale) sim.cancel(id);
    sim.run();
    EXPECT_EQ(fired2, n) << seed_msg(seed);
    if (auto leak = fuzz::check_drained(sim)) {
      FAIL() << *leak << seed_msg(seed);
    }
  }
}

// rearm_at(id, t, fn) is defined as cancel(id) + schedule_at(t, fn). Two
// simulators run the same seeded plan of schedules, cancels, re-arms, steps
// and bounded runs — also from inside callbacks, re-arming the firing
// event's own slot among others — one through rearm_at, one through the
// definition. They must agree after every operation, and stale ids
// (re-armed away, cancelled, or fired) must stay no-ops.
struct RearmPlanAction {
  enum class Kind { kNone, kSchedule, kArm, kArmSelf, kCancel } kind;
  std::size_t target;  // slot, modulo the slots existing at the time
  sim::Time delta;     // from now(); negative values exercise the clamp
  std::size_t label;   // action the new event runs when it fires
  // kArm of a pending slot: |delta| after its due time instead, so the
  // re-arm moves the event later (Simulator's deferred path).
  bool later = false;
};

class RearmSim {
 public:
  RearmSim(bool use_rearm, const std::vector<RearmPlanAction>& actions)
      : use_rearm_(use_rearm), actions_(actions) {}

  void apply(const RearmPlanAction& a, std::size_t self_slot) {
    const sim::Time t = sim.now() + a.delta;
    switch (a.kind) {
      case RearmPlanAction::Kind::kNone:
        break;
      case RearmPlanAction::Kind::kSchedule:
        ids.push_back(sim.schedule_at(t, Fire{this, ids.size(), a.label}));
        due.push_back(std::max(t, sim.now()));
        break;
      case RearmPlanAction::Kind::kArm:
        if (!ids.empty()) {
          const std::size_t slot = a.target % ids.size();
          const sim::Time delta = a.delta < 0 ? -a.delta : a.delta;
          arm(slot, a.later && due[slot] >= 0 ? due[slot] + delta : t,
              a.label);
        }
        break;
      case RearmPlanAction::Kind::kArmSelf:
        if (self_slot < ids.size()) arm(self_slot, t, a.label);
        break;
      case RearmPlanAction::Kind::kCancel:
        if (!ids.empty()) {
          const std::size_t slot = a.target % ids.size();
          sim.cancel(ids[slot]);
          due[slot] = -1;
        }
        break;
    }
  }

  sim::Simulator sim;
  std::vector<sim::EventId> ids;    // slot → its latest id
  std::vector<sim::EventId> stale;  // re-armed away or fired
  std::vector<std::pair<std::size_t, sim::Time>> fired;  // (label, time)
  std::vector<sim::Time> due;  // slot → when its event fires, -1 if none
  std::size_t pending_rearms = 0;  // re-arms of a pending event
  std::size_t later_rearms = 0;    // of those, to a time not earlier

 private:
  struct Fire {
    RearmSim* owner;
    std::size_t slot;
    std::size_t label;
    void operator()() const {
      owner->fired.emplace_back(label, owner->sim.now());
      owner->due[slot] = -1;
      owner->stale.push_back(owner->ids[slot]);  // its own id, now spent
      owner->apply(owner->actions_[label], slot);
    }
  };

  void arm(std::size_t slot, sim::Time t, std::size_t label) {
    stale.push_back(ids[slot]);
    if (due[slot] >= 0) {
      ++pending_rearms;
      if (t >= due[slot]) ++later_rearms;
    }
    due[slot] = std::max(t, sim.now());
    if (use_rearm_) {
      ids[slot] = sim.rearm_at(ids[slot], t, Fire{this, slot, label});
    } else {
      sim.cancel(ids[slot]);
      ids[slot] = sim.schedule_at(t, Fire{this, slot, label});
    }
  }

  bool use_rearm_;
  const std::vector<RearmPlanAction>& actions_;
};

TEST(FuzzSim, RearmMatchesCancelPlusSchedule) {
  const std::size_t iters = iterations(300);
  std::size_t pending_rearms = 0;
  std::size_t later_rearms = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kSimSeed + (3u << 20) + i;
    Random r(seed);
    auto table = r.fork("actions");
    std::vector<RearmPlanAction> actions(table.range(1, 48));
    const auto random_action = [&](Random& g, sim::Time min_delta) {
      RearmPlanAction a;
      a.kind = static_cast<RearmPlanAction::Kind>(g.range(0, 4));
      a.target = g.index(64);
      a.delta = min_delta + static_cast<sim::Time>(g.range(0, 100));
      a.label = g.index(actions.size());
      a.later = g.range(0, 1) == 1;
      return a;
    };
    // Callbacks always move time forward, so chains of events terminate;
    // operations from outside also schedule into the past (clamped).
    for (auto& a : actions) a = random_action(table, 1);

    RearmSim moved(/*use_rearm=*/true, actions);
    RearmSim reference(/*use_rearm=*/false, actions);
    fuzz::SimChecker checker(moved.sim);
    auto plan = r.fork("plan");
    const std::size_t ops = plan.range(1, 200);
    for (std::size_t op = 0; op < ops; ++op) {
      const auto choice = plan.range(0, 9);
      if (choice < 5) {
        const RearmPlanAction a = random_action(plan, -20);
        moved.apply(a, SIZE_MAX);
        reference.apply(a, SIZE_MAX);
      } else if (choice < 7) {
        EXPECT_EQ(moved.sim.step(), reference.sim.step()) << seed_msg(seed);
      } else if (choice < 8) {
        const sim::Time deadline =
            moved.sim.now() + static_cast<sim::Time>(plan.range(0, 60));
        moved.sim.run(deadline);
        reference.sim.run(deadline);
      } else if (!moved.stale.empty()) {
        // A re-armed-away or fired id: cancelling it changes nothing.
        const std::size_t pending = moved.sim.pending_events();
        const std::size_t k = plan.index(moved.stale.size());
        moved.sim.cancel(moved.stale[k]);
        reference.sim.cancel(reference.stale[k]);
        EXPECT_EQ(moved.sim.pending_events(), pending) << seed_msg(seed);
        EXPECT_EQ(reference.sim.pending_events(), pending) << seed_msg(seed);
      }
      ASSERT_EQ(moved.fired, reference.fired) << "op " << op << seed_msg(seed);
      ASSERT_EQ(moved.sim.now(), reference.sim.now()) << seed_msg(seed);
      ASSERT_EQ(moved.sim.executed_events(), reference.sim.executed_events())
          << seed_msg(seed);
      ASSERT_EQ(moved.sim.pending_events(), reference.sim.pending_events())
          << seed_msg(seed);
      // No dead entries: every live pool node is a pending event.
      ASSERT_EQ(moved.sim.allocated_nodes() - moved.sim.pooled_nodes(),
                moved.sim.pending_events())
          << seed_msg(seed);
    }
    // Drain with a bound: re-arming callbacks can chain indefinitely.
    const sim::Time end = moved.sim.now() + 2000;
    moved.sim.run(end);
    reference.sim.run(end);
    EXPECT_EQ(moved.fired, reference.fired) << seed_msg(seed);
    EXPECT_EQ(moved.sim.now(), reference.sim.now()) << seed_msg(seed);
    ASSERT_FALSE(checker.violation().has_value())
        << *checker.violation() << seed_msg(seed);
    pending_rearms += moved.pending_rearms;
    later_rearms += moved.later_rearms;
  }
  // At least half the re-arms of pending events move them later: the
  // deferred path, whose stale entries step() and run() must skip.
  EXPECT_GE(2 * later_rearms, pending_rearms);
  EXPECT_GT(pending_rearms, 0u);
}

}  // namespace
}  // namespace h2push
