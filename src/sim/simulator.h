// Discrete-event simulation core.
//
// A single-threaded event loop with deterministic ordering: events fire in
// (time, insertion-sequence) order, so two events scheduled for the same
// instant run in the order they were scheduled. Every schedule takes the
// next sequence number, and that (time, seq) pair is the event's key.
//
// The schedule/fire path is the simulator's hottest loop — a page-load sweep
// executes tens of millions of events — so it is allocation-free in steady
// state: callbacks live in fixed inline storage inside pooled event nodes
// (an intrusive free list recycles nodes as they fire), and the priority
// queue is an indexed binary heap of 24-byte {time, seq, node*} entries
// whose nodes record their heap position. That position makes cancel() an
// O(log n) removal, so the heap never holds dead entries. Stale EventIds
// (fired, cancelled, re-armed, or recycled) are rejected via a per-node
// generation tag packed into the id, so cancel() keeps its "any id is safe"
// contract.
//
// Two rules keep the queue to about one entry per packet:
//   - Reserved keys. reserve_seq() takes a sequence number without
//     scheduling anything, so a component can keep the key an event would
//     have had and ask passed(t, seq) later whether the simulator has gone
//     past it — exactly whether that event would have fired by now. A Link
//     retires its queue this way instead of scheduling a departure event
//     per packet (sim/link.h).
//   - Deferred re-arm. rearm_at() to a later key leaves the node's heap
//     entry where it is and records the new key in the node. When the
//     stale entry reaches the front it is re-queued under the recorded key
//     and nothing fires, so TCP's retransmission timer, re-armed on every
//     ACK, costs no heap work until it nears the front. Re-arming earlier
//     moves the entry in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace h2push::sim {

using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

namespace detail {

/// Move-nothing callable container with inline storage sized for the event
/// lambdas the network stack schedules (they capture `this` plus a handful
/// of values). Callables larger than the buffer fall back to one heap
/// allocation; none of the hot paths need it. Constructed in place inside a
/// pooled EventNode and never relocated, so no move support is required.
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 64;

  EventFn() = default;
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      invoke_ = [](void* p) { (**static_cast<Fn**>(p))(); };
      destroy_ = [](void* p) { delete *static_cast<Fn**>(p); };
    }
  }

  void operator()() { invoke_(storage_); }

  void reset() {
    if (destroy_ != nullptr) {
      destroy_(storage_);
      destroy_ = nullptr;
      invoke_ = nullptr;
    }
  }

 private:
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

}  // namespace detail

class Simulator {
  struct EventNode;

 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (clamped to now()).
  template <typename F>
  EventId schedule_at(Time t, F&& fn) {
    EventNode* node = allocate_node();
    node->fn.emplace(std::forward<F>(fn));
    push(QueueEntry{t < now_ ? now_ : t, next_seq_++, node});
    return id_of(node);
  }

  /// Schedule `fn` `delay` after now().
  template <typename F>
  EventId schedule_in(Time delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Take the sequence number the next schedule_at() would have used,
  /// scheduling nothing. Events scheduled later order after the key.
  std::uint64_t reserve_seq() noexcept { return next_seq_++; }

  /// Schedule `fn` under a key taken with reserve_seq(): it fires exactly
  /// where a schedule_at(t, fn) made at reservation time would have.
  /// `t` must not be before now().
  template <typename F>
  EventId schedule_reserved(Time t, std::uint64_t seq, F&& fn) {
    EventNode* node = allocate_node();
    node->fn.emplace(std::forward<F>(fn));
    push(QueueEntry{t, seq, node});
    return id_of(node);
  }

  /// Whether the simulator has gone past key (t, seq) of an issued
  /// sequence number: an event with that key would have fired by now. True
  /// for keys at or before the running (or last fired) event's, and, after
  /// a run(deadline) that stopped at its deadline, for every key issued
  /// before the stop with t at or before that deadline.
  bool passed(Time t, std::uint64_t seq) const noexcept {
    if (t != now_ ? t < now_ : seq <= fired_seq_) return true;
    if (seq < stop_.seq && t <= stop_.time) return true;
    for (const Key& stop : earlier_stops_) {
      if (seq < stop.seq && t <= stop.time) return true;
    }
    return false;
  }

  /// Cancel a pending event. Safe to call with kInvalidEvent, an id that
  /// already fired, an id that was never issued, or an id cancelled before
  /// (all no-ops): the generation tag in the id mismatches once a node is
  /// recycled, and a node that is not in the heap is left alone, so
  /// pending_events() stays exact.
  void cancel(EventId id);

  /// Exactly `cancel(id); return schedule_at(t, fn);` — same (time, seq)
  /// key, same seq consumption, same fire order, and `id` is stale
  /// afterwards — but when `id` is pending its node is reused: moved within
  /// the heap when the new key is earlier, otherwise left in place with the
  /// new key recorded for when its entry reaches the front.
  template <typename F>
  EventId rearm_at(EventId id, Time t, F&& fn) {
    EventNode* node = pending_node(id);
    if (node == nullptr) return schedule_at(t, std::forward<F>(fn));
    node->fn.emplace(std::forward<F>(fn));
    ++node->generation;  // the old id must not reach the re-armed event
    rekey(node, t < now_ ? now_ : t);
    return id_of(node);
  }

  /// rearm_at(id, now() + delay, fn).
  template <typename F>
  EventId rearm_in(EventId id, Time delay, F&& fn) {
    return rearm_at(id, now_ + delay, std::forward<F>(fn));
  }

  /// Run the next pending event; returns false when the queue is empty.
  /// Re-queueing a deferred re-arm's entry does not count as a run.
  bool step();

  /// Run every event keyed at or before `deadline`, then stop (now() is
  /// the last fired event's time, not the deadline).
  void run(Time deadline = INT64_MAX);

  /// Pending events, one heap entry each (a deferred re-arm included).
  std::size_t pending_events() const noexcept { return heap_.size(); }
  std::uint64_t executed_events() const noexcept { return executed_; }

  /// Nodes currently on the free list (observability for pool tests).
  std::size_t pooled_nodes() const noexcept;

  /// Total pool capacity ever allocated (observability for pool tests:
  /// allocated_nodes() - pooled_nodes() = live nodes).
  std::size_t allocated_nodes() const noexcept { return nodes_.size(); }

  /// Invariant-checker hook, called with the fire time of every event just
  /// before its callback runs. Empty (the default) costs one branch in
  /// step(); tests install a checker that asserts time monotonicity and
  /// cross-layer conservation laws (see fuzz/invariants.h).
  void set_fire_hook(std::function<void(Time)> hook) {
    fire_hook_ = std::move(hook);
  }

 private:
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  struct EventNode {
    detail::EventFn fn;
    EventNode* next_free = nullptr;
    std::uint32_t slot = 0;        // index into nodes_, stable for life
    std::uint32_t generation = 1;  // bumped on recycle; stale ids mismatch
    std::uint32_t heap_index = kNotQueued;  // position in heap_ if there
    // Deferred re-arm: the key the node is due at when its heap entry,
    // still under an earlier key, reaches the front. 0 = none.
    std::uint64_t rearm_seq = 0;
    Time rearm_time = 0;
  };

  struct Key {
    Time time;
    std::uint64_t seq;
  };

  struct QueueEntry {
    Time time;
    std::uint64_t seq;  // FIFO among same-time events
    EventNode* node;
    bool before(const QueueEntry& other) const noexcept {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  static EventId id_of(const EventNode* node) noexcept {
    return (static_cast<EventId>(node->generation) << 32) |
           static_cast<EventId>(node->slot + 1);
  }

  EventNode* allocate_node();
  void release_node(EventNode* node);
  /// The node `id` names if it is still in the heap, else nullptr.
  EventNode* pending_node(EventId id) const noexcept;

  /// rearm_at()'s re-key to (t, next seq): deferred when later than the
  /// node's heap entry, a move otherwise.
  void rekey(EventNode* node, Time t);
  /// Pop the front event and run it.
  void fire_front();
  /// Re-queue the front entry, a deferred re-arm, under its recorded key.
  void requeue_front();

  // Indexed binary min-heap on (time, seq); every write of an entry also
  // records its position in the entry's node.
  void push(const QueueEntry& entry);
  void move(EventNode* node, Time t);
  void remove(EventNode* node);
  void pop_front();
  void place(std::size_t i, const QueueEntry& entry) noexcept {
    heap_[i] = entry;
    entry.node->heap_index = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i, QueueEntry entry) noexcept;
  void sift_down(std::size_t i, QueueEntry entry) noexcept;

  Time now_ = 0;
  std::uint64_t fired_seq_ = 0;  // with now_, the last fired event's key
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  // Deadline stops of run(): every key with seq below `seq` and time at or
  // before `time` has passed. stop_ is the latest; earlier_stops_ keeps
  // those with later deadlines than it, which only runs to decreasing
  // deadlines leave (seq falls and time rises towards the front).
  Key stop_{-1, 0};
  std::vector<Key> earlier_stops_;
  std::vector<QueueEntry> heap_;
  // Pool backing storage: nodes are allocated in blocks and never freed
  // until the simulator dies; nodes_ maps slot → node for cancel().
  std::vector<std::unique_ptr<EventNode[]>> blocks_;
  std::vector<EventNode*> nodes_;
  EventNode* free_list_ = nullptr;
  std::function<void(Time)> fire_hook_;
};

}  // namespace h2push::sim
