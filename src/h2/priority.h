// RFC 7540 §5.3 stream dependency tree.
//
// Streams form a tree rooted at stream 0. A stream's children only receive
// resources when the stream itself cannot proceed — the "parent-first" rule
// that h2o implements and that the paper's Fig. 5(a) shows delaying pushed
// resources behind a non-blocking parent. Among siblings, capacity is shared
// proportionally to weight; we realize this with deterministic weighted
// round-robin credits at frame granularity.
//
// TreeScheduler is the tree as a connection's DATA scheduler, with the
// paper's optional hard switch on top.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "h2/frame.h"
#include "util/function_ref.h"
#include "util/id_map.h"

namespace h2push::trace {
class TraceRecorder;
}

namespace h2push::h2 {

/// Whether a stream has sendable data right now.
using ReadyFn = util::FunctionRef<bool(std::uint32_t)>;

class PriorityTree {
 public:
  /// Idle nodes kept at most: placeholders for unknown parents and ids
  /// named only by PRIORITY frames (RFC 7540 §5.3.4 lets an endpoint bound
  /// them). Past the cap the oldest idle node is removed as remove() does.
  /// The simulated page loads stay well below it.
  static constexpr std::size_t kMaxIdleNodes = 256;

  PriorityTree();

  /// Insert a stream that opened (HEADERS or PUSH_PROMISE); an existing
  /// node, idle or not, becomes a stream and is reprioritized. Unknown
  /// parents are created as idle placeholders (RFC 7540 §5.3.1). Exclusive
  /// insertion adopts the parent's children.
  void add(std::uint32_t id, const PrioritySpec& spec);

  /// PRIORITY frame: move a stream (and its subtree) to a new parent; an
  /// unknown id is inserted as an idle node. Moving under one's own
  /// descendant first reparents that descendant (§5.3.3).
  void reprioritize(std::uint32_t id, const PrioritySpec& spec);

  /// Remove a closed stream; children are reparented to its parent.
  void remove(std::uint32_t id);

  bool contains(std::uint32_t id) const { return nodes_.contains(id); }
  std::uint32_t parent_of(std::uint32_t id) const;
  std::uint16_t weight_of(std::uint32_t id) const;
  std::vector<std::uint32_t> children_of(std::uint32_t id) const;
  /// Nodes in the tree, the root included.
  std::size_t size() const noexcept { return nodes_.size(); }
  /// Nodes that are not streams (placeholders and PRIORITY-only ids).
  std::size_t idle_count() const noexcept { return idle_count_; }

  /// Pick the next stream to serve: depth-first, parent before children,
  /// weighted round-robin among sibling subtrees. `ready(id)` says whether a
  /// stream has sendable data right now. Returns 0 if nothing is ready.
  std::uint32_t pick(ReadyFn ready);

  /// True if `ancestor` is a (transitive) ancestor of `id`.
  bool is_ancestor(std::uint32_t ancestor, std::uint32_t id) const;

 private:
  // Nodes link each other by slot in nodes_ (stable while a node lives):
  // children are a doubly linked sibling list in insertion order, and idle
  // nodes a second list in creation order. Nothing is allocated per node.
  using Slot = std::uint32_t;
  static constexpr Slot kNil = util::kNoSlot;
  static constexpr Slot kRoot = 0;  // stream 0, inserted first, never erased

  struct Node {
    Slot parent = kNil;
    Slot first_child = kNil;
    Slot last_child = kNil;
    Slot prev_sibling = kNil;
    Slot next_sibling = kNil;
    Slot prev_idle = kNil;  // idle list links, while idle
    Slot next_idle = kNil;
    std::uint16_t weight = 16;
    bool idle = false;
    double credit = 0;  // WRR credit
  };

  std::uint32_t pick_subtree(Slot s, ReadyFn ready);
  /// Insert `id` with `weight`, unlinked; idle nodes join the idle list.
  Slot create(std::uint32_t id, std::uint16_t weight, bool idle);
  void move(Slot s, const PrioritySpec& spec);
  void detach(Slot s);
  void append_child(Slot parent, Slot child);
  /// Link `s` under `parent_id`, creating an idle placeholder for an
  /// unknown parent; exclusive adoption appends the parent's children to
  /// those `s` already has.
  void attach(Slot s, std::uint32_t parent_id, bool exclusive);
  void unlink_idle(Slot s);
  void erase(Slot s);
  void evict_idle();

  util::IdMap<Node> nodes_;  // by stream id; no order is relied on
  Slot idle_head_ = kNil;    // oldest idle node
  Slot idle_tail_ = kNil;
  std::size_t idle_count_ = 0;
  // pick()'s scratch, reused across calls: each level of the descent is
  // done with both before it recurses.
  std::vector<Slot> eligible_;
  std::vector<Slot> probe_stack_;
};

/// The connection's DATA scheduler: the dependency tree, plus the paper's
/// modification of it (§5, Fig. 5a) once configure() is called.
///
/// Unconfigured it is h2o's default: a pushed stream is a child of its
/// parent, so as long as the parent (the HTML) has data and window, the
/// whole parent goes first. Configured, the parent stops after a byte
/// offset (e.g. right after </head> plus the first bytes of <body>), the
/// critical pushes are drained to completion, and then the parent resumes.
/// Non-critical pushes still follow the tree (after the parent).
class TreeScheduler {
 public:
  void on_stream_added(std::uint32_t id, const PrioritySpec& spec) {
    tree_.add(id, spec);
  }
  void on_reprioritized(std::uint32_t id, const PrioritySpec& spec) {
    tree_.reprioritize(id, spec);
  }
  void on_stream_removed(std::uint32_t id) {
    tree_.remove(id);
    // A cancelled push must not wedge the parent.
    if (configured_) drop_critical(id);
  }
  /// DATA bytes were emitted for `id` (post-pick accounting).
  void on_data_sent(std::uint32_t id, std::size_t bytes) {
    if (configured_ && id == parent_) count_parent_bytes(bytes);
  }
  /// The stream's body finished (END_STREAM queued).
  void on_stream_finished(std::uint32_t id) {
    if (configured_) drop_critical(id);
  }
  /// The dependency tree (read-only: for tests and introspection).
  const PriorityTree& tree() const noexcept { return tree_; }
  /// Choose the next stream among those where `ready` holds; 0 = none.
  std::uint32_t pick(ReadyFn ready) {
    return configured_ ? pick_switched(ready) : tree_.pick(ready);
  }
  /// Cap on DATA bytes the connection may emit for `id` in the next frame:
  /// the parent stops exactly at the switch point.
  std::size_t max_bytes_for(std::uint32_t id) const {
    if (configured_ && id == parent_ && parent_sent_ < offset_ &&
        !pending_critical_.empty()) {
      return offset_ - parent_sent_;
    }
    return static_cast<std::size_t>(-1);
  }

  /// Configure the hard switch: after `offset` bytes of `parent` DATA,
  /// serve `critical` streams to completion before resuming the parent.
  /// Call after the pushes have been promised (stream ids known), with
  /// only the critical streams that still have DATA to send.
  void configure(std::uint32_t parent, std::size_t offset,
                 std::set<std::uint32_t> critical);
  bool paused(std::uint32_t id) const {
    return configured_ && id == parent_ && parent_sent_ >= offset_ &&
           !pending_critical_.empty();
  }

  /// Attach a trace recorder: pause / resume instants at the hard switch.
  void set_trace(trace::TraceRecorder* recorder, std::uint32_t track) {
    trace_ = recorder;
    trace_track_ = track;
  }

 private:
  std::uint32_t pick_switched(ReadyFn ready);
  void count_parent_bytes(std::size_t bytes);
  void drop_critical(std::uint32_t id);

  PriorityTree tree_;
  bool configured_ = false;
  std::uint32_t parent_ = 0;
  std::size_t offset_ = 0;
  std::size_t parent_sent_ = 0;
  std::set<std::uint32_t> pending_critical_;

  trace::TraceRecorder* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
  bool pause_traced_ = false;
  bool resume_traced_ = false;
};

}  // namespace h2push::h2
