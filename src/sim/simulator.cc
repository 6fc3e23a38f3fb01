#include "sim/simulator.h"

namespace h2push::sim {

namespace {
constexpr std::size_t kBlockSize = 128;  // nodes per pool block
}  // namespace

Simulator::EventNode* Simulator::allocate_node() {
  if (free_list_ == nullptr) {
    auto block = std::make_unique<EventNode[]>(kBlockSize);
    nodes_.reserve(nodes_.size() + kBlockSize);
    for (std::size_t i = 0; i < kBlockSize; ++i) {
      EventNode* node = &block[i];
      node->slot = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(node);
      node->next_free = free_list_;
      free_list_ = node;
    }
    blocks_.push_back(std::move(block));
  }
  EventNode* node = free_list_;
  free_list_ = node->next_free;
  node->next_free = nullptr;
  return node;
}

void Simulator::release_node(EventNode* node) {
  node->fn.reset();
  node->heap_index = kNotQueued;
  node->rearm_seq = 0;
  ++node->generation;  // invalidate outstanding EventIds for this node
  node->next_free = free_list_;
  free_list_ = node;
}

Simulator::EventNode* Simulator::pending_node(EventId id) const noexcept {
  const std::uint64_t slot_plus_one = id & 0xffffffffULL;
  if (slot_plus_one == 0 || slot_plus_one > nodes_.size()) return nullptr;
  EventNode* node = nodes_[slot_plus_one - 1];
  if (node->generation != static_cast<std::uint32_t>(id >> 32)) {
    return nullptr;  // already fired, cancelled or re-armed: stale id
  }
  // A popped node (its callback is running) is no longer pending.
  return node->heap_index == kNotQueued ? nullptr : node;
}

void Simulator::cancel(EventId id) {
  if (EventNode* node = pending_node(id)) {
    remove(node);
    release_node(node);
  }
}

void Simulator::rekey(EventNode* node, Time t) {
  // The new key (t, next seq) follows every issued key at time t, so it is
  // later than the heap entry's exactly when t is not earlier.
  if (t >= heap_[node->heap_index].time) {
    node->rearm_time = t;
    node->rearm_seq = next_seq_++;
    return;
  }
  node->rearm_seq = 0;
  move(node, t);
}

void Simulator::push(const QueueEntry& entry) {
  heap_.emplace_back();
  sift_up(heap_.size() - 1, entry);
}

void Simulator::move(EventNode* node, Time t) {
  const std::size_t i = node->heap_index;
  const QueueEntry entry{t, next_seq_++, node};
  if (i > 0 && entry.before(heap_[(i - 1) / 2])) {
    sift_up(i, entry);
  } else {
    sift_down(i, entry);
  }
}

void Simulator::remove(EventNode* node) {
  const std::size_t i = node->heap_index;
  const QueueEntry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // the removed entry was the last one
  if (i > 0 && last.before(heap_[(i - 1) / 2])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

void Simulator::pop_front() {
  // Floyd's pop: walk the hole at the root down to a leaf along the smaller
  // children (one comparison per level), then fill it with the last entry,
  // which being late rarely rises far.
  const QueueEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (std::size_t child = 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
    place(i, heap_[child]);
    i = child;
  }
  sift_up(i, last);
}

void Simulator::sift_up(std::size_t i, QueueEntry entry) noexcept {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!entry.before(heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

void Simulator::sift_down(std::size_t i, QueueEntry entry) noexcept {
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(entry)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, entry);
}

void Simulator::fire_front() {
  const QueueEntry top = heap_.front();
  pop_front();
  // Popped: cancel() and rearm_at() of this event's id must treat it as no
  // longer pending from here on (including from inside its own callback).
  top.node->heap_index = kNotQueued;
  now_ = top.time;
  fired_seq_ = top.seq;
  ++executed_;
  if (fire_hook_) fire_hook_(top.time);
  top.node->fn();
  release_node(top.node);
}

void Simulator::requeue_front() {
  EventNode* node = heap_.front().node;
  const QueueEntry entry{node->rearm_time, node->rearm_seq, node};
  node->rearm_seq = 0;
  sift_down(0, entry);
}

bool Simulator::step() {
  while (!heap_.empty()) {
    if (heap_.front().node->rearm_seq == 0) {
      fire_front();
      return true;
    }
    requeue_front();
  }
  return false;
}

void Simulator::run(Time deadline) {
  while (!heap_.empty()) {
    const QueueEntry& top = heap_.front();
    if (top.time > deadline) {
      // Stopped at the deadline: every issued key up to it has passed.
      // A deadline before now() adds nothing the fired key does not cover.
      if (deadline < now_) return;
      if (stop_.time > deadline) earlier_stops_.push_back(stop_);
      while (!earlier_stops_.empty() &&
             earlier_stops_.back().time <= deadline) {
        earlier_stops_.pop_back();
      }
      stop_ = Key{deadline, next_seq_};
      return;
    }
    if (top.node->rearm_seq == 0) {
      fire_front();
    } else {
      requeue_front();
    }
  }
}

std::size_t Simulator::pooled_nodes() const noexcept {
  std::size_t n = 0;
  for (const EventNode* node = free_list_; node != nullptr;
       node = node->next_free) {
    ++n;
  }
  return n;
}

}  // namespace h2push::sim
