#include "h2/priority.h"

#include <algorithm>
#include <cassert>

#include "trace/trace.h"

namespace h2push::h2 {
namespace {

// A weight of 0 is no weight given: the default, 16.
std::uint16_t spec_weight(const PrioritySpec& spec) {
  return spec.weight == 0 ? 16 : spec.weight;
}

}  // namespace

PriorityTree::PriorityTree() {
  [[maybe_unused]] const Slot root = nodes_.insert(0);
  assert(root == kRoot);
}

PriorityTree::Slot PriorityTree::create(std::uint32_t id, std::uint16_t weight,
                                        bool idle) {
  const Slot s = nodes_.insert(id);
  Node& n = nodes_.at(s);
  n.weight = weight;
  n.idle = idle;
  if (idle) {
    n.prev_idle = idle_tail_;
    if (idle_tail_ != kNil) {
      nodes_.at(idle_tail_).next_idle = s;
    } else {
      idle_head_ = s;
    }
    idle_tail_ = s;
    ++idle_count_;
  }
  return s;
}

void PriorityTree::unlink_idle(Slot s) {
  Node& n = nodes_.at(s);
  if (!n.idle) return;
  if (n.prev_idle != kNil) {
    nodes_.at(n.prev_idle).next_idle = n.next_idle;
  } else {
    idle_head_ = n.next_idle;
  }
  if (n.next_idle != kNil) {
    nodes_.at(n.next_idle).prev_idle = n.prev_idle;
  } else {
    idle_tail_ = n.prev_idle;
  }
  n.prev_idle = n.next_idle = kNil;
  n.idle = false;
  --idle_count_;
}

void PriorityTree::append_child(Slot parent, Slot child) {
  Node& p = nodes_.at(parent);
  Node& c = nodes_.at(child);
  c.parent = parent;
  c.prev_sibling = p.last_child;
  c.next_sibling = kNil;
  if (p.last_child != kNil) {
    nodes_.at(p.last_child).next_sibling = child;
  } else {
    p.first_child = child;
  }
  p.last_child = child;
}

void PriorityTree::detach(Slot s) {
  Node& n = nodes_.at(s);
  Node& p = nodes_.at(n.parent);
  if (n.prev_sibling != kNil) {
    nodes_.at(n.prev_sibling).next_sibling = n.next_sibling;
  } else {
    p.first_child = n.next_sibling;
  }
  if (n.next_sibling != kNil) {
    nodes_.at(n.next_sibling).prev_sibling = n.prev_sibling;
  } else {
    p.last_child = n.prev_sibling;
  }
  n.prev_sibling = n.next_sibling = kNil;
}

void PriorityTree::attach(Slot s, std::uint32_t parent_id, bool exclusive) {
  Slot p = nodes_.slot_of(parent_id);
  if (p == kNil) {
    // Dependency on an unknown stream: create a default placeholder under
    // the root (RFC 7540 §5.3.1 allows idle-parent creation).
    p = create(parent_id, 16, /*idle=*/true);
    append_child(kRoot, p);
  }
  if (exclusive) {
    // Adopt all of the parent's current children, in order.
    Slot c = nodes_.at(p).first_child;
    while (c != kNil) {
      const Slot next = nodes_.at(c).next_sibling;
      append_child(s, c);
      c = next;
    }
    nodes_.at(p).first_child = nodes_.at(p).last_child = kNil;
  }
  append_child(p, s);
}

void PriorityTree::move(Slot s, const PrioritySpec& spec) {
  // §5.3.3: if the new parent is a descendant of the stream, first move
  // that descendant up to the stream's old parent.
  if (is_ancestor(nodes_.id_at(s), spec.depends_on)) {
    const Slot d = nodes_.slot_of(spec.depends_on);
    const Slot old_parent = nodes_.at(s).parent;
    detach(d);
    append_child(old_parent, d);
  }
  detach(s);
  nodes_.at(s).weight = spec_weight(spec);
  attach(s, spec.depends_on, spec.exclusive);
}

void PriorityTree::add(std::uint32_t id, const PrioritySpec& spec) {
  if (id == 0) return;
  const Slot s = nodes_.slot_of(id);
  if (s != kNil) {
    unlink_idle(s);
    if (spec.depends_on != id) move(s, spec);  // self-dependency: ignore
  } else {
    // Self-dependency is a protocol error upstream; treat as default
    // parent so the tree can never contain a cycle (§5.3.1).
    const Slot n = create(id, spec_weight(spec), false);
    attach(n, spec.depends_on == id ? 0 : spec.depends_on, spec.exclusive);
  }
  evict_idle();
}

void PriorityTree::reprioritize(std::uint32_t id, const PrioritySpec& spec) {
  if (id == 0) return;
  const Slot s = nodes_.slot_of(id);
  if (s == kNil) {
    const Slot n = create(id, spec_weight(spec), true);
    attach(n, spec.depends_on == id ? 0 : spec.depends_on, spec.exclusive);
  } else if (spec.depends_on != id) {  // self-dependency: ignore
    move(s, spec);
  }
  evict_idle();
}

void PriorityTree::evict_idle() {
  while (idle_count_ > kMaxIdleNodes) erase(idle_head_);
}

void PriorityTree::remove(std::uint32_t id) {
  const Slot s = nodes_.slot_of(id);
  if (s == kNil || s == kRoot) return;
  erase(s);
}

void PriorityTree::erase(Slot s) {
  const Slot parent = nodes_.at(s).parent;
  detach(s);
  // Reparent children in place, preserving order.
  Slot c = nodes_.at(s).first_child;
  while (c != kNil) {
    const Slot next = nodes_.at(c).next_sibling;
    append_child(parent, c);
    c = next;
  }
  unlink_idle(s);
  nodes_.erase(nodes_.id_at(s));
}

std::uint32_t PriorityTree::parent_of(std::uint32_t id) const {
  const Slot s = nodes_.slot_of(id);
  if (s == kNil || s == kRoot) return 0;
  return nodes_.id_at(nodes_.at(s).parent);
}

std::uint16_t PriorityTree::weight_of(std::uint32_t id) const {
  const Node* n = nodes_.find(id);
  return n == nullptr ? 16 : n->weight;
}

std::vector<std::uint32_t> PriorityTree::children_of(std::uint32_t id) const {
  std::vector<std::uint32_t> out;
  const Node* n = nodes_.find(id);
  if (n == nullptr) return out;
  for (Slot c = n->first_child; c != kNil; c = nodes_.at(c).next_sibling) {
    out.push_back(nodes_.id_at(c));
  }
  return out;
}

bool PriorityTree::is_ancestor(std::uint32_t ancestor,
                               std::uint32_t id) const {
  if (id == 0) return ancestor == 0;
  Slot s = nodes_.slot_of(id);
  if (s == kNil) return false;
  while (s != kRoot) {
    s = nodes_.at(s).parent;
    if (nodes_.id_at(s) == ancestor) return true;
  }
  return false;
}

std::uint32_t PriorityTree::pick_subtree(Slot s, ReadyFn ready) {
  Node& node = nodes_.at(s);
  if (s != kRoot && ready(nodes_.id_at(s))) {
    return nodes_.id_at(s);  // parent before children
  }
  // Weighted round-robin among children whose subtrees have ready streams.
  // Two passes: find eligible children, then serve the highest credit.
  eligible_.clear();
  for (Slot child = node.first_child; child != kNil;
       child = nodes_.at(child).next_sibling) {
    // Probe the subtree for readiness without consuming credits: a cheap
    // DFS that only evaluates `ready`.
    bool any = false;
    probe_stack_.assign(1, child);
    while (!probe_stack_.empty() && !any) {
      const Slot cur = probe_stack_.back();
      probe_stack_.pop_back();
      if (ready(nodes_.id_at(cur))) {
        any = true;
        break;
      }
      for (Slot c = nodes_.at(cur).first_child; c != kNil;
           c = nodes_.at(c).next_sibling) {
        probe_stack_.push_back(c);
      }
    }
    if (any) eligible_.push_back(child);
  }
  if (eligible_.empty()) return 0;
  // Credit accumulation proportional to weight; serve the largest credit.
  double total_weight = 0;
  for (Slot child : eligible_) total_weight += nodes_.at(child).weight;
  Slot best = eligible_.front();
  for (Slot child : eligible_) {
    Node& cn = nodes_.at(child);
    cn.credit += static_cast<double>(cn.weight) / total_weight;
    if (cn.credit > nodes_.at(best).credit + 1e-12) best = child;
  }
  nodes_.at(best).credit -= 1.0;
  // The scratch is free again: the descent below may reuse it.
  const std::uint32_t picked = pick_subtree(best, ready);
  assert(picked != 0);
  return picked;
}

std::uint32_t PriorityTree::pick(ReadyFn ready) {
  return pick_subtree(kRoot, ready);
}

void TreeScheduler::configure(std::uint32_t parent, std::size_t offset,
                              std::set<std::uint32_t> critical) {
  configured_ = true;
  parent_ = parent;
  offset_ = offset;
  pending_critical_ = std::move(critical);
}

std::uint32_t TreeScheduler::pick_switched(ReadyFn ready) {
  // During the pause the critical pushes are scheduled even though the tree
  // would favour their parent; afterwards the plain dependency order rules.
  return tree_.pick(
      [this, &ready](std::uint32_t id) { return !paused(id) && ready(id); });
}

void TreeScheduler::count_parent_bytes(std::size_t bytes) {
  parent_sent_ += bytes;
  if (trace_ != nullptr && !pause_traced_ && paused(parent_)) {
    pause_traced_ = true;
    trace_->instant(trace_track_, "server", "interleave.pause",
                    {{"parent", parent_},
                     {"parent_sent", parent_sent_},
                     {"pending_critical", pending_critical_.size()}});
  }
}

void TreeScheduler::drop_critical(std::uint32_t id) {
  pending_critical_.erase(id);
  if (trace_ != nullptr && pause_traced_ && !resume_traced_ &&
      pending_critical_.empty()) {
    resume_traced_ = true;
    trace_->instant(trace_track_, "server", "interleave.resume",
                    {{"parent", parent_}});
  }
}

}  // namespace h2push::h2
