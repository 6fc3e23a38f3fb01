// Priority tree tests: RFC 7540 §5.3 semantics (exclusive insertion,
// reprioritization incl. the descendant rule, removal) and the scheduling
// properties the paper's mechanisms rely on: parent-before-children (h2o)
// and weighted fairness among siblings.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "h2/priority.h"
#include "util/rng.h"

namespace h2push::h2 {
namespace {

TEST(PriorityTree, DefaultInsertUnderRoot) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{});
  EXPECT_EQ(tree.parent_of(1), 0u);
  EXPECT_EQ(tree.parent_of(3), 0u);
  EXPECT_EQ(tree.children_of(0), (std::vector<std::uint32_t>{1, 3}));
}

TEST(PriorityTree, ExclusiveInsertAdoptsChildren) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{});
  tree.add(5, PrioritySpec{0, 16, true});  // exclusive under root
  EXPECT_EQ(tree.parent_of(5), 0u);
  EXPECT_EQ(tree.parent_of(1), 5u);
  EXPECT_EQ(tree.parent_of(3), 5u);
  EXPECT_EQ(tree.children_of(0), (std::vector<std::uint32_t>{5}));
}

TEST(PriorityTree, DependencyOnUnknownStreamCreatesPlaceholder) {
  PriorityTree tree;
  tree.add(7, PrioritySpec{99, 16, false});
  EXPECT_TRUE(tree.contains(99));
  EXPECT_EQ(tree.parent_of(7), 99u);
  EXPECT_EQ(tree.parent_of(99), 0u);
}

TEST(PriorityTree, ReprioritizeMovesSubtree) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{1, 16, false});
  tree.add(5, PrioritySpec{3, 16, false});
  tree.reprioritize(3, PrioritySpec{0, 32, false});
  EXPECT_EQ(tree.parent_of(3), 0u);
  EXPECT_EQ(tree.parent_of(5), 3u);  // subtree moves together
  EXPECT_EQ(tree.weight_of(3), 32);
}

TEST(PriorityTree, ReprioritizeUnderOwnDescendant) {
  // §5.3.3: moving a stream under its own descendant first moves the
  // descendant to the stream's old parent.
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{1, 16, false});
  tree.add(5, PrioritySpec{3, 16, false});
  tree.reprioritize(1, PrioritySpec{5, 16, false});
  EXPECT_EQ(tree.parent_of(5), 0u);  // old parent of 1
  EXPECT_EQ(tree.parent_of(1), 5u);
  EXPECT_EQ(tree.parent_of(3), 1u);
  EXPECT_FALSE(tree.is_ancestor(1, 5));
  EXPECT_TRUE(tree.is_ancestor(5, 1));
}

TEST(PriorityTree, RemoveReparentsChildren) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{1, 16, false});
  tree.add(5, PrioritySpec{1, 16, false});
  tree.remove(1);
  EXPECT_FALSE(tree.contains(1));
  EXPECT_EQ(tree.parent_of(3), 0u);
  EXPECT_EQ(tree.parent_of(5), 0u);
}

TEST(PriorityTree, PickReturnsZeroWhenNothingReady) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  EXPECT_EQ(tree.pick([](std::uint32_t) { return false; }), 0u);
}

TEST(PriorityTree, ParentServedBeforeChildren) {
  // h2o's rule that motivates interleaving push: as long as the parent has
  // data, its children (pushed streams) wait (paper Fig. 5a).
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(2, PrioritySpec{1, 16, false});  // pushed child
  const auto ready = [](std::uint32_t) { return true; };
  for (int i = 0; i < 10; ++i) EXPECT_EQ(tree.pick(ready), 1u);
  // Parent exhausted → child gets picked.
  const auto only_child = [](std::uint32_t id) { return id == 2; };
  EXPECT_EQ(tree.pick(only_child), 2u);
}

TEST(PriorityTree, WeightedFairnessAmongSiblings) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{0, 200, false});
  tree.add(3, PrioritySpec{0, 50, false});
  std::map<std::uint32_t, int> picks;
  const auto ready = [](std::uint32_t id) { return id != 0; };
  for (int i = 0; i < 1000; ++i) picks[tree.pick(ready)]++;
  // Shares proportional to weights (200:50 = 4:1), within 10 %.
  EXPECT_NEAR(static_cast<double>(picks[1]) / 1000.0, 0.8, 0.1);
  EXPECT_NEAR(static_cast<double>(picks[3]) / 1000.0, 0.2, 0.1);
}

TEST(PriorityTree, DeepChainServedTopDown) {
  // Chromium's exclusive chain: each stream depends on the previous one.
  PriorityTree tree;
  std::uint32_t prev = 0;
  for (std::uint32_t id = 1; id <= 19; id += 2) {
    tree.add(id, PrioritySpec{prev, 256, true});
    prev = id;
  }
  std::set<std::uint32_t> done;
  const auto ready = [&done](std::uint32_t id) { return !done.count(id); };
  std::vector<std::uint32_t> order;
  for (int i = 0; i < 10; ++i) {
    const auto id = tree.pick(ready);
    order.push_back(id);
    done.insert(id);
  }
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 5, 7, 9, 11, 13, 15,
                                               17, 19}));
}

TEST(PriorityTree, SkipsBlockedSubtreesEntirely) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{1, 16, false});
  tree.add(5, PrioritySpec{});  // sibling subtree of 1
  const auto only5 = [](std::uint32_t id) { return id == 5; };
  EXPECT_EQ(tree.pick(only5), 5u);
}

TEST(PriorityTree, ZeroWeightTreatedAsDefault) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{0, 0, false});
  EXPECT_EQ(tree.weight_of(1), 16);
}

TEST(PriorityTree, PickIsExhaustiveUnderChurn) {
  // Property: with random adds/removes, pick always returns a ready stream
  // when one exists.
  PriorityTree tree;
  std::set<std::uint32_t> live;
  std::uint64_t state = 42;
  for (int step = 0; step < 500; ++step) {
    const std::uint64_t r = util::splitmix64(state);
    if (live.size() < 3 || (r % 3) != 0) {
      const std::uint32_t id = 1 + 2 * static_cast<std::uint32_t>(step);
      std::uint32_t parent = 0;
      if (!live.empty() && (r % 2) == 0) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(r % live.size()));
        parent = *it;
      }
      tree.add(id, PrioritySpec{parent, static_cast<std::uint16_t>(
                                            1 + r % 256),
                                (r & 4) != 0});
      live.insert(id);
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(r % live.size()));
      tree.remove(*it);
      live.erase(it);
    }
    if (!live.empty()) {
      const auto picked =
          tree.pick([&live](std::uint32_t id) { return live.count(id) > 0; });
      EXPECT_NE(picked, 0u);
      EXPECT_TRUE(live.count(picked) > 0);
    }
  }
}

// --- differential test against the std::map tree --------------------------

// The tree as it was kept before nodes moved into a flat id table: one
// std::map node per stream, children in a vector. Kept here verbatim as the
// reference the flat tree must match step for step (it has no idle cap; the
// test stays below it).
class MapTree {
 public:
  MapTree() { nodes_[0] = Node{}; }

  void add(std::uint32_t id, const PrioritySpec& spec) {
    if (nodes_.count(id) != 0) {
      reprioritize(id, spec);
      return;
    }
    nodes_[id] = Node{};
    nodes_[id].weight = spec.weight == 0 ? 16 : spec.weight;
    const std::uint32_t parent = spec.depends_on == id ? 0 : spec.depends_on;
    attach(id, parent, spec.exclusive);
  }

  void reprioritize(std::uint32_t id, const PrioritySpec& spec) {
    if (nodes_.count(id) == 0) {
      add(id, spec);
      return;
    }
    if (spec.depends_on == id) return;
    if (is_ancestor(id, spec.depends_on)) {
      const std::uint32_t old_parent = nodes_[id].parent;
      detach(spec.depends_on);
      nodes_[spec.depends_on].parent = old_parent;
      nodes_[old_parent].children.push_back(spec.depends_on);
    }
    detach(id);
    nodes_[id].weight = spec.weight == 0 ? 16 : spec.weight;
    attach(id, spec.depends_on, spec.exclusive);
  }

  void remove(std::uint32_t id) {
    auto it = nodes_.find(id);
    if (it == nodes_.end() || id == 0) return;
    const std::uint32_t parent = it->second.parent;
    detach(id);
    for (std::uint32_t child : it->second.children) {
      nodes_[child].parent = parent;
      nodes_[parent].children.push_back(child);
    }
    nodes_.erase(it);
  }

  bool contains(std::uint32_t id) const { return nodes_.count(id) != 0; }
  std::uint32_t parent_of(std::uint32_t id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? 0 : it->second.parent;
  }
  std::uint16_t weight_of(std::uint32_t id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? 16 : it->second.weight;
  }
  std::vector<std::uint32_t> children_of(std::uint32_t id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? std::vector<std::uint32_t>{}
                              : it->second.children;
  }
  std::size_t size() const { return nodes_.size(); }

  template <typename Ready>
  std::uint32_t pick(const Ready& ready) {
    return pick_subtree(0, ready);
  }

  bool is_ancestor(std::uint32_t ancestor, std::uint32_t id) const {
    std::uint32_t cur = id;
    while (cur != 0) {
      auto it = nodes_.find(cur);
      if (it == nodes_.end()) return false;
      cur = it->second.parent;
      if (cur == ancestor) return true;
    }
    return ancestor == 0;
  }

 private:
  struct Node {
    std::uint32_t parent = 0;
    std::uint16_t weight = 16;
    std::vector<std::uint32_t> children;
    double credit = 0;
  };

  void attach(std::uint32_t id, std::uint32_t parent, bool exclusive) {
    if (nodes_.count(parent) == 0) {
      attach(parent, 0, false);
      nodes_[parent].weight = 16;
    }
    Node& p = nodes_[parent];
    Node& n = nodes_[id];
    if (exclusive) {
      for (std::uint32_t child : p.children) {
        nodes_[child].parent = id;
        n.children.push_back(child);
      }
      p.children.clear();
    }
    n.parent = parent;
    p.children.push_back(id);
  }

  void detach(std::uint32_t id) {
    Node& n = nodes_[id];
    Node& p = nodes_[n.parent];
    p.children.erase(std::remove(p.children.begin(), p.children.end(), id),
                     p.children.end());
  }

  template <typename Ready>
  std::uint32_t pick_subtree(std::uint32_t id, const Ready& ready) {
    Node& node = nodes_[id];
    if (id != 0 && ready(id)) return id;
    std::vector<std::uint32_t> eligible;
    for (std::uint32_t child : node.children) {
      bool any = false;
      std::vector<std::uint32_t> stack{child};
      while (!stack.empty() && !any) {
        const std::uint32_t cur = stack.back();
        stack.pop_back();
        if (ready(cur)) {
          any = true;
          break;
        }
        const Node& cn = nodes_[cur];
        stack.insert(stack.end(), cn.children.begin(), cn.children.end());
      }
      if (any) eligible.push_back(child);
    }
    if (eligible.empty()) return 0;
    double total_weight = 0;
    for (std::uint32_t child : eligible) total_weight += nodes_[child].weight;
    std::uint32_t best = eligible.front();
    for (std::uint32_t child : eligible) {
      Node& cn = nodes_[child];
      cn.credit += static_cast<double>(cn.weight) / total_weight;
      if (cn.credit > nodes_[best].credit + 1e-12) best = child;
    }
    nodes_[best].credit -= 1.0;
    return pick_subtree(best, ready);
  }

  std::map<std::uint32_t, Node> nodes_;
};

// Random add / reprioritize / remove / pick sequences over a small id
// universe (so ids recur, nodes are re-created after removal, and the
// §5.3.3 descendant rule, exclusive adoption and self-dependencies all
// come up), checked against the map tree after every step: picks, parents,
// children and weights must be identical, credits included (they decide
// later picks).
TEST(PriorityTree, MatchesMapReference) {
  constexpr std::uint32_t kIds = 120;  // below the idle cap
  static_assert(kIds < PriorityTree::kMaxIdleNodes);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    PriorityTree tree;
    MapTree reference;
    const auto random_id = [&] {
      return static_cast<std::uint32_t>(rng.uniform_int(1, kIds));
    };
    const auto random_spec = [&](std::uint32_t id) {
      PrioritySpec spec;
      const auto kind = rng.uniform_int(0, 9);
      spec.depends_on = kind < 2 ? 0 : kind == 2 ? id : random_id();
      spec.weight = static_cast<std::uint16_t>(rng.uniform_int(0, 256));
      spec.exclusive = rng.uniform_int(0, 2) == 0;
      return spec;
    };
    for (int step = 0; step < 400; ++step) {
      const auto op = rng.uniform_int(0, 9);
      const std::uint32_t id = random_id();
      if (op < 4) {
        const PrioritySpec spec = random_spec(id);
        tree.add(id, spec);
        reference.add(id, spec);
      } else if (op < 6) {
        const PrioritySpec spec = random_spec(id);
        tree.reprioritize(id, spec);
        reference.reprioritize(id, spec);
      } else if (op < 8) {
        tree.remove(id);
        reference.remove(id);
      } else {
        // A ready set drawn per pick; several picks advance the credits.
        std::set<std::uint32_t> ready_set;
        for (std::uint32_t r = 1; r <= kIds; ++r) {
          if (rng.uniform_int(0, 3) == 0) ready_set.insert(r);
        }
        const auto ready = [&](std::uint32_t s) {
          return ready_set.count(s) != 0;
        };
        for (int k = 0; k < 4; ++k) {
          ASSERT_EQ(tree.pick(ready), reference.pick(ready))
              << "seed " << seed << " step " << step;
        }
      }
      ASSERT_EQ(tree.size(), reference.size())
          << "seed " << seed << " step " << step;
      for (std::uint32_t n = 0; n <= kIds; ++n) {
        ASSERT_EQ(tree.contains(n), reference.contains(n))
            << "seed " << seed << " step " << step << " id " << n;
        ASSERT_EQ(tree.parent_of(n), reference.parent_of(n))
            << "seed " << seed << " step " << step << " id " << n;
        ASSERT_EQ(tree.children_of(n), reference.children_of(n))
            << "seed " << seed << " step " << step << " id " << n;
        ASSERT_EQ(tree.weight_of(n), reference.weight_of(n))
            << "seed " << seed << " step " << step << " id " << n;
      }
    }
  }
}

// --- idle nodes ---------------------------------------------------------------

// Ids named only by PRIORITY frames (or as unknown parents) are idle: past
// the cap the oldest is dropped, so a peer naming a million idle ids leaves
// the tree at the cap plus its streams, and the streams keep their place.
TEST(PriorityTree, IdleNodesAreCapped) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{1, 16, false});
  tree.add(5, PrioritySpec{0, 32, true});
  constexpr std::uint32_t kFrames = 1000000;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    const std::uint32_t id = 7 + 2 * i;
    // Every third names a fresh idle parent too (a placeholder).
    const std::uint32_t parent = i % 3 == 0 ? id + 1 : (i % 3 == 1 ? 3 : 0);
    tree.reprioritize(id, PrioritySpec{parent, 16, false});
    ASSERT_LE(tree.idle_count(), PriorityTree::kMaxIdleNodes);
  }
  EXPECT_EQ(tree.idle_count(), PriorityTree::kMaxIdleNodes);
  EXPECT_EQ(tree.size(), 1 + 3 + PriorityTree::kMaxIdleNodes);
  EXPECT_TRUE(tree.contains(1));
  EXPECT_TRUE(tree.contains(3));
  EXPECT_EQ(tree.parent_of(3), 1u);
  EXPECT_EQ(tree.parent_of(1), 5u);
  // The newest idle ids survive, the oldest are gone.
  EXPECT_TRUE(tree.contains(7 + 2 * (kFrames - 1)));
  EXPECT_FALSE(tree.contains(7));
}

TEST(PriorityTree, EvictsTheOldestIdleNodeLikeRemove) {
  PriorityTree tree;
  // Idle 2 (a placeholder parent) holds stream 1; then idle ids fill the
  // cap, each newer than 2.
  tree.add(1, PrioritySpec{2, 16, false});
  EXPECT_EQ(tree.idle_count(), 1u);
  for (std::uint32_t i = 0; i + 1 < PriorityTree::kMaxIdleNodes; ++i) {
    tree.reprioritize(100 + 2 * i, PrioritySpec{});
  }
  EXPECT_EQ(tree.idle_count(), PriorityTree::kMaxIdleNodes);
  EXPECT_EQ(tree.parent_of(1), 2u);
  // One more: 2 is the oldest idle node and goes, its child moving up.
  tree.reprioritize(99, PrioritySpec{});
  EXPECT_FALSE(tree.contains(2));
  EXPECT_EQ(tree.parent_of(1), 0u);
  EXPECT_TRUE(tree.contains(100));
  // An idle id that opens as a stream is no longer idle: never evicted.
  tree.add(100, PrioritySpec{});
  EXPECT_EQ(tree.idle_count(), PriorityTree::kMaxIdleNodes - 1);
  for (std::uint32_t i = 0; i < 2 * PriorityTree::kMaxIdleNodes; ++i) {
    tree.reprioritize(100000 + 2 * i, PrioritySpec{});
  }
  EXPECT_TRUE(tree.contains(100));
  EXPECT_TRUE(tree.contains(1));
}

}  // namespace
}  // namespace h2push::h2
