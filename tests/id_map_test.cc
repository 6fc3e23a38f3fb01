// util::IdMap against std::map: random insert / erase / find sequences,
// erasures inside probe runs that wrap around the end of the index, slot
// reuse, and memory bounded by the live entries rather than the ids seen.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "util/id_map.h"
#include "util/rng.h"

namespace h2push::util {
namespace {

struct Value {
  std::uint32_t id = 0;
  std::string text;  // owns memory: erase must release it
};

void expect_same(const IdMap<Value>& map,
                 const std::map<std::uint32_t, Value>& reference,
                 std::uint32_t universe) {
  ASSERT_EQ(map.size(), reference.size());
  for (std::uint32_t id = 0; id < universe; ++id) {
    const Value* got = map.find(id);
    auto it = reference.find(id);
    ASSERT_EQ(got != nullptr, it != reference.end()) << "id " << id;
    if (got != nullptr) {
      ASSERT_EQ(got->id, it->second.id);
      ASSERT_EQ(got->text, it->second.text);
      ASSERT_EQ(map.id_at(map.slot_of(id)), id);
    }
  }
}

TEST(IdMap, MatchesStdMapUnderRandomChurn) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    IdMap<Value> map;
    std::map<std::uint32_t, Value> reference;
    // Small universes keep the table dense and the probe runs long.
    const auto universe =
        static_cast<std::uint32_t>(rng.uniform_int(4, 300));
    for (int step = 0; step < 3000; ++step) {
      const auto id = static_cast<std::uint32_t>(
          rng.uniform_int(0, universe - 1));
      if (rng.uniform_int(0, 2) != 0) {
        if (!map.contains(id)) {
          const std::uint32_t slot = map.insert(id);
          Value& v = map.at(slot);
          EXPECT_TRUE(v.text.empty());  // a reused slot starts fresh
          v = Value{id, "value-" + std::to_string(step)};
          reference[id] = v;
        }
      } else {
        map.erase(id);
        reference.erase(id);
      }
      if (step % 50 == 0) {
        ASSERT_NO_FATAL_FAILURE(expect_same(map, reference, universe))
            << "seed " << seed << " step " << step;
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(map, reference, universe));
    std::size_t visited = 0;
    map.for_each([&](std::uint32_t id, Value& v) {
      EXPECT_EQ(v.id, id);
      EXPECT_EQ(reference.count(id), 1u);
      ++visited;
    });
    EXPECT_EQ(visited, reference.size());
  }
}

// Ids whose Fibonacci hash lands in the last bucket of the 8-bucket index
// a small map starts with: their probe run wraps to the front, and erasing
// from it must shift the wrapped entries back across the end.
std::vector<std::uint32_t> ids_homed_in_last_bucket(std::size_t n) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 1; ids.size() < n; ++id) {
    if (((id * 0x9e3779b1u) >> 29) == 7) ids.push_back(id);
  }
  return ids;
}

TEST(IdMap, EraseInsideAProbeRunThatWraps) {
  const auto ids = ids_homed_in_last_bucket(5);  // 5 of 8 buckets: no growth
  for (std::size_t victim = 0; victim < ids.size(); ++victim) {
    IdMap<Value> map;
    for (std::uint32_t id : ids) map.at(map.insert(id)).id = id;
    map.erase(ids[victim]);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const Value* v = map.find(ids[i]);
      if (i == victim) {
        EXPECT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr) << "lost id " << ids[i] << " after erasing "
                              << ids[victim];
        EXPECT_EQ(v->id, ids[i]);
      }
    }
    // The freed slot is the next one handed out.
    const std::uint32_t freed = static_cast<std::uint32_t>(victim);
    EXPECT_EQ(map.insert(ids[victim]), freed);
  }
}

TEST(IdMap, MemoryFollowsLiveEntriesNotIds) {
  // A million ids through a map that never holds more than 4: the slab
  // keeps reusing its first slots.
  IdMap<Value> map;
  for (std::uint32_t id = 1; id <= 1000000; ++id) {
    const std::uint32_t slot = map.insert(id);
    EXPECT_LT(slot, 4u);
    if (id > 3) map.erase(id - 3);
  }
  EXPECT_EQ(map.size(), 3u);
  EXPECT_TRUE(map.contains(1000000));
  EXPECT_FALSE(map.contains(999997));
}

}  // namespace
}  // namespace h2push::util
