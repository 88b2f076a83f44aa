// Unit tests for replacement policies, the cache array, and the exclusive
// L1/L2 hierarchy.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/config.hh"
#include "common/rng.hh"

namespace allarm::cache {
namespace {

CacheConfig tiny_cache(std::uint32_t lines, std::uint32_t ways) {
  CacheConfig c;
  c.size_bytes = lines * kLineBytes;
  c.ways = ways;
  return c;
}

// ----------------------------------------------------------- replacement ----

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruPolicy lru(1, 4);
  for (std::uint32_t w = 0; w < 4; ++w) lru.touch(0, w);
  lru.touch(0, 0);  // Way 0 becomes MRU; way 1 is now LRU.
  std::vector<bool> all(4, true);
  EXPECT_EQ(lru.victim(0, all), 1u);
}

TEST(Lru, HonoursEligibility) {
  LruPolicy lru(1, 4);
  for (std::uint32_t w = 0; w < 4; ++w) lru.touch(0, w);
  std::vector<bool> eligible{false, false, true, true};
  EXPECT_EQ(lru.victim(0, eligible), 2u);
}

TEST(Lru, ThrowsWhenNothingEligible) {
  LruPolicy lru(1, 2);
  std::vector<bool> none(2, false);
  EXPECT_THROW(lru.victim(0, none), std::logic_error);
}

TEST(Lru, SetsAreIndependent) {
  LruPolicy lru(2, 2);
  lru.touch(0, 0);
  lru.touch(0, 1);
  lru.touch(1, 1);
  lru.touch(1, 0);
  std::vector<bool> all(2, true);
  EXPECT_EQ(lru.victim(0, all), 0u);
  EXPECT_EQ(lru.victim(1, all), 1u);
}

/// The former LRU: one global 64-bit access stamp per way, victim = the
/// first eligible way holding the minimum stamp.  The reference that the
/// byte counters must agree with, choice for choice.
class StampLru {
 public:
  StampLru(std::uint32_t sets, std::uint32_t ways)
      : ways_(ways), stamp_(static_cast<std::size_t>(sets) * ways, 0) {}
  void touch(std::uint32_t set, std::uint32_t way) {
    stamp_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
  }
  std::uint32_t victim(std::uint32_t set, const std::vector<bool>& eligible) {
    const std::uint64_t* stamps = &stamp_[static_cast<std::size_t>(set) * ways_];
    std::uint32_t best = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (eligible[w] && (best == ways_ || stamps[w] < stamps[best])) best = w;
    }
    return best;
  }

 private:
  std::uint32_t ways_;
  std::uint64_t clock_ = 0;
  std::vector<std::uint64_t> stamp_;
};

TEST(Lru, MatchesStampLruOnRandomSequences) {
  // Short sequences keep never-touched ways around (ties at zero); long
  // ones re-touch every way many times over.
  for (std::uint32_t ways = 1; ways <= 16; ++ways) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      constexpr std::uint32_t kSets = 3;
      LruPolicy lru(kSets, ways);
      StampLru ref(kSets, ways);
      Rng rng(seed * 131 + ways);
      const std::uint64_t steps = seed % 4 == 0 ? 4 : 60 * ways;
      for (std::uint64_t i = 0; i < steps; ++i) {
        const auto set = static_cast<std::uint32_t>(rng.below(kSets));
        switch (rng.below(3)) {
          case 0: {
            const auto way = static_cast<std::uint32_t>(rng.below(ways));
            lru.touch(set, way);
            ref.touch(set, way);
            break;
          }
          case 1: {
            std::vector<bool> eligible(ways);
            for (std::uint32_t w = 0; w < ways; ++w) eligible[w] = rng.below(2);
            eligible[rng.below(ways)] = true;
            ASSERT_EQ(lru.victim(set, eligible), ref.victim(set, eligible))
                << ways << " ways, seed " << seed << ", step " << i;
            break;
          }
          default: {
            const std::vector<bool> all(ways, true);
            ASSERT_EQ(lru.victim_any(set), ref.victim(set, all))
                << ways << " ways, seed " << seed << ", step " << i;
          }
        }
      }
    }
  }
}

TEST(Lru, RejectsMoreWaysThanAByteRanks) {
  EXPECT_NO_THROW(LruPolicy(1, 255));
  EXPECT_THROW(LruPolicy(1, 256), std::invalid_argument);
  EXPECT_THROW(make_policy(ReplacementKind::kLru, 1, 8192, 0),
               std::invalid_argument);
}

TEST(TreePlru, VictimAvoidsRecentlyTouched) {
  TreePlruPolicy plru(1, 4);
  std::vector<bool> all(4, true);
  for (std::uint32_t w = 0; w < 4; ++w) plru.touch(0, w);
  const std::uint32_t victim = plru.victim(0, all);
  EXPECT_NE(victim, 3u);  // Way 3 was touched last.
}

TEST(TreePlru, RequiresPowerOfTwoWays) {
  EXPECT_THROW(TreePlruPolicy(1, 3), std::invalid_argument);
}

TEST(TreePlru, FallsBackWhenImpliedVictimPinned) {
  TreePlruPolicy plru(1, 4);
  std::vector<bool> all(4, true);
  const std::uint32_t implied = plru.victim(0, all);
  std::vector<bool> eligible(4, true);
  eligible[implied] = false;
  const std::uint32_t fallback = plru.victim(0, eligible);
  EXPECT_NE(fallback, implied);
  EXPECT_TRUE(eligible[fallback]);
}

TEST(Random, DeterministicPerSeed) {
  RandomPolicy a(1, 4, 99), b(1, 4, 99);
  std::vector<bool> all(4, true);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.victim(0, all), b.victim(0, all));
}

TEST(Random, OnlyPicksEligible) {
  RandomPolicy r(1, 4, 5);
  std::vector<bool> eligible{false, true, false, true};
  for (int i = 0; i < 100; ++i) {
    const auto v = r.victim(0, eligible);
    EXPECT_TRUE(v == 1u || v == 3u);
  }
}

TEST(Factory, BuildsAllKinds) {
  EXPECT_NE(make_policy(ReplacementKind::kLru, 2, 2, 0), nullptr);
  EXPECT_NE(make_policy(ReplacementKind::kTreePlru, 2, 2, 0), nullptr);
  EXPECT_NE(make_policy(ReplacementKind::kRandom, 2, 2, 0), nullptr);
}

// ------------------------------------------------------------------ cache ----

TEST(Cache, InsertFindErase) {
  Cache c(tiny_cache(8, 2), ReplacementKind::kLru, 0, "t");
  EXPECT_FALSE(c.contains(100));
  EXPECT_FALSE(c.insert(100, LineState::kExclusive).valid());
  EXPECT_EQ(c.state_of(100), LineState::kExclusive);
  EXPECT_EQ(c.occupancy(), 1u);
  EXPECT_EQ(c.erase(100), LineState::kExclusive);
  EXPECT_EQ(c.occupancy(), 0u);
  EXPECT_EQ(c.erase(100), LineState::kInvalid);
}

TEST(Cache, EvictsWithinSetWhenFull) {
  Cache c(tiny_cache(4, 2), ReplacementKind::kLru, 0, "t");  // 2 sets x 2 ways.
  // Lines 0, 2, 4 all map to set 0.
  c.insert(0, LineState::kModified);
  c.insert(2, LineState::kShared);
  const Victim v = c.insert(4, LineState::kExclusive);
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.line, 0u);  // LRU.
  EXPECT_EQ(v.state, LineState::kModified);
  EXPECT_EQ(c.occupancy(), 2u);
}

TEST(Cache, TouchChangesVictim) {
  Cache c(tiny_cache(4, 2), ReplacementKind::kLru, 0, "t");
  c.insert(0, LineState::kShared);
  c.insert(2, LineState::kShared);
  c.touch(0);  // Line 2 becomes LRU.
  const Victim v = c.insert(4, LineState::kShared);
  EXPECT_EQ(v.line, 2u);
}

TEST(Cache, RejectsDoubleInsert) {
  Cache c(tiny_cache(8, 2), ReplacementKind::kLru, 0, "t");
  c.insert(1, LineState::kShared);
  EXPECT_THROW(c.insert(1, LineState::kShared), std::logic_error);
}

TEST(Cache, RejectsInvalidStateOperations) {
  Cache c(tiny_cache(8, 2), ReplacementKind::kLru, 0, "t");
  EXPECT_THROW(c.insert(1, LineState::kInvalid), std::invalid_argument);
  c.insert(1, LineState::kShared);
  EXPECT_THROW(c.set_state(1, LineState::kInvalid), std::invalid_argument);
}

TEST(Cache, SetStateInPlace) {
  Cache c(tiny_cache(8, 2), ReplacementKind::kLru, 0, "t");
  c.insert(1, LineState::kExclusive);
  EXPECT_TRUE(c.set_state(1, LineState::kModified));
  EXPECT_EQ(c.state_of(1), LineState::kModified);
  EXPECT_FALSE(c.set_state(2, LineState::kShared));
}

TEST(Cache, ForEachVisitsAllLines) {
  Cache c(tiny_cache(8, 2), ReplacementKind::kLru, 0, "t");
  c.insert(1, LineState::kShared);
  c.insert(2, LineState::kModified);
  std::set<LineAddr> seen;
  c.for_each([&](LineAddr l, LineState) { seen.insert(l); });
  EXPECT_EQ(seen, (std::set<LineAddr>{1, 2}));
}

TEST(Cache, ClearEmptiesEverything) {
  Cache c(tiny_cache(8, 2), ReplacementKind::kLru, 0, "t");
  c.insert(1, LineState::kShared);
  c.clear();
  EXPECT_EQ(c.occupancy(), 0u);
  EXPECT_FALSE(c.contains(1));
}

TEST(Cache, HoldsWideLinesInEveryStateUnchanged) {
  // Lines keep their full width: perfbench feeds virtual line numbers.
  Cache c(tiny_cache(8, 4), ReplacementKind::kLru, 0, "t");
  const LineState states[] = {LineState::kShared, LineState::kExclusive,
                              LineState::kOwned, LineState::kModified};
  const LineAddr wide = (LineAddr{1} << 40) + 6;  // Set 0 of 2.
  for (LineState state : states) {
    const LineAddr line = wide + 2 * static_cast<LineAddr>(state);
    EXPECT_FALSE(c.insert(line, state).valid());
    EXPECT_EQ(c.state_of(line), state);
    EXPECT_FALSE(c.contains(line & ((LineAddr{1} << 40) - 1)));
  }
  // The set is full: each further insert returns one wide victim intact.
  std::set<std::pair<LineAddr, LineState>> victims;
  for (LineAddr i = 0; i < 4; ++i) {
    const Victim v = c.insert(2 * i, LineState::kShared);
    victims.emplace(v.line, v.state);
  }
  std::set<std::pair<LineAddr, LineState>> want;
  for (LineState state : states) {
    want.emplace(wide + 2 * static_cast<LineAddr>(state), state);
  }
  EXPECT_EQ(victims, want);
}

TEST(Cache, StateRefRewritesOnlyTheState) {
  Cache c(tiny_cache(8, 4), ReplacementKind::kLru, 0, "t");
  const LineAddr line = (LineAddr{1} << 50) + 1;
  c.insert(line, LineState::kExclusive);
  const StateRef ref = c.touch_ref(line);
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.get(), LineState::kExclusive);
  ref.set(LineState::kModified);
  EXPECT_EQ(c.state_of(line), LineState::kModified);
  EXPECT_FALSE(c.touch_ref(line + 2));
  EXPECT_FALSE(c.state_ref(line + 2));
  EXPECT_EQ(c.erase(line), LineState::kModified);
  EXPECT_FALSE(c.state_ref(line));
}

TEST(LineStateHelpers, Predicates) {
  EXPECT_TRUE(is_dirty(LineState::kModified));
  EXPECT_TRUE(is_dirty(LineState::kOwned));
  EXPECT_FALSE(is_dirty(LineState::kExclusive));
  EXPECT_TRUE(is_writable(LineState::kExclusive));
  EXPECT_FALSE(is_writable(LineState::kShared));
  EXPECT_FALSE(is_valid(LineState::kInvalid));
  EXPECT_EQ(to_string(LineState::kOwned), "O");
}

// -------------------------------------------------------------- hierarchy ----

SystemConfig small_system() {
  SystemConfig config;  // Shrink caches so eviction paths are easy to hit.
  config.l1i = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l1d = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l2 = CacheConfig{16 * kLineBytes, 2, ticks_from_ns(1.0)};
  return config;
}

TEST(Hierarchy, FillGoesToRequestedL1) {
  Hierarchy h(small_system(), 1, "n0");
  h.fill(Array::kL1D, 10, LineState::kExclusive);
  EXPECT_EQ(h.locate(10).array, Array::kL1D);
  h.fill(Array::kL1I, 11, LineState::kShared);
  EXPECT_EQ(h.locate(11).array, Array::kL1I);
}

TEST(Hierarchy, ExclusiveLineLivesInExactlyOneArray) {
  Hierarchy h(small_system(), 1, "n0");
  h.fill(Array::kL1D, 10, LineState::kModified);
  int copies = 0;
  h.for_each([&](LineAddr l, LineState) { copies += (l == 10); });
  EXPECT_EQ(copies, 1);
}

TEST(Hierarchy, L1VictimMovesToL2) {
  Hierarchy h(small_system(), 1, "n0");
  // L1D set 0 holds lines {0, 4}; inserting 8 displaces one into the L2.
  h.fill(Array::kL1D, 0, LineState::kModified);
  h.fill(Array::kL1D, 4, LineState::kExclusive);
  const auto out = h.fill(Array::kL1D, 8, LineState::kShared);
  EXPECT_TRUE(out.empty());  // L2 had room: nothing left the hierarchy.
  EXPECT_EQ(h.locate(0).array, Array::kL2);
  EXPECT_EQ(h.locate(0).state, LineState::kModified);  // State preserved.
}

TEST(Hierarchy, PromoteMovesL2LineBackToL1) {
  Hierarchy h(small_system(), 1, "n0");
  h.fill(Array::kL1D, 0, LineState::kModified);
  h.fill(Array::kL1D, 4, LineState::kShared);
  h.fill(Array::kL1D, 8, LineState::kShared);  // Pushes 0 to L2.
  ASSERT_EQ(h.locate(0).array, Array::kL2);
  h.promote(Array::kL1D, 0);
  EXPECT_EQ(h.locate(0).array, Array::kL1D);
  EXPECT_EQ(h.locate(0).state, LineState::kModified);
}

TEST(Hierarchy, PromoteRequiresLineInL2) {
  Hierarchy h(small_system(), 1, "n0");
  EXPECT_THROW(h.promote(Array::kL1D, 42), std::logic_error);
}

TEST(Hierarchy, EvictionsCascadeOutOfL2) {
  Hierarchy h(small_system(), 1, "n0");
  // Saturate L1D set 0 and L2 set 0 with conflicting lines.
  // L1D: 2 sets; L2: 8 sets. Lines = 0, 8, 16, ... conflict in both.
  std::vector<Victim> all_out;
  for (LineAddr l = 0; l < 8 * 16; l += 16) {
    for (const Victim& v : h.fill(Array::kL1D, l, LineState::kModified)) {
      all_out.push_back(v);
    }
  }
  EXPECT_FALSE(all_out.empty());
  for (const Victim& v : all_out) EXPECT_EQ(v.state, LineState::kModified);
}

TEST(Hierarchy, InvalidateRemovesFromAnyLevel) {
  Hierarchy h(small_system(), 1, "n0");
  h.fill(Array::kL1D, 0, LineState::kModified);
  h.fill(Array::kL1D, 4, LineState::kShared);
  h.fill(Array::kL1D, 8, LineState::kShared);  // 0 now in L2.
  EXPECT_EQ(h.invalidate(0), LineState::kModified);
  EXPECT_FALSE(h.locate(0).present());
  EXPECT_EQ(h.invalidate(0), LineState::kInvalid);
}

TEST(Hierarchy, DowngradeSemantics) {
  Hierarchy h(small_system(), 1, "n0");
  h.fill(Array::kL1D, 1, LineState::kModified);
  EXPECT_EQ(h.downgrade(1), LineState::kModified);
  EXPECT_EQ(h.locate(1).state, LineState::kOwned);
  h.fill(Array::kL1D, 2, LineState::kExclusive);
  EXPECT_EQ(h.downgrade(2), LineState::kExclusive);
  EXPECT_EQ(h.locate(2).state, LineState::kShared);
  EXPECT_EQ(h.downgrade(2), LineState::kShared);  // S stays S.
  EXPECT_EQ(h.locate(2).state, LineState::kShared);
  EXPECT_EQ(h.downgrade(99), LineState::kInvalid);
}

TEST(Hierarchy, FillRejectsDuplicates) {
  Hierarchy h(small_system(), 1, "n0");
  h.fill(Array::kL1D, 5, LineState::kShared);
  EXPECT_THROW(h.fill(Array::kL1D, 5, LineState::kShared), std::logic_error);
  EXPECT_THROW(h.fill(Array::kL2, 6, LineState::kShared),
               std::invalid_argument);
}

TEST(Hierarchy, OccupancyAndClear) {
  Hierarchy h(small_system(), 1, "n0");
  h.fill(Array::kL1D, 1, LineState::kShared);
  h.fill(Array::kL1I, 2, LineState::kShared);
  EXPECT_EQ(h.occupancy(), 2u);
  h.clear();
  EXPECT_EQ(h.occupancy(), 0u);
}

// Property: under heavy random traffic the hierarchy never duplicates a
// line and never loses occupancy accounting.
TEST(Hierarchy, PropertyRandomTrafficKeepsExclusivity) {
  Hierarchy h(small_system(), 1, "n0");
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    const LineAddr line = rng.below(64);
    const Location loc = h.locate(line);
    if (!loc.present()) {
      h.fill(rng.chance(0.2) ? Array::kL1I : Array::kL1D, line,
             rng.chance(0.5) ? LineState::kModified : LineState::kShared);
    } else if (loc.array == Array::kL2 && rng.chance(0.5)) {
      h.promote(Array::kL1D, line);
    } else if (rng.chance(0.2)) {
      h.invalidate(line);
    }
    // Exclusivity scan.
    std::uint32_t counted = 0;
    std::set<LineAddr> seen;
    h.for_each([&](LineAddr l, LineState) {
      ASSERT_TRUE(seen.insert(l).second) << "line duplicated";
      ++counted;
    });
    ASSERT_EQ(counted, h.occupancy());
  }
}

}  // namespace
}  // namespace allarm::cache
