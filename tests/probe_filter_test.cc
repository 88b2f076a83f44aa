// Unit tests for the sparse directory (probe filter) structure.
#include <gtest/gtest.h>

#include <set>

#include "coherence/probe_filter.hh"

namespace allarm::coherence {
namespace {

ProbeFilter small_pf() {
  // 8 entries: 2 sets x 4 ways (coverage 512 bytes).
  return ProbeFilter(8 * kLineBytes, 4, ReplacementKind::kLru, 1);
}

auto no_pin() {
  return [](LineAddr) { return false; };
}

TEST(ProbeFilter, GeometryFromCoverage) {
  SystemConfig config;
  ProbeFilter pf(config.probe_filter_coverage_bytes, config.probe_filter_ways,
                 ReplacementKind::kLru, 0);
  EXPECT_EQ(pf.capacity(), 8192u);
  EXPECT_EQ(pf.sets(), 2048u);
  EXPECT_EQ(pf.ways(), 4u);
}

TEST(ProbeFilter, LookupCountsHitsAndMisses) {
  ProbeFilter pf = small_pf();
  EXPECT_EQ(pf.lookup(10), nullptr);
  pf.insert(10, PfState::kEM, 3);
  PfEntry* e = pf.lookup(10);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, 3);
  EXPECT_EQ(pf.stats().reads, 2u);
  EXPECT_EQ(pf.stats().hits, 1u);
  EXPECT_EQ(pf.stats().misses, 1u);
}

TEST(ProbeFilter, PeekHasNoSideEffects) {
  ProbeFilter pf = small_pf();
  pf.insert(10, PfState::kShared, kInvalidNode);
  const auto reads = pf.stats().reads;
  EXPECT_NE(pf.peek(10), nullptr);
  EXPECT_EQ(pf.peek(11), nullptr);
  EXPECT_EQ(pf.stats().reads, reads);
}

TEST(ProbeFilter, InsertRequiresFreeWay) {
  ProbeFilter pf = small_pf();
  // Fill set 0 (even lines map to set 0: sets=2, set = line & 1).
  for (LineAddr l = 0; l < 8; l += 2) pf.insert(l, PfState::kEM, 0);
  EXPECT_FALSE(pf.has_free_way(8));  // Line 8 -> set 0.
  EXPECT_TRUE(pf.has_free_way(1));   // Set 1 empty.
  EXPECT_THROW(pf.insert(8, PfState::kEM, 0), std::logic_error);
}

TEST(ProbeFilter, DisplaceVictimFreesWay) {
  ProbeFilter pf = small_pf();
  for (LineAddr l = 0; l < 8; l += 2) pf.insert(l, PfState::kEM, 0);
  const auto victim = pf.displace_victim(8, no_pin());
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0u);  // LRU.
  EXPECT_TRUE(pf.has_free_way(8));
  pf.insert(8, PfState::kEM, 1);
  EXPECT_EQ(pf.occupancy(), 4u);
}

TEST(ProbeFilter, DisplaceSkipsPinnedLines) {
  ProbeFilter pf = small_pf();
  for (LineAddr l = 0; l < 8; l += 2) pf.insert(l, PfState::kEM, 0);
  const auto victim =
      pf.displace_victim(8, [](LineAddr l) { return l == 0; });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 2u);  // Next LRU after the pinned line.
}

TEST(ProbeFilter, DisplaceReturnsNulloptWhenAllPinned) {
  ProbeFilter pf = small_pf();
  for (LineAddr l = 0; l < 8; l += 2) pf.insert(l, PfState::kEM, 0);
  EXPECT_FALSE(pf.displace_victim(8, [](LineAddr) { return true; }).has_value());
}

TEST(ProbeFilter, PrefersSharedVictims) {
  ProbeFilter pf = small_pf();
  pf.insert(0, PfState::kEM, 0);                 // Oldest.
  pf.insert(2, PfState::kShared, kInvalidNode);  // Newer but Shared.
  pf.insert(4, PfState::kEM, 1);
  pf.insert(6, PfState::kEM, 2);
  const auto victim = pf.displace_victim(8, no_pin());
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 2u) << "Shared entry should be preferred over LRU";
}

TEST(ProbeFilter, FallsBackToLruWithoutSharedEntries) {
  ProbeFilter pf = small_pf();
  for (LineAddr l = 0; l < 8; l += 2) pf.insert(l, PfState::kEM, 0);
  pf.touch(0);  // Refresh line 0: line 2 becomes LRU.
  const auto victim = pf.displace_victim(8, no_pin());
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 2u);
}

TEST(ProbeFilter, UpdateRewritesStateAndOwner) {
  ProbeFilter pf = small_pf();
  pf.insert(4, PfState::kEM, 2);
  pf.update(4, PfState::kOwned, 5);
  const PfEntry* e = pf.peek(4);
  EXPECT_EQ(e->state, PfState::kOwned);
  EXPECT_EQ(e->owner, 5);
  EXPECT_THROW(pf.update(99, PfState::kShared, 0), std::logic_error);
}

TEST(ProbeFilter, EraseRemoves) {
  ProbeFilter pf = small_pf();
  pf.insert(4, PfState::kEM, 2);
  EXPECT_TRUE(pf.erase(4));
  EXPECT_EQ(pf.peek(4), nullptr);
  EXPECT_FALSE(pf.erase(4));
  EXPECT_EQ(pf.occupancy(), 0u);
}

TEST(ProbeFilter, RejectsInvalidInsert) {
  ProbeFilter pf = small_pf();
  EXPECT_THROW(pf.insert(1, PfState::kInvalid, 0), std::invalid_argument);
  pf.insert(1, PfState::kEM, 0);
  EXPECT_THROW(pf.insert(1, PfState::kEM, 0), std::logic_error);  // Duplicate.
}

TEST(ProbeFilter, EntryRoundTripsAtTheLineWidthLimit) {
  const LineAddr widest = (LineAddr{1} << PfEntry::kLineFieldBits) - 1;
  const PfEntry e(widest, PfState::kOwned, NodeId{0xFFFE});
  EXPECT_EQ(e.line, widest);
  EXPECT_EQ(e.state, PfState::kOwned);
  EXPECT_EQ(e.owner, NodeId{0xFFFE});
  const PfEntry blank;
  EXPECT_FALSE(blank.valid());
  EXPECT_EQ(blank.owner, kInvalidNode);

  ProbeFilter pf = small_pf();
  pf.insert(widest, PfState::kEM, 3);
  const PfEntry* got = pf.lookup(widest);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->line, widest);
  EXPECT_EQ(got->state, PfState::kEM);
  EXPECT_EQ(got->owner, 3u);
}

TEST(ProbeFilter, RejectsLinesWiderThanTheEntry) {
  ProbeFilter pf = small_pf();
  const LineAddr too_wide = LineAddr{1} << PfEntry::kLineFieldBits;
  EXPECT_THROW(pf.insert(too_wide, PfState::kEM, 0), std::invalid_argument);
  EXPECT_EQ(pf.occupancy(), 0u);
  // Its low bits are line 0, which must not be found in its place.
  EXPECT_EQ(pf.lookup(0), nullptr);
  EXPECT_EQ(pf.lookup(too_wide), nullptr);
}

TEST(ProbeFilter, ForEachAndClear) {
  ProbeFilter pf = small_pf();
  pf.insert(1, PfState::kEM, 0);
  pf.insert(2, PfState::kShared, kInvalidNode);
  std::set<LineAddr> seen;
  pf.for_each([&](const PfEntry& e) { seen.insert(e.line); });
  EXPECT_EQ(seen, (std::set<LineAddr>{1, 2}));
  pf.clear();
  EXPECT_EQ(pf.occupancy(), 0u);
  EXPECT_EQ(pf.stats().reads, 0u);
}

TEST(ProbeFilter, ResetStatsKeepsEntries) {
  ProbeFilter pf = small_pf();
  pf.insert(1, PfState::kEM, 0);
  pf.lookup(1);
  pf.reset_stats();
  EXPECT_EQ(pf.stats().reads, 0u);
  EXPECT_NE(pf.peek(1), nullptr);
}

TEST(ProbeFilter, StateNames) {
  EXPECT_EQ(to_string(PfState::kEM), "EM");
  EXPECT_EQ(to_string(PfState::kOwned), "O");
  EXPECT_EQ(to_string(PfState::kShared), "S");
}

// Property: occupancy always equals the number of enumerable entries under
// random operation sequences.
TEST(ProbeFilter, PropertyOccupancyConsistency) {
  ProbeFilter pf(64 * kLineBytes, 4, ReplacementKind::kLru, 3);
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const LineAddr line = rng.below(128);
    if (pf.peek(line)) {
      if (rng.chance(0.3)) pf.erase(line);
      else pf.touch(line);
    } else if (pf.has_free_way(line)) {
      pf.insert(line, rng.chance(0.5) ? PfState::kEM : PfState::kShared, 0);
    } else {
      ASSERT_TRUE(pf.displace_victim(line, no_pin()).has_value());
    }
    std::uint32_t counted = 0;
    pf.for_each([&](const PfEntry&) { ++counted; });
    ASSERT_EQ(counted, pf.occupancy());
  }
}

}  // namespace
}  // namespace allarm::coherence
