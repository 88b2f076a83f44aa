// Unit tests for the OS memory model: first-touch / interleaved placement,
// spill and kernel space.
#include <gtest/gtest.h>

#include <set>

#include "common/config.hh"
#include "numa/os.hh"

namespace allarm::numa {
namespace {

SystemConfig table1() { return SystemConfig{}; }

TEST(FrameAllocator, AllocatesWithinNodeRange) {
  FrameAllocator fa(4, 1024);
  for (int i = 0; i < 100; ++i) {
    const auto f = fa.allocate_on(2);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(fa.node_of_frame(*f), 2);
  }
}

TEST(FrameAllocator, HandsOutDistinctFrames) {
  FrameAllocator fa(2, 256);
  std::set<PageNum> seen;
  for (int i = 0; i < 256; ++i) {
    const auto f = fa.allocate_on(0);
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(seen.insert(*f).second);
  }
  EXPECT_FALSE(fa.allocate_on(0).has_value());  // Exhausted.
}

TEST(Os, FirstTouchHomesAtToucher) {
  Os os(table1(), AllocPolicy::kFirstTouch);
  for (NodeId n = 0; n < 16; ++n) {
    const Addr p = os.touch(0, 0x1000000ull * (n + 1), n);
    EXPECT_EQ(os.home_of(p), n);
  }
  EXPECT_EQ(os.stats().local_allocations, 16u);
  EXPECT_EQ(os.stats().spilled_allocations, 0u);
}

TEST(Os, RepeatTouchReturnsSameMapping) {
  Os os(table1(), AllocPolicy::kFirstTouch);
  const Addr p1 = os.touch(0, 0x5000, 3);
  const Addr p2 = os.touch(0, 0x5000, 9);  // Different toucher, same page.
  EXPECT_EQ(p1, p2);
}

TEST(Os, OffsetWithinPagePreserved) {
  Os os(table1(), AllocPolicy::kFirstTouch);
  const Addr p = os.touch(0, 0x5123, 0);
  EXPECT_EQ(p & (kPageBytes - 1), 0x123u);
}

TEST(Os, AddressSpacesAreIsolated) {
  Os os(table1(), AllocPolicy::kFirstTouch);
  const Addr a = os.touch(0, 0x9000, 1);
  const Addr b = os.touch(1, 0x9000, 2);
  EXPECT_NE(page_of(a), page_of(b));
  EXPECT_EQ(os.home_of(a), 1);
  EXPECT_EQ(os.home_of(b), 2);
}

TEST(Os, SpillsToNearestNeighbourWhenFull) {
  SystemConfig config = table1();
  config.dram_total_bytes = 16 * 2 * kPageBytes;  // Two frames per node.
  Os os(config, AllocPolicy::kFirstTouch);
  // Exhaust node 5, then watch the third page spill to a 1-hop neighbour.
  os.touch(0, 0x10000, 5);
  os.touch(0, 0x20000, 5);
  const Addr spilled = os.touch(0, 0x30000, 5);
  const NodeId home = os.home_of(spilled);
  EXPECT_NE(home, 5);
  // Node 5 sits at (1,1): neighbours are 1, 4, 6, 9.
  const std::set<NodeId> one_hop{1, 4, 6, 9};
  EXPECT_TRUE(one_hop.count(home)) << "spilled to node " << home;
  EXPECT_EQ(os.stats().spilled_allocations, 1u);
}

TEST(Os, ThrowsWhenAllMemoryExhausted) {
  SystemConfig config = table1();
  config.mesh_width = 1;
  config.mesh_height = 1;
  config.num_cores = 1;
  config.dram_total_bytes = kPageBytes;  // One frame.
  Os os(config, AllocPolicy::kFirstTouch);
  os.touch(0, 0x1000, 0);
  EXPECT_THROW(os.touch(0, 0x2000, 0), std::runtime_error);
}

TEST(Os, InterleavePolicySpreadsPages) {
  Os os(table1(), AllocPolicy::kInterleave);
  std::set<NodeId> homes;
  for (int i = 0; i < 16; ++i) {
    homes.insert(os.home_of(os.touch(0, 0x100000ull * i, 0)));
  }
  EXPECT_EQ(homes.size(), 16u);  // All from toucher 0, spread everywhere.
}

TEST(Os, PolicyNames) {
  EXPECT_EQ(to_string(AllocPolicy::kFirstTouch), "first-touch");
  EXPECT_EQ(to_string(AllocPolicy::kInterleave), "interleave");
  for (const AllocPolicy policy :
       {AllocPolicy::kFirstTouch, AllocPolicy::kInterleave}) {
    AllocPolicy parsed = AllocPolicy::kFirstTouch;
    EXPECT_TRUE(from_string(to_string(policy), parsed));
    EXPECT_EQ(parsed, policy);
  }
  // Anything else is refused and leaves the policy untouched.
  for (const char* name : {"bogus", "", "first_touch", "unknown"}) {
    AllocPolicy parsed = AllocPolicy::kInterleave;
    EXPECT_FALSE(from_string(name, parsed)) << name;
    EXPECT_EQ(parsed, AllocPolicy::kInterleave);
  }
}

TEST(Os, TranslateWithoutAllocating) {
  Os os(table1(), AllocPolicy::kFirstTouch);
  EXPECT_FALSE(os.translate(0, 0x7000).has_value());
  const Addr p = os.touch(0, 0x7000, 4);
  ASSERT_TRUE(os.translate(0, 0x7000).has_value());
  EXPECT_EQ(*os.translate(0, 0x7000), p);
}

TEST(Os, KernelSpaceIsSharedAcrossAddressSpaces) {
  Os os(table1(), AllocPolicy::kFirstTouch);
  const Addr a = os.touch(0, kKernelSpaceBase + 0x3000, 1);
  const Addr b = os.touch(7, kKernelSpaceBase + 0x3000, 9);
  EXPECT_EQ(a, b);  // One global mapping.
}

TEST(Os, KernelPagesInterleaveByPageIndex) {
  Os os(table1(), AllocPolicy::kFirstTouch);
  // 16 consecutive kernel pages land round-robin on the 16 nodes.
  std::set<NodeId> homes;
  for (int i = 0; i < 16; ++i) {
    homes.insert(os.home_of(os.touch(0, kKernelSpaceBase + i * kPageBytes, 0)));
  }
  EXPECT_EQ(homes.size(), 16u);
}

// Property: frame scrambling is a bijection (no frame handed out twice even
// across the whole node range).
TEST(FrameAllocator, PropertyScrambleIsBijective) {
  SystemConfig config = table1();
  const auto frames = config.dram_bytes_per_node() / kPageBytes;
  FrameAllocator fa(1, frames);
  std::set<PageNum> seen;
  for (std::uint64_t i = 0; i < frames; ++i) {
    const auto f = fa.allocate_on(0);
    ASSERT_TRUE(f.has_value());
    ASSERT_TRUE(seen.insert(*f).second) << "frame duplicated";
    ASSERT_LT(*f, frames);
  }
}

// Property: the scramble diffuses high bits into the low bits (consecutive
// allocations must not cycle uniformly through the low-bit groups, which
// would make probe-filter sets artificially uniform).
TEST(FrameAllocator, PropertyScrambleBreaksLowBitUniformity) {
  FrameAllocator fa(1, 32768);
  std::vector<int> group_counts(32, 0);
  for (int i = 0; i < 96; ++i) {
    ++group_counts[*fa.allocate_on(0) % 32];
  }
  // A perfectly uniform cycle would put exactly 3 in each group.
  int deviating = 0;
  for (int c : group_counts) deviating += (c != 3);
  EXPECT_GT(deviating, 4);
}

}  // namespace
}  // namespace allarm::numa
