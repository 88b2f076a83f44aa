// Protocol-level tests: the Hammer directory + probe filter + cache
// controllers running real transactions on a full (small) system, under
// both the baseline and ALLARM allocation policies.
#include <gtest/gtest.h>

#include "coherence/directory.hh"
#include "coherence/probe_filter.hh"
#include "test_util.hh"

namespace allarm {
namespace {

using test::load;
using test::make_scripted;
using test::priv;
using test::run_scripted;
using test::ScriptThread;
using test::small_config;

using cache::LineState;
using coherence::PfState;

// ------------------------------------------------- allocation policies ----

TEST(Protocol, BaselineAllocatesOnLocalMiss) {
  // Thread on node 0 reads its own (locally homed) line.
  auto ran = run_scripted(small_config(), DirectoryMode::kBaseline,
                          make_scripted({{0, {load(priv(0, 0))}}}));
  const Addr paddr = *ran.system->os().translate(0, priv(0, 0));
  const NodeId home = ran.system->os().home_of(paddr);
  EXPECT_EQ(home, 0);
  const auto* entry = ran.system->directory(home).probe_filter().peek(line_of(paddr));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, PfState::kEM);
  EXPECT_EQ(entry->owner, 0);
  // The line was granted Exclusive (Hammer grants E on a read with no sharers).
  EXPECT_EQ(ran.system->cache(0).hierarchy().locate(line_of(paddr)).state,
            LineState::kExclusive);
}

TEST(Protocol, AllarmSkipsAllocationOnLocalMiss) {
  auto ran = run_scripted(small_config(), DirectoryMode::kAllarm,
                          make_scripted({{0, {load(priv(0, 0))}}}));
  const Addr paddr = *ran.system->os().translate(0, priv(0, 0));
  EXPECT_EQ(ran.system->directory(0).probe_filter().peek(line_of(paddr)),
            nullptr);
  EXPECT_EQ(ran.system->directory(0).stats().local_no_alloc, 1u);
  // The core still gets its Exclusive copy.
  EXPECT_EQ(ran.system->cache(0).hierarchy().locate(line_of(paddr)).state,
            LineState::kExclusive);
}

TEST(Protocol, AllarmAllocatesOnRemoteMiss) {
  // Thread 0 (node 0) touches the page first (home = node 0); thread 1
  // (node 1) reads the same line - a remote miss at directory 0.
  const Addr shared = priv(8, 0);
  auto spec = make_scripted({
      {0, {load(shared)}, 0},
      {1, {load(shared)}, ticks_from_ns(2000.0)},  // Well after thread 0.
  });
  auto ran = run_scripted(small_config(), DirectoryMode::kAllarm, spec);
  const Addr paddr = *ran.system->os().translate(0, shared);
  ASSERT_EQ(ran.system->os().home_of(paddr), 0);
  const auto* entry =
      ran.system->directory(0).probe_filter().peek(line_of(paddr));
  ASSERT_NE(entry, nullptr) << "remote miss must allocate";
  EXPECT_EQ(ran.system->directory(0).stats().remote_miss_probes, 1u);
}

TEST(Protocol, AllarmLocalProbeFindsUntrackedLine) {
  // Node 0 reads its own line (untracked under ALLARM), then node 1 reads
  // it: the local probe must find it and downgrade it to Shared.
  const Addr shared = priv(8, 0);
  auto spec = make_scripted({
      {0, {load(shared)}, 0},
      {1, {load(shared)}, ticks_from_ns(2000.0)},
  });
  auto ran = run_scripted(small_config(), DirectoryMode::kAllarm, spec);
  const LineAddr line = line_of(*ran.system->os().translate(0, shared));
  EXPECT_EQ(ran.system->directory(0).stats().remote_miss_probe_hit, 1u);
  EXPECT_EQ(ran.system->cache(0).hierarchy().locate(line).state,
            LineState::kShared);
  EXPECT_EQ(ran.system->cache(1).hierarchy().locate(line).state,
            LineState::kShared);
  const auto* entry = ran.system->directory(0).probe_filter().peek(line);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, PfState::kShared);
}

// --------------------------------------------------------- read sharing ----

TEST(Protocol, RemoteReadDowngradesExclusiveOwner) {
  const Addr shared = priv(8, 0);
  auto spec = make_scripted({
      {2, {load(shared)}, 0},
      {5, {load(shared)}, ticks_from_ns(2000.0)},
  });
  auto ran = run_scripted(small_config(), DirectoryMode::kBaseline, spec);
  const LineAddr line = line_of(*ran.system->os().translate(0, shared));
  EXPECT_EQ(ran.system->cache(2).hierarchy().locate(line).state,
            LineState::kShared);
  EXPECT_EQ(ran.system->cache(5).hierarchy().locate(line).state,
            LineState::kShared);
  const auto* entry = ran.system->directory(2).probe_filter().peek(line);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, PfState::kShared);
}

TEST(Protocol, RemoteReadOfDirtyLineCreatesOwnedState) {
  const Addr shared = priv(8, 0);
  auto spec = make_scripted({
      {2, {test::store(shared)}, 0},
      {5, {load(shared)}, ticks_from_ns(2000.0)},
  });
  auto ran = run_scripted(small_config(), DirectoryMode::kBaseline, spec);
  const LineAddr line = line_of(*ran.system->os().translate(0, shared));
  // Writer keeps a dirty Owned copy and supplied the data cache-to-cache.
  EXPECT_EQ(ran.system->cache(2).hierarchy().locate(line).state,
            LineState::kOwned);
  EXPECT_EQ(ran.system->cache(5).hierarchy().locate(line).state,
            LineState::kShared);
  const auto* entry = ran.system->directory(2).probe_filter().peek(line);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, PfState::kOwned);
  EXPECT_EQ(entry->owner, 2);
}

// ------------------------------------------------------ write ownership ----

TEST(Protocol, WriteMigratesOwnership) {
  const Addr shared = priv(8, 0);
  auto spec = make_scripted({
      {2, {test::store(shared)}, 0},
      {5, {test::store(shared)}, ticks_from_ns(2000.0)},
  });
  for (auto mode : {DirectoryMode::kBaseline, DirectoryMode::kAllarm}) {
    auto ran = run_scripted(small_config(), mode, spec);
    const LineAddr line = line_of(*ran.system->os().translate(0, shared));
    EXPECT_FALSE(ran.system->cache(2).hierarchy().locate(line).present())
        << "first writer must be invalidated";
    EXPECT_EQ(ran.system->cache(5).hierarchy().locate(line).state,
              LineState::kModified);
    const auto* entry = ran.system->directory(2).probe_filter().peek(line);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->state, PfState::kEM);
    EXPECT_EQ(entry->owner, 5);
  }
}

TEST(Protocol, SilentUpgradeFromExclusive) {
  // Read then write by the same core: E -> M without a second request.
  auto ran = run_scripted(
      small_config(), DirectoryMode::kBaseline,
      make_scripted({{3, {load(priv(0, 0)), test::store(priv(0, 0))}}}));
  EXPECT_EQ(ran.system->cache(3).stats().misses, 1u);
  const LineAddr line = line_of(*ran.system->os().translate(0, priv(0, 0)));
  EXPECT_EQ(ran.system->cache(3).hierarchy().locate(line).state,
            LineState::kModified);
}

TEST(Protocol, UpgradeFromSharedInvalidatesOtherSharers) {
  const Addr shared = priv(8, 0);
  auto spec = make_scripted({
      {2, {load(shared), load(shared), test::store(shared)},
       ticks_from_ns(500.0)},
      {5, {load(shared)}, 0},
  });
  auto ran = run_scripted(small_config(), DirectoryMode::kBaseline, spec);
  const LineAddr line = line_of(*ran.system->os().translate(0, shared));
  EXPECT_EQ(ran.system->cache(2).hierarchy().locate(line).state,
            LineState::kModified);
  EXPECT_FALSE(ran.system->cache(5).hierarchy().locate(line).present());
  EXPECT_GE(ran.system->cache(2).stats().upgrades, 1u);
  EXPECT_EQ(ran.result.stats.get("sanity.upgrade_without_line"), 0.0);
}

// ------------------------------------------------------------ writebacks ----

TEST(Protocol, CleanEvictionNotificationFreesEntry) {
  // Stream enough local lines through node 0's tiny cache that early lines
  // are evicted; their PutE must free the directory entries (the paper's
  // optimized baseline), keeping occupancy equal to the cached count.
  std::vector<workload::Access> script;
  for (std::uint32_t i = 0; i < 64; ++i) script.push_back(load(priv(0, i)));
  auto ran = run_scripted(small_config(), DirectoryMode::kBaseline,
                          make_scripted({{0, script}}));
  EXPECT_GT(ran.system->cache(0).stats().puts_clean, 0u);
  std::uint32_t cached = ran.system->cache(0).hierarchy().occupancy();
  std::uint32_t tracked = 0;
  for (NodeId n = 0; n < 16; ++n) {
    tracked += ran.system->directory(n).probe_filter().occupancy();
  }
  EXPECT_EQ(tracked, cached);
}

TEST(Protocol, DirtyEvictionWritesBack) {
  std::vector<workload::Access> script;
  for (std::uint32_t i = 0; i < 64; ++i)
    script.push_back(test::store(priv(0, i)));
  auto ran = run_scripted(small_config(), DirectoryMode::kBaseline,
                          make_scripted({{0, script}}));
  EXPECT_GT(ran.system->cache(0).stats().puts_dirty, 0u);
  EXPECT_GT(ran.system->dram(0).stats().writes, 0u);
  EXPECT_EQ(ran.result.stats.get("sanity.wbb_collisions"), 0.0);
}

TEST(Protocol, AllarmUntrackedWritebacksAreNormal) {
  std::vector<workload::Access> script;
  for (std::uint32_t i = 0; i < 64; ++i)
    script.push_back(test::store(priv(0, i)));
  auto ran = run_scripted(small_config(), DirectoryMode::kAllarm,
                          make_scripted({{0, script}}));
  EXPECT_GT(ran.result.stats.get("sanity.puts_local_untracked"), 0.0);
  EXPECT_EQ(ran.result.stats.get("sanity.puts_stale"), 0.0);
}

// ------------------------------------------------------------- evictions ----

TEST(Protocol, ProbeFilterEvictionInvalidatesCachedLine) {
  // Node 1 reads more distinct node-0-homed lines than one PF set can
  // track; line addresses chosen to collide in the 8-set probe filter.
  std::vector<workload::Access> t0_script;
  std::vector<workload::Access> t1_script;
  // Map the pages first from node 0 so every line is homed there.
  for (std::uint32_t i = 0; i < 6; ++i) {
    t0_script.push_back(load(priv(8, i * 64)));  // 64 lines apart: one page.
  }
  for (std::uint32_t i = 0; i < 6; ++i) {
    t1_script.push_back(load(priv(8, i * 64)));
  }
  auto spec = make_scripted({
      {0, t0_script, 0},
      {1, t1_script, ticks_from_ns(3000.0)},
  });
  SystemConfig config = small_config();
  config.probe_filter_coverage_bytes = 4 * kLineBytes;  // 1 set x 4 ways!
  auto ran = run_scripted(config, DirectoryMode::kBaseline, spec);
  EXPECT_GT(ran.system->directory(0).stats().pf_evictions, 0u);
  EXPECT_GT(ran.system->directory(0).stats().eviction_lines_invalidated, 0u);
  EXPECT_GT(ran.system->directory(0).stats().eviction_messages, 0u);
}

TEST(Protocol, AllarmKeepsLocalDataOutOfTinyDirectory) {
  // With a 4-entry probe filter, a local-only streaming workload causes
  // zero ALLARM allocations and therefore zero evictions.
  std::vector<workload::Access> script;
  for (std::uint32_t i = 0; i < 128; ++i) script.push_back(load(priv(0, i)));
  SystemConfig config = small_config();
  config.probe_filter_coverage_bytes = 4 * kLineBytes;
  auto ran = run_scripted(config, DirectoryMode::kAllarm,
                          make_scripted({{0, script}}));
  EXPECT_EQ(ran.system->directory(0).stats().pf_evictions, 0u);
  EXPECT_EQ(ran.system->directory(0).probe_filter().stats().inserts, 0u);
  EXPECT_EQ(ran.system->directory(0).stats().local_no_alloc, 128u);
}

// --------------------------------------------------------------- latency ----

TEST(Protocol, LocalMissLatencyIsDramBound) {
  auto ran = run_scripted(small_config(), DirectoryMode::kBaseline,
                          make_scripted({{0, {load(priv(0, 0))}}}));
  const double avg = ran.result.stats.get("cache.miss_latency_avg_ns");
  EXPECT_GT(avg, 60.0);   // At least the DRAM access.
  EXPECT_LT(avg, 90.0);   // But no mesh crossings.
}

TEST(Protocol, RemoteMissPaysMeshLatency) {
  // Node 15's line homed at node 0 (page touched by thread on node 0 first).
  const Addr shared = priv(8, 0);
  auto spec = make_scripted({
      {0, {load(shared)}, 0},
      {15, {load(shared)}, ticks_from_ns(2000.0)},
  });
  auto ran = run_scripted(small_config(), DirectoryMode::kBaseline, spec);
  // Two misses; the remote one crossed 6 hops each way.
  const double avg = ran.result.stats.get("cache.miss_latency_avg_ns");
  EXPECT_GT(avg, 90.0);
}

TEST(Protocol, AllarmHiddenProbeAccounting) {
  // A remote miss to an uncached line: the local probe misses and DRAM
  // (60 ns) dominates, so the probe must be recorded as hidden.
  const Addr shared = priv(8, 0);
  auto spec = make_scripted({
      {0, {load(priv(9, 9))}, 0},  // Unrelated: places thread 0.
      {1, {load(shared)}, ticks_from_ns(2000.0)},
  });
  // Home the shared page at node 0 explicitly during setup.
  auto base = make_scripted({
      {0, {load(shared)}, 0},
  });
  (void)base;
  SystemConfig config = small_config();
  config.directory_mode = DirectoryMode::kAllarm;
  core::System system(config);
  system.os().touch(0, shared, 0);  // First touch from node 0; never cached.
  core::RunOptions options;
  options.seed = 1;
  auto spec2 = make_scripted({{1, {load(shared)}}});
  system.run(spec2, options);
  EXPECT_EQ(system.directory(0).stats().remote_miss_probes, 1u);
  EXPECT_EQ(system.directory(0).stats().remote_miss_probe_hidden, 1u);
  EXPECT_EQ(system.directory(0).stats().remote_miss_probe_hit, 0u);
}

TEST(Protocol, SerializedProbeIsNeverHidden) {
  const Addr shared = priv(8, 0);
  SystemConfig config = small_config();
  config.directory_mode = DirectoryMode::kAllarm;
  config.allarm_parallel_local_probe = false;  // Latency-hiding ablation.
  core::System system(config);
  system.os().touch(0, shared, 0);
  core::RunOptions options;
  options.seed = 1;
  system.run(make_scripted({{1, {load(shared)}}}), options);
  EXPECT_EQ(system.directory(0).stats().remote_miss_probes, 1u);
  EXPECT_EQ(system.directory(0).stats().remote_miss_probe_hidden, 0u);
}

TEST(Protocol, InstructionFetchesUseTheL1I) {
  auto ran = run_scripted(
      small_config(), DirectoryMode::kBaseline,
      make_scripted({{0,
                      {workload::Access{priv(0, 0), AccessType::kInstFetch},
                       workload::Access{priv(0, 0), AccessType::kInstFetch}}}}));
  EXPECT_EQ(ran.system->cache(0).stats().ifetches, 2u);
  EXPECT_EQ(ran.system->cache(0).stats().misses, 1u);
  EXPECT_EQ(ran.system->cache(0).stats().l1_hits, 1u);
  const LineAddr line = line_of(*ran.system->os().translate(0, priv(0, 0)));
  EXPECT_GT(ran.system->cache(0).hierarchy().l1i().occupancy(), 0u);
  EXPECT_TRUE(ran.system->cache(0).hierarchy().l1i().contains(line));
}

}  // namespace
}  // namespace allarm
