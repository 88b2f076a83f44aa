// Tests for the region-granularity directory (DirectoryMode::kRegion):
// geometry and tracker units, the private -> shared collapse and the
// eviction recollection protocol flows on a full System, the degenerate
// region-size == line-size byte-equivalence oracle against the baseline
// sweep reports, and allocation-freedom of the FlatMap-backed region table
// under the counting allocator (counting_new.hh).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "counting_new.hh"
#include "region/region.hh"
#include "runner/report.hh"
#include "runner/sweep.hh"
#include "test_util.hh"
#include "workload/profiles.hh"

namespace allarm {
namespace {

using test::load;
using test::priv;
using test::store;

// -------------------------------------------------------- geometry units ----

TEST(RegionGeometry, MapsLinesToRegionsAndSlots) {
  const region::RegionGeometry g(1024);  // 16 lines per region.
  EXPECT_EQ(g.lines_per_region, 16u);
  EXPECT_EQ(g.region_of(0), 0u);
  EXPECT_EQ(g.region_of(15), 0u);
  EXPECT_EQ(g.region_of(16), 1u);
  EXPECT_EQ(g.slot_of(17), 1u);
  EXPECT_EQ(g.base_line(3), 48u);
}

TEST(RegionGeometry, RejectsInvalidSizes) {
  EXPECT_THROW(region::RegionGeometry(96), std::invalid_argument);
  EXPECT_THROW(region::RegionGeometry(0), std::invalid_argument);
  EXPECT_THROW(region::RegionGeometry(32), std::invalid_argument);
}

TEST(RegionGeometry, OneLinePerRegionDisablesTheDirectory) {
  const region::RegionDirectory rd(kLineBytes);
  EXPECT_FALSE(rd.enabled());
  const region::RegionDirectory rd4k(4096);
  EXPECT_TRUE(rd4k.enabled());
  EXPECT_EQ(rd4k.geometry().lines_per_region, 64u);
}

// --------------------------------------------------------- tracker units ----

TEST(RTracker, ClassifiesPrivateThenShared) {
  region::RTracker tracker;
  region::RTracker::Info& info = tracker.touch(5, 1);
  EXPECT_EQ(info.owner, 1u);
  EXPECT_FALSE(info.shared);
  EXPECT_EQ(tracker.shared_count(), 0u);

  tracker.touch(5, 1);  // Same node: still private.
  EXPECT_FALSE(info.shared);

  tracker.touch(5, 2);  // A second node poisons the region.
  EXPECT_TRUE(info.shared);
  EXPECT_EQ(tracker.shared_count(), 1u);
  EXPECT_EQ(tracker.tracked(), 1u);

  tracker.erase(5);
  EXPECT_EQ(tracker.shared_count(), 0u);
  EXPECT_EQ(tracker.tracked(), 0u);
}

TEST(RTracker, ResetPrivateReclassifies) {
  region::RTracker tracker;
  tracker.touch(9, 1);
  tracker.touch(9, 2);
  EXPECT_EQ(tracker.shared_count(), 1u);
  tracker.reset_private(9, 2);
  EXPECT_EQ(tracker.shared_count(), 0u);
  EXPECT_EQ(tracker.find(9)->owner, 2u);
  EXPECT_FALSE(tracker.find(9)->shared);
}

// ------------------------------------------------------- protocol: flows ----

/// One thread streaming a private page under region mode: every miss is
/// served from the region entry, no per-block probe-filter entries.
TEST(RegionProtocol, PrivateRegionServesMissesWithoutBlockEntries) {
  std::vector<workload::Access> script;
  for (std::uint32_t i = 0; i < 8; ++i) script.push_back(load(priv(0, i)));
  const auto spec = test::make_scripted({{0, script}});
  const auto ran = test::run_scripted(test::small_config(),
                                      DirectoryMode::kRegion, spec);
  const auto& s = ran.result.stats;
  EXPECT_EQ(s.get("region.installs"), 1.0);
  EXPECT_EQ(s.get("region.hits"), 8.0);
  EXPECT_EQ(s.get("region.collapses"), 0.0);
  EXPECT_EQ(s.get("region.entries"), 1.0);
  EXPECT_EQ(s.get("region.presence_bits"), 8.0);
  EXPECT_EQ(s.get("region.private_regions"), 1.0);
  EXPECT_EQ(s.get("pf.final_occupancy"), 0.0);
  EXPECT_EQ(s.get("dir.anomalies"), 0.0);
  EXPECT_EQ(s.get("sanity.anomalies"), 0.0);
}

/// A second node touching a privately-owned region collapses it: the
/// owner's lines fall back to per-block entries and the region is shared.
TEST(RegionProtocol, FirstRemoteSharerCollapsesTheRegion) {
  std::vector<workload::Access> owner_script;
  for (std::uint32_t i = 0; i < 4; ++i) {
    owner_script.push_back(store(priv(0, i)));
  }
  const std::vector<workload::Access> sharer_script = {load(priv(0, 0))};
  const auto spec = test::make_scripted(
      {{0, owner_script},
       {1, sharer_script, ticks_from_ns(200000.0)}});
  const auto ran = test::run_scripted(test::small_config(),
                                      DirectoryMode::kRegion, spec);
  const auto& s = ran.result.stats;
  EXPECT_EQ(s.get("region.collapses"), 1.0);
  // The three lines the sharer did not touch fall back to block entries;
  // the contended line itself is probed out of the owner and re-missed.
  EXPECT_EQ(s.get("region.collapse_block_installs"), 3.0);
  EXPECT_EQ(s.get("region.collapse_spills"), 0.0);
  EXPECT_EQ(s.get("region.entries"), 0.0);
  EXPECT_EQ(s.get("region.shared_regions"), 1.0);
  EXPECT_EQ(s.get("pf.final_occupancy"), 4.0);
  EXPECT_EQ(s.get("dir.anomalies"), 0.0);
  EXPECT_EQ(s.get("sanity.anomalies"), 0.0);
}

/// Once every per-block entry of a collapsed region has died with a single
/// exclusive owner, the region recollects into a region entry.
TEST(RegionProtocol, EvictionOfLastBlockEntryRecollects) {
  // Owner dirties one line of the contended region, then streams enough
  // private lines (half the L2 per set, every set) that the contended line
  // is deterministically evicted and written back.
  std::vector<workload::Access> owner_script = {store(priv(0, 0))};
  for (std::uint32_t i = 0; i < 32; ++i) {
    owner_script.push_back(store(priv(2, i)));
  }
  // The sharer touches a different line of the region (collapsing it),
  // then streams its own filler so its block entry dies exclusive too.
  std::vector<workload::Access> sharer_script = {store(priv(0, 1))};
  for (std::uint32_t i = 0; i < 32; ++i) {
    sharer_script.push_back(store(priv(3, i)));
  }
  const auto spec = test::make_scripted(
      {{0, owner_script},
       {1, sharer_script, ticks_from_ns(200000.0)}});
  const auto ran = test::run_scripted(test::small_config(),
                                      DirectoryMode::kRegion, spec);
  const auto& s = ran.result.stats;
  EXPECT_GE(s.get("region.recollects"), 1.0);
  EXPECT_EQ(s.get("dir.anomalies"), 0.0);
  EXPECT_EQ(s.get("sanity.anomalies"), 0.0);
}

// -------------------------------------------- degenerate sweep equivalence ----

SystemConfig tiny_config() {
  SystemConfig config;
  config.num_cores = 4;
  config.mesh_width = 2;
  config.mesh_height = 2;
  config.l1i = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l1d = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l2 = CacheConfig{16 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.probe_filter_coverage_bytes = 32 * kLineBytes;
  return config;
}

workload::WorkloadSpec tiny_workload(const std::string& name,
                                     const SystemConfig& config,
                                     std::uint64_t accesses) {
  workload::ProfileParams params;
  params.name = name;
  params.hot_bytes = 8 * 1024;
  params.cold_bytes = 8 * 1024;
  params.kernel_bytes = 32 * 1024;
  params.shared_bytes = 16 * 1024;
  params.pattern = name == "alpha" ? workload::SharedPattern::kUniform
                                   : workload::SharedPattern::kZipf;
  return workload::make_from_params(params, config, accesses, 4);
}

runner::SweepSpec tiny_spec(std::vector<DirectoryMode> modes,
                            std::uint32_t region_size_bytes) {
  SystemConfig config = tiny_config();
  config.region_size_bytes = region_size_bytes;
  runner::SweepSpec spec;
  spec.name = "tiny";
  spec.workloads = {"alpha", "beta"};
  spec.configs = {{"small", config}};
  spec.modes = std::move(modes);
  spec.replicates = 1;
  spec.base_seed = 7;
  spec.accesses_per_thread = 200;
  spec.make_workload = tiny_workload;
  return spec;
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  std::size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

/// The correctness oracle: at region_size == line size the region machinery
/// is bypassed entirely, so a kRegion sweep must reproduce the kBaseline
/// reports byte for byte (modulo the mode label).
TEST(RegionDegenerate, OneLineRegionsMatchBaselineReportsByteForByte) {
  const auto base =
      runner::SweepRunner(2).run(tiny_spec({DirectoryMode::kBaseline},
                                           kLineBytes));
  const auto region =
      runner::SweepRunner(2).run(tiny_spec({DirectoryMode::kRegion},
                                           kLineBytes));
  EXPECT_EQ(runner::to_json(base),
            replaced(runner::to_json(region), "\"mode\": \"region\"",
                     "\"mode\": \"baseline\""));
  EXPECT_EQ(runner::to_csv(base),
            replaced(runner::to_csv(region), ",region,", ",baseline,"));
}

/// Every mode exports the same statistic key set (region.* and
/// dir.anomalies are unconditional), so reports stay column-stable.
TEST(RegionDegenerate, AllModesExportTheSameKeySet) {
  const auto result = runner::SweepRunner(2).run(
      tiny_spec({DirectoryMode::kBaseline, DirectoryMode::kAllarm,
                 DirectoryMode::kRegion},
                256));
  ASSERT_FALSE(result.cells.empty());
  std::vector<std::string> first_keys;
  for (const auto& [name, summary] : result.cells.front().stats) {
    (void)summary;
    first_keys.push_back(name);
  }
  for (const auto& cell : result.cells) {
    std::vector<std::string> keys;
    for (const auto& [name, summary] : cell.stats) {
      (void)summary;
      keys.push_back(name);
    }
    EXPECT_EQ(keys, first_keys);
  }
}

// ------------------------------------------------------ allocation churn ----

/// Steady-state region churn — privatize, collapse, drain block entries,
/// forget — over a fixed set of regions.  After warm-up the FlatMap-backed
/// table and tracker must recycle their slots with zero heap allocations.
TEST(RegionAllocations, SteadyStateChurnIsAllocationFree) {
  region::RegionDirectory rd(1024);  // 16 lines per region.
  constexpr region::RegionNum kRegions = 32;

  const auto churn = [&rd](region::RegionNum r) {
    rd.note_miss_can_privatize(r, 2);
    region::RegionEntry& entry = rd.install(r, 2);
    const LineAddr base = rd.geometry().base_line(r);
    for (unsigned i = 0; i < 4; ++i) rd.mark_present(entry, base + i);
    const region::RegionEntry victim = rd.collapse(r, 3);
    unsigned blocks = 0;
    for (unsigned i = 0; i < rd.geometry().lines_per_region; ++i) {
      if ((victim.presence >> i) & 1u) {
        rd.note_block_installed(r);
        ++blocks;
      }
    }
    // All blocks die non-exclusive: the last removal forgets the region,
    // leaving both tables empty for the next round.
    for (unsigned i = 0; i < blocks; ++i) rd.note_block_removed(r, false, 2);
  };

  // Warm-up: hold every region live at once so both FlatMaps grow to the
  // working set's high-water capacity (erase-heavy churn alone never
  // raises the live count, leaving the tables at minimum capacity where
  // tombstone pressure forces periodic same-capacity rehashes).
  for (region::RegionNum r = 0; r < kRegions; ++r) {
    rd.note_miss_can_privatize(r, 2);
    region::RegionEntry& entry = rd.install(r, 2);
    for (unsigned i = 0; i < 4; ++i) {
      rd.mark_present(entry, rd.geometry().base_line(r) + i);
    }
  }
  for (region::RegionNum r = 0; r < kRegions; ++r) {
    const region::RegionEntry victim = rd.collapse(r, 3);
    unsigned blocks = 0;
    for (unsigned i = 0; i < rd.geometry().lines_per_region; ++i) {
      if ((victim.presence >> i) & 1u) {
        rd.note_block_installed(r);
        ++blocks;
      }
    }
    for (unsigned i = 0; i < blocks; ++i) rd.note_block_removed(r, false, 2);
  }
  // Then cycle the steady-state pattern so its slot/tombstone layout
  // settles, and cross the recollect path once so its insert is warm too.
  for (int round = 0; round < 4; ++round) {
    for (region::RegionNum r = 0; r < kRegions; ++r) churn(r);
  }
  {
    rd.note_miss_can_privatize(0, 2);
    region::RegionEntry& entry = rd.install(0, 2);
    rd.mark_present(entry, rd.geometry().base_line(0));
    rd.collapse(0, 3);
    rd.note_block_installed(0);
    EXPECT_EQ(rd.note_block_removed(0, true, 3),
              region::RegionDirectory::Removal::kRecollected);
    rd.collapse(0, 2);  // Withdraw the recollected entry again.
  }

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int round = 0; round < 64; ++round) {
    for (region::RegionNum r = 0; r < kRegions; ++r) churn(r);
  }
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(news_after - news_before, 0u)
      << "region table churn allocated in steady state";
  EXPECT_EQ(rd.entries(), 0u);
  EXPECT_EQ(rd.presence_bits(), 0u);
}

}  // namespace
}  // namespace allarm
