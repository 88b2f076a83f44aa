// Integration tests: the full 16-node Table I system running benchmark
// profiles end to end, with protocol invariants verified.
#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/system.hh"
#include "test_util.hh"
#include "workload/profiles.hh"

namespace allarm {
namespace {

using test::load;
using test::make_scripted;
using test::priv;
using test::run_scripted;

core::RunResult run_bench(const std::string& name, DirectoryMode mode,
                          std::uint64_t accesses = 1500,
                          std::uint64_t seed = 7) {
  SystemConfig config;
  const workload::WorkloadSpec spec =
      workload::make_benchmark(name, config, accesses);
  return run_scripted(config, mode, spec, seed).result;
}

TEST(System, RunsOceanToCompletionUnderBothModes) {
  for (auto mode : {DirectoryMode::kBaseline, DirectoryMode::kAllarm}) {
    const core::RunResult r = run_bench("ocean-cont", mode);
    EXPECT_GT(r.runtime, 0u);
    EXPECT_EQ(r.thread_finish.size(), 16u);
    for (Tick t : r.thread_finish) EXPECT_GT(t, 0u);
    // Protocol sanity counters must be silent.
    EXPECT_EQ(r.stats.get("sanity.anomalies"), 0.0);
    EXPECT_EQ(r.stats.get("sanity.upgrade_without_line"), 0.0);
    EXPECT_EQ(r.stats.get("sanity.wbb_collisions"), 0.0);
  }
}

TEST(System, DeterministicAcrossIdenticalRuns) {
  const core::RunResult a = run_bench("cholesky", DirectoryMode::kAllarm);
  const core::RunResult b = run_bench("cholesky", DirectoryMode::kAllarm);
  EXPECT_EQ(a.runtime, b.runtime);
  for (const auto& [name, value] : a.stats.values()) {
    EXPECT_DOUBLE_EQ(value, b.stats.get(name)) << name;
  }
}

TEST(System, SeedChangesOutcomeSlightly) {
  SystemConfig config;
  const auto spec = workload::make_benchmark("dedup", config, 1500);
  const auto a = run_scripted(config, DirectoryMode::kBaseline, spec, 1).result;
  const auto b = run_scripted(config, DirectoryMode::kBaseline, spec, 2).result;
  EXPECT_NE(a.runtime, b.runtime);
}

TEST(System, AllarmReducesDirectoryOccupancyOnPrivateData) {
  const auto base = run_bench("ocean-cont", DirectoryMode::kBaseline);
  const auto allarm = run_bench("ocean-cont", DirectoryMode::kAllarm);
  EXPECT_LT(allarm.stats.get("pf.inserts"), base.stats.get("pf.inserts"));
  EXPECT_GT(allarm.stats.get("dir.local_no_alloc"), 0.0);
  EXPECT_EQ(base.stats.get("dir.local_no_alloc"), 0.0);
}

TEST(System, WarmupStatisticsAreExcluded) {
  // The measured access count must equal (roughly) the ROI accesses; the
  // warm-up sweeps must not be counted.
  // Statistics cover the window from the last thread's warm-up crossing to
  // the end of the run: never more than the ROI accesses, and - once the
  // ROI dwarfs the spread between threads' crossing times - most of them.
  const core::RunResult r =
      run_bench("barnes", DirectoryMode::kBaseline, 8000);
  const double counted = r.stats.get("cache.loads") +
                         r.stats.get("cache.stores") +
                         r.stats.get("cache.ifetches");
  EXPECT_LE(counted, 16 * 8000.0);
  EXPECT_GT(counted, 16 * 8000.0 * 0.5);
}

TEST(System, RunIsSingleUse) {
  SystemConfig config;
  core::System system(config);
  core::RunOptions options;
  system.run(make_scripted({{0, {load(priv(0, 0))}}}), options);
  EXPECT_THROW(system.run(make_scripted({{0, {load(priv(0, 0))}}}), options),
               std::logic_error);
}

TEST(System, ThreadMigrationKeepsProtocolSane) {
  SystemConfig config;
  const auto spec = workload::make_benchmark("barnes", config, 1200);
  config.directory_mode = DirectoryMode::kAllarm;
  core::System system(config);
  core::RunOptions options;
  options.seed = 3;
  options.migration_interval = ticks_from_ns(5000.0);
  const core::RunResult r = system.run(spec, options);
  EXPECT_GT(r.stats.get("os.migrations"), 0.0);
  EXPECT_EQ(r.stats.get("sanity.upgrade_without_line"), 0.0);
  EXPECT_EQ(r.stats.get("sanity.wbb_collisions"), 0.0);
}

TEST(System, PeriodicInvariantChecksPass) {
  SystemConfig config;
  const auto spec = workload::make_benchmark("x264", config, 600);
  for (auto mode : {DirectoryMode::kBaseline, DirectoryMode::kAllarm}) {
    config.directory_mode = mode;
    core::System system(config);
    core::RunOptions options;
    options.seed = 11;
    options.invariant_check_period = 1000;  // Mid-flight checks.
    EXPECT_NO_THROW(system.run(spec, options));
  }
}

TEST(System, MultiprocessWorkloadRuns) {
  SystemConfig config;
  const auto spec = workload::make_benchmark("cholesky-2p", config, 2000);
  for (auto mode : {DirectoryMode::kBaseline, DirectoryMode::kAllarm}) {
    const auto r = run_scripted(config, mode, spec, 5).result;
    EXPECT_EQ(r.thread_finish.size(), 2u);
    EXPECT_EQ(r.stats.get("sanity.anomalies"), 0.0);
  }
}

TEST(System, InterleavedAllocationDefeatsAllarm) {
  // Under interleaved page placement, "local" data is spread across all
  // nodes, so ALLARM's local-miss fast path rarely triggers.
  SystemConfig config;
  const auto spec = workload::make_benchmark("ocean-cont", config, 1200);
  const auto first_touch =
      run_scripted(config, DirectoryMode::kAllarm, spec, 7,
                   numa::AllocPolicy::kFirstTouch).result;
  const auto interleaved =
      run_scripted(config, DirectoryMode::kAllarm, spec, 7,
                   numa::AllocPolicy::kInterleave).result;
  EXPECT_GT(first_touch.stats.get("dir.local_no_alloc"),
            4 * interleaved.stats.get("dir.local_no_alloc"));
  EXPECT_GT(first_touch.stats.get("dir.local_fraction"),
            interleaved.stats.get("dir.local_fraction"));
}

TEST(System, EvictionBufferModeStillCorrect) {
  SystemConfig config;
  config.eviction_gates_reply = false;  // Ablation: async victim flows.
  const auto spec = workload::make_benchmark("ocean-cont", config, 1200);
  for (auto mode : {DirectoryMode::kBaseline, DirectoryMode::kAllarm}) {
    config.directory_mode = mode;
    core::System system(config);
    core::RunOptions options;
    options.seed = 13;
    const auto r = system.run(spec, options);
    EXPECT_EQ(r.stats.get("sanity.upgrade_without_line"), 0.0);
  }
}

TEST(System, SmallerProbeFiltersEvictMore) {
  SystemConfig big, small;
  small.probe_filter_coverage_bytes = 64 * 1024;
  const auto spec = workload::make_benchmark("barnes", big, 1500);
  const auto r_big =
      run_scripted(big, DirectoryMode::kBaseline, spec, 9).result;
  const auto r_small =
      run_scripted(small, DirectoryMode::kBaseline, spec, 9).result;
  EXPECT_GT(r_small.stats.get("dir.pf_evictions"),
            r_big.stats.get("dir.pf_evictions"));
}

TEST(System, EnergyTracksActivity) {
  const auto r = run_bench("dedup", DirectoryMode::kBaseline);
  EXPECT_GT(r.stats.get("energy.noc_nj"), 0.0);
  EXPECT_GT(r.stats.get("energy.pf_nj"), 0.0);
  EXPECT_GT(r.stats.get("energy.dram_nj"), 0.0);
}

TEST(System, LocalFractionMatchesProfileIntent) {
  // ocean is local-heavy; blackscholes is remote-heavy (Figure 2).  The ROI
  // must comfortably exceed the warm-up spread for the composition to be
  // representative.
  const auto ocean = run_bench("ocean-cont", DirectoryMode::kBaseline, 15000);
  const auto blks = run_bench("blackscholes", DirectoryMode::kBaseline, 6000);
  EXPECT_GT(ocean.stats.get("dir.local_fraction"), 0.4);
  EXPECT_LT(blks.stats.get("dir.local_fraction"), 0.3);
}

}  // namespace
}  // namespace allarm
