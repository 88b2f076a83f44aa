// Unit tests for access generators and benchmark profiles.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace allarm::workload {
namespace {

// ------------------------------------------------- guide-table Zipf ----

// The guide table is a pure accelerator: for every uniform draw it must
// return EXACTLY the rank the naive lower_bound over the full CDF returns,
// otherwise access streams (and sweep report bytes) would shift.
TEST(ZipfGuideTable, MatchesLowerBoundReferenceExhaustively) {
  const std::uint64_t sizes[] = {1, 2, 7, 1024, 100000};
  const double alphas[] = {0.0, 0.5, 0.9, 1.2};
  for (const std::uint64_t n : sizes) {
    for (const double alpha : alphas) {
      const ZipfDistribution dist(n, alpha);
      Rng rng(0x5eedu ^ n ^ static_cast<std::uint64_t>(alpha * 16));
      for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_EQ(dist.rank(u), dist.rank_reference(u))
            << "n=" << n << " alpha=" << alpha << " u=" << u;
      }
      // Edge draws: exact bucket boundaries are where a misanchored guide
      // index would diverge.
      for (const double u : {0.0, 0.25, 0.5, 0.75, 0.999999999,
                             1.0 - 1e-16}) {
        ASSERT_EQ(dist.rank(u), dist.rank_reference(u))
            << "n=" << n << " alpha=" << alpha << " edge u=" << u;
      }
    }
  }
}

TEST(ZipfGuideTable, SamplingConsumesOneUniformDraw) {
  // operator() must advance the rng exactly as the pre-guide-table code
  // did: one uniform() per sample.
  const ZipfDistribution dist(64, 0.9);
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t rank = dist(a);
    EXPECT_EQ(rank, dist.rank_reference(b.uniform()));
  }
  EXPECT_EQ(a.next(), b.next());  // Same rng position afterwards.
}

TEST(SequentialSweep, WrapsAndStrides) {
  SequentialSweep gen(0x1000, 4 * kLineBytes, kLineBytes, 0.0);
  Rng rng(1);
  std::vector<Addr> seen;
  for (int i = 0; i < 8; ++i) seen.push_back(gen.next(rng, 0).vaddr);
  EXPECT_EQ(seen[0], 0x1000u);
  EXPECT_EQ(seen[1], 0x1000u + kLineBytes);
  EXPECT_EQ(seen[4], 0x1000u);  // Wrapped.
}

TEST(SequentialSweep, WriteProbability) {
  SequentialSweep gen(0, 64 * kLineBytes, kLineBytes, 1.0);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(gen.next(rng, 0).type, AccessType::kStore);
  }
  SequentialSweep ro(0, 64 * kLineBytes, kLineBytes, 0.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ro.next(rng, 0).type, AccessType::kLoad);
  }
}

TEST(SequentialSweep, RejectsDegenerate) {
  EXPECT_THROW(SequentialSweep(0, 0, 64, 0.0), std::invalid_argument);
  EXPECT_THROW(SequentialSweep(0, 64, 0, 0.0), std::invalid_argument);
}

TEST(UniformRandom, StaysInRegionAndAligned) {
  UniformRandom gen(0x10000, 16 * kLineBytes, 0.5);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const Addr a = gen.next(rng, 0).vaddr;
    EXPECT_GE(a, 0x10000u);
    EXPECT_LT(a, 0x10000u + 16 * kLineBytes);
    EXPECT_EQ(a % kLineBytes, 0u);
  }
}

TEST(UniformRandom, CoversRegion) {
  UniformRandom gen(0, 8 * kLineBytes, 0.0);
  Rng rng(3);
  std::set<Addr> seen;
  for (int i = 0; i < 500; ++i) seen.insert(gen.next(rng, 0).vaddr);
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ZipfPages, SkewsTowardFirstPages) {
  ZipfPages gen(0, 64, 1.0, 0.0);
  Rng rng(4);
  std::vector<int> page_counts(64, 0);
  for (int i = 0; i < 20000; ++i) {
    ++page_counts[gen.next(rng, 0).vaddr / kPageBytes];
  }
  EXPECT_GT(page_counts[0], page_counts[32] * 4);
}

TEST(ChunkCycle, VisitsChunksInPhaseOrder) {
  // 2 chunks of 2 lines; phase 1 starts in chunk 1.
  ChunkCycle gen(0, 2 * kLineBytes, 2, 1, 0.0);
  Rng rng(5);
  EXPECT_EQ(gen.next(rng, 0).vaddr / (2 * kLineBytes), 1u);
  EXPECT_EQ(gen.next(rng, 0).vaddr / (2 * kLineBytes), 1u);
  EXPECT_EQ(gen.next(rng, 0).vaddr / (2 * kLineBytes), 0u);  // Advanced.
}

TEST(CreepingShared, WindowFollowsSimulatedTime) {
  CreepingShared gen(0, 1024 * kLineBytes, 4, ticks_from_ns(10.0), 0.0);
  Rng rng(6);
  // At t=0 the window is lines [0,4); at t=10us it is [1000, 1004).
  for (int i = 0; i < 20; ++i) {
    const Addr a = gen.next(rng, 0).vaddr;
    EXPECT_LT(a / kLineBytes, 4u);
  }
  for (int i = 0; i < 20; ++i) {
    const Addr a = gen.next(rng, ticks_from_ns(10000.0)).vaddr;
    EXPECT_GE(a / kLineBytes, 1000u);
    EXPECT_LT(a / kLineBytes, 1004u);
  }
}

TEST(CreepingShared, TwoThreadsShareTheWindow) {
  CreepingShared a(0, 1024 * kLineBytes, 8, ticks_from_ns(10.0), 0.0);
  CreepingShared b(0, 1024 * kLineBytes, 8, ticks_from_ns(10.0), 0.0);
  Rng ra(1), rb(2);
  std::set<Addr> sa, sb;
  for (int i = 0; i < 100; ++i) {
    sa.insert(a.next(ra, ticks_from_ns(500.0)).vaddr);
    sb.insert(b.next(rb, ticks_from_ns(500.0)).vaddr);
  }
  EXPECT_EQ(sa, sb);  // Identical windows regardless of generator instance.
}

TEST(CreepingShared, WrapsOverRegion) {
  CreepingShared gen(0, 16 * kLineBytes, 4, 1, 0.0);
  Rng rng(7);
  const Addr a = gen.next(rng, 1000).vaddr;  // Head far beyond the region.
  EXPECT_LT(a, 16 * kLineBytes);
}

TEST(Phased, RunsStagesThenTail) {
  auto phased = std::make_unique<Phased>();
  phased->add_stage(2, std::make_unique<SequentialSweep>(0, 2 * kLineBytes,
                                                         kLineBytes, 0.0));
  phased->add_stage(1, std::make_unique<SequentialSweep>(
                           0x1000, kLineBytes, kLineBytes, 0.0));
  phased->set_tail(std::make_unique<SequentialSweep>(0x2000, kLineBytes,
                                                     kLineBytes, 0.0));
  EXPECT_EQ(phased->prefix_length(), 3u);
  Rng rng(1);
  EXPECT_EQ(phased->next(rng, 0).vaddr, 0x0u);
  EXPECT_EQ(phased->next(rng, 0).vaddr, static_cast<Addr>(kLineBytes));
  EXPECT_EQ(phased->next(rng, 0).vaddr, 0x1000u);
  EXPECT_EQ(phased->next(rng, 0).vaddr, 0x2000u);
  EXPECT_EQ(phased->next(rng, 0).vaddr, 0x2000u);  // Tail repeats.
}

TEST(Phased, ThrowsWithoutTail) {
  Phased phased;
  Rng rng(1);
  EXPECT_THROW(phased.next(rng, 0), std::logic_error);
}

TEST(Mix, RespectsWeights) {
  Mix mix;
  mix.add(0.9, std::make_unique<SequentialSweep>(0, kLineBytes, kLineBytes, 0.0));
  mix.add(0.1, std::make_unique<SequentialSweep>(0x100000, kLineBytes,
                                                 kLineBytes, 0.0));
  Rng rng(8);
  int low = 0;
  for (int i = 0; i < 10000; ++i) {
    low += (mix.next(rng, 0).vaddr < 0x100000);
  }
  EXPECT_NEAR(low / 10000.0, 0.9, 0.03);
}

TEST(Mix, RejectsBadWeight) {
  Mix mix;
  EXPECT_THROW(
      mix.add(0.0, std::make_unique<SequentialSweep>(0, 64, 64, 0.0)),
      std::invalid_argument);
}

// ---------------------------------------------------------------- profiles ----

TEST(Profiles, AllEightBenchmarksExist) {
  const auto& names = benchmark_names();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "barnes");
  EXPECT_EQ(names.back(), "x264");
  for (const auto& n : names) {
    EXPECT_EQ(benchmark_params(n).name, n);
    EXPECT_GE(benchmark_params(n).p_shared(), -1e-9);
  }
  EXPECT_THROW(benchmark_params("doom"), std::out_of_range);
}

TEST(Profiles, BuildsSixteenThreadWorkload) {
  SystemConfig config;
  const WorkloadSpec spec = make_benchmark("ocean-cont", config, 1000);
  ASSERT_EQ(spec.threads.size(), 16u);
  for (const auto& t : spec.threads) {
    EXPECT_EQ(t.accesses, 1000u);
    EXPECT_GT(t.warmup_accesses, 0u);
    EXPECT_NE(t.make_generator, nullptr);
  }
  EXPECT_NE(spec.setup, nullptr);
}

TEST(Profiles, GeneratorsAreDeterministic) {
  SystemConfig config;
  const WorkloadSpec spec = make_benchmark("dedup", config, 100);
  auto g1 = spec.threads[3].make_generator();
  auto g2 = spec.threads[3].make_generator();
  Rng r1(9), r2(9);
  for (int i = 0; i < 500; ++i) {
    const Access a = g1->next(r1, i);
    const Access b = g2->next(r2, i);
    EXPECT_EQ(a.vaddr, b.vaddr);
    EXPECT_EQ(a.type, b.type);
  }
}

TEST(Profiles, ThreadsHaveDistinctPrivateRegions) {
  SystemConfig config;
  const WorkloadSpec spec = make_benchmark("barnes", config, 100);
  auto g0 = spec.threads[0].make_generator();
  auto g1 = spec.threads[1].make_generator();
  Rng r0(1), r1(1);
  std::set<Addr> a0, a1;
  // Skip the (kernel-shared) warm-up prefix.
  const auto warm = spec.threads[0].warmup_accesses;
  for (std::uint64_t i = 0; i < warm + 200; ++i) {
    const Addr x = g0->next(r0, 0).vaddr;
    const Addr y = g1->next(r1, 0).vaddr;
    if (i >= warm && x < 0x100'0000'0000ull) a0.insert(x);
    if (i >= warm && y < 0x100'0000'0000ull) a1.insert(y);
  }
  for (const Addr a : a0) EXPECT_EQ(a1.count(a), 0u);
}

TEST(Profiles, MultiprocessBuildsTwoProcesses) {
  SystemConfig config;
  const WorkloadSpec spec = make_benchmark("barnes-2p", config, 500);
  EXPECT_EQ(spec.name, "barnes-2p");
  ASSERT_EQ(spec.threads.size(), 2u);
  EXPECT_NE(spec.threads[0].asid, spec.threads[1].asid);
  EXPECT_NE(spec.threads[0].node, spec.threads[1].node);
  EXPECT_EQ(multiprocess_benchmark_names().size(), 4u);
}

TEST(Profiles, RejectsTooManyThreads) {
  SystemConfig config;
  EXPECT_THROW(
      make_from_params(benchmark_params("barnes"), config, 10, 17),
      std::invalid_argument);
}

TEST(Profiles, SetupPlacesPrivatePagesLocally) {
  SystemConfig config;
  const WorkloadSpec spec = make_benchmark("ocean-cont", config, 100);
  numa::Os os(config, numa::AllocPolicy::kFirstTouch);
  spec.setup(os);
  // Thread 5's hot region must be homed at node 5.
  const Addr hot5 = 0x4000'0000ull * 6;
  ASSERT_TRUE(os.translate(0, hot5).has_value());
  EXPECT_EQ(os.home_of(*os.translate(0, hot5)), 5);
}

TEST(Profiles, BlackscholesSharedRegionHomedAtNodeZero) {
  SystemConfig config;
  const WorkloadSpec spec = make_benchmark("blackscholes", config, 100);
  numa::Os os(config, numa::AllocPolicy::kFirstTouch);
  spec.setup(os);
  const Addr shared_base = 0x300'0000'0000ull;
  const auto& params = benchmark_params("blackscholes");
  for (Addr a = shared_base; a < shared_base + params.shared_bytes;
       a += kPageBytes) {
    ASSERT_TRUE(os.translate(0, a).has_value());
    EXPECT_EQ(os.home_of(*os.translate(0, a)), 0);
  }
}

TEST(Profiles, MisplacedFractionSpreadsColdPages) {
  SystemConfig config;
  const WorkloadSpec spec = make_benchmark("ocean-non-cont", config, 100);
  numa::Os os(config, numa::AllocPolicy::kFirstTouch);
  spec.setup(os);
  const auto& params = benchmark_params("ocean-non-cont");
  const Addr cold0 = 0x100'0000'0000ull;
  int misplaced = 0, total = 0;
  for (Addr a = cold0; a < cold0 + params.cold_bytes; a += kPageBytes) {
    ++total;
    misplaced += (os.home_of(*os.translate(0, a)) != 0);
  }
  EXPECT_NEAR(static_cast<double>(misplaced) / total,
              params.misplaced_private_fraction, 0.05);
}

}  // namespace
}  // namespace allarm::workload
