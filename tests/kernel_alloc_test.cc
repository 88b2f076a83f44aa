// Allocation instrumentation for the event kernel.
//
// Counts global operator new calls and bytes (counting_new.hh) and asserts
// the tentpole property of the allocation-free kernel: once warmed up,
// scheduling and executing events whose closures fit sim::Event's inline
// buffer performs ZERO heap allocations -- the node arena, the far heap
// and the buckets all recycle their capacity.  The byte count pins how
// much one simulated machine and its end-of-run invariant check allocate.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/experiment.hh"
#include "core/system.hh"
#include "counting_new.hh"
#include "sim/event_queue.hh"
#include "workload/profiles.hh"

namespace allarm::sim {
namespace {

constexpr Tick kFarDelay = 1u << 20;  // Beyond the near horizon.

// A self-rescheduling ticker with a representative capture footprint (the
// coherence closures carry a `this` plus a few words): fits inline.
struct Ticker {
  EventQueue* eq;
  std::uint64_t payload[3];
  std::uint64_t limit;
  void operator()() const {
    if (eq->events_executed() < limit) {
      eq->schedule_in(1 + (payload[0] & 0xFF), *this);
    }
  }
};
static_assert(sizeof(Ticker) <= Event::kInlineBytes,
              "representative closure must fit inline storage");

TEST(KernelAllocations, SteadyStateSchedulesWithoutHeapAllocations) {
  EventQueue eq;

  // Warm-up: reach the arena / heap / bucket high-water mark.  Several
  // concurrent near tickers plus far-horizon tickers so both tiers and the
  // far heap see their peak occupancy before measurement starts.
  for (std::uint64_t i = 0; i < 16; ++i) {
    eq.schedule_in(i + 1, Ticker{&eq, {i * 977, i, ~i}, 20000});
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    eq.schedule_in(kFarDelay + i, Ticker{&eq, {i * 131, i, ~i}, 20000});
  }
  eq.run(10000);

  const std::uint64_t fallbacks_before = Event::heap_fallbacks();
  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);

  // Measured steady state: tens of thousands of schedule/execute cycles.
  const std::uint64_t executed = eq.run(10000);

  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(executed, 10000u);
  EXPECT_EQ(news_after - news_before, 0u)
      << "event kernel allocated on the steady-state path";
  EXPECT_EQ(Event::heap_fallbacks(), fallbacks_before)
      << "an inline-sized closure fell back to the heap";
}

TEST(KernelAllocations, FarHorizonSteadyStateIsAllocationFree) {
  EventQueue eq;

  // Every reschedule crosses the far heap.
  struct FarTicker {
    EventQueue* eq;
    std::uint64_t limit;
    void operator()() const {
      if (eq->events_executed() < limit) eq->schedule_in(kFarDelay, *this);
    }
  };
  for (int i = 0; i < 8; ++i) eq.schedule_in(i + 1, FarTicker{&eq, 5000});
  eq.run(2000);

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  const std::uint64_t executed = eq.run(2000);
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(executed, 2000u);
  EXPECT_EQ(news_after - news_before, 0u)
      << "far-heap traffic allocated in steady state";
}

TEST(KernelAllocations, SteadyStateGenerationIsAllocationFree) {
  // Every access is issued by one AccessGenerator::next() call.  Once the
  // generators are built, drawing from them must allocate nothing: no
  // Mix/Phased scratch growth, no lazily built Zipf tables.
  SystemConfig config;
  const workload::WorkloadSpec spec =
      workload::make_benchmark("ocean-cont", config, 1000);
  std::vector<std::unique_ptr<workload::AccessGenerator>> generators;
  std::vector<Rng> rngs;
  for (std::size_t t = 0; t < spec.threads.size(); ++t) {
    generators.push_back(spec.threads[t].make_generator());
    rngs.emplace_back(t + 1);
  }
  // Dedicated Zipf generator: its guide table must be built up front.
  generators.push_back(
      std::make_unique<workload::ZipfPages>(0x1000, 1024, 0.9, 0.2));
  rngs.emplace_back(99);

  // Warm-up: cross every Phased stage boundary at least once.
  for (std::size_t g = 0; g < generators.size(); ++g) {
    for (int i = 0; i < 4096; ++i) generators[g]->next(rngs[g], 0);
  }

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  Tick now = 0;
  for (int round = 0; round < 200; ++round) {
    for (std::size_t g = 0; g < generators.size(); ++g) {
      for (int i = 0; i < 64; ++i) generators[g]->next(rngs[g], now);
    }
    now += ticks_from_ns(100.0);
  }
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(news_after - news_before, 0u)
      << "access generation allocated in steady state";
}

TEST(KernelAllocations, FullSystemRunNeverSpillsEventsToHeap) {
  // End-to-end: every closure the simulator schedules across a whole
  // multithreaded run must fit sim::Event's inline buffer.
  const std::uint64_t fallbacks_before = Event::heap_fallbacks();
  SystemConfig config;
  const workload::WorkloadSpec spec =
      workload::make_benchmark("ocean-cont", config, 500);
  core::System system(config);
  core::RunOptions options;
  options.seed = 42;
  options.migration_interval = ticks_from_ns(5000.0);
  system.run(spec, options);
  EXPECT_GT(system.events().events_executed(), 0u);
  EXPECT_EQ(Event::heap_fallbacks(), fallbacks_before)
      << "a simulator closure no longer fits Event::kInlineBytes";
}

TEST(KernelAllocations, TableISystemAllocatesAtMostTwoMiB) {
  // Construction sizes every per-node structure: tag arrays, replacement
  // state, probe filters, and the event calendar.  Keep one machine's
  // working set inside a host core's 2 MiB L2.
#if !ALLARM_COUNTING_NEW
  GTEST_SKIP() << "AddressSanitizer owns operator new; bytes are not counted";
#endif
  const SystemConfig config;
  const std::uint64_t before = g_new_bytes.load(std::memory_order_relaxed);
  { core::System system(config); }
  const std::uint64_t bytes =
      g_new_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LE(bytes, std::uint64_t{2} << 20)
      << "a Table-I System allocated " << bytes << " bytes";
}

TEST(KernelAllocations, InvariantCheckAllocatesOneRecordPerCachedLine) {
  // The strict checker ends every run while other workers' runs are still
  // live, so its scratch adds to the host's peak memory: one (line, node,
  // state) record packed into 8 bytes per cached line, and nothing else.
#if !ALLARM_COUNTING_NEW
  GTEST_SKIP() << "AddressSanitizer owns operator new; bytes are not counted";
#endif
  const SystemConfig config;
  const workload::WorkloadSpec spec =
      workload::make_benchmark("ocean-cont", config, 500);
  core::System system(config);
  core::RunOptions options;
  options.seed = 42;
  system.run(spec, options);
  std::uint64_t lines = 0;
  for (NodeId n = 0; n < config.num_nodes(); ++n) {
    lines += system.cache(n).hierarchy().occupancy();
  }
  ASSERT_GT(lines, 0u);
  const std::uint64_t before = g_new_bytes.load(std::memory_order_relaxed);
  system.check_invariants(/*strict=*/true);
  const std::uint64_t bytes =
      g_new_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LE(bytes, lines * 8)
      << "the invariant check allocated " << bytes << " bytes for " << lines
      << " cached lines";
}

}  // namespace
}  // namespace allarm::sim
