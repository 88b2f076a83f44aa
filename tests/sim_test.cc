// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/event_queue.hh"

namespace allarm::sim {
namespace {

TEST(EventQueue, StartsAtTimeZero) {
  EventQueue eq;
  EXPECT_EQ(eq.now(), 0u);
  EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(30, [&] { order.push_back(3); });
  eq.schedule_at(10, [&] { order.push_back(1); });
  eq.schedule_at(20, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eq.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  eq.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(1, [&] {
    ++fired;
    eq.schedule_in(4, [&] { ++fired; });
  });
  eq.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RejectsSchedulingIntoThePast) {
  EventQueue eq;
  eq.schedule_at(10, [] {});
  eq.run();
  EXPECT_THROW(eq.schedule_at(5, [] {}), std::logic_error);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty) {
  EventQueue eq;
  EXPECT_FALSE(eq.run_one());
  eq.schedule_at(1, [] {});
  EXPECT_TRUE(eq.run_one());
  EXPECT_FALSE(eq.run_one());
}

TEST(EventQueue, RunHonoursEventBudget) {
  EventQueue eq;
  int fired = 0;
  for (int i = 0; i < 10; ++i) eq.schedule_at(i, [&] { ++fired; });
  EXPECT_EQ(eq.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue eq;
  std::vector<Tick> fired;
  for (Tick t : {5u, 10u, 15u}) {
    eq.schedule_at(t, [&fired, &eq] { fired.push_back(eq.now()); });
  }
  eq.run_until(10);
  EXPECT_EQ(fired, (std::vector<Tick>{5, 10}));
  EXPECT_EQ(eq.now(), 10u);
  eq.run();
  EXPECT_EQ(fired.back(), 15u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle) {
  EventQueue eq;
  eq.run_until(100);
  EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, ClearDiscardsPending) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(1, [&] { ++fired; });
  eq.clear();
  eq.run();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CountsExecutedEvents) {
  EventQueue eq;
  for (int i = 0; i < 7; ++i) eq.schedule_at(i, [] {});
  eq.run();
  EXPECT_EQ(eq.events_executed(), 7u);
}

TEST(EventQueue, LargeVolumeKeepsOrder) {
  EventQueue eq;
  Tick last = 0;
  bool monotone = true;
  for (int i = 0; i < 20000; ++i) {
    eq.schedule_at(static_cast<Tick>((i * 7919) % 1000), [&, i] {
      monotone = monotone && eq.now() >= last;
      last = eq.now();
    });
  }
  eq.run();
  EXPECT_TRUE(monotone);
}

// The near tier is a ring of 256 buckets of 512 ticks, 2^17 ticks in all,
// starting at a window aligned down to a bucket boundary: anything at or
// beyond that window's end overflows into the far heap.  These tests pin
// the near/far split and, crucially, that (tick, insertion-order) FIFO
// survives migration between the two.

constexpr Tick kFar = 1u << 20;       // Safely beyond the near tier.
constexpr Tick kBucket = 512;         // Ticks per near-tier bucket.
constexpr Tick kLap = Tick{1} << 17;  // Ticks per lap of the bucket ring.

TEST(EventQueue, FarEventsAreHeapedThenExecuted) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(kFar, [&] { order.push_back(2); });
  eq.schedule_at(10, [&] { order.push_back(1); });
  EXPECT_EQ(eq.far_pending(), 1u);
  EXPECT_EQ(eq.pending(), 2u);
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eq.now(), kFar);
  EXPECT_EQ(eq.far_pending(), 0u);
}

TEST(EventQueue, SameTickFifoSurvivesFarMigration) {
  // a and b overflow into the far heap (scheduled while the window is far
  // below kFar); c is scheduled for the same tick later, after the window
  // has advanced enough that kFar is within the near horizon -- so c is a
  // direct bucket insert after a and b migrated.  FIFO demands a, b, c.
  EventQueue eq;
  std::vector<char> order;
  eq.schedule_at(kFar, [&] { order.push_back('a'); });
  eq.schedule_at(kFar, [&] { order.push_back('b'); });
  EXPECT_EQ(eq.far_pending(), 2u);
  eq.schedule_at(kFar - 1000, [&] {
    eq.schedule_at(kFar, [&] { order.push_back('c'); });
  });
  eq.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(EventQueue, FarEventsExecuteInTickSeqOrder) {
  EventQueue eq;
  std::vector<int> order;
  const Tick ticks[] = {kFar + 7, kFar + 3, kFar + 7, kFar + 1, kFar + 3};
  for (int i = 0; i < 5; ++i) {
    eq.schedule_at(ticks[i], [&order, i] { order.push_back(i); });
  }
  eq.run();
  // Sorted by (tick, insertion order): 3 (kFar+1), 1, 4 (kFar+3), 0, 2.
  EXPECT_EQ(order, (std::vector<int>{3, 1, 4, 0, 2}));
}

TEST(EventQueue, RunUntilIncludesFarBoundary) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(kFar, [&] { ++fired; });
  eq.schedule_at(kFar + 1, [&] { ++fired; });
  eq.run_until(kFar);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eq.now(), kFar);
  EXPECT_EQ(eq.pending(), 1u);
  eq.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingAfterIdleRunUntilKeepsOrder) {
  // Regression: run_until's peek must not advance the window base past
  // `until`.  If it does, an event scheduled afterwards below the next
  // pending tick lands behind the window base and runs out of order (and
  // now() runs backwards).
  EventQueue eq;
  std::vector<Tick> fired;
  eq.schedule_at(1000, [&] { fired.push_back(eq.now()); });
  eq.run_until(500);
  EXPECT_EQ(eq.now(), 500u);
  eq.schedule_at(600, [&] { fired.push_back(eq.now()); });
  eq.run();
  EXPECT_EQ(fired, (std::vector<Tick>{600, 1000}));
  EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, SchedulingAfterIdleRunUntilKeepsOrderAcrossHorizon) {
  // Same regression with the pending event in the far heap.
  EventQueue eq;
  std::vector<Tick> fired;
  eq.schedule_at(kFar, [&] { fired.push_back(eq.now()); });
  eq.run_until(500);
  eq.schedule_at(600, [&] { fired.push_back(eq.now()); });
  eq.run();
  EXPECT_EQ(fired, (std::vector<Tick>{600, kFar}));
}

TEST(EventQueue, ClearDiscardsNearAndFarAndQueueStaysUsable) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(5, [&] { ++fired; });
  eq.schedule_at(kFar, [&] { ++fired; });
  eq.clear();
  EXPECT_EQ(eq.pending(), 0u);
  eq.run();
  EXPECT_EQ(fired, 0);
  // A cleared queue keeps working (experiment repetitions reuse it).
  eq.schedule_at(7, [&] { ++fired; });
  eq.schedule_at(kFar + 9, [&] { ++fired; });
  eq.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.now(), kFar + 9);
}

TEST(EventQueue, LargeVolumeAcrossHorizonKeepsOrder) {
  EventQueue eq;
  Tick last = 0;
  bool monotone = true;
  std::uint64_t fired = 0;
  for (int i = 0; i < 20000; ++i) {
    // Spread ticks across several near-window spans.
    eq.schedule_at(static_cast<Tick>((i * 7919) % 1000000), [&] {
      monotone = monotone && eq.now() >= last;
      last = eq.now();
      ++fired;
    });
  }
  eq.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(fired, 20000u);
}

TEST(EventQueue, EventOneLapAheadNeverOvertakesANearerOne) {
  // At tick 1000 an event 2^17 - 10 ticks ahead maps to the bucket of
  // tick 1000 itself.  With the window aligned down to 512 it lies beyond
  // the window and waits in the far heap; were the window to start at 1000
  // it would join the current bucket and run before the event at 2000.
  EventQueue eq;
  std::vector<Tick> fired;
  const auto record = [&] { fired.push_back(eq.now()); };
  eq.schedule_at(1000, [&] {
    eq.schedule_at(1000 + kLap - 10, record);
    eq.schedule_at(2000, record);
  });
  eq.run();
  EXPECT_EQ(fired, (std::vector<Tick>{2000, 1000 + kLap - 10}));
}

// Differential check against a reference queue: a map keyed on (tick,
// seq).  Both queues run the same seeded schedule -- events added from
// outside between run_until() stops and from inside running actions --
// and must execute the same events in the same order.

class ReferenceQueue {
 public:
  Tick now() const { return now_; }
  void schedule_at(Tick when, std::function<void()> action) {
    pending_.emplace(std::make_pair(when, seq_++), std::move(action));
  }
  bool run_one() {
    if (pending_.empty()) return false;
    const auto first = pending_.begin();
    now_ = first->first.first;
    std::function<void()> action = std::move(first->second);
    pending_.erase(first);
    action();
    return true;
  }
  void run() {
    while (run_one()) {
    }
  }
  void run_until(Tick until) {
    while (!pending_.empty() && pending_.begin()->first.first <= until) {
      run_one();
    }
    if (now_ < until) now_ = until;
  }

 private:
  std::map<std::pair<Tick, std::uint64_t>, std::function<void()>> pending_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
};

/// A delay from `now` aimed at the calendar's edge cases.
Tick draw_delay(Rng& rng, Tick now) {
  const Tick to_edge = kBucket - now % kBucket;  // Next bucket boundary.
  switch (rng.below(8)) {
    case 0: return 0;                                // Same tick.
    case 1: return rng.below(kBucket);               // Within a bucket.
    case 2: return to_edge - 1 + rng.below(3);       // Around an edge.
    case 3: return kLap - 1 + rng.below(3);          // One ring lap.
    case 4: return kLap - to_edge - 1 + rng.below(3);  // Window end.
    case 5: return ticks_from_ns(100.0);             // Timeshare retry.
    case 6: return kLap + rng.below(4 * kLap);       // Far tier.
    default: return rng.below(4 * kBucket);          // Nearby buckets.
  }
}

/// Runs seed `seed`'s schedule on a `Queue` and returns the executed
/// events as (tick, id), ids numbered in scheduling order.
template <typename Queue>
std::vector<std::pair<Tick, std::uint64_t>> run_schedule(std::uint64_t seed) {
  Queue queue;
  std::vector<std::pair<Tick, std::uint64_t>> fired;
  std::uint64_t next_id = 0;
  int budget = 200;  // Events actions may still add.
  std::function<void(Tick)> add = [&](Tick when) {
    const std::uint64_t id = next_id++;
    queue.schedule_at(when, [&, id] {
      fired.emplace_back(queue.now(), id);
      // Children depend only on the event's id, so both queues see the
      // same program as long as they agree on the order so far.
      Rng rng(seed * 7919 + id);
      for (std::uint64_t n = rng.below(3); n > 0 && budget > 0; --n) {
        --budget;
        add(queue.now() + draw_delay(rng, queue.now()));
      }
    });
  };
  Rng rng(seed);
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t n = 1 + rng.below(16); n > 0; --n) {
      add(queue.now() + draw_delay(rng, queue.now()));
    }
    queue.run_until(queue.now() + draw_delay(rng, queue.now()));
  }
  queue.run();
  return fired;
}

TEST(EventQueue, MatchesReferenceOrderOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    const auto got = run_schedule<EventQueue>(seed);
    const auto want = run_schedule<ReferenceQueue>(seed);
    ASSERT_EQ(got, want) << "seed " << seed;
    ASSERT_FALSE(want.empty());
  }
}

TEST(Event, HoldsNonTriviallyCopyableCallables) {
  // A std::string capture exercises the non-trivial relocate path.
  std::string payload = "the quick brown fox jumps over the lazy dog";
  Event ev([payload, out = std::string()]() mutable { out = payload; });
  Event moved = std::move(ev);
  EXPECT_FALSE(static_cast<bool>(ev));
  EXPECT_TRUE(static_cast<bool>(moved));
  moved();
}

TEST(Event, OversizedCallablesFallBackToHeapAndAreCounted) {
  const std::uint64_t before = Event::heap_fallbacks();
  struct Big {
    char bytes[128];
  };
  Big big{};
  big.bytes[0] = 42;
  int out = 0;
  Event ev([big, &out] { out = big.bytes[0]; });
  EXPECT_EQ(Event::heap_fallbacks(), before + 1);
  ev();
  EXPECT_EQ(out, 42);
}

}  // namespace
}  // namespace allarm::sim
