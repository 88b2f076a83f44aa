// Discrete-event simulation kernel.
//
// A single EventQueue drives the whole system.  Events are closures ordered
// by (tick, insertion sequence); same-tick events execute in FIFO order so
// every run is deterministic.
//
// Structure: a two-level calendar queue.  The near tier is a ring of 256
// buckets, each covering 512 consecutive ticks, so the ring spans 2^17
// ticks from a window start aligned down to a bucket boundary.  A bucket is
// an intrusive list over a pooled node arena, kept sorted by tick and FIFO
// within a tick; a 256-bit occupancy bitmap finds the next non-empty
// bucket in at most five word tests.  The whole ring is 2 KiB, so it stays
// in L1.  Events beyond the window overflow into a binary min-heap on
// (tick, seq) and migrate into the buckets the moment the window first
// covers their tick -- before any in-window insert can target it -- so
// bucket order is always exact (tick, seq) order.
//
// Steady state performs no heap allocations: events store their callables
// inline (sim::Event), the node arena and heap recycle their capacity, and
// the bitmap and bucket ring are fixed-size members.  The schedule/execute
// path is defined inline below so call sites across the simulator compile
// it down without crossing a translation-unit boundary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/types.hh"
#include "sim/event.hh"

namespace allarm::sim {

/// Central event queue and simulation clock.
class EventQueue {
 public:
  using Action = Event;

  /// Current simulated time.
  Tick now() const { return now_; }

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending.
  std::size_t pending() const { return near_count_ + far_.size(); }

  /// Number of pending events currently in the far-horizon overflow heap
  /// (introspection for tests and the throughput bench).
  std::size_t far_pending() const { return far_.size(); }

  /// Schedules `action` to run at absolute time `when` (>= now()).  The
  /// callable is constructed directly inside the queue's node arena — a
  /// lambda at the call site reaches its execution slot with zero
  /// intermediate Event moves.
  template <typename F>
  void schedule_at(Tick when, F&& action);

  /// Schedules `action` to run `delay` ticks from now.
  template <typename F>
  void schedule_in(Tick delay, F&& action) {
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Executes the next event; returns false when the queue is empty.
  bool run_one();

  /// Runs until the queue drains or `max_events` have executed.
  /// Returns the number of events executed by this call.
  std::uint64_t run(std::uint64_t max_events = ~0ull);

  /// Runs until the queue drains or simulated time exceeds `until`.
  /// Events scheduled at exactly `until` are executed.
  void run_until(Tick until);

  /// Discards all pending events (used between experiment repetitions).
  void clear();

 private:
  /// Near-tier geometry: 256 buckets of 512 ticks, 2^17 ticks (131 ns) in
  /// all.  Cache, mesh and DRAM hops (1-60 ns) and the 100 ns core
  /// timeshare retry land in buckets; think-time and migration timers
  /// (and deeply queued DRAM bursts) overflow into the far heap.  The
  /// geometry never changes event ORDER, only speed: at a 2^16-tick window
  /// the migration profile cycled every retry through the far heap and
  /// lost ~10% throughput.  An action schedules the retry from anywhere in
  /// the window's first bucket, hence the assert's one-bucket margin.
  static constexpr unsigned kBucketBits = 9;
  static constexpr Tick kBucketTicks = Tick{1} << kBucketBits;
  static constexpr std::size_t kBuckets = 256;
  static constexpr Tick kNearTicks = kBucketTicks * kBuckets;
  static constexpr std::size_t kLiveWords = kBuckets / 64;
  static_assert(kNearTicks - kBucketTicks >= ticks_from_ns(100.0),
                "the 100 ns timeshare retry must land in the near tier");
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// One pending event plus its bucket link -- pooled.  Far events live in
  /// the same arena; the heap orders lightweight references so sifting
  /// never moves Event storage.
  struct Node {
    Tick when = 0;
    std::uint32_t next = kNil;
    Event action;
  };
  static_assert(sizeof(void*) != 8 || sizeof(Node) == 64,
                "arena node should be exactly one cache line on LP64");
  /// A far-heap reference: ordering key plus the arena slot.
  struct FarRef {
    Tick when;
    std::uint64_t seq;
    std::uint32_t node;
  };
  /// Min-heap comparator: std::push_heap keeps the *largest* on top, so
  /// "later" ordering puts the earliest (tick, seq) at far_[0].
  struct Later {
    bool operator()(const FarRef& a, const FarRef& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// Head/tail of one bucket's tick-sorted list (indices into nodes_).
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static unsigned lowest_set_bit(std::uint64_t word) {
    return static_cast<unsigned>(__builtin_ctzll(word));
  }

  static std::size_t bucket_of(Tick when) {
    return static_cast<std::size_t>(when >> kBucketBits) & (kBuckets - 1);
  }

  std::uint32_t make_node(Tick when);
  void release_node(std::uint32_t index);
  /// Links arena node `index` into its bucket, after every node of an
  /// equal or earlier tick.
  void link_near(std::uint32_t index);
  /// link_near()'s rare case: the node sorts before the bucket's tail.
  void link_sorted(Bucket& bucket, std::uint32_t index);
  /// Moves the window to the bucket holding `tick` (the earliest pending
  /// tick) and migrates far-heap entries the window now covers.  They all
  /// land beyond `tick`'s bucket, so the minimum is unaffected.
  void advance_window(Tick tick) {
    window_ = tick & ~(kBucketTicks - 1);
    if (!far_.empty() && far_.front().when < window_ + kNearTicks) {
      drain_far();
    }
  }
  void drain_far();
  /// Index of the first non-empty bucket in ring order from the window
  /// start, which is tick order.  Requires near_count_ > 0.
  std::size_t first_live() const;

  Bucket buckets_[kBuckets];
  std::uint64_t live_[kLiveWords] = {};  ///< Bit b: bucket b is non-empty.
  std::vector<Node> nodes_;          ///< Arena backing all pending events.
  std::uint32_t free_head_ = kNil;   ///< Recycled-node list head.
  std::vector<FarRef> far_;          ///< Beyond-window overflow (min-heap).
  std::size_t near_count_ = 0;       ///< Events currently in buckets.
  /// Window start, a multiple of kBucketTicks: buckets hold exactly the
  /// ticks [window_, window_ + kNearTicks), so no bucket ever mixes two
  /// laps of the ring, and every far tick is >= window_ + kNearTicks.
  Tick window_ = 0;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

// --- Inline hot path ---------------------------------------------------------

inline std::uint32_t EventQueue::make_node(Tick when) {
  std::uint32_t index;
  if (free_head_ != kNil) {
    index = free_head_;
    free_head_ = nodes_[index].next;
  } else {
    nodes_.emplace_back();
    index = static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  nodes_[index].when = when;
  return index;
}

inline void EventQueue::release_node(std::uint32_t index) {
  nodes_[index].action = Event{};
  nodes_[index].next = free_head_;
  free_head_ = index;
}

inline void EventQueue::link_near(std::uint32_t index) {
  Node& node = nodes_[index];
  const std::size_t b = bucket_of(node.when);
  Bucket& bucket = buckets_[b];
  if (bucket.head == kNil) {
    node.next = kNil;
    bucket.head = bucket.tail = index;
    live_[b >> 6] |= std::uint64_t{1} << (b & 63);
  } else if (nodes_[bucket.tail].when <= node.when) {
    node.next = kNil;
    nodes_[bucket.tail].next = index;
    bucket.tail = index;
  } else {
    link_sorted(bucket, index);
  }
  ++near_count_;
}

template <typename F>
inline void EventQueue::schedule_at(Tick when, F&& action) {
  if (when < now_) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
  const std::uint64_t seq = seq_++;
  const std::uint32_t index = make_node(when);
  if constexpr (std::is_same_v<std::decay_t<F>, Event>) {
    nodes_[index].action = std::move(action);
  } else {
    nodes_[index].action.emplace(std::forward<F>(action));
  }
  if (when < window_ + kNearTicks) {
    // Bucket order encodes `seq` implicitly: a tick's inserts are linked
    // after its earlier ones, and far migration (advance_window) happens
    // before any in-window insert can target the same tick.
    link_near(index);
  } else {
    far_.push_back(FarRef{when, seq, index});
    std::push_heap(far_.begin(), far_.end(), Later{});
  }
}

inline std::size_t EventQueue::first_live() const {
  const std::size_t start = bucket_of(window_);
  std::size_t w = start >> 6;
  std::uint64_t bits = live_[w] & (~std::uint64_t{0} << (start & 63));
  // Words from the start word round the ring, ending back on the start
  // word, whose bits at or above `start` are known empty by then.
  for (std::size_t i = 0; i < kLiveWords && bits == 0; ++i) {
    w = (w + 1) & (kLiveWords - 1);
    bits = live_[w];
  }
  if (bits == 0) {
    throw std::logic_error("EventQueue: bitmap empty with near events pending");
  }
  return (w << 6) + lowest_set_bit(bits);
}

inline bool EventQueue::run_one() {
  std::size_t b;
  if (near_count_ != 0) {
    b = first_live();
    advance_window(nodes_[buckets_[b].head].when);
  } else if (!far_.empty()) {
    const Tick when = far_.front().when;
    advance_window(when);
    b = bucket_of(when);
  } else {
    return false;
  }

  // Detach the head node *before* invoking: the action may schedule new
  // events (growing the arena or linking into this very bucket).
  Bucket& bucket = buckets_[b];
  const std::uint32_t index = bucket.head;
  Node& node = nodes_[index];
  now_ = node.when;
  Event action = std::move(node.action);
  bucket.head = node.next;
  if (bucket.head == kNil) {
    bucket.tail = kNil;
    live_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }
  --near_count_;
  release_node(index);
  ++executed_;

  action();
  return true;
}

}  // namespace allarm::sim
