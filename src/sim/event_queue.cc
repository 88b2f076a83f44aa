#include "sim/event_queue.hh"

#include <algorithm>

namespace allarm::sim {

void EventQueue::link_sorted(Bucket& bucket, std::uint32_t index) {
  // The tail sorts after the new node, so the walk stops before it.
  Node& node = nodes_[index];
  std::uint32_t* link = &bucket.head;
  while (nodes_[*link].when <= node.when) link = &nodes_[*link].next;
  node.next = *link;
  *link = index;
}

void EventQueue::drain_far() {
  const Tick horizon = window_ + kNearTicks;
  while (!far_.empty() && far_.front().when < horizon) {
    // Heap pops come out in exact (tick, seq) order into buckets the
    // window has just uncovered, so each one appends at its bucket's tail
    // and bucket order remains global (tick, seq) order.  The node itself
    // never moves -- only its reference leaves the heap.
    std::pop_heap(far_.begin(), far_.end(), Later{});
    link_near(far_.back().node);
    far_.pop_back();
  }
}

std::uint64_t EventQueue::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && run_one()) ++n;
  return n;
}

void EventQueue::run_until(Tick until) {
  // Peek WITHOUT moving the window: advancing it to the next pending tick
  // when that lies beyond `until` would let an event scheduled afterwards
  // below that tick land behind the window start and execute out of
  // order.  A pure read keeps window_ <= every pending tick.
  while (true) {
    Tick next;
    if (near_count_ > 0) {
      // Bucket ticks all lie below window_ + kNearTicks <= any far tick,
      // so the earliest near event is the global minimum.
      next = nodes_[buckets_[first_live()].head].when;
    } else if (!far_.empty()) {
      next = far_.front().when;
    } else {
      break;
    }
    if (next > until) break;
    run_one();
  }
  if (now_ < until) now_ = until;
}

void EventQueue::clear() {
  for (std::size_t w = 0; w < kLiveWords; ++w) {
    for (std::uint64_t word = live_[w]; word != 0; word &= word - 1) {
      Bucket& bucket = buckets_[(w << 6) + lowest_set_bit(word)];
      for (std::uint32_t i = bucket.head; i != kNil;) {
        const std::uint32_t next = nodes_[i].next;
        release_node(i);
        i = next;
      }
      bucket.head = bucket.tail = kNil;
    }
    live_[w] = 0;
  }
  near_count_ = 0;
  for (const FarRef& ref : far_) release_node(ref.node);
  far_.clear();
}

}  // namespace allarm::sim
