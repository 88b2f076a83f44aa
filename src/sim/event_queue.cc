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

}  // namespace allarm::sim
