#include "numa/os.hh"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace allarm::numa {

std::string to_string(AllocPolicy policy) {
  switch (policy) {
    case AllocPolicy::kFirstTouch: return "first-touch";
    case AllocPolicy::kInterleave: return "interleave";
  }
  return "unknown";
}

bool from_string(const std::string& name, AllocPolicy& policy) {
  for (const auto p : {AllocPolicy::kFirstTouch, AllocPolicy::kInterleave}) {
    if (to_string(p) == name) {
      policy = p;
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------- FrameAllocator ----

FrameAllocator::FrameAllocator(std::uint32_t num_nodes,
                               std::uint64_t frames_per_node)
    : frames_per_node_(frames_per_node), allocated_(num_nodes, 0) {}

std::optional<PageNum> FrameAllocator::allocate_on(NodeId node) {
  std::uint64_t& allocated = allocated_.at(node);
  if (allocated >= frames_per_node_) return std::nullopt;
  // Frames are handed out in a scrambled (but deterministic, bijective)
  // order within the node, modelling the fragmented free lists of a
  // long-running OS.  Contiguous virtual regions therefore map onto
  // scattered physical frames, which is what exposes realistic
  // set-conflict behaviour in the set-associative probe filter.
  const std::uint64_t index = allocated++;
  std::uint64_t scrambled = index;
  if ((frames_per_node_ & (frames_per_node_ - 1)) == 0) {
    // Bijective mix on log2(frames_per_node_) bits.  Multiplication alone
    // would keep the low bits cycling uniformly (an odd multiplier is a
    // bijection on every low-bit slice), so xor-shift rounds are
    // interleaved to diffuse high bits downwards; each step is invertible,
    // hence the whole mapping remains a permutation of the frame range.
    const std::uint64_t mask = frames_per_node_ - 1;
    unsigned width = 0;
    while ((1ull << width) < frames_per_node_) ++width;
    const unsigned half = width / 2 == 0 ? 1 : width / 2;
    std::uint64_t x = index & mask;
    x = (x * 0x9E3779B1ull) & mask;
    x ^= x >> half;
    x = (x * 0x85EBCA77ull) & mask;
    x ^= x >> half;
    scrambled = x & mask;
  }
  return static_cast<PageNum>(node) * frames_per_node_ + scrambled;
}

// ------------------------------------------------------------------ Os ----

Os::Os(const SystemConfig& config, AllocPolicy policy)
    : num_nodes_(config.num_nodes()),
      mesh_width_(config.mesh_width),
      dram_bytes_per_node_(config.dram_bytes_per_node()),
      policy_(policy),
      frames_(config.num_nodes(), config.dram_bytes_per_node() / kPageBytes) {
  if (dram_bytes_per_node_ != 0 &&
      (dram_bytes_per_node_ & (dram_bytes_per_node_ - 1)) == 0) {
    unsigned shift = 0;
    while ((std::uint64_t{1} << shift) < dram_bytes_per_node_) ++shift;
    home_shift_ = shift;
  }
  // Precompute per-node spill orders: self, then nearest by mesh distance.
  spill_orders_.resize(num_nodes_);
  for (NodeId n = 0; n < num_nodes_; ++n) {
    auto& order = spill_orders_[n];
    order.resize(num_nodes_);
    for (NodeId m = 0; m < num_nodes_; ++m) order[m] = m;
    auto dist = [this, n](NodeId m) {
      const int dx = static_cast<int>(n % mesh_width_) -
                     static_cast<int>(m % mesh_width_);
      const int dy = static_cast<int>(n / mesh_width_) -
                     static_cast<int>(m / mesh_width_);
      return std::abs(dx) + std::abs(dy);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](NodeId a, NodeId b) { return dist(a) < dist(b); });
  }
}

const std::vector<NodeId>& Os::spill_order(NodeId node) const {
  return spill_orders_.at(node);
}

PageNum Os::allocate_frame(NodeId toucher) {
  NodeId preferred = toucher;
  if (policy_ == AllocPolicy::kInterleave) {
    preferred = static_cast<NodeId>(interleave_next_++ % num_nodes_);
  }
  for (const NodeId candidate : spill_order(preferred)) {
    if (auto frame = frames_.allocate_on(candidate)) {
      ++stats_.pages_mapped;
      if (candidate == toucher) ++stats_.local_allocations;
      else ++stats_.spilled_allocations;
      return *frame;
    }
  }
  throw std::runtime_error("Os: out of physical memory");
}

const PageNum* Os::touch_slow(const PageKey& key, NodeId node) {
  // Kernel pages interleave round-robin by page index; user pages follow
  // the configured policy.
  const NodeId toucher = key.asid == kKernelAsid
                             ? static_cast<NodeId>(key.vpage % num_nodes_)
                             : node;
  if (touch_observer_ != nullptr) {
    // Report the caller's node, not the derived kernel toucher: replaying
    // the touch from that node recomputes the same placement.
    touch_observer_(touch_observer_ctx_, key.asid, key.vpage, node);
  }
  return page_table_.try_emplace(key, allocate_frame(toucher)).first;
}

std::optional<Addr> Os::translate(AddressSpaceId asid, Addr vaddr) const {
  if (vaddr >= kKernelSpaceBase) asid = kKernelAsid;
  const PageNum* frame = page_table_.find(PageKey{asid, page_of(vaddr)});
  if (frame == nullptr) return std::nullopt;
  return addr_of_page(*frame) | (vaddr & (kPageBytes - 1));
}

}  // namespace allarm::numa
