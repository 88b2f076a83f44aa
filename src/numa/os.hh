// Operating-system memory model: affinity domains, page tables and NUMA
// allocation policies.
//
// The ALLARM detection scheme relies only on the OS contract that a
// first-touch allocation homes a page at the toucher's node whenever that
// node has free frames, spilling to the nearest node otherwise.  This
// module implements that contract (plus an interleaved policy used as an
// ablation baseline).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/types.hh"

namespace allarm::numa {

/// Page-placement policy.
enum class AllocPolicy : std::uint8_t {
  kFirstTouch,  ///< Home the page at the first toucher's node (Linux default).
  kInterleave,  ///< Round-robin pages across nodes (ablation).
};

/// "first-touch" or "interleave".
std::string to_string(AllocPolicy policy);
/// Parses a to_string name into `policy`; false (and `policy` untouched)
/// when `name` names no policy.
bool from_string(const std::string& name, AllocPolicy& policy);

/// Per-node physical frame allocator.  Node `n` owns the frame range
/// [n * frames_per_node, (n+1) * frames_per_node).
class FrameAllocator {
 public:
  FrameAllocator(std::uint32_t num_nodes, std::uint64_t frames_per_node);

  /// Allocates one frame on `node`; returns std::nullopt when all of its
  /// frames are taken.  Frames are never freed: a run maps each page once.
  std::optional<PageNum> allocate_on(NodeId node);

  /// Node owning a physical frame.
  NodeId node_of_frame(PageNum frame) const {
    return static_cast<NodeId>(frame / frames_per_node_);
  }

 private:
  std::uint64_t frames_per_node_;
  /// Per node: frames handed out, which is also the next one's index.
  std::vector<std::uint64_t> allocated_;
};

/// OS statistics relevant to the paper's assumptions (Section II-A).
struct OsStats {
  std::uint64_t pages_mapped = 0;
  std::uint64_t local_allocations = 0;   ///< Homed at the toucher's node.
  std::uint64_t spilled_allocations = 0; ///< Homed elsewhere (best-effort miss).
  std::uint64_t migrations = 0;          ///< Thread migrations performed.
};

/// Start of the global kernel virtual range: addresses at or above this are
/// mapped in a single shared namespace regardless of the requesting address
/// space (modelling the kernel image, page cache and other OS-shared data
/// that a full-system simulation would exercise).
inline constexpr Addr kKernelSpaceBase = 0x4000'0000'0000ull;

/// Address-space id used internally for kernel mappings.
inline constexpr AddressSpaceId kKernelAsid = 0xFFFFFFFFu;

/// Page tables + frame allocator.  Threads are placed by core::System,
/// which passes each touch its thread's current node.
class Os {
 public:
  Os(const SystemConfig& config, AllocPolicy policy);

  /// Touches the page containing `vaddr` from `node`, allocating a frame by
  /// policy if unmapped.  Returns the physical address.  Addresses in the
  /// kernel range are mapped in the shared kernel namespace, and are placed
  /// round-robin across nodes irrespective of the allocation policy.
  /// Defined inline: this runs once per simulated access, and the hot case
  /// is a pure page-table hit.
  Addr touch(AddressSpaceId asid, Addr vaddr, NodeId node) {
    const bool kernel = vaddr >= kKernelSpaceBase;
    const PageKey key{kernel ? kKernelAsid : asid, page_of(vaddr)};
    const PageNum* frame = page_table_.find(key);
    if (frame == nullptr) frame = touch_slow(key, node);
    return addr_of_page(*frame) | (vaddr & (kPageBytes - 1));
  }

  /// Translates without allocating; std::nullopt when unmapped.
  std::optional<Addr> translate(AddressSpaceId asid, Addr vaddr) const;

  /// Home node of a physical address (which node's DRAM holds it).
  /// Called per coherence request: uses a shift when the per-node DRAM
  /// size is a power of two (the Table I config) instead of a 64-bit
  /// division.
  NodeId home_of(Addr paddr) const {
    return static_cast<NodeId>(home_shift_ != kNoHomeShift
                                   ? paddr >> home_shift_
                                   : paddr / dram_bytes_per_node_);
  }

  /// Observer of first-touch page mappings: called from the unmapped-page
  /// path only (never on the page-table-hit fast path) with the mapped
  /// key's address space (kernel touches report kKernelAsid), the virtual
  /// page and the toucher's node.  Trace capture installs it around the
  /// workload's setup phase to record the placements replay must
  /// reproduce; pass nullptr to clear.
  using TouchObserver = void (*)(void* ctx, AddressSpaceId asid, PageNum vpage,
                                 NodeId node);
  void set_touch_observer(TouchObserver observer, void* ctx) {
    touch_observer_ = observer;
    touch_observer_ctx_ = ctx;
  }

  /// Counts one thread migration (the `os.migrations` stat).
  void count_migration() { ++stats_.migrations; }

  const OsStats& stats() const { return stats_; }

 private:
  /// Nodes in preference order for an allocation from `node`
  /// (self first, then by Manhattan distance on the mesh, ties by id).
  const std::vector<NodeId>& spill_order(NodeId node) const;

  PageNum allocate_frame(NodeId toucher);

  struct PageKey;  // Defined below; touch_slow takes it by reference.

  /// Unmapped-page path of touch(): allocates and maps a frame, returning
  /// the stable page-table slot.
  const PageNum* touch_slow(const PageKey& key, NodeId node);

  struct PageKey {
    AddressSpaceId asid = 0;
    PageNum vpage = 0;
    bool operator==(const PageKey& o) const {
      return asid == o.asid && vpage == o.vpage;
    }
  };
  struct PageKeyHash {
    std::size_t operator()(const PageKey& k) const {
      // FlatMap applies a 64-bit finalizer mix on top; folding asid into
      // the high bits here keeps distinct address spaces distinct.
      return static_cast<std::size_t>(
          (static_cast<std::uint64_t>(k.asid) << 40) ^ k.vpage);
    }
  };

  static constexpr unsigned kNoHomeShift = 0xFF;

  std::uint32_t num_nodes_;
  std::uint32_t mesh_width_;
  std::uint64_t dram_bytes_per_node_;
  unsigned home_shift_ = kNoHomeShift;  ///< log2(dram/node) when a power of 2.
  AllocPolicy policy_;
  FrameAllocator frames_;
  FlatMap<PageKey, PageNum, PageKeyHash> page_table_;
  TouchObserver touch_observer_ = nullptr;
  void* touch_observer_ctx_ = nullptr;
  std::vector<std::vector<NodeId>> spill_orders_;
  std::uint64_t interleave_next_ = 0;
  OsStats stats_;
};

}  // namespace allarm::numa
