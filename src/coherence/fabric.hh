// Wiring context shared by the per-node coherence controllers.
//
// The System (src/core) constructs all components, then fills in one Fabric
// that gives every controller access to the event queue, the mesh, its
// peers, the DRAMs and the physical home mapping.  Controllers never own
// their peers; lifetime is managed by the System.
#pragma once

#include <functional>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "mem/dram.hh"
#include "noc/mesh.hh"
#include "numa/os.hh"
#include "sim/event_queue.hh"

namespace allarm::coherence {

class CacheController;
class DirectoryController;

/// Non-owning wiring between coherence components.
struct Fabric {
  const SystemConfig* config = nullptr;
  sim::EventQueue* events = nullptr;
  noc::Mesh* mesh = nullptr;
  std::vector<CacheController*> caches;       ///< Indexed by NodeId.
  std::vector<DirectoryController*> directories;
  std::vector<mem::Dram*> drams;
  /// OS owning the physical memory map; home_of() runs per coherence
  /// request, so it is a direct inline call (a shift on the Table I
  /// geometry), not a std::function indirection.
  const numa::Os* os = nullptr;

  /// Physical address -> home node (the node whose DRAM holds it).
  NodeId home_of(Addr paddr) const { return os->home_of(paddr); }

  /// Convenience: schedules `fn` at absolute time `when`.  Forwards the
  /// callable straight into the event kernel's inline storage -- no
  /// std::function indirection on the hot path.
  template <typename F>
  void at(Tick when, F&& fn) const {
    events->schedule_at(when, std::forward<F>(fn));
  }
};

}  // namespace allarm::coherence
