// Per-node cache-side coherence controller.
//
// Owns the node's cache hierarchy and writeback buffer, services the core's
// (blocking, one-outstanding-miss) memory accesses, answers directory
// probes - including ALLARM's new local probe - and issues
// writebacks/eviction notifications.
//
// Timing model: the controller has a single occupancy window (`busy_until`).
// Core accesses and incoming probes serialize through it; this is what can
// occasionally put the ALLARM local probe on the critical path of a remote
// request (evaluated in Figure 3g of the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "cache/hierarchy.hh"
#include "coherence/fabric.hh"
#include "coherence/messages.hh"
#include "common/flat_map.hh"
#include "common/types.hh"

namespace allarm::coherence {

/// How a probe should transform the target line.
enum class ProbeOp : std::uint8_t {
  kInvalidate,  ///< Remove the line (GetM flows, evictions).
  kDowngrade,   ///< M -> O, E -> S (GetS flows).
};

/// Outcome of a probe delivered to a cache controller.
struct ProbeResult {
  Tick done = 0;                 ///< When the response leaves the controller.
  cache::LineState had = cache::LineState::kInvalid;  ///< State before.

  bool hit() const { return cache::is_valid(had); }
  bool dirty() const { return cache::is_dirty(had); }
};

/// Counters exported per node.
struct CacheControllerStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t ifetches = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t misses = 0;          ///< Coherence requests issued ("L2 misses").
  std::uint64_t upgrades = 0;        ///< GetM with the line already held.
  std::uint64_t puts_dirty = 0;      ///< PutM sent.
  std::uint64_t puts_clean = 0;      ///< PutE sent.
  std::uint64_t silent_drops = 0;    ///< S-state evictions (no message).
  std::uint64_t probes_seen = 0;
  std::uint64_t probe_hits = 0;
  std::uint64_t wbb_stalls = 0;      ///< Misses that waited on a writeback.
  std::uint64_t upgrade_without_line = 0;  ///< Protocol sanity counter (should stay 0).
  std::uint64_t wbb_collisions = 0;        ///< Protocol sanity counter (should stay 0).
  Tick total_miss_latency = 0;       ///< Sum of request round-trip times.
  std::uint64_t wbb_peak = 0;        ///< Peak writeback-buffer occupancy.
};

/// The cache-side controller for one node.
class CacheController {
 public:
  /// Completion callback for core_access.  A trivially-copyable
  /// {function, context} pair instead of std::function: one is built,
  /// copied into the pending slot and invoked on every access, and the
  /// only producer (core::System) owns context that outlives the request.
  class DoneFn {
   public:
    using Fn = void (*)(void* ctx, Tick t);

    DoneFn() = default;
    DoneFn(std::nullptr_t) {}  // NOLINT: mirrors std::function.
    DoneFn(Fn fn, void* ctx) : fn_(fn), ctx_(ctx) {}

    DoneFn& operator=(std::nullptr_t) {
      fn_ = nullptr;
      return *this;
    }
    explicit operator bool() const { return fn_ != nullptr; }
    void operator()(Tick t) const { fn_(ctx_, t); }

   private:
    Fn fn_ = nullptr;
    void* ctx_ = nullptr;
  };

  CacheController(NodeId node, Fabric& fabric);

  NodeId node() const { return node_; }

  /// Issues one core access at the current event time.  Exactly one access
  /// may be outstanding; `done` fires (via the event queue) at completion.
  void core_access(AccessType type, Addr paddr, DoneFn done);

  /// Services a probe arriving now; returns the response synchronously with
  /// its completion time (occupancy-adjusted).  Called by directories at
  /// probe-arrival event time.
  ProbeResult probe(LineAddr line, ProbeOp op, Tick now);

  /// Delivers a grant (data or data-less completion) for the outstanding
  /// request.  Called at grant-arrival event time.
  void grant(LineAddr line, cache::LineState state, bool with_data, Tick now);

  /// Directory acknowledged a Put; clears the writeback-buffer entry.
  void put_ack(LineAddr line, Tick now);

  const cache::Hierarchy& hierarchy() const { return hierarchy_; }
  const CacheControllerStats& stats() const { return stats_; }

  /// True when `line` sits in the writeback buffer awaiting a PutAck.
  bool in_writeback_buffer(LineAddr line) const;

  /// Number of writebacks awaiting a PutAck (including invalidated ones).
  std::size_t writebacks_in_flight() const { return wbb_.size(); }

  /// True when a core request is outstanding.
  bool request_outstanding() const { return pending_.has_value(); }

  /// True when the controller cannot accept a new core access (a request is
  /// outstanding or an access is stalled on a writeback).  Relevant when
  /// thread migration timeshares two threads on one core.
  bool busy_with_core_request() const {
    return pending_.has_value() || wbb_wait_.has_value();
  }

  /// Zeroes the counters, keeping cache contents (ROI boundary).
  void reset_stats() { stats_ = CacheControllerStats{}; }

 private:
  struct PendingRequest {
    LineAddr line;
    AccessType type;
    bool write;
    Tick issued;
    DoneFn done;
  };
  struct WbbEntry {
    cache::LineState state;    ///< State when evicted.
    bool invalidated = false;  ///< A probe consumed it while in flight.
  };

  Tick acquire(Tick now, Tick duration);
  /// Sends Put messages for lines leaving the hierarchy.
  void emit_writebacks(const std::vector<cache::Victim>& victims, Tick t);
  /// `has_line` is the caller's own lookup: the request is an upgrade.
  void send_request(const PendingRequest& req, bool has_line, Tick t);

  NodeId node_;
  Fabric& fabric_;
  cache::Hierarchy hierarchy_;
  Tick busy_until_ = 0;
  std::optional<PendingRequest> pending_;
  /// Access stalled on a writeback in flight for the same line.
  std::optional<std::pair<AccessType, Addr>> wbb_wait_;
  DoneFn wbb_wait_done_;
  LineAddr wbb_wait_line_ = 0;
  FlatMap<LineAddr, WbbEntry> wbb_;
  CacheControllerStats stats_;
};

}  // namespace allarm::coherence
