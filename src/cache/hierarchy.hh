// Per-node cache hierarchy: split L1I/L1D backed by a private, exclusive L2
// (the Table I arrangement).
//
// Exclusivity is strict: a line lives in at most one of {L1I, L1D, L2}.
// Fills go into the requesting L1; L1 victims move to the L2; L2 victims
// leave the hierarchy and are returned to the caller (the coherence
// controller decides whether a writeback or an eviction notification is
// due).  An L2 hit promotes the line back into the L1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/config.hh"

namespace allarm::cache {

/// Which array a line currently occupies.
enum class Array : std::uint8_t { kNone, kL1D, kL1I, kL2 };

std::string to_string(Array array);

/// Result of locating a line in the hierarchy.
struct Location {
  Array array = Array::kNone;
  LineState state = LineState::kInvalid;

  bool present() const { return array != Array::kNone; }
};

/// The three-array exclusive hierarchy.
class Hierarchy {
 public:
  Hierarchy(const SystemConfig& config, std::uint64_t seed,
            const std::string& name);

  /// Finds `line` (no side effects).
  Location locate(LineAddr line) const;

  /// Replacement bookkeeping for a hit on `line`.
  void touch(LineAddr line);

  /// touch(), returning a handle to the line's state (null when absent).
  /// Single tag scan for the core's L1-hit fast path.
  StateRef touch_ref(LineAddr line);

  /// Inserts `line` into `target` (must be kL1D or kL1I, and the line must
  /// be absent).  Returns the lines pushed out of the hierarchy, oldest
  /// first.  The returned reference aliases a scratch buffer reused by the
  /// next fill/promote call -- consume it before re-entering the hierarchy
  /// (this keeps the per-miss path free of vector allocations).
  const std::vector<Victim>& fill(Array target, LineAddr line,
                                  LineState state);

  /// Moves a line that hit in the L2 up into `target` (kL1D or kL1I),
  /// preserving its state.  Returns lines pushed out of the hierarchy
  /// (same aliasing rule as fill).
  const std::vector<Victim>& promote(Array target, LineAddr line);

  /// Removes `line` from whichever array holds it.
  /// Returns the state it held (kInvalid when absent).
  LineState invalidate(LineAddr line);

  /// Downgrades `line` for a read probe: M -> O, E -> S (O, S unchanged).
  /// Returns the state held *before* the downgrade (kInvalid when absent).
  LineState downgrade(LineAddr line);

  /// Rewrites the state of a present line in place. Returns false if absent.
  /// `state` must be valid (use invalidate() to remove a line).
  bool set_state(LineAddr line, LineState state);

  /// Handle to a present line's state (null when absent); no replacement
  /// bookkeeping.
  StateRef state_ref(LineAddr line);

  /// Applies `fn(line, state)` over every line in the hierarchy.
  void for_each(FunctionRef<void(LineAddr, LineState)> fn) const;

  /// Total lines held across the three arrays.
  std::uint32_t occupancy() const;

  /// Drops every line (between experiment repetitions).
  void clear();

  const Cache& l1d() const { return l1d_; }
  const Cache& l1i() const { return l1i_; }
  const Cache& l2() const { return l2_; }

 private:
  Cache& array_of(Array a);

  /// Inserts into an L1 and cascades the victim into the L2; L2 victims are
  /// appended to `out`.
  void insert_cascading(Array target, LineAddr line, LineState state,
                        std::vector<Victim>& out);

  /// Presence filter across all three arrays: broadcast probes for lines
  /// this node never held (the common case under Hammer semantics) skip
  /// the tag scans entirely.  Declared before the arrays, which register
  /// themselves against it at construction.
  PresenceFilter presence_;
  Cache l1d_;
  Cache l1i_;
  Cache l2_;
  std::vector<Victim> victims_scratch_;  ///< Backing for fill/promote results.
};

}  // namespace allarm::cache
