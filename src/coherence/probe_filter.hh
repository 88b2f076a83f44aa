// The sparse directory ("probe filter", AMD HT-Assist style).
//
// Each node's directory tracks cached lines homed at that node in a
// set-associative structure.  Entries follow the Hammer convention of NOT
// recording sharer sets:
//   kEM     - the line is exclusive/modified in exactly one cache (`owner`).
//   kOwned  - the line is dirty at `owner` with an unknown set of sharers.
//   kShared - the line is clean in an unknown set of caches, no owner.
// Absence of an entry means the line is uncached (baseline invariant), or
// - under ALLARM - possibly cached by the home node's own core only.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "common/config.hh"
#include "common/function_ref.hh"
#include "common/types.hh"

namespace allarm::coherence {

/// Tracking state of a probe-filter entry.
enum class PfState : std::uint8_t { kInvalid, kEM, kOwned, kShared };

std::string to_string(PfState state);

/// One directory entry, packed into one 8-byte word.
struct PfEntry {
  /// Width of the line field: ProbeFilter::insert rejects wider lines.
  static constexpr unsigned kLineFieldBits = 46;

  PfEntry() : line(0), state(PfState::kInvalid), owner(kInvalidNode) {}
  PfEntry(LineAddr line, PfState state, NodeId owner)
      : line(line), state(state), owner(owner) {}

  LineAddr line : kLineFieldBits;
  PfState state : 2;
  NodeId owner : 16;  ///< Meaningful for kEM / kOwned.

  bool valid() const { return state != PfState::kInvalid; }
};
static_assert(sizeof(PfEntry) == 8, "a probe-filter entry is one word");

/// Access counters used by the energy model and the evaluation figures.
struct ProbeFilterStats {
  std::uint64_t reads = 0;    ///< Tag lookups.
  std::uint64_t writes = 0;   ///< Entry installs / updates / removals.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
};

/// The set-associative sparse directory for one node.
class ProbeFilter {
 public:
  /// `coverage_bytes` of cached data tracked, one entry per 64-byte line.
  ProbeFilter(std::uint32_t coverage_bytes, std::uint32_t ways,
              ReplacementKind replacement, std::uint64_t seed);

  std::uint32_t sets() const { return sets_; }
  std::uint32_t ways() const { return ways_; }
  std::uint32_t capacity() const { return sets_ * ways_; }
  std::uint32_t occupancy() const { return occupancy_; }

  /// Looks up `line`, counting a tag read and hit/miss.
  /// The returned pointer stays valid until the entry is displaced.
  PfEntry* lookup(LineAddr line);

  /// Finds without statistics side effects (for invariant checks).
  const PfEntry* peek(LineAddr line) const;

  /// Replacement bookkeeping after a hit.
  void touch(LineAddr line);

  /// touch() via an entry pointer just returned by lookup() — skips the
  /// second tag scan.  Synchronous use only: pointers go stale once the
  /// entry can be displaced (any intervening simulated event).
  void touch_entry(PfEntry* entry);

  /// True when the set of `line` has an invalid way available.
  bool has_free_way(LineAddr line) const;

  /// Picks the replacement victim in `line`'s set, skipping entries for
  /// which `pinned(entry.line)` is true (lines with in-flight transactions),
  /// removes it from the filter and returns it.  Returns std::nullopt when
  /// every way is pinned.  The predicate is borrowed for the call only (it
  /// runs once per miss, so no std::function is materialized).
  std::optional<PfEntry> displace_victim(LineAddr line,
                                         FunctionRef<bool(LineAddr)> pinned);

  /// Installs an entry; the set must have a free way, and `line` must fit
  /// in PfEntry::kLineFieldBits.
  void insert(LineAddr line, PfState state, NodeId owner);

  /// Removes the entry for `line`; returns false when absent.
  bool erase(LineAddr line);

  /// erase() via an entry pointer in hand (same synchronous-use rule as
  /// touch_entry()).
  void erase_entry(PfEntry* entry);

  /// Rewrites state/owner of an existing entry (counts a write).
  void update(LineAddr line, PfState state, NodeId owner);

  /// update() via an entry pointer in hand (same synchronous-use rule).
  void update_entry(PfEntry* entry, PfState state, NodeId owner);

  /// Applies `fn` to every valid entry.
  void for_each(FunctionRef<void(const PfEntry&)> fn) const;

  const ProbeFilterStats& stats() const { return stats_; }

  /// Zeroes the counters, keeping the entries (ROI boundary).
  void reset_stats() { stats_ = ProbeFilterStats{}; }

  /// Drops all entries and statistics.
  void clear();

 private:
  std::uint32_t set_of(LineAddr line) const {
    return static_cast<std::uint32_t>(line & (sets_ - 1));
  }
  PfEntry* find(LineAddr line);

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<PfEntry> entries_;  // sets x ways
  std::unique_ptr<cache::ReplacementPolicy> policy_;
  std::uint32_t occupancy_ = 0;
  ProbeFilterStats stats_;
  mutable std::vector<bool> eligible_scratch_;
};

}  // namespace allarm::coherence
