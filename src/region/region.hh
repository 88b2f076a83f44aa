// Region-granularity directory state (DirectoryMode::kRegion).
//
// One region entry covers a whole power-of-two region (up to a page) while
// the region is privately owned: the owner's misses are served from home
// memory with NO per-block probe-filter entry, so directory coverage
// multiplies by the region size for private data.  The first access from a
// different node COLLAPSES the region: the entry is withdrawn and every
// line the owner holds falls back to an ordinary per-block probe-filter
// entry (or is invalidated when no way is free — a spill).  When the last
// per-block entry of a collapsed region is removed while exclusive/modified
// at a single node, the region RECOLLECTS into a region entry owned by that
// node.
//
// An RTracker (after the graphite RTracker idea) classifies regions
// private/shared per home directory and drives the granularity decision:
// a region privatizes for its first toucher and is poisoned as shared by
// any second node until its per-block entries die out.
//
// This module holds pure state — tables, the tracker and counters.  The
// protocol actions (probes, grants, spill evictions) stay in
// coherence::DirectoryController, which consults this table on probe-filter
// misses and writebacks.  Both tables are FlatMaps: allocation-free in
// steady state and never iterated, so live counters (presence bits, shared
// regions) stand in for table walks in stats and invariant checks.
#pragma once

#include <cstdint>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace allarm::region {

/// A region number (line address >> log2(lines per region)).
using RegionNum = std::uint64_t;

/// Region size/alignment helpers.  Regions never span a page
/// (SystemConfig::validate enforces region_size_bytes <= kPageBytes), so a
/// region always has a single home directory and at most 64 lines — the
/// presence bitmap below fits one word.
struct RegionGeometry {
  std::uint32_t lines_per_region = 1;
  unsigned shift = 0;  ///< log2(lines_per_region).

  RegionGeometry() = default;
  explicit RegionGeometry(std::uint32_t region_size_bytes);

  RegionNum region_of(LineAddr line) const { return line >> shift; }
  LineAddr base_line(RegionNum region) const {
    return static_cast<LineAddr>(region) << shift;
  }
  unsigned slot_of(LineAddr line) const {
    return static_cast<unsigned>(line) & (lines_per_region - 1);
  }
};

/// One region-granularity directory entry: the region is private to
/// `owner`, which holds exactly the lines whose presence bits are set
/// (always exclusive/modified — region grants are never shared, so every
/// granted line announces its death with a writeback that clears its bit).
struct RegionEntry {
  NodeId owner = kInvalidNode;
  std::uint64_t presence = 0;  ///< Bit per line slot within the region.
};

/// Counters exported per directory (all zero outside region mode).
struct RegionStats {
  std::uint64_t reads = 0;      ///< Region-table lookups (energy model).
  std::uint64_t writes = 0;     ///< Entry installs / bit flips / removals.
  std::uint64_t hits = 0;       ///< Misses served by a region grant.
  std::uint64_t installs = 0;   ///< Fresh region entries (privatizations).
  std::uint64_t collapses = 0;  ///< Region entries withdrawn on sharing.
  std::uint64_t collapse_block_installs = 0;  ///< Blocks re-tracked per-line.
  std::uint64_t collapse_spills = 0;  ///< Blocks invalidated (no free way).
  std::uint64_t recollects = 0;  ///< Regions merged back from block entries.
  std::uint64_t puts = 0;        ///< Owner writebacks clearing presence bits.
};

/// Per-home-directory region ownership tracker.
class RTracker {
 public:
  struct Info {
    NodeId owner = kInvalidNode;  ///< First toucher (private-owner candidate).
    bool shared = false;          ///< A second node has touched the region.
    std::uint32_t block_entries = 0;  ///< Live per-block PF entries.
  };

  /// Records an access by `from`: the first toucher becomes the private
  /// owner candidate; any different toucher marks the region shared.
  Info& touch(RegionNum region, NodeId from);

  Info* find(RegionNum region) { return map_.find(region); }
  const Info* find(RegionNum region) const { return map_.find(region); }

  /// Poisons a record as shared (keeps the live shared count honest).
  void mark_shared(Info& info) {
    if (!info.shared) {
      info.shared = true;
      ++shared_;
    }
  }

  /// Forgets the region entirely (its last block entry left non-exclusive:
  /// the next toucher starts a fresh private classification).
  void erase(RegionNum region);

  /// Re-privatizes the region for `owner` (recollection).
  void reset_private(RegionNum region, NodeId owner);

  std::uint64_t tracked() const { return map_.size(); }
  std::uint64_t shared_count() const { return shared_; }

 private:
  FlatMap<RegionNum, Info> map_;
  std::uint64_t shared_ = 0;  ///< Live count (FlatMap is never iterated).
};

/// The dual-granularity directory state for one node.
class RegionDirectory {
 public:
  RegionDirectory() : RegionDirectory(kLineBytes) {}
  explicit RegionDirectory(std::uint32_t region_size_bytes);

  const RegionGeometry& geometry() const { return geometry_; }

  /// True when regions span more than one line.  At one line per region
  /// the controller bypasses this module entirely and region mode runs the
  /// baseline protocol verbatim (the degenerate-equivalence oracle).
  bool enabled() const { return geometry_.lines_per_region > 1; }

  RegionNum region_of(LineAddr line) const {
    return geometry_.region_of(line);
  }

  /// Looks up the region entry; counts a region-table read.
  RegionEntry* lookup(RegionNum region);

  /// Finds without statistics side effects (for invariant checks).
  const RegionEntry* peek(RegionNum region) const {
    return table_.find(region);
  }

  /// True when a region entry names `holder` as owner and `line`'s
  /// presence bit is set (the invariant checker's coverage test).
  bool covers(LineAddr line, NodeId holder) const;

  /// Tracker touch for a region with no entry.  True when the region may
  /// be privatized for `from`: no other toucher seen and no per-block
  /// entries alive.
  bool note_miss_can_privatize(RegionNum region, NodeId from);

  /// Installs a fresh region entry owned by `owner`.
  RegionEntry& install(RegionNum region, NodeId owner);

  /// Sets `line`'s presence bit and counts the region-served grant;
  /// returns false when the bit was already set (defensive re-grant).
  bool mark_present(RegionEntry& entry, LineAddr line);

  /// Clears `line`'s presence bit on an owner writeback; returns false
  /// when the bit was not set (a stale put).
  bool clear_present(RegionEntry& entry, LineAddr line);

  /// Withdraws the region entry on first remote sharing (`sharer` poisons
  /// the tracker record) and returns it by value so the controller can
  /// walk the presence bits into per-block entries.
  RegionEntry collapse(RegionNum region, NodeId sharer);

  /// A per-block probe-filter entry was installed for a line of `region`.
  void note_block_installed(RegionNum region);

  enum class Removal {
    kNone,         ///< Block entries (or none exclusive) remain.
    kRecollected,  ///< Last block entry left as E/M: region entry restored.
    kUntracked,    ///< Removal for a region with no record (defensive).
  };

  /// A per-block entry for a line of `region` was removed (probe-filter
  /// eviction or owner writeback).  `was_em`/`owner` describe the removed
  /// entry; the last removal either recollects (E/M) or forgets the region.
  Removal note_block_removed(RegionNum region, bool was_em, NodeId owner);

  const RegionStats& stats() const { return stats_; }
  /// Mutable counters for the controller's collapse bookkeeping (block
  /// installs and spills happen at the protocol layer).
  RegionStats& stats_mut() { return stats_; }
  std::uint64_t entries() const { return table_.size(); }
  std::uint64_t presence_bits() const { return presence_bits_; }
  std::uint64_t shared_regions() const { return tracker_.shared_count(); }
  std::uint64_t private_regions() const {
    return tracker_.tracked() - tracker_.shared_count();
  }

  /// Zeroes the counters, keeping table contents (ROI boundary).
  void reset_stats() { stats_ = RegionStats{}; }

 private:
  RegionGeometry geometry_;
  FlatMap<RegionNum, RegionEntry> table_;
  RTracker tracker_;
  RegionStats stats_;
  std::uint64_t presence_bits_ = 0;  ///< Live popcount over all entries.
};

}  // namespace allarm::region
