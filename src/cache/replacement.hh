// LRU replacement for set-associative arrays (caches and the probe
// filter).  One instance serves one array and keeps its per-set recency
// state.
#pragma once

#include <cstdint>
#include <vector>

namespace allarm::cache {

/// True LRU via one-byte per-way recency counters.
///
/// 0 means never touched; the touched ways of a set hold distinct values
/// with `ways` the most recent, so the victim -- the first way holding the
/// minimum -- is the same way a global access-stamp LRU picks, ties among
/// never-touched ways included.  Counters are bytes, so at most kMaxWays
/// (common/config.hh).
///
/// touch() and victim_any() are defined inline: they run on every cache
/// access, and the per-touch cost is a few byte compares.
class LruPolicy {
 public:
  LruPolicy(std::uint32_t sets, std::uint32_t ways);

  /// Marks (set, way) as the most recently used way of its set.
  void touch(std::uint32_t set, std::uint32_t way) {
    std::uint8_t* rank = &rank_[static_cast<std::size_t>(set) * ways_];
    const std::uint8_t old = rank[way];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (rank[w] > old) --rank[w];
    }
    rank[way] = static_cast<std::uint8_t>(ways_);
  }

  /// The least recently used way of `set` among those with `eligible[way]`
  /// true.  At least one way must be eligible.
  std::uint32_t victim(std::uint32_t set,
                       const std::vector<bool>& eligible) const;

  /// victim() with every way eligible -- the caches' case (they never pin
  /// lines), without the eligibility-vector scan.
  std::uint32_t victim_any(std::uint32_t set) const {
    const std::uint8_t* rank = &rank_[static_cast<std::size_t>(set) * ways_];
    std::uint32_t best = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
      if (rank[w] < rank[best]) best = w;
    }
    return best;
  }

 private:
  std::uint32_t ways_;
  std::vector<std::uint8_t> rank_;  // sets x ways
};

}  // namespace allarm::cache
