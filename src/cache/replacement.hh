// Replacement policies for set-associative arrays (caches and the probe
// filter).  A policy instance serves one array; it keeps whatever per-set
// metadata it needs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"

namespace allarm::cache {

/// Interface for a per-array replacement policy.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Notifies the policy that (set, way) was accessed (hit or fill).
  virtual void touch(std::uint32_t set, std::uint32_t way) = 0;

  /// Chooses a victim way in `set`, considering only ways for which
  /// `eligible[way]` is true.  At least one way must be eligible.
  /// Returns the chosen way.
  virtual std::uint32_t victim(std::uint32_t set,
                               const std::vector<bool>& eligible) = 0;

  /// victim() with every way eligible -- the caches' common case (they
  /// never pin lines), without the eligibility-vector scan.  Must pick the
  /// same way (and consume the same amount of randomness) as victim()
  /// would with an all-true vector.
  virtual std::uint32_t victim_any(std::uint32_t set) = 0;
};

/// True LRU via one-byte per-way recency counters.
///
/// 0 means never touched; the touched ways of a set hold distinct values
/// with `ways` the most recent, so the victim -- the first way holding the
/// minimum -- is the same way a global access-stamp LRU picks, ties among
/// never-touched ways included.  Counters are bytes, so at most kMaxWays.
///
/// touch() and victim_any() are defined inline: they run on every cache
/// access, and arrays that detect an LruPolicy at construction call them
/// through the exact type (Cache's devirtualized fast path) so the
/// per-touch cost is a few byte compares, no indirect call.
class LruPolicy final : public ReplacementPolicy {
 public:
  LruPolicy(std::uint32_t sets, std::uint32_t ways);

  void touch(std::uint32_t set, std::uint32_t way) override {
    std::uint8_t* rank = &rank_[static_cast<std::size_t>(set) * ways_];
    const std::uint8_t old = rank[way];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (rank[w] > old) --rank[w];
    }
    rank[way] = static_cast<std::uint8_t>(ways_);
  }

  std::uint32_t victim(std::uint32_t set,
                       const std::vector<bool>& eligible) override;

  std::uint32_t victim_any(std::uint32_t set) override {
    // Identical selection to victim() with every way eligible: the first
    // way holding the minimum counter.
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

/// Tree pseudo-LRU.  Ways must be a power of two; falls back to the
/// tree-implied victim, skipping ineligible ways in stamp order when the
/// implied victim is ineligible.
class TreePlruPolicy final : public ReplacementPolicy {
 public:
  TreePlruPolicy(std::uint32_t sets, std::uint32_t ways);
  void touch(std::uint32_t set, std::uint32_t way) override;
  std::uint32_t victim(std::uint32_t set,
                       const std::vector<bool>& eligible) override;
  std::uint32_t victim_any(std::uint32_t set) override;

 private:
  std::uint32_t ways_;
  std::uint32_t tree_bits_;           // ways - 1 internal nodes
  std::vector<std::uint8_t> bits_;    // sets x tree_bits
};

/// Pseudo-random victim from a seeded generator (deterministic per run).
class RandomPolicy final : public ReplacementPolicy {
 public:
  RandomPolicy(std::uint32_t sets, std::uint32_t ways, std::uint64_t seed);
  void touch(std::uint32_t set, std::uint32_t way) override;
  std::uint32_t victim(std::uint32_t set,
                       const std::vector<bool>& eligible) override;
  std::uint32_t victim_any(std::uint32_t set) override;

 private:
  std::uint32_t ways_;
  Rng rng_;
};

/// Factory keyed by the configuration enum.
std::unique_ptr<ReplacementPolicy> make_policy(ReplacementKind kind,
                                               std::uint32_t sets,
                                               std::uint32_t ways,
                                               std::uint64_t seed);

}  // namespace allarm::cache
