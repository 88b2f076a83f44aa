#include "cache/replacement.hh"

#include <stdexcept>

namespace allarm::cache {

// ---------------------------------------------------------------- LRU ----
// touch() and victim_any() live in the header (devirtualized hot path).

LruPolicy::LruPolicy(std::uint32_t sets, std::uint32_t ways)
    : ways_(ways), rank_(static_cast<std::size_t>(sets) * ways, 0) {
  if (ways == 0 || ways > kMaxWays) {
    throw std::invalid_argument("LruPolicy: ways must be in 1..255");
  }
}

std::uint32_t LruPolicy::victim(std::uint32_t set,
                                const std::vector<bool>& eligible) {
  const std::uint8_t* rank = &rank_[static_cast<std::size_t>(set) * ways_];
  std::uint32_t best = ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (eligible[w] && (best == ways_ || rank[w] < rank[best])) best = w;
  }
  if (best == ways_) throw std::logic_error("LruPolicy: no eligible way");
  return best;
}

// ----------------------------------------------------------- Tree PLRU ----

namespace {

// Validated before any member initializer runs: ways - 1 below would
// underflow for ways == 0 and size a multi-gigabyte bit vector.
std::uint32_t checked_pow2_ways(std::uint32_t ways) {
  if (ways == 0 || (ways & (ways - 1)) != 0) {
    throw std::invalid_argument("TreePlruPolicy: ways must be a power of two");
  }
  return ways;
}

}  // namespace

TreePlruPolicy::TreePlruPolicy(std::uint32_t sets, std::uint32_t ways)
    : ways_(checked_pow2_ways(ways)), tree_bits_(ways - 1),
      bits_(static_cast<std::size_t>(sets) * (ways - 1), 0) {}

void TreePlruPolicy::touch(std::uint32_t set, std::uint32_t way) {
  // Walk from the root; at each internal node set the bit to point AWAY
  // from the touched way.
  std::uint8_t* tree = &bits_[static_cast<std::size_t>(set) * tree_bits_];
  std::uint32_t node = 0;
  std::uint32_t span = ways_;
  std::uint32_t lo = 0;
  while (span > 1) {
    const std::uint32_t half = span / 2;
    const bool right = way >= lo + half;
    tree[node] = right ? 0 : 1;  // Point at the other half.
    node = 2 * node + (right ? 2 : 1);
    if (right) lo += half;
    span = half;
  }
}

std::uint32_t TreePlruPolicy::victim(std::uint32_t set,
                                     const std::vector<bool>& eligible) {
  const std::uint8_t* tree = &bits_[static_cast<std::size_t>(set) * tree_bits_];
  std::uint32_t node = 0;
  std::uint32_t span = ways_;
  std::uint32_t lo = 0;
  while (span > 1) {
    const std::uint32_t half = span / 2;
    const bool right = tree[node] != 0;
    node = 2 * node + (right ? 2 : 1);
    if (right) lo += half;
    span = half;
  }
  if (eligible[lo]) return lo;
  // The tree-implied victim is pinned (e.g. its line is mid-transaction):
  // fall back to the first eligible way.
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (eligible[w]) return w;
  }
  throw std::logic_error("TreePlruPolicy: no eligible way");
}

std::uint32_t TreePlruPolicy::victim_any(std::uint32_t set) {
  // The tree-implied victim; always eligible in this variant.
  const std::uint8_t* tree = &bits_[static_cast<std::size_t>(set) * tree_bits_];
  std::uint32_t node = 0;
  std::uint32_t span = ways_;
  std::uint32_t lo = 0;
  while (span > 1) {
    const std::uint32_t half = span / 2;
    const bool right = tree[node] != 0;
    node = 2 * node + (right ? 2 : 1);
    if (right) lo += half;
    span = half;
  }
  return lo;
}

// -------------------------------------------------------------- Random ----

RandomPolicy::RandomPolicy(std::uint32_t sets, std::uint32_t ways,
                           std::uint64_t seed)
    : ways_(ways), rng_(seed) {
  (void)sets;
}

void RandomPolicy::touch(std::uint32_t, std::uint32_t) {}

std::uint32_t RandomPolicy::victim(std::uint32_t,
                                   const std::vector<bool>& eligible) {
  std::uint32_t eligible_count = 0;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (eligible[w]) ++eligible_count;
  }
  if (eligible_count == 0) throw std::logic_error("RandomPolicy: no eligible way");
  std::uint32_t pick = static_cast<std::uint32_t>(rng_.below(eligible_count));
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (!eligible[w]) continue;
    if (pick == 0) return w;
    --pick;
  }
  throw std::logic_error("RandomPolicy: unreachable");
}

std::uint32_t RandomPolicy::victim_any(std::uint32_t) {
  // Same draw as victim() with all ways eligible (identical RNG stream).
  return static_cast<std::uint32_t>(rng_.below(ways_));
}

// ------------------------------------------------------------- Factory ----

std::unique_ptr<ReplacementPolicy> make_policy(ReplacementKind kind,
                                               std::uint32_t sets,
                                               std::uint32_t ways,
                                               std::uint64_t seed) {
  switch (kind) {
    case ReplacementKind::kLru:
      return std::make_unique<LruPolicy>(sets, ways);
    case ReplacementKind::kTreePlru:
      return std::make_unique<TreePlruPolicy>(sets, ways);
    case ReplacementKind::kRandom:
      return std::make_unique<RandomPolicy>(sets, ways, seed);
  }
  throw std::invalid_argument("make_policy: unknown kind");
}

}  // namespace allarm::cache
