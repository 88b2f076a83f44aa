#include "cache/replacement.hh"

#include <stdexcept>

#include "common/config.hh"

namespace allarm::cache {

LruPolicy::LruPolicy(std::uint32_t sets, std::uint32_t ways)
    : ways_(ways), rank_(static_cast<std::size_t>(sets) * ways, 0) {
  if (ways == 0 || ways > kMaxWays) {
    throw std::invalid_argument("LruPolicy: ways must be in 1..255");
  }
}

std::uint32_t LruPolicy::victim(std::uint32_t set,
                                const std::vector<bool>& eligible) const {
  const std::uint8_t* rank = &rank_[static_cast<std::size_t>(set) * ways_];
  std::uint32_t best = ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (eligible[w] && (best == ways_ || rank[w] < rank[best])) best = w;
  }
  if (best == ways_) throw std::logic_error("LruPolicy: no eligible way");
  return best;
}

}  // namespace allarm::cache
