#include "cache/cache.hh"

#include <stdexcept>

namespace allarm::cache {

std::string to_string(LineState s) {
  switch (s) {
    case LineState::kInvalid: return "I";
    case LineState::kShared: return "S";
    case LineState::kExclusive: return "E";
    case LineState::kOwned: return "O";
    case LineState::kModified: return "M";
  }
  return "?";
}

Cache::Cache(const CacheConfig& config, ReplacementKind replacement,
             std::uint64_t seed, std::string name)
    : sets_(config.sets()),
      ways_(config.ways),
      name_(std::move(name)),
      slots_(static_cast<std::size_t>(config.sets()) * config.ways, 0),
      policy_(make_policy(replacement, config.sets(), config.ways, seed)) {
  if (replacement == ReplacementKind::kLru) {
    lru_ = static_cast<LruPolicy*>(policy_.get());
  }
}

std::uint64_t* Cache::find_way(LineAddr line) {
  std::uint64_t* base = set_base(set_of(line));
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (holds(base[w], line)) return &base[w];
  }
  return nullptr;
}

LineState Cache::state_of(LineAddr line) const {
  const std::uint64_t* way = const_cast<Cache*>(this)->find_way(line);
  return way ? state_of_way(*way) : LineState::kInvalid;
}

StateRef Cache::touch_ref(LineAddr line) {
  std::uint64_t* way = find_way(line);
  if (way != nullptr) {
    const std::uint32_t set = set_of(line);
    policy_touch(set, static_cast<std::uint32_t>(way - set_base(set)));
  }
  return StateRef(way);
}

bool Cache::set_state(LineAddr line, LineState state) {
  if (state == LineState::kInvalid) {
    throw std::invalid_argument("Cache::set_state: use erase() to invalidate");
  }
  const StateRef ref = state_ref(line);
  if (!ref) return false;
  ref.set(state);
  return true;
}

Victim Cache::insert(LineAddr line, LineState state) {
  if (!is_valid(state)) {
    throw std::invalid_argument("Cache::insert: invalid state");
  }
  const std::uint32_t set = set_of(line);
  std::uint64_t* base = set_base(set);

  // One scan: find the first free way while guarding against duplicates.
  std::uint32_t free_way = ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (base[w] == 0) {
      if (free_way == ways_) free_way = w;
    } else if (holds(base[w], line)) {
      throw std::logic_error("Cache::insert: line already present in " + name_);
    }
  }
  if (free_way != ways_) {
    base[free_way] = pack(line, state);
    policy_touch(set, free_way);
    ++occupancy_;
    if (presence_ != nullptr) presence_->add(line);
    return Victim{};
  }

  // Evict a victim (all ways eligible: caches never pin lines; the probe
  // filter, which does pin busy lines, selects victims itself).
  const std::uint32_t w = policy_victim_any(set);
  const Victim victim{line_of_way(base[w]), state_of_way(base[w])};
  base[w] = pack(line, state);
  policy_touch(set, w);
  if (presence_ != nullptr) {
    presence_->add(line);
    presence_->remove(victim.line);
  }
  return victim;
}

LineState Cache::erase(LineAddr line) {
  std::uint64_t* way = find_way(line);
  if (!way) return LineState::kInvalid;
  const LineState had = state_of_way(*way);
  *way = 0;
  --occupancy_;
  if (presence_ != nullptr) presence_->remove(line);
  return had;
}

void Cache::for_each(FunctionRef<void(LineAddr, LineState)> fn) const {
  for (const std::uint64_t way : slots_) {
    if (way != 0) fn(line_of_way(way), state_of_way(way));
  }
}

void Cache::clear() {
  for (std::uint64_t& way : slots_) {
    if (presence_ != nullptr && way != 0) presence_->remove(line_of_way(way));
    way = 0;
  }
  occupancy_ = 0;
}

}  // namespace allarm::cache
