#include "coherence/probe_filter.hh"

#include <stdexcept>

namespace allarm::coherence {

std::string to_string(PfState state) {
  switch (state) {
    case PfState::kInvalid: return "I";
    case PfState::kEM: return "EM";
    case PfState::kOwned: return "O";
    case PfState::kShared: return "S";
  }
  return "?";
}

ProbeFilter::ProbeFilter(std::uint32_t coverage_bytes, std::uint32_t ways,
                         ReplacementKind replacement, std::uint64_t seed)
    : sets_((coverage_bytes / kLineBytes) / ways),
      ways_(ways),
      entries_(static_cast<std::size_t>(sets_) * ways),
      policy_(cache::make_policy(replacement, sets_, ways, seed)),
      eligible_scratch_(ways, false) {
  if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0) {
    throw std::invalid_argument("ProbeFilter: set count must be a power of two");
  }
}

PfEntry* ProbeFilter::find(LineAddr line) {
  PfEntry* base = &entries_[static_cast<std::size_t>(set_of(line)) * ways_];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (base[w].valid() && base[w].line == line) return &base[w];
  }
  return nullptr;
}

PfEntry* ProbeFilter::lookup(LineAddr line) {
  ++stats_.reads;
  PfEntry* e = find(line);
  if (e) ++stats_.hits; else ++stats_.misses;
  return e;
}

const PfEntry* ProbeFilter::peek(LineAddr line) const {
  return const_cast<ProbeFilter*>(this)->find(line);
}

void ProbeFilter::touch(LineAddr line) {
  PfEntry* e = find(line);
  if (!e) return;
  touch_entry(e);
}

void ProbeFilter::touch_entry(PfEntry* entry) {
  const std::uint32_t set = set_of(entry->line);
  const auto way = static_cast<std::uint32_t>(
      entry - &entries_[static_cast<std::size_t>(set) * ways_]);
  policy_->touch(set, way);
}

bool ProbeFilter::has_free_way(LineAddr line) const {
  const PfEntry* base =
      &entries_[static_cast<std::size_t>(set_of(line)) * ways_];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (!base[w].valid()) return true;
  }
  return false;
}

std::optional<PfEntry> ProbeFilter::displace_victim(
    LineAddr line, FunctionRef<bool(LineAddr)> pinned) {
  const std::uint32_t set = set_of(line);
  PfEntry* base = &entries_[static_cast<std::size_t>(set) * ways_];
  // Deployed sparse directories prefer clean Shared victims: their
  // invalidation needs no dirty writeback and never pulls a line out from
  // under its (sole) owner.  Fall back to plain LRU when the set holds no
  // Shared entry.
  // One pinned() probe per way: the busy check behind it walks a hash map,
  // so remember the verdicts instead of re-asking in a second pass.
  bool any_shared = false;
  bool any = false;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    const bool ok = base[w].valid() && !pinned(base[w].line);
    eligible_scratch_[w] = ok;
    any = any || ok;
    any_shared = any_shared || (ok && base[w].state == PfState::kShared);
  }
  if (!any) return std::nullopt;
  if (any_shared) {
    for (std::uint32_t w = 0; w < ways_; ++w) {
      eligible_scratch_[w] =
          eligible_scratch_[w] && base[w].state == PfState::kShared;
    }
  }
  const std::uint32_t w = policy_->victim(set, eligible_scratch_);
  const PfEntry victim = base[w];
  base[w] = PfEntry{};
  --occupancy_;
  ++stats_.writes;  // Tag/state readout + invalidation write.
  return victim;
}

void ProbeFilter::insert(LineAddr line, PfState state, NodeId owner) {
  if (state == PfState::kInvalid) {
    throw std::invalid_argument("ProbeFilter::insert: invalid state");
  }
  if (line >> PfEntry::kLineFieldBits != 0) {
    throw std::invalid_argument("ProbeFilter::insert: line wider than 46 bits");
  }
  const std::uint32_t set = set_of(line);
  PfEntry* base = &entries_[static_cast<std::size_t>(set) * ways_];
  // One scan: find the first free way while guarding against duplicates.
  std::uint32_t free_way = ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (!base[w].valid()) {
      if (free_way == ways_) free_way = w;
    } else if (base[w].line == line) {
      throw std::logic_error("ProbeFilter::insert: line already tracked");
    }
  }
  if (free_way == ways_) {
    throw std::logic_error("ProbeFilter::insert: no free way (reserve first)");
  }
  base[free_way] = PfEntry{line, state, owner};
  policy_->touch(set, free_way);
  ++occupancy_;
  ++stats_.writes;
  ++stats_.inserts;
}

bool ProbeFilter::erase(LineAddr line) {
  PfEntry* e = find(line);
  if (!e) return false;
  erase_entry(e);
  return true;
}

void ProbeFilter::erase_entry(PfEntry* entry) {
  *entry = PfEntry{};
  --occupancy_;
  ++stats_.writes;
}

void ProbeFilter::update(LineAddr line, PfState state, NodeId owner) {
  PfEntry* e = find(line);
  if (!e) throw std::logic_error("ProbeFilter::update: line not tracked");
  update_entry(e, state, owner);
}

void ProbeFilter::update_entry(PfEntry* entry, PfState state, NodeId owner) {
  entry->state = state;
  entry->owner = owner;
  ++stats_.writes;
}

void ProbeFilter::for_each(FunctionRef<void(const PfEntry&)> fn) const {
  for (const PfEntry& e : entries_) {
    if (e.valid()) fn(e);
  }
}

void ProbeFilter::clear() {
  for (PfEntry& e : entries_) e = PfEntry{};
  occupancy_ = 0;
  stats_ = ProbeFilterStats{};
}

}  // namespace allarm::coherence
