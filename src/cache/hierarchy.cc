#include "cache/hierarchy.hh"

#include <stdexcept>

namespace allarm::cache {

std::string to_string(Array array) {
  switch (array) {
    case Array::kNone: return "none";
    case Array::kL1D: return "L1D";
    case Array::kL1I: return "L1I";
    case Array::kL2: return "L2";
  }
  return "?";
}

Hierarchy::Hierarchy(const SystemConfig& config, std::uint64_t seed,
                     const std::string& name)
    : l1d_(config.l1d, config.cache_replacement, seed * 3 + 1, name + ".l1d"),
      l1i_(config.l1i, config.cache_replacement, seed * 3 + 2, name + ".l1i"),
      l2_(config.l2, config.cache_replacement, seed * 3 + 3, name + ".l2") {
  l1d_.set_presence_filter(&presence_);
  l1i_.set_presence_filter(&presence_);
  l2_.set_presence_filter(&presence_);
}

Cache& Hierarchy::array_of(Array a) {
  switch (a) {
    case Array::kL1D: return l1d_;
    case Array::kL1I: return l1i_;
    case Array::kL2: return l2_;
    case Array::kNone: break;
  }
  throw std::invalid_argument("Hierarchy: bad array");
}

Location Hierarchy::locate(LineAddr line) const {
  if (!presence_.maybe_present(line)) return {};
  if (LineState s = l1d_.state_of(line); is_valid(s)) return {Array::kL1D, s};
  if (LineState s = l1i_.state_of(line); is_valid(s)) return {Array::kL1I, s};
  if (LineState s = l2_.state_of(line); is_valid(s)) return {Array::kL2, s};
  return {};
}

void Hierarchy::touch(LineAddr line) {
  if (!presence_.maybe_present(line)) return;
  if (!l1d_.touch(line) && !l1i_.touch(line)) l2_.touch(line);
}

StateRef Hierarchy::touch_ref(LineAddr line) {
  if (!presence_.maybe_present(line)) return StateRef();
  if (StateRef s = l1d_.touch_ref(line)) return s;
  if (StateRef s = l1i_.touch_ref(line)) return s;
  return l2_.touch_ref(line);
}

void Hierarchy::insert_cascading(Array target, LineAddr line, LineState state,
                                 std::vector<Victim>& out) {
  const Victim l1_victim = array_of(target).insert(line, state);
  if (!l1_victim.valid()) return;
  const Victim l2_victim = l2_.insert(l1_victim.line, l1_victim.state);
  if (l2_victim.valid()) out.push_back(l2_victim);
}

const std::vector<Victim>& Hierarchy::fill(Array target, LineAddr line,
                                           LineState state) {
  if (target != Array::kL1D && target != Array::kL1I) {
    throw std::invalid_argument("Hierarchy::fill: target must be an L1");
  }
  if (locate(line).present()) {
    throw std::logic_error("Hierarchy::fill: line already present");
  }
  victims_scratch_.clear();
  insert_cascading(target, line, state, victims_scratch_);
  return victims_scratch_;
}

const std::vector<Victim>& Hierarchy::promote(Array target, LineAddr line) {
  if (target != Array::kL1D && target != Array::kL1I) {
    throw std::invalid_argument("Hierarchy::promote: target must be an L1");
  }
  const LineState state = l2_.erase(line);
  if (!is_valid(state)) {
    throw std::logic_error("Hierarchy::promote: line not in L2");
  }
  victims_scratch_.clear();
  insert_cascading(target, line, state, victims_scratch_);
  return victims_scratch_;
}

LineState Hierarchy::invalidate(LineAddr line) {
  if (!presence_.maybe_present(line)) return LineState::kInvalid;
  // L2 first: invalidations come from probes, and probed lines mostly sit
  // in the (8x larger) L2 by the time a remote conflict or eviction finds
  // them.  Strict exclusivity means scan order cannot change the result.
  if (LineState s = l2_.erase(line); is_valid(s)) return s;
  if (LineState s = l1d_.erase(line); is_valid(s)) return s;
  return l1i_.erase(line);
}

/// State handle of `line`, or null — one presence check and at most three
/// tag scans, shared by downgrade/set_state so a hit is a single pass
/// instead of locate()-then-rescan.
StateRef Hierarchy::state_ref(LineAddr line) {
  if (!presence_.maybe_present(line)) return StateRef();
  if (StateRef s = l1d_.state_ref(line)) return s;
  if (StateRef s = l1i_.state_ref(line)) return s;
  return l2_.state_ref(line);
}

LineState Hierarchy::downgrade(LineAddr line) {
  const StateRef s = state_ref(line);
  if (!s) return LineState::kInvalid;
  const LineState had = s.get();
  if (had == LineState::kModified) s.set(LineState::kOwned);
  else if (had == LineState::kExclusive) s.set(LineState::kShared);
  return had;
}

bool Hierarchy::set_state(LineAddr line, LineState state) {
  if (state == LineState::kInvalid) {
    throw std::invalid_argument(
        "Hierarchy::set_state: use invalidate() to remove a line");
  }
  const StateRef s = state_ref(line);
  if (!s) return false;
  s.set(state);
  return true;
}

void Hierarchy::for_each(FunctionRef<void(LineAddr, LineState)> fn) const {
  l1d_.for_each(fn);
  l1i_.for_each(fn);
  l2_.for_each(fn);
}

std::uint32_t Hierarchy::occupancy() const {
  return l1d_.occupancy() + l1i_.occupancy() + l2_.occupancy();
}

void Hierarchy::clear() {
  l1d_.clear();
  l1i_.clear();
  l2_.clear();
}

}  // namespace allarm::cache
