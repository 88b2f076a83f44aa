// A set-associative cache array holding MOESI coherence state.
//
// The array stores state only (the simulator does not move data bytes);
// hit/miss behaviour, replacement and eviction mechanics are exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "common/config.hh"
#include "common/function_ref.hh"
#include "common/types.hh"

namespace allarm::cache {

/// MOESI line states.
enum class LineState : std::uint8_t {
  kInvalid,
  kShared,     ///< Clean, possibly other sharers.
  kExclusive,  ///< Clean, sole copy.
  kOwned,      ///< Dirty, responsible for writeback, other sharers may exist.
  kModified,   ///< Dirty, sole copy.
};

/// True for states that require a data writeback on eviction.
constexpr bool is_dirty(LineState s) {
  return s == LineState::kModified || s == LineState::kOwned;
}

/// True for any valid (non-invalid) state.
constexpr bool is_valid(LineState s) { return s != LineState::kInvalid; }

/// True for states granting store permission.
constexpr bool is_writable(LineState s) {
  return s == LineState::kModified || s == LineState::kExclusive;
}

std::string to_string(LineState s);

/// A line leaving the cache: its address and the state it held.
struct Victim {
  LineAddr line = 0;
  LineState state = LineState::kInvalid;

  bool valid() const { return is_valid(state); }
};

/// Handle to one present line's state inside its packed way word (null
/// when the line is absent), as the single-scan lookups return it.  Valid
/// until the array next changes.
class StateRef {
 public:
  explicit StateRef(std::uint64_t* way = nullptr) : way_(way) {}
  explicit operator bool() const { return way_ != nullptr; }
  LineState get() const { return static_cast<LineState>(*way_ & kMask); }
  /// `state` must be valid (erase() invalidates).
  void set(LineState state) const {
    *way_ = (*way_ & ~kMask) | static_cast<std::uint64_t>(state);
  }

  static constexpr std::uint64_t kMask = 7;  ///< A way's state bits.

 private:
  std::uint64_t* way_;
};

/// One set-associative array.
class Cache {
 public:
  Cache(const CacheConfig& config, std::string name);

  std::uint32_t sets() const { return sets_; }
  std::uint32_t ways() const { return ways_; }
  const std::string& name() const { return name_; }

  /// Returns the state of `line` (kInvalid when absent). No side effects.
  LineState state_of(LineAddr line) const;

  /// Returns true when `line` is present in any valid state.
  bool contains(LineAddr line) const { return is_valid(state_of(line)); }

  /// Marks `line` as accessed (replacement bookkeeping). Returns true on hit.
  bool touch(LineAddr line) { return static_cast<bool>(touch_ref(line)); }

  /// touch(), but returns a handle to the line's state (null on miss) so
  /// the core's load/store hit path can rewrite the state without a
  /// second tag scan.
  StateRef touch_ref(LineAddr line);

  /// Changes the state of a present line. Returns false when absent.
  bool set_state(LineAddr line, LineState state);

  /// Handle to the line's state (null when absent).  No replacement
  /// bookkeeping — the single-scan backend of state rewrites like
  /// Hierarchy::downgrade.
  StateRef state_ref(LineAddr line) { return StateRef(find_way(line)); }

  /// Inserts `line` (which must not already be present) in `state`.
  /// Returns the victim that was displaced; victim.valid() is false when a
  /// free way was used.
  Victim insert(LineAddr line, LineState state);

  /// Removes `line`; returns the state it held (kInvalid when absent).
  LineState erase(LineAddr line);

  /// Number of valid lines currently held.
  std::uint32_t occupancy() const { return occupancy_; }

  /// Invokes `fn(line, state)` for every valid line (for invariant checks).
  void for_each(FunctionRef<void(LineAddr, LineState)> fn) const;

 private:
  // A way is one word, `line << 3 | state`; 0 is an invalid way.  Lines
  // are full-width (byte addresses >> 6 always leave the top bits clear).
  static std::uint64_t pack(LineAddr line, LineState state) {
    return line << 3 | static_cast<std::uint64_t>(state);
  }
  static LineAddr line_of_way(std::uint64_t way) { return way >> 3; }
  static LineState state_of_way(std::uint64_t way) {
    return static_cast<LineState>(way & StateRef::kMask);
  }
  /// True when `way` holds `line` in a valid state: the XOR clears the tag
  /// bits exactly when the lines match, leaving a state in 1..7.
  static bool holds(std::uint64_t way, LineAddr line) {
    return (way ^ (line << 3)) - 1 < StateRef::kMask;
  }

  std::uint32_t set_of(LineAddr line) const {
    return static_cast<std::uint32_t>(line & (sets_ - 1));
  }
  std::uint64_t* set_base(std::uint32_t set) {
    return &slots_[static_cast<std::size_t>(set) * ways_];
  }
  std::uint64_t* find_way(LineAddr line);

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::string name_;
  std::vector<std::uint64_t> slots_;  // sets x ways, packed
  LruPolicy lru_;
  std::uint32_t occupancy_ = 0;
};

}  // namespace allarm::cache
