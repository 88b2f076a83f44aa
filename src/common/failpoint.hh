// Deterministic fault injection: a process-wide registry of named,
// always-compiled failpoints.
//
// Every I/O layer that can fail in production (fileio, the sweep journal,
// the report sinks, trace block I/O, the cell executor) polls a named
// failpoint at its fault-relevant boundary.  With no spec active the poll
// is one relaxed atomic load and a predicted-untaken branch — invisible in
// any profile — so the sites stay compiled into release binaries and every
// recovery path is exercisable exactly as shipped.
//
// A fault schedule is a spec string (the `--failpoints` flag or the
// ALLARM_FAILPOINTS environment variable):
//
//   spec  := rule (';' rule)*
//   rule  := name '=' action ['.' arg] '@' at [':' count]
//
//   name    the failpoint site, e.g. fileio.pwrite (docs/ROBUSTNESS.md
//           lists every site)
//   action  err    fail with an injected error
//           short  truncate the I/O (arg = bytes to deliver; default half)
//           torn   write a prefix, then fail (arg = bytes; default half)
//           eintr  deliver arg simulated EINTRs first (default 16), then
//                  proceed — exercises retry loops, never fails
//           delay  sleep arg milliseconds (default 10), then proceed;
//                  every site honours it
//   at      1-based poll ordinal at which the rule starts firing
//   count   how many consecutive ordinals fire (default 1; 0 = every
//           ordinal >= at)
//
// Example: "journal.fsync=err@3;trace.read_block=torn@7;
//           fileio.pwrite=short@11:2".
//
// Determinism: each name keeps one arrival counter, so at --jobs 1 (or at
// any site driven by a single thread) the Nth poll of a name is the same
// operation on every run.  Sites whose poll order is scheduling-dependent
// use check_indexed() with a caller-supplied ordinal (e.g. `cell.job`
// matches on the grid job index), which is reproducible at any --jobs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace allarm::failpoint {

enum class Action : std::uint8_t {
  kNone = 0,   ///< Not firing.
  kError,      ///< Fail the operation with an injected error.
  kShortIo,    ///< Deliver only `arg` bytes (0 = half of the request).
  kTornWrite,  ///< Write `arg` bytes (0 = half), then fail.
  kEintrStorm, ///< `arg` simulated EINTRs, then proceed normally.
  kDelay,      ///< Sleep `arg` milliseconds, then proceed normally.
};

/// What one poll resolved to.  Evaluates false when no rule fired.
struct Hit {
  Action action = Action::kNone;
  std::uint64_t arg = 0;
  explicit operator bool() const { return action != Action::kNone; }
};

namespace detail {
extern std::atomic<bool> g_active;
Hit check_slow(const char* name);
Hit check_indexed_slow(const char* name, std::uint64_t ordinal);
}  // namespace detail

/// Polls failpoint `name`: increments its arrival counter and returns the
/// first matching rule's action.  One relaxed load + predicted branch when
/// no spec is active.
inline Hit check(const char* name) {
  if (!detail::g_active.load(std::memory_order_relaxed)) return Hit{};
  return detail::check_slow(name);
}

/// Like check(), but rules match against the caller-supplied `ordinal`
/// (e.g. a grid job index) instead of the arrival counter, so the match is
/// independent of thread scheduling.  The arrival counter still advances
/// (hits() observes every poll either way).
inline Hit check_indexed(const char* name, std::uint64_t ordinal) {
  if (!detail::g_active.load(std::memory_order_relaxed)) return Hit{};
  return detail::check_indexed_slow(name, ordinal);
}

/// The one interpreter of a hit at a whole-operation site (one that cannot
/// shorten, tear or interrupt its I/O): kDelay sleeps `arg` ms and
/// returns; any other action throws std::runtime_error
/// "<where>: injected fault (failpoint <name>)".
void act(const Hit& hit, const char* name, const std::string& where);

/// Polls whole-operation site `name` and acts on a hit; `where()` runs
/// only on a hit, so the inactive poll allocates nothing.
template <typename Where>
void inject(const char* name, Where&& where) {
  if (const Hit hit = check(name)) act(hit, name, where());
}

/// Installs `spec` (replacing any active schedule).  An empty spec
/// deactivates everything.  Throws std::invalid_argument with the exact
/// offending rule on any grammar error.
void configure(const std::string& spec);

/// configure(getenv("ALLARM_FAILPOINTS")); no-op when unset.  Returns the
/// installed spec (empty when inactive) so CLIs can banner it.
std::string configure_from_env();

/// Deactivates every failpoint and resets all counters.
void clear();

/// True while any rule is installed.
bool active();

/// Polls observed for `name` since configure() (0 when the name is not in
/// the active spec — unconfigured sites never reach the slow path).
std::uint64_t hits(const std::string& name);

/// The active spec string, verbatim ("" when inactive).
std::string describe();

/// RAII spec for tests: installs on construction, clears on destruction.
struct Scoped {
  explicit Scoped(const std::string& spec) { configure(spec); }
  ~Scoped() { clear(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
};

}  // namespace allarm::failpoint
