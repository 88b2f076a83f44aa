#include "common/failpoint.hh"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

namespace allarm::failpoint {

namespace {

struct Rule {
  Action action = Action::kNone;
  std::uint64_t arg = 0;
  std::uint64_t at = 1;
  std::uint64_t count = 1;  ///< 0 = unlimited.

  bool fires(std::uint64_t ordinal) const {
    return ordinal >= at && (count == 0 || ordinal - at < count);
  }
};

/// All rules sharing one failpoint name share one arrival counter, so
/// "fileio.pwrite=eintr@2;fileio.pwrite=err@5" sees one ordinal stream.
struct NameState {
  std::uint64_t polls = 0;
  std::vector<Rule> rules;
};

// One mutex guards the registry.  The fast path never takes it; the slow
// path runs only while a schedule is active, where determinism matters and
// throughput does not.
std::mutex g_mutex;
std::unordered_map<std::string, NameState> g_points;
std::string g_spec;

[[noreturn]] void bad_spec(const std::string& rule, const std::string& why) {
  throw std::invalid_argument("failpoint rule '" + rule + "': " + why);
}

std::uint64_t parse_number(const std::string& rule, const std::string& text,
                           const char* what) {
  if (text.empty()) bad_spec(rule, std::string("empty ") + what);
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      bad_spec(rule, std::string("non-numeric ") + what + " '" + text + "'");
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

/// Parses "name=action[.arg]@at[:count]" into (name, rule).
std::pair<std::string, Rule> parse_rule(const std::string& text) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    bad_spec(text, "want name=action[.arg]@at[:count]");
  }
  const std::string name = text.substr(0, eq);

  const std::size_t at_pos = text.find('@', eq + 1);
  if (at_pos == std::string::npos) bad_spec(text, "missing '@at'");

  std::string action_text = text.substr(eq + 1, at_pos - eq - 1);
  Rule rule;
  bool arg_given = false;
  const std::size_t dot = action_text.find('.');
  if (dot != std::string::npos) {
    rule.arg = parse_number(text, action_text.substr(dot + 1), "arg");
    arg_given = true;
    action_text.resize(dot);
  }
  if (action_text == "err") {
    rule.action = Action::kError;
  } else if (action_text == "short") {
    rule.action = Action::kShortIo;
  } else if (action_text == "torn") {
    rule.action = Action::kTornWrite;
  } else if (action_text == "eintr") {
    rule.action = Action::kEintrStorm;
    if (!arg_given) rule.arg = 16;
  } else if (action_text == "delay") {
    rule.action = Action::kDelay;
    if (!arg_given) rule.arg = 10;
  } else {
    bad_spec(text, "unknown action '" + action_text +
                       "' (want err|short|torn|eintr|delay)");
  }

  std::string at_text = text.substr(at_pos + 1);
  const std::size_t colon = at_text.find(':');
  if (colon != std::string::npos) {
    rule.count = parse_number(text, at_text.substr(colon + 1), "count");
    at_text.resize(colon);
  }
  rule.at = parse_number(text, at_text, "ordinal");
  return {name, rule};
}

}  // namespace

std::atomic<bool> detail::g_active{false};

Hit detail::check_slow(const char* name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = g_points.find(name);
  if (it == g_points.end()) return Hit{};
  const std::uint64_t ordinal = ++it->second.polls;
  for (const Rule& rule : it->second.rules) {
    if (rule.fires(ordinal)) return Hit{rule.action, rule.arg};
  }
  return Hit{};
}

Hit detail::check_indexed_slow(const char* name, std::uint64_t ordinal) {
  std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = g_points.find(name);
  if (it == g_points.end()) return Hit{};
  ++it->second.polls;  // hits() counts observations either way.
  for (const Rule& rule : it->second.rules) {
    if (rule.fires(ordinal)) return Hit{rule.action, rule.arg};
  }
  return Hit{};
}

void act(const Hit& hit, const char* name, const std::string& where) {
  if (hit.action == Action::kDelay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(hit.arg));
    return;
  }
  throw std::runtime_error(where + ": injected fault (failpoint " +
                           std::string(name) + ")");
}

void configure(const std::string& spec) {
  // Parse fully before swapping in, so a bad spec never half-installs.
  std::unordered_map<std::string, NameState> points;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t semi = spec.find(';', pos);
    const std::size_t end = semi == std::string::npos ? spec.size() : semi;
    const std::string rule_text = spec.substr(pos, end - pos);
    if (!rule_text.empty()) {
      auto [name, rule] = parse_rule(rule_text);
      points[name].rules.push_back(rule);
    }
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  std::lock_guard<std::mutex> lock(g_mutex);
  g_points = std::move(points);
  g_spec = g_points.empty() ? std::string() : spec;
  detail::g_active.store(!g_points.empty(), std::memory_order_relaxed);
}

std::string configure_from_env() {
  const char* env = std::getenv("ALLARM_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return {};
  configure(env);
  return env;
}

void clear() { configure(""); }

bool active() { return detail::g_active.load(std::memory_order_relaxed); }

std::uint64_t hits(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = g_points.find(name);
  return it == g_points.end() ? 0 : it->second.polls;
}

std::string describe() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spec;
}

}  // namespace allarm::failpoint
