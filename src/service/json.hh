// Minimal JSON parsing for the sweep service's request spool.
//
// The service accepts untrusted request files, so the parser is strict:
// full escape handling, a recursion-depth bound, no trailing garbage, and
// every error carries the byte offset it was detected at (the reject
// reason recorded in the request's state).  It parses into a plain value
// tree — no reflection, no allocator games — because a request is a few
// dozen keys, not a data plane.
//
// Writing JSON stays where it always was: the report writers and the
// health file build their documents by hand against json_number/json_quote
// (common/stats.hh), which is how the byte-exactness guarantees are kept.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace allarm::service {

/// One parsed JSON value.  A tagged struct instead of std::variant: the
/// tree is tiny and the flat layout keeps call sites readable.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Object members in document order (duplicate keys are a parse error).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_bool() const { return kind == Kind::kBool; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  /// The number as a non-negative integer; throws std::runtime_error when
  /// the value is not a number, is negative, fractional, or does not fit —
  /// the request fields (seeds, base seed, accesses) are all u64 counts.
  std::uint64_t as_u64(const std::string& what) const;
};

/// Parses one JSON document; the entire input must be consumed.  Throws
/// std::runtime_error with a byte offset on malformed input.
JsonValue parse_json(const std::string& text);

}  // namespace allarm::service
