// Shared flag parsing for the command-line tools (sweep, allarm_sim,
// trace, allarm_serve, quickstart) and bench_kernel_throughput.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

namespace allarm::cli {

/// Parses the value of integer flag `flag`: a non-empty run of decimal
/// digits that fits in 64 bits.  Anything else (empty, a sign, spaces,
/// trailing garbage, overflow) prints a message naming the flag and exits
/// 2, the usage-error status of every tool.
inline std::uint64_t parse_u64(const char* flag, const std::string& text) {
  if (!text.empty() &&
      text.find_first_not_of("0123456789") == std::string::npos) {
    try {
      return std::stoull(text);
    } catch (const std::out_of_range&) {
    }
  }
  std::cerr << flag << ": expected a non-negative integer, got '" << text
            << "'\n";
  std::exit(2);
}

/// Largest value of a 32-bit flag destination (the `max` of parse_u64_max).
inline constexpr std::uint64_t kMaxU32 = 0xFFFFFFFFu;

/// parse_u64() for a flag whose destination holds at most `max`: a larger
/// value exits 2 the same way instead of being truncated.
inline std::uint64_t parse_u64_max(const char* flag, const std::string& text,
                                   std::uint64_t max) {
  const std::uint64_t value = parse_u64(flag, text);
  if (value <= max) return value;
  std::cerr << flag << ": " << text << " is out of range (at most " << max
            << ")\n";
  std::exit(2);
}

/// Parses the value of duration flag `flag`, given in seconds: a positive
/// decimal ("5", "0.25") with nothing after it, returned in nanoseconds.
/// Anything else (a sign, an exponent, inf or nan, a unit suffix, less
/// than 1 ns, or more nanoseconds than 64 bits hold) prints a message
/// naming the flag and exits 2.
inline std::uint64_t parse_seconds_ns(const char* flag,
                                      const std::string& text) {
  if (text.find_first_not_of("0123456789.") == std::string::npos &&
      text.find_first_of("0123456789") != std::string::npos &&
      text.find('.') == text.rfind('.')) {
    const double ns = std::strtod(text.c_str(), nullptr) * 1e9;
    if (ns >= 1.0 && ns < 18446744073709551616.0) {  // [1 ns, 2^64 ns)
      return static_cast<std::uint64_t>(ns);
    }
  }
  std::cerr << flag << ": expected a positive number of seconds, got '"
            << text << "'\n";
  std::exit(2);
}

}  // namespace allarm::cli
