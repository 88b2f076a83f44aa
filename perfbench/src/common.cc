#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "common/checksum.hh"
#include "common/fileio.hh"
#include "common/rng.hh"
#include "runner/thread_pool.hh"
#include "workload/profiles.hh"

namespace perfbench {

namespace fs = std::filesystem;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

std::string format_number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    note("metric " + name + " was not finite; reported as 0");
    value = 0.0;
  }
  metrics_[name] = Metric{value, unit};
}

void Result::describe(const std::string& name,
                      const std::vector<double>& samples,
                      const std::string& unit) {
  std::ostringstream line;
  line << std::setprecision(6) << "timed " << name << " [" << unit
       << "]: median " << quantile(samples, 0.5) << "  q1 "
       << quantile(samples, 0.25) << "  q3 " << quantile(samples, 0.75)
       << "  n " << samples.size();
  note(line.str());
}

void Result::timed(const std::string& name, const std::vector<double>& samples,
                   const std::string& unit, double q) {
  describe(name, samples, unit);
  metric(name, quantile(samples, q), unit);
}

void Result::check(const std::string& name, bool ok, const std::string& detail,
                   const Options& options) {
  if (options.break_check == name) ok = !ok;
  ++checks_;
  if (!ok) ++checks_failed_;
  note(std::string("check ") + (ok ? "ok  " : "FAIL") + " " + name +
       (detail.empty() ? "" : ": " + detail));
}

void Result::operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Result::print(std::ostream& out) const {
  for (const std::string& line : notes_) out << line << "\n";
  out << "{\"correct\": " << (failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted(), 1)
      << ", \"failed\": " << failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << format_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}" << std::endl;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  allarm::SplitMix64 mix(base * 0x9e3779b97f4a7c15ull + stream + 1);
  const std::uint64_t s = mix.next();
  return s != 0 ? s : 1;
}

std::string file_digest(const std::string& path) {
  try {
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x",
                  allarm::crc32c(allarm::read_file(path)));
    return hex;
  } catch (const std::exception&) {
    return "missing";
  }
}

void fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  fs::remove_all(path, ignored);
}

CapturedTraces capture_traces(const std::vector<std::string>& names,
                              const std::vector<std::uint64_t>& seeds,
                              std::uint64_t accesses, const std::string& dir,
                              std::uint32_t workers) {
  const auto start = Clock::now();
  fresh_dir(dir);
  CapturedTraces out;
  out.names = names;
  out.seeds = seeds;
  out.results.resize(names.size());
  std::vector<std::string> errors(names.size());
  const allarm::SystemConfig config;  // Table I.
  for (std::size_t i = 0; i < names.size(); ++i) {
    out.paths.push_back(dir + "/" + names[i] + ".altr");
  }
  {
    allarm::runner::ThreadPool pool(workers);
    for (std::size_t i = 0; i < names.size(); ++i) {
      pool.submit([&, i] {
        try {
          allarm::core::RunRequest request;
          request.config = config;
          request.mode = allarm::DirectoryMode::kBaseline;
          request.spec =
              allarm::workload::make_benchmark(names[i], config, accesses);
          request.seed = seeds[i];
          request.capture_trace = out.paths[i];
          out.results[i] = allarm::core::run_request(request);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    }
    pool.wait_idle();
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!errors[i].empty()) {
      throw std::runtime_error("capturing " + names[i] + ": " + errors[i]);
    }
  }
  out.seconds = seconds_since(start);
  return out;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace perfbench
