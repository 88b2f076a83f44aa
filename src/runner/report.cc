#include "runner/report.hh"

#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/failpoint.hh"
#include "common/fileio.hh"

namespace allarm::runner {

namespace {

void append_summary_json(std::ostream& out, const Summary& s) {
  out << "{\"count\":" << s.count << ",\"mean\":" << json_number(s.mean)
      << ",\"stddev\":" << json_number(s.stddev())
      << ",\"min\":" << json_number(s.min)
      << ",\"max\":" << json_number(s.max) << "}";
}

void append_summary_csv(std::ostream& out, const Summary& s) {
  out << s.count << ',' << json_number(s.mean) << ','
      << json_number(s.stddev()) << ',' << json_number(s.min) << ','
      << json_number(s.max);
}

[[noreturn]] void io_failure(const std::string& label) {
  throw std::runtime_error("failed writing " + label +
                           " (stream went bad; disk full or closed?)");
}

/// Per-cell failpoint shared by both writers: exercises the callers'
/// mid-report error paths (a half-written report followed by a nonzero
/// exit, never a silently truncated "success").
void check_sink_failpoint(const std::string& label) {
  if (failpoint::check("sink.write")) {
    throw std::runtime_error("failed writing " + label +
                             ": injected fault (failpoint sink.write)");
  }
}

/// Streams one sweep result through `sink` (begin / cells / end).  The
/// per-cell copies omit the raw `runs` — they dominate the cell footprint
/// and the report writers this feeds never serialize them.
void replay(const SweepResult& result, ResultSink& sink) {
  SweepMeta meta;
  meta.name = result.name;
  meta.base_seed = result.base_seed;
  meta.replicates = result.replicates;
  meta.accesses_per_thread = result.accesses_per_thread;
  sink.begin(meta);
  for (const CellResult& cell : result.cells) {
    sink.cell(cell.summary_copy());
  }
  sink.end();
}

}  // namespace

// ------------------------------------------------------------------ JSON ----

JsonStreamSink::JsonStreamSink(std::ostream& out, std::string label)
    : out_(out), label_(std::move(label)) {}

void JsonStreamSink::check() const {
  if (!out_.good()) io_failure(label_);
}

void JsonStreamSink::begin(const SweepMeta& meta) {
  out_ << "{\n";
  out_ << "  \"sweep\": " << json_quote(meta.name) << ",\n";
  out_ << "  \"base_seed\": " << meta.base_seed << ",\n";
  out_ << "  \"replicates\": " << meta.replicates << ",\n";
  out_ << "  \"accesses_per_thread\": " << meta.accesses_per_thread << ",\n";
  out_ << "  \"cells\": [\n";
  check();
}

void JsonStreamSink::cell(CellResult&& cell) {
  check_sink_failpoint(label_);
  if (any_cell_) out_ << ",\n";
  any_cell_ = true;
  out_ << "    {\n";
  out_ << "      \"workload\": " << json_quote(cell.workload) << ",\n";
  out_ << "      \"config\": " << json_quote(cell.config_label) << ",\n";
  out_ << "      \"mode\": " << json_quote(to_string(cell.mode)) << ",\n";
  out_ << "      \"seeds\": [";
  for (std::size_t s = 0; s < cell.seeds.size(); ++s) {
    if (s > 0) out_ << ",";
    out_ << cell.seeds[s];
  }
  out_ << "],\n";
  out_ << "      \"runtime\": ";
  append_summary_json(out_, cell.runtime);
  out_ << ",\n";
  if (include_timing_) {
    out_ << "      \"wall_ns\": ";
    append_summary_json(out_, cell.wall_ns);
    out_ << ",\n";
  }
  out_ << "      \"stats\": {";
  bool first = true;
  for (const auto& [name, summary] : cell.stats) {
    if (!first) out_ << ",";
    first = false;
    out_ << "\n        " << json_quote(name) << ": ";
    append_summary_json(out_, summary);
  }
  if (!cell.stats.empty()) out_ << "\n      ";
  out_ << "}";
  // Latency-profile quantiles (sweep --profile).  Doubly gated — the sink
  // mode AND non-empty cell histograms — so a profile-less resume of a
  // profiled journal degrades to omitting the section, never to emitting
  // an empty one.
  if (include_profile_ && !cell.profile.empty()) {
    out_ << ",\n      \"hist\": {";
    bool first_hist = true;
    for (const auto& [name, hist] : cell.profile) {
      if (!first_hist) out_ << ",";
      first_hist = false;
      out_ << "\n        " << json_quote(name) << ": {\"p50\":"
           << json_number(hist.quantile(0.50))
           << ",\"p95\":" << json_number(hist.quantile(0.95))
           << ",\"p99\":" << json_number(hist.quantile(0.99))
           << ",\"max\":" << json_number(static_cast<double>(hist.max()))
           << ",\"count\":" << hist.count() << "}";
    }
    out_ << "\n      }";
  }
  // Quarantined replicates.  Emitted only when present so a healthy
  // sweep's report stays byte-identical to one written before quarantine
  // existed.
  if (!cell.failures.empty()) {
    out_ << ",\n      \"failed\": [";
    for (std::size_t f = 0; f < cell.failures.size(); ++f) {
      const CellFailure& failure = cell.failures[f];
      if (f > 0) out_ << ",";
      out_ << "\n        {\"replicate\":" << failure.replicate
           << ",\"attempts\":" << failure.attempts
           << ",\"error\":" << json_quote(failure.error) << "}";
    }
    out_ << "\n      ]";
  }
  out_ << "\n";
  out_ << "    }";
  check();
}

void JsonStreamSink::end() {
  if (any_cell_) out_ << "\n";
  out_ << "  ]\n";
  out_ << "}\n";
  out_.flush();
  check();
}

// ------------------------------------------------------------------- CSV ----

CsvStreamSink::CsvStreamSink(std::ostream& out, std::string label)
    : out_(out), label_(std::move(label)) {}

void CsvStreamSink::check() const {
  if (!out_.good()) io_failure(label_);
}

void CsvStreamSink::begin(const SweepMeta& meta) {
  sweep_name_ = meta.name;
  out_ << "sweep,workload,config,mode,metric,count,mean,stddev,min,max\n";
  check();
}

void CsvStreamSink::cell(CellResult&& cell) {
  check_sink_failpoint(label_);
  const std::string prefix = sweep_name_ + "," + cell.workload + "," +
                             cell.config_label + "," + to_string(cell.mode) +
                             ",";
  out_ << prefix << "runtime,";
  append_summary_csv(out_, cell.runtime);
  out_ << "\n";
  // Quarantined replicates, column-stable: a `failed` metric row
  // summarizing the attempt counts (count = failed replicates).  Error
  // strings do not fit CSV columns — the JSON report carries them.
  // Omitted entirely for healthy cells so their bytes never change.
  if (!cell.failures.empty()) {
    Summary attempts;
    for (const CellFailure& failure : cell.failures) {
      attempts.add(static_cast<double>(failure.attempts));
    }
    out_ << prefix << "failed,";
    append_summary_csv(out_, attempts);
    out_ << "\n";
  }
  for (const auto& [name, summary] : cell.stats) {
    out_ << prefix << name << ',';
    append_summary_csv(out_, summary);
    out_ << "\n";
  }
  check();
}

void CsvStreamSink::end() {
  out_.flush();
  check();
}

// -------------------------------------------------------------- wrappers ----

std::string to_json(const SweepResult& result) {
  std::ostringstream out;
  JsonStreamSink sink(out, "in-memory JSON");
  replay(result, sink);
  return out.str();
}

std::string to_csv(const SweepResult& result) {
  std::ostringstream out;
  CsvStreamSink sink(out, "in-memory CSV");
  replay(result, sink);
  return out.str();
}

// ----------------------------------------------------------- ReportFiles ----

namespace {

std::ofstream open_tmp(const std::string& path) {
  std::ofstream file(path + ".tmp", std::ios::binary | std::ios::trunc);
  if (!file) {
    throw std::runtime_error("cannot open " + path + ".tmp for writing");
  }
  return file;
}

void close_and_rename(std::ofstream& file, const std::string& path) {
  file.close();
  if (!file) throw std::runtime_error("failed closing " + path + ".tmp");
  {
    // fsync before the rename: without it, a power loss after the rename
    // could replace a good previous report with a partial one.
    File tmp(path + ".tmp", File::Mode::kReadWrite);
    tmp.sync();
    tmp.close();
  }
  if (std::rename((path + ".tmp").c_str(), path.c_str()) != 0) {
    throw std::runtime_error("failed renaming " + path + ".tmp into place");
  }
}

}  // namespace

ReportFiles::ReportFiles(const std::string& json_path,
                         const std::string& csv_path, bool include_timing,
                         bool include_profile)
    : json_path_(json_path), csv_path_(csv_path) {
  std::vector<ResultSink*> all;
  if (json_path_.empty()) {
    json_ = std::make_unique<JsonStreamSink>(std::cout, "stdout");
  } else {
    out_file_ = open_tmp(json_path_);
    json_ = std::make_unique<JsonStreamSink>(out_file_, json_path_);
  }
  json_->set_include_timing(include_timing);
  json_->set_include_profile(include_profile);
  all.push_back(json_.get());
  if (!csv_path_.empty()) {
    csv_file_ = open_tmp(csv_path_);
    csv_ = std::make_unique<CsvStreamSink>(csv_file_, csv_path_);
    all.push_back(csv_.get());
  }
  tee_ = TeeSink(all);
}

ReportFiles::~ReportFiles() {
  try {
    discard();
  } catch (...) {
    // Destructor cleanup is best effort; commit() is the throwing path.
  }
}

void ReportFiles::commit() {
  if (done_) return;
  done_ = true;
  if (out_file_.is_open()) close_and_rename(out_file_, json_path_);
  if (csv_file_.is_open()) close_and_rename(csv_file_, csv_path_);
}

void ReportFiles::discard() {
  if (done_) return;
  done_ = true;
  if (out_file_.is_open()) {
    out_file_.close();
    std::remove((json_path_ + ".tmp").c_str());
  }
  if (csv_file_.is_open()) {
    csv_file_.close();
    std::remove((csv_path_ + ".tmp").c_str());
  }
}

}  // namespace allarm::runner
