// Serialization of sweep results.
//
// Both formats are canonical: fixed field order, map-sorted statistic
// names, round-trip number formatting, and no execution metadata (worker
// count, wall clock, resume counts).  Two sweeps of the same spec therefore
// produce byte-identical reports regardless of --jobs — the property the
// determinism tests pin down.
//
// The writers are streaming ResultSinks: each cell serializes as it
// arrives and is dropped, so report size never bounds sweep size.  Peak
// memory is one cell, not one grid.  I/O failures surface as
// std::runtime_error (from end() at the latest) — never as a silently
// truncated report.
#pragma once

#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "runner/sink.hh"
#include "runner/sweep.hh"

namespace allarm::runner {

/// Streams the canonical JSON document to `out`, one cell at a time.
class JsonStreamSink : public ResultSink {
 public:
  /// `label` names the destination in error messages (a path, "stdout").
  explicit JsonStreamSink(std::ostream& out, std::string label = "report");

  /// Opt-in execution-timing section: each cell additionally carries a
  /// "wall_ns" summary (host wall-clock nanoseconds per replicate, from
  /// the journal / run_request measurement).  Off by default because
  /// wall clock varies run to run while the canonical report must be
  /// byte-identical for one spec.  `sweep --timing` and the service
  /// request key "timing" enable it.
  void set_include_timing(bool include) { include_timing_ = include; }

  /// Opt-in latency-profile section (sweep --profile): each cell with
  /// merged histograms (CellResult::profile) additionally carries a
  /// "hist" object of per-metric {p50, p95, p99, max, count} quantiles.
  /// Off by default for the same reason as timing: the canonical report
  /// must not change shape unless explicitly asked.
  void set_include_profile(bool include) { include_profile_ = include; }

  void begin(const SweepMeta& meta) override;
  void cell(CellResult&& cell) override;
  void end() override;

 private:
  void check() const;  ///< Throws std::runtime_error when `out_` went bad.

  std::ostream& out_;
  std::string label_;
  bool any_cell_ = false;
  bool include_timing_ = false;
  bool include_profile_ = false;
};

/// Streams the canonical long-format CSV to `out`: one row per
/// (cell, metric), with ROI runtime reported as the metric "runtime".
class CsvStreamSink : public ResultSink {
 public:
  explicit CsvStreamSink(std::ostream& out, std::string label = "report");

  void begin(const SweepMeta& meta) override;
  void cell(CellResult&& cell) override;
  void end() override;

 private:
  void check() const;

  std::ostream& out_;
  std::string label_;
  std::string sweep_name_;
};

/// Renders `result` as a JSON document (trailing newline included).
/// Convenience wrapper over JsonStreamSink for in-memory results.
std::string to_json(const SweepResult& result);

/// Renders `result` as long-format CSV.  Wrapper over CsvStreamSink.
std::string to_csv(const SweepResult& result);

/// The report file pipeline shared by the sweep CLI and the sweep service:
/// streaming JSON to a file (or stdout) plus an optional CSV, fanned out
/// through one TeeSink.  File reports stream into `<path>.tmp` and rename
/// into place only in commit(), so a failed, killed, or drained run never
/// destroys a pre-existing good report — and never publishes a torn one.
class ReportFiles {
 public:
  /// Empty `json_path` streams JSON to stdout (the CLI default); empty
  /// `csv_path` means no CSV report.  Throws std::runtime_error when a
  /// temp file cannot be opened.
  ReportFiles(const std::string& json_path, const std::string& csv_path,
              bool include_timing = false, bool include_profile = false);
  /// Discards anything not committed (best effort, never throws).
  ~ReportFiles();

  ReportFiles(const ReportFiles&) = delete;
  ReportFiles& operator=(const ReportFiles&) = delete;

  /// The sink to stream the sweep into.
  ResultSink& sink() { return tee_; }

  /// Publishes the temp files: close, fsync, rename into place.  Call only
  /// after a successful end-of-stream; throws std::runtime_error on I/O
  /// failure (the targets then keep their previous contents).
  void commit();

  /// Abandons the temp files (close + unlink).  The drain path: a drained
  /// run's report is torn mid-stream by design — the journal carries the
  /// work, and the resume rewrites the report from scratch.
  void discard();

 private:
  std::string json_path_;
  std::string csv_path_;
  std::ofstream out_file_;
  std::ofstream csv_file_;
  std::unique_ptr<JsonStreamSink> json_;
  std::unique_ptr<CsvStreamSink> csv_;
  TeeSink tee_{{}};
  bool done_ = false;
};

}  // namespace allarm::runner
