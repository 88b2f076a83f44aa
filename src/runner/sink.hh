// Result sinks: where a streaming sweep's finished cells go.
//
// SweepRunner::run_streaming() emits every CellResult exactly once, in
// grid order, then destroys it — the sink decides what survives.  The
// streaming report writers (runner/report.hh) serialize cells straight to
// an ostream so a terabyte-grid sweep never holds more than O(jobs)
// results; CollectSink rebuilds the in-memory SweepResult that
// SweepRunner::run() returns; TeeSink fans one stream into many (JSON
// file + CSV file + collection in one pass).
//
// Sink methods are always invoked from the thread that called
// run_streaming(), so implementations need no locking.
#pragma once

#include <vector>

#include "runner/sweep.hh"

namespace allarm::runner {

/// Consumer of a streamed sweep.  Lifecycle: begin, cell xN (grid order),
/// end.  Implementations may throw; the runner lets exceptions propagate
/// (a sweep whose output cannot be written must fail loudly, not truncate).
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Called once before any cell, with the sweep's identity header.
  virtual void begin(const SweepMeta& meta) { (void)meta; }

  /// Called once per finished cell, in grid order.  The cell is dead after
  /// this call returns — take what you need (or take the whole thing by
  /// move).
  virtual void cell(CellResult&& cell) = 0;

  /// Called once after the last cell.  Flush and surface any I/O error
  /// here at the latest.
  virtual void end() {}
};

/// Rebuilds an in-memory SweepResult from the stream, raw runs included.
class CollectSink : public ResultSink {
 public:
  explicit CollectSink(SweepResult& out) : out_(out) {}

  void begin(const SweepMeta& meta) override;
  void cell(CellResult&& cell) override {
    out_.cells.push_back(std::move(cell));
  }

 private:
  SweepResult& out_;
};

/// Forwards every call to each of `sinks`, in order.  Only the LAST sink
/// receives the cell's raw per-replicate `runs` (they dominate the cell's
/// footprint and the stream writers never read them) — put a CollectSink
/// that needs raw runs at the end of the fan-out.
class TeeSink : public ResultSink {
 public:
  explicit TeeSink(std::vector<ResultSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void begin(const SweepMeta& meta) override;
  void cell(CellResult&& cell) override;
  void end() override;

 private:
  std::vector<ResultSink*> sinks_;
};

}  // namespace allarm::runner
