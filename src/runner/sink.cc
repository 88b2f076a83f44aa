#include "runner/sink.hh"

namespace allarm::runner {

void CollectSink::begin(const SweepMeta& meta) {
  out_.name = meta.name;
  out_.base_seed = meta.base_seed;
  out_.replicates = meta.replicates;
  out_.accesses_per_thread = meta.accesses_per_thread;
  out_.cells.clear();
}

void TeeSink::begin(const SweepMeta& meta) {
  for (ResultSink* sink : sinks_) sink->begin(meta);
}

void TeeSink::cell(CellResult&& cell) {
  if (sinks_.empty()) return;
  // Only the last sink may take ownership of the raw runs (see the header
  // contract); the earlier fan-out arms get the cheap runs-less copy.
  for (std::size_t i = 0; i + 1 < sinks_.size(); ++i) {
    sinks_[i]->cell(cell.summary_copy());
  }
  sinks_.back()->cell(std::move(cell));
}

void TeeSink::end() {
  for (ResultSink* sink : sinks_) sink->end();
}

}  // namespace allarm::runner
