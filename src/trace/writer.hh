// Streaming .altr trace writer.
//
// Appends records thread by thread into per-thread blocks (each flushed to
// disk the moment it reaches the block payload capacity) and defers the
// meta block, footer index and footer to finish().  Peak resident memory
// is one open block per thread plus the index — never the trace.
//
// Usage (in a capture, trace::record_workload drives the first three steps):
//
//   TraceWriter writer(path);
//   writer.meta().workload = ...;          // any time before finish()
//   auto slot = writer.add_thread(meta);   // before that thread's records
//   writer.record(slot, access, draws);    // any interleaving across slots
//   writer.finish();                       // flush + index + footer + fsync
//
// A writer that is destroyed without finish() leaves a torn file (no
// footer); TraceReader refuses it loudly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fileio.hh"
#include "trace/format.hh"

namespace allarm::trace {

class TraceWriter {
 public:
  /// `durable` = fsync at finish().  Pass false for ephemeral traces
  /// (e.g. the text-conversion temp file, unlinked moments later) where a
  /// forced disk flush buys nothing.
  explicit TraceWriter(const std::string& path,
                       std::uint32_t block_payload_bytes =
                           kDefaultBlockPayloadBytes,
                       bool durable = true);

  /// The trace's self-description; mutable until finish().
  TraceMeta& meta() { return meta_; }

  /// Registers one thread and returns its slot (the thread-table index
  /// records are filed under).  Must precede the slot's first record().
  std::uint32_t add_thread(const TraceThreadMeta& thread);

  /// Appends one record to `slot`'s stream.  Thread streams may interleave
  /// arbitrarily; per-thread order is preserved.
  void record(std::uint32_t slot, const workload::Access& access,
              std::uint32_t rng_draws);

  /// Records appended to `slot` so far.
  std::uint64_t thread_records(std::uint32_t slot) const;

  /// Flushes open blocks, writes the meta block, index and footer, fsyncs
  /// and closes.  Must be called exactly once.
  void finish();

  const std::string& path() const { return file_.path(); }

 private:
  struct OpenBlock {
    std::string payload;
    std::uint32_t record_count = 0;
    std::uint64_t first_index = 0;  ///< Per-thread index of its first record.
    Addr prev_vaddr = 0;            ///< Delta state; resets per block.
  };

  void flush_block(std::uint32_t slot);
  std::uint64_t write_block(std::uint32_t kind, std::uint32_t thread_slot,
                            std::uint32_t record_count,
                            std::uint64_t first_index,
                            const std::string& payload);

  File file_;
  std::uint32_t block_payload_bytes_;
  bool durable_ = true;
  TraceMeta meta_;
  std::vector<OpenBlock> open_;            ///< One per thread slot.
  std::vector<std::uint64_t> next_index_;  ///< Records appended per slot.
  std::vector<IndexEntry> index_;
  std::uint64_t end_ = 0;  ///< Append offset.
  bool finished_ = false;
};

}  // namespace allarm::trace
