// The on-disk sweep journal: crash-safe, append-only job completion log.
//
// A journaled sweep survives kill -9 at any byte boundary.  Two files:
//
//   <path>        64-byte header + append-only 40-byte records, one per
//                 finished job.  Every record carries a CRC32C of itself
//                 and of its payload; the header stamps the sweep's spec
//                 hash, full-grid job count, base seed and shard, so a
//                 journal can never silently resume the wrong sweep.
//   <path>.data   concatenated payload blobs: one serialized RunResult
//                 (or, for quarantined jobs, FailureRecord) per record,
//                 addressed by (offset, size) from the record.
//
// A record's flags field distinguishes results from quarantined failures
// (bit 0); journals written before quarantine existed carry zero flags, so
// old journals read unchanged.
//
// Records are fixed-size so recovery is arithmetic: a torn tail is
// `size % 40` stray bytes plus any trailing records whose CRC fails —
// both are truncated away and only those jobs re-run.  A record whose
// payload fails its CRC (data-file corruption) is likewise treated as
// not-done.  Appends batch their fsyncs (payload file first, then the
// journal) so a record never outlives its payload across a crash.
//
// Layouts are fixed little-endian; docs/SWEEPS.md documents the format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fileio.hh"
#include "core/experiment.hh"

namespace allarm::runner {

/// Identity stamped into a journal header.  Resume and merge refuse any
/// journal whose meta does not match the spec in hand.
struct JournalMeta {
  std::uint64_t spec_hash = 0;
  std::uint64_t job_count = 0;  ///< Full-grid job count (all shards).
  std::uint64_t base_seed = 0;
  std::uint32_t shard_index = 1;
  std::uint32_t shard_count = 1;
};

/// One valid journal record, as loaded.
struct JournalEntry {
  std::uint64_t job_index = 0;  ///< Global grid-order job index.
  std::uint64_t seed = 0;       ///< The seed the job ran with.
  std::uint64_t payload_offset = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t payload_crc = 0;
  bool payload_ok = false;  ///< Payload CRC verified at load time.
  /// Quarantine record: the payload is a serialized FailureRecord, not a
  /// RunResult.  Resume treats failed jobs as not-done (they re-run; a
  /// later success supersedes via last-record-wins); merge folds an
  /// unsuperseded failure into the report's `failed` section.
  bool failed = false;
};

/// What a quarantined job's journal payload carries: how it failed, so a
/// degraded report can say which cells are missing and why.
struct FailureRecord {
  std::uint32_t attempts = 0;  ///< Execution attempts, including retries.
  std::string error;           ///< what() of the last attempt's exception.
};

/// Result of scanning a journal file pair.
struct JournalIndex {
  JournalMeta meta;
  /// Valid records in append order.  A job may appear more than once
  /// (re-run after payload corruption); the latest record whose payload
  /// verified wins.
  std::vector<JournalEntry> entries;
  std::uint64_t valid_journal_bytes = 0;  ///< Header + intact records.
  std::uint64_t valid_data_bytes = 0;     ///< Extent of referenced payloads.
  std::uint64_t dropped_records = 0;      ///< Torn/corrupt tail records.
};

/// Path of the payload sidecar belonging to journal `path`.
std::string journal_data_path(const std::string& path);

/// Canonical binary serialization of one RunResult (the journal payload).
/// `cell_hash` is the identity hash of the job's grid cell
/// (runner::cell_hash in sweep.hh); it rides in the payload's extensible
/// trailing section so per-cell incremental re-sweeps can tell which
/// journaled cells a changed spec invalidates.  0 = not recorded (the
/// value journals written before the field existed deserialize to).
std::string serialize_run_result(const core::RunResult& result,
                                 std::uint64_t cell_hash = 0);

/// Inverse of serialize_run_result; throws std::runtime_error on malformed
/// input (truncated or trailing bytes).  When `cell_hash` is non-null it
/// receives the payload's recorded cell hash (0 when the payload predates
/// the field).
core::RunResult deserialize_run_result(const void* data, std::size_t size,
                                       std::uint64_t* cell_hash = nullptr);

/// Canonical binary serialization of one FailureRecord (the payload of a
/// quarantine record — see JournalEntry::failed).
std::string serialize_failure(const FailureRecord& failure);

/// Inverse of serialize_failure; throws std::runtime_error on malformed
/// input.
FailureRecord deserialize_failure(const void* data, std::size_t size);

/// A journal open for reading and/or appending.
class Journal {
 public:
  static constexpr std::uint64_t kMagic = 0x314C4E4A4D524C41ull;  // "ALRMJNL1"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kHeaderSize = 64;
  static constexpr std::size_t kRecordSize = 40;
  /// Appends between durability points; sync() also runs on close.
  static constexpr std::uint32_t kSyncBatch = 16;

  /// Creates (or replaces) a fresh journal stamped with `meta`.  Crash-
  /// atomic: a crash leaves either no journal or a valid empty one.
  static Journal create(const std::string& path, const JournalMeta& meta);

  /// Opens an existing journal for resume: validates the header against
  /// `expected` (throws std::runtime_error on any mismatch — spec hash,
  /// job count, base seed or shard), scans the records, truncates any torn
  /// tail from both files, and positions for append.
  static Journal open_resume(const std::string& path,
                             const JournalMeta& expected) {
    return open_append(path, expected, /*rebind=*/false);
  }

  /// Incremental-resume open: like open_resume, but a spec-hash or
  /// base-seed mismatch REBINDS the journal instead of refusing — the
  /// header is durably rewritten with `expected` so later strict opens and
  /// merges see the new identity.  Grid shape and shard must still match
  /// (a journal indexed by a different grid cannot be reinterpreted).
  /// Callers decide per record what is still valid (per-cell hashes);
  /// stale records are superseded by re-run appends, last-record-wins.
  static Journal open_rebind(const std::string& path,
                             const JournalMeta& expected) {
    return open_append(path, expected, /*rebind=*/true);
  }

  /// Opens read-only (merge path): header is validated for magic/version
  /// and CRC only; callers check meta themselves.
  static Journal open_read(const std::string& path);

  /// Scans without opening for write.  Throws when the file is missing or
  /// its header is invalid; a damaged record tail is reported, not fatal.
  static JournalIndex load_index(const std::string& path);

  const JournalIndex& index() const { return index_; }
  const JournalMeta& meta() const { return index_.meta; }

  /// Appends one finished job.  Durable after the next sync barrier (every
  /// kSyncBatch appends, or close()).  `cell_hash` stamps the payload with
  /// the job's cell identity (see serialize_run_result; 0 = unstamped).
  void append(std::uint64_t job_index, std::uint64_t seed,
              const core::RunResult& result, std::uint64_t cell_hash = 0);

  /// Appends one quarantined (permanently failed) job.  Same durability as
  /// append(); the record carries the failed flag and a FailureRecord
  /// payload.  A later append() for the same job supersedes it
  /// (last-record-wins), which is exactly what a successful resume does.
  void append_failed(std::uint64_t job_index, std::uint64_t seed,
                     const FailureRecord& failure);

  /// Reads and verifies one payload; throws std::runtime_error when the
  /// stored bytes fail their CRC or do not deserialize, std::logic_error
  /// when `entry` is a quarantine record (use read_failure).  A non-null
  /// `cell_hash` receives the payload's recorded cell-identity hash
  /// (0 when the record predates cell stamping).
  core::RunResult read_payload(const JournalEntry& entry,
                               std::uint64_t* cell_hash = nullptr) const;

  /// Reads and verifies one quarantine payload; throws std::logic_error
  /// when `entry` is a result record.
  FailureRecord read_failure(const JournalEntry& entry) const;

  /// Forces all appended records to stable storage (payloads first).
  void sync();

  /// sync() + close both files.  Idempotent; the destructor also closes
  /// (without throwing) but an explicit close surfaces errors.
  void close();

  std::uint64_t record_count() const { return index_.entries.size(); }

 private:
  Journal() = default;

  /// Shared append path: writes `payload` to the data file, then the
  /// record (with `flags`) to the journal.
  void append_record(std::uint64_t job_index, std::uint64_t seed,
                     const std::string& payload, std::uint32_t flags);
  /// Shared body of open_resume (rebind = false) and open_rebind.
  static Journal open_append(const std::string& path,
                             const JournalMeta& expected, bool rebind);
  std::string verified_payload(const JournalEntry& entry) const;

  File journal_;
  File data_;
  JournalIndex index_;
  std::uint64_t journal_end_ = 0;  ///< Append offset in the journal file.
  std::uint64_t data_end_ = 0;     ///< Append offset in the data file.
  std::uint32_t unsynced_appends_ = 0;
  bool writable_ = false;
};

}  // namespace allarm::runner
