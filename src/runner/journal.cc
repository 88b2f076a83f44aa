#include "runner/journal.hh"

#include <cstring>
#include <stdexcept>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "obs/timeline.hh"

namespace allarm::runner {

namespace {

// On-disk layouts.  Plain structs of naturally-aligned integers, memcpy'd
// whole; fixed little-endian by fiat (every target this simulator runs on
// is little-endian, and the static_asserts keep the sizes honest).

struct RawHeader {
  std::uint64_t magic = Journal::kMagic;
  std::uint32_t version = Journal::kVersion;
  std::uint32_t reserved0 = 0;
  std::uint64_t spec_hash = 0;
  std::uint64_t job_count = 0;
  std::uint64_t base_seed = 0;
  std::uint32_t shard_index = 1;
  std::uint32_t shard_count = 1;
  std::uint64_t reserved1 = 0;
  std::uint32_t reserved2 = 0;
  std::uint32_t header_crc = 0;  ///< CRC32C of the preceding 60 bytes.
};
static_assert(sizeof(RawHeader) == Journal::kHeaderSize,
              "journal header layout drifted");

/// RawRecord flags bits.  Pre-quarantine journals wrote this field as a
/// reserved zero, so "no flags" and "result record" coincide and the
/// format needs no version bump.
constexpr std::uint32_t kFlagFailed = 1u << 0;

struct RawRecord {
  std::uint64_t job_index = 0;
  std::uint64_t seed = 0;
  std::uint64_t payload_offset = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t payload_crc = 0;
  std::uint32_t flags = 0;       ///< kFlag* bits; zero = plain result.
  std::uint32_t record_crc = 0;  ///< CRC32C of the preceding 36 bytes.
};
static_assert(sizeof(RawRecord) == Journal::kRecordSize,
              "journal record layout drifted");

std::uint32_t header_crc(const RawHeader& h) {
  return crc32c(&h, offsetof(RawHeader, header_crc));
}

RawHeader header_for(const JournalMeta& meta) {
  RawHeader header;
  header.spec_hash = meta.spec_hash;
  header.job_count = meta.job_count;
  header.base_seed = meta.base_seed;
  header.shard_index = meta.shard_index;
  header.shard_count = meta.shard_count;
  header.header_crc = header_crc(header);
  return header;
}

std::uint32_t record_crc(const RawRecord& r) {
  return crc32c(&r, offsetof(RawRecord, record_crc));
}

[[noreturn]] void bad_journal(const std::string& path, const std::string& why) {
  throw std::runtime_error("journal " + path + ": " + why);
}

/// Reads and validates the fixed header; throws on any mismatch.
RawHeader read_header(const File& file) {
  if (file.size() < Journal::kHeaderSize) {
    bad_journal(file.path(), "file shorter than the header");
  }
  RawHeader h;
  file.read_at(0, &h, sizeof(h));
  if (h.magic != Journal::kMagic) bad_journal(file.path(), "bad magic");
  if (h.version != Journal::kVersion) {
    bad_journal(file.path(),
                "unsupported version " + std::to_string(h.version));
  }
  if (h.header_crc != header_crc(h)) {
    bad_journal(file.path(), "header checksum mismatch");
  }
  return h;
}

JournalMeta meta_from(const RawHeader& h) {
  JournalMeta meta;
  meta.spec_hash = h.spec_hash;
  meta.job_count = h.job_count;
  meta.base_seed = h.base_seed;
  meta.shard_index = h.shard_index;
  meta.shard_count = h.shard_count;
  return meta;
}

/// Scans records against the data file, stopping at the first record that
/// fails its own CRC or points past the end of the data file (an
/// append-only log is trustworthy only up to its first damaged record).
JournalIndex scan(const File& journal, const File& data) {
  const RawHeader header = read_header(journal);

  JournalIndex index;
  index.meta = meta_from(header);
  index.valid_journal_bytes = Journal::kHeaderSize;

  const std::uint64_t journal_size = journal.size();
  const std::uint64_t data_size = data.is_open() ? data.size() : 0;
  const std::uint64_t record_bytes = journal_size - Journal::kHeaderSize;
  const std::uint64_t record_count = record_bytes / Journal::kRecordSize;
  // `size % kRecordSize` stray bytes at the tail are a torn final append.
  if (record_bytes % Journal::kRecordSize != 0) ++index.dropped_records;

  std::string payload;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    RawRecord record;
    journal.read_at(Journal::kHeaderSize + i * Journal::kRecordSize, &record,
                    sizeof(record));
    const bool intact =
        record.record_crc == record_crc(record) &&
        record.job_index < header.job_count &&
        record.payload_offset + record.payload_size <= data_size;
    if (!intact) {
      index.dropped_records += record_count - i;
      break;
    }

    JournalEntry entry;
    entry.job_index = record.job_index;
    entry.seed = record.seed;
    entry.payload_offset = record.payload_offset;
    entry.payload_size = record.payload_size;
    entry.payload_crc = record.payload_crc;
    entry.failed = (record.flags & kFlagFailed) != 0;

    // Eager payload verification: one sequential pass over the sidecar at
    // open, so resume knows its exact re-run set up front and merge can
    // report coverage holes before emitting a byte.  read_payload()
    // re-verifies on use (defense in depth); both passes together are
    // seconds of I/O against hours of simulation for the grids that
    // matter.
    payload.resize(record.payload_size);
    data.read_at(record.payload_offset, payload.data(), payload.size());
    entry.payload_ok = crc32c(payload) == record.payload_crc;

    index.entries.push_back(entry);
    index.valid_journal_bytes += Journal::kRecordSize;
    if (entry.payload_offset + entry.payload_size > index.valid_data_bytes) {
      index.valid_data_bytes = entry.payload_offset + entry.payload_size;
    }
  }
  return index;
}

void require_field(const std::string& path, const char* field,
                   std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    bad_journal(path, std::string("was written for a different sweep (") +
                          field + " " + std::to_string(got) + ", expected " +
                          std::to_string(want) + ")");
  }
}

}  // namespace

std::string journal_data_path(const std::string& path) {
  return path + ".data";
}

// -------------------------------------------------- payload serialization ----

std::string serialize_run_result(const core::RunResult& result,
                                 std::uint64_t cell_hash) {
  std::string out;
  const auto put_u32 = [&out](std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto put_u64 = [&out](std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };

  put_u64(static_cast<std::uint64_t>(result.runtime));
  put_u32(static_cast<std::uint32_t>(result.thread_finish.size()));
  for (const Tick t : result.thread_finish) {
    put_u64(static_cast<std::uint64_t>(t));
  }
  const auto& stats = result.stats.values();
  put_u32(static_cast<std::uint32_t>(stats.size()));
  for (const auto& [name, value] : stats) {
    put_u32(static_cast<std::uint32_t>(name.size()));
    out.append(name);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    put_u64(bits);
  }
  // Trailing optional section (backward compatible: absent in journals
  // written before it existed, and the reader treats end-of-payload here
  // as "not recorded").  Extend only by appending.
  put_u64(result.wall_ns);
  put_u64(cell_hash);
  // Profile histograms (RunOptions::profile), sparse-encoded.  Emitted
  // only when profiling ran, so default journals end at the cell hash and
  // stay byte-identical across the flag — and resume-compatible with
  // readers that predate this section.
  if (!result.profile.empty()) {
    put_u32(static_cast<std::uint32_t>(result.profile.size()));
    for (const auto& [name, hist] : result.profile) {
      put_u32(static_cast<std::uint32_t>(name.size()));
      out.append(name);
      put_u64(hist.max());
      std::uint32_t nonzero = 0;
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        if (hist.buckets()[static_cast<std::size_t>(b)] != 0) ++nonzero;
      }
      put_u32(nonzero);
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        const std::uint64_t n = hist.buckets()[static_cast<std::size_t>(b)];
        if (n == 0) continue;
        put_u32(static_cast<std::uint32_t>(b));
        put_u64(n);
      }
    }
  }
  return out;
}

core::RunResult deserialize_run_result(const void* data, std::size_t size,
                                       std::uint64_t* cell_hash) {
  const auto* bytes = static_cast<const char*>(data);
  std::size_t pos = 0;
  const auto need = [&](std::size_t n) {
    if (size - pos < n) {
      throw std::runtime_error("journal payload truncated");
    }
  };
  const auto get_u32 = [&]() {
    need(4);
    std::uint32_t v = 0;
    std::memcpy(&v, bytes + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };
  const auto get_u64 = [&]() {
    need(8);
    std::uint64_t v = 0;
    std::memcpy(&v, bytes + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };

  core::RunResult result;
  result.runtime = static_cast<Tick>(get_u64());
  const std::uint32_t finish_count = get_u32();
  result.thread_finish.reserve(finish_count);
  for (std::uint32_t i = 0; i < finish_count; ++i) {
    result.thread_finish.push_back(static_cast<Tick>(get_u64()));
  }
  const std::uint32_t stat_count = get_u32();
  for (std::uint32_t i = 0; i < stat_count; ++i) {
    const std::uint32_t len = get_u32();
    need(len);
    std::string name(bytes + pos, len);
    pos += len;
    const std::uint64_t value_bits = get_u64();
    double value = 0.0;
    std::memcpy(&value, &value_bits, sizeof(value));
    result.stats.set(name, value);
  }
  // Optional trailing sections, in append order (pre-wall_ns journals end
  // before the first; pre-cell-hash journals before the second; journals
  // without profiling before the third).
  if (pos < size) result.wall_ns = get_u64();
  std::uint64_t stored_cell_hash = 0;
  if (pos < size) stored_cell_hash = get_u64();
  if (cell_hash != nullptr) *cell_hash = stored_cell_hash;
  if (pos < size) {
    const std::uint32_t hist_count = get_u32();
    for (std::uint32_t h = 0; h < hist_count; ++h) {
      const std::uint32_t len = get_u32();
      need(len);
      std::string name(bytes + pos, len);
      pos += len;
      Histogram& hist = result.profile[name];
      const std::uint64_t max_value = get_u64();
      const std::uint32_t nonzero = get_u32();
      for (std::uint32_t i = 0; i < nonzero; ++i) {
        const std::uint32_t bucket = get_u32();
        if (bucket >= static_cast<std::uint32_t>(Histogram::kBuckets)) {
          throw std::runtime_error("journal payload has a bad histogram");
        }
        hist.add_bucket(static_cast<int>(bucket), get_u64());
      }
      hist.note_max(max_value);
    }
  }
  if (pos != size) {
    throw std::runtime_error("journal payload has trailing bytes");
  }
  return result;
}

std::string serialize_failure(const FailureRecord& failure) {
  std::string out;
  const auto put_u32 = [&out](std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(failure.attempts);
  put_u32(static_cast<std::uint32_t>(failure.error.size()));
  out.append(failure.error);
  return out;
}

FailureRecord deserialize_failure(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  if (size < 8) throw std::runtime_error("journal failure payload truncated");
  FailureRecord failure;
  std::uint32_t len = 0;
  std::memcpy(&failure.attempts, bytes, 4);
  std::memcpy(&len, bytes + 4, 4);
  if (size != 8 + static_cast<std::size_t>(len)) {
    throw std::runtime_error("journal failure payload has a bad length");
  }
  failure.error.assign(bytes + 8, len);
  return failure;
}

// ----------------------------------------------------------------- Journal ----

Journal Journal::create(const std::string& path, const JournalMeta& meta) {
  // The journal appears only by a rename of a complete header, after its
  // data file exists: no crash can leave one that a resume cannot open.
  Journal j;
  j.data_ = File(journal_data_path(path), File::Mode::kCreate);
  const RawHeader header = header_for(meta);
  const std::string tmp = path + ".tmp";
  write_file_durable(
      tmp, std::string(reinterpret_cast<const char*>(&header), sizeof(header)));
  rename_durable(tmp, path);
  j.journal_ = File(path, File::Mode::kReadWrite);

  j.index_.meta = meta;
  j.index_.valid_journal_bytes = kHeaderSize;
  j.journal_end_ = kHeaderSize;
  j.data_end_ = 0;
  j.writable_ = true;
  return j;
}

Journal Journal::open_append(const std::string& path,
                             const JournalMeta& expected) {
  Journal j;
  j.journal_ = File(path, File::Mode::kReadWrite);
  j.data_ = File(journal_data_path(path), File::Mode::kReadWrite);
  j.index_ = scan(j.journal_, j.data_);

  // Shape and shard are structural — a journal whose job indices mean a
  // different grid cannot be reinterpreted, only replaced.
  const JournalMeta& meta = j.index_.meta;
  require_field(path, "job count", meta.job_count, expected.job_count);
  require_field(path, "shard index", meta.shard_index, expected.shard_index);
  require_field(path, "shard count", meta.shard_count, expected.shard_count);

  // Drop the torn tail (stray bytes and CRC-failed records) so appends
  // start from a clean boundary.
  j.journal_.truncate(j.index_.valid_journal_bytes);
  j.data_.truncate(j.index_.valid_data_bytes);
  j.journal_end_ = j.index_.valid_journal_bytes;
  j.data_end_ = j.index_.valid_data_bytes;
  j.writable_ = true;

  // Rebind the header to the new identity, durably, before any append:
  // from here on the journal IS the new sweep's journal (a crash between
  // the rewrite and the first append leaves a valid rebound journal whose
  // stale records the next open filters again).
  if (meta.spec_hash != expected.spec_hash ||
      meta.base_seed != expected.base_seed) {
    const RawHeader header = header_for(expected);
    j.journal_.write_at(0, &header, sizeof(header));
    j.journal_.sync();
    j.index_.meta = expected;
  }
  return j;
}

Journal Journal::open_read(const std::string& path) {
  Journal j;
  j.journal_ = File(path, File::Mode::kRead);
  j.data_ = File(journal_data_path(path), File::Mode::kRead);
  j.index_ = scan(j.journal_, j.data_);
  j.journal_end_ = j.index_.valid_journal_bytes;
  j.data_end_ = j.index_.valid_data_bytes;
  return j;
}

void Journal::append_record(std::uint64_t job_index, std::uint64_t seed,
                            const std::string& payload, std::uint32_t flags) {
  OBS_SPAN_N("journal.append", "journal", job_index);
  if (!writable_) {
    throw std::logic_error("journal " + journal_.path() + " is read-only");
  }
  failpoint::inject("journal.append", [&] {
    return "journal " + journal_.path() + ": append of job " +
           std::to_string(job_index);
  });

  RawRecord record;
  record.job_index = job_index;
  record.seed = seed;
  record.payload_offset = data_end_;
  record.payload_size = static_cast<std::uint32_t>(payload.size());
  record.payload_crc = crc32c(payload);
  record.flags = flags;
  record.record_crc = record_crc(record);

  // Payload first, record second: a record that exists always points at
  // bytes that were at least written (the CRC catches the not-yet-durable
  // window after a crash).
  data_.write_at(data_end_, payload.data(), payload.size());
  journal_.write_at(journal_end_, &record, sizeof(record));
  data_end_ += payload.size();
  journal_end_ += kRecordSize;

  JournalEntry entry;
  entry.job_index = job_index;
  entry.seed = seed;
  entry.payload_offset = record.payload_offset;
  entry.payload_size = record.payload_size;
  entry.payload_crc = record.payload_crc;
  entry.payload_ok = true;
  entry.failed = (flags & kFlagFailed) != 0;
  index_.entries.push_back(entry);
  index_.valid_journal_bytes = journal_end_;
  index_.valid_data_bytes = data_end_;

  if (++unsynced_appends_ >= kSyncBatch) sync();
}

void Journal::append(std::uint64_t job_index, std::uint64_t seed,
                     const core::RunResult& result, std::uint64_t cell_hash) {
  append_record(job_index, seed, serialize_run_result(result, cell_hash), 0);
}

void Journal::append_failed(std::uint64_t job_index, std::uint64_t seed,
                            const FailureRecord& failure) {
  append_record(job_index, seed, serialize_failure(failure), kFlagFailed);
}

std::string Journal::verified_payload(const JournalEntry& entry) const {
  failpoint::inject("journal.read_payload", [&] {
    return "journal " + journal_.path() + ": payload read for job " +
           std::to_string(entry.job_index);
  });
  std::string payload(entry.payload_size, '\0');
  data_.read_at(entry.payload_offset, payload.data(), payload.size());
  if (crc32c(payload) != entry.payload_crc) {
    bad_journal(journal_.path(),
                "payload checksum mismatch for job " +
                    std::to_string(entry.job_index));
  }
  return payload;
}

core::RunResult Journal::read_payload(const JournalEntry& entry,
                                      std::uint64_t* cell_hash) const {
  if (entry.failed) {
    throw std::logic_error("journal " + journal_.path() + ": job " +
                           std::to_string(entry.job_index) +
                           " is a quarantine record (use read_failure)");
  }
  const std::string payload = verified_payload(entry);
  return deserialize_run_result(payload.data(), payload.size(), cell_hash);
}

FailureRecord Journal::read_failure(const JournalEntry& entry) const {
  if (!entry.failed) {
    throw std::logic_error("journal " + journal_.path() + ": job " +
                           std::to_string(entry.job_index) +
                           " is a result record (use read_payload)");
  }
  const std::string payload = verified_payload(entry);
  return deserialize_failure(payload.data(), payload.size());
}

void Journal::sync() {
  if (!writable_ || unsynced_appends_ == 0) return;
  OBS_SPAN("journal.fsync", "journal");
  failpoint::inject("journal.fsync",
                    [&] { return "journal " + journal_.path() + ": sync"; });
  data_.sync();     // Payloads reach the disk before the records that
  journal_.sync();  // reference them.
  unsynced_appends_ = 0;
}

void Journal::close() {
  if (journal_.is_open()) {
    sync();
    journal_.close();
  }
  if (data_.is_open()) data_.close();
}

}  // namespace allarm::runner
