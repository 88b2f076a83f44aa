// The .altr binary trace format: on-disk layout and record codec.
//
// An .altr file stores the executed access stream of one simulation run
// (or an externally captured workload) compactly enough to hold
// arbitrarily long traces, and framed so that readers never need more
// than one block of it resident:
//
//   [FileHeader 16 B]
//   [Block]*            32 B BlockHeader + varint-coded payload
//   [IndexEntry]*       24 B per record block, written at finish()
//   [Footer 64 B]       at EOF; points back at the index and meta block
//
// Every block carries a CRC32C of its payload (and of its own header), so
// corruption is detected at the block that suffered it, not as garbage
// records.  Record blocks belong to exactly one thread and reset their
// delta state at the block boundary, which makes each block independently
// decodable: the footer index (offset, first per-thread record index,
// count) locates every thread's blocks without scanning the file.
//
// Records are delta/varint coded per thread:
//
//   u8      access type (AccessType)
//   varint  zigzag(vaddr - previous vaddr in this block; first: - 0)
//   varint  rng draws the generator consumed producing this access
//
// The draw count is what makes replay byte-identical to the original
// run: burning exactly those draws keeps the thread's rng stream in
// lockstep, so downstream consumers of the same stream (think-jitter)
// see the same values at the same points.  docs/TRACES.md documents the
// full format and its guarantees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"
#include "workload/generator.hh"

namespace allarm::trace {

// ------------------------------------------------------------ constants ----

/// "ALTRHDR1" / "ALTRFTR1", little-endian.
inline constexpr std::uint64_t kFileMagic = 0x31524448'52544C41ull;
inline constexpr std::uint64_t kFooterMagic = 0x31525446'52544C41ull;
inline constexpr std::uint32_t kFormatVersion = 1;

/// Default record-block payload capacity.  Small enough that a reader's
/// per-cursor residency is negligible, large enough that framing overhead
/// (32 B header + 24 B index entry per block) stays under 0.2%.
inline constexpr std::uint32_t kDefaultBlockPayloadBytes = 48 * 1024;

/// Block kinds.
inline constexpr std::uint32_t kBlockMeta = 1;
inline constexpr std::uint32_t kBlockRecords = 2;

// ------------------------------------------------------- on-disk structs ----

// Plain structs of naturally-aligned integers, memcpy'd whole; fixed
// little-endian by fiat, like the sweep journal (runner/journal.cc).

struct FileHeader {
  std::uint64_t magic = kFileMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t header_crc = 0;  ///< CRC32C of the preceding 12 bytes.
};
static_assert(sizeof(FileHeader) == 16, "trace file header layout drifted");

struct BlockHeader {
  std::uint32_t kind = 0;         ///< kBlockMeta or kBlockRecords.
  std::uint32_t thread_slot = 0;  ///< Record blocks: index into the thread table.
  std::uint32_t record_count = 0;
  std::uint32_t payload_size = 0;
  std::uint64_t first_index = 0;  ///< Per-thread index of the first record.
  std::uint32_t payload_crc = 0;  ///< CRC32C of the payload bytes.
  std::uint32_t header_crc = 0;   ///< CRC32C of the preceding 28 bytes.
};
static_assert(sizeof(BlockHeader) == 32, "trace block header layout drifted");

struct IndexEntry {
  std::uint64_t offset = 0;       ///< File offset of the BlockHeader.
  std::uint64_t first_index = 0;  ///< == the block's first_index.
  std::uint32_t thread_slot = 0;
  std::uint32_t record_count = 0;
};
static_assert(sizeof(IndexEntry) == 24, "trace index entry layout drifted");

struct Footer {
  std::uint64_t magic = kFooterMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t thread_count = 0;
  std::uint64_t total_records = 0;
  std::uint64_t block_count = 0;   ///< Record blocks (the index length).
  std::uint64_t index_offset = 0;
  std::uint64_t meta_offset = 0;   ///< Offset of the meta block's header.
  std::uint64_t reserved = 0;
  std::uint32_t index_crc = 0;     ///< CRC32C of the index entry array.
  std::uint32_t footer_crc = 0;    ///< CRC32C of the preceding 60 bytes.
};
static_assert(sizeof(Footer) == 64, "trace footer layout drifted");

// ------------------------------------------------------------- metadata ----

/// Everything replay needs to rebuild one captured thread's ThreadSpec.
struct TraceThreadMeta {
  ThreadId id = 0;
  AddressSpaceId asid = 0;
  NodeId node = 0;
  std::uint64_t accesses = 0;         ///< Region-of-interest records.
  std::uint64_t warmup_accesses = 0;  ///< Warm-up records (precede the ROI).
  Tick think = 0;
  double think_jitter = 0.0;
  Tick start_offset = 0;
};

/// One first-touch page placement performed by the captured workload's
/// setup phase.  Replaying these touches, in order, from the recorded
/// toucher nodes reproduces the original page homes under any policy.
struct SetupTouch {
  AddressSpaceId asid = 0;
  PageNum vpage = 0;
  NodeId node = 0;
};

/// The trace's self-description, stored in the meta block.
struct TraceMeta {
  std::string workload;               ///< Captured workload's name.
  std::uint64_t seed = 0;             ///< RunOptions seed of the capture run.
  std::uint32_t directory_mode = 0;   ///< DirectoryMode of the capture run.
  std::uint32_t alloc_policy = 0;     ///< numa::AllocPolicy of the capture run.
  std::vector<TraceThreadMeta> threads;
  std::vector<SetupTouch> setup;
};

/// One decoded trace record.
struct Record {
  workload::Access access;
  std::uint32_t rng_draws = 0;
};

// ------------------------------------------------------------ the codec ----

/// LEB128 unsigned varint.
inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(0x80 | (v & 0x7F)));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Zigzag fold: small magnitudes of either sign become small varints.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Bounds-checked decode cursor over one block payload.  Overruns throw —
/// a record that reads past its block is corruption the payload CRC
/// somehow missed, never silent garbage.
struct Decoder {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  std::uint8_t byte() {
    if (pos >= size) throw std::runtime_error("trace block: truncated record");
    return static_cast<std::uint8_t>(data[pos++]);
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = byte();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw std::runtime_error("trace block: varint overflow");
  }

  bool done() const { return pos >= size; }
};

/// Appends one record to a block payload.  `prev_vaddr` is the previous
/// record's address within the same block (0 at a block boundary).  The
/// delta is computed with wrapping unsigned subtraction (signed
/// subtraction would be UB when addresses straddle 2^63) and zigzagged on
/// the resulting bit pattern — byte-identical to a signed delta wherever
/// one is representable.
inline void encode_record(std::string& out, const Record& r, Addr prev_vaddr) {
  out.push_back(static_cast<char>(r.access.type));
  put_varint(out,
             zigzag(static_cast<std::int64_t>(r.access.vaddr - prev_vaddr)));
  put_varint(out, r.rng_draws);
}

/// Inverse of encode_record; advances `in` and updates `prev_vaddr`.
inline Record decode_record(Decoder& in, Addr& prev_vaddr) {
  Record r;
  const std::uint8_t type = in.byte();
  if (type > static_cast<std::uint8_t>(AccessType::kInstFetch)) {
    throw std::runtime_error("trace block: unknown access type " +
                             std::to_string(type));
  }
  r.access.type = static_cast<AccessType>(type);
  r.access.vaddr =
      prev_vaddr + static_cast<Addr>(unzigzag(in.varint()));  // Wraps.
  const std::uint64_t draws = in.varint();
  if (draws > 0xFFFFFFFFull) {
    throw std::runtime_error("trace block: implausible rng draw count");
  }
  r.rng_draws = static_cast<std::uint32_t>(draws);
  prev_vaddr = r.access.vaddr;
  return r;
}

/// Serializes a TraceMeta into a meta-block payload.
std::string encode_meta(const TraceMeta& meta);

/// Inverse of encode_meta; throws std::runtime_error on malformed input.
TraceMeta decode_meta(const void* data, std::size_t size);

}  // namespace allarm::trace
