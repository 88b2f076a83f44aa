// Pins the .altr on-disk trace format and the trace subsystem's
// contracts: golden bytes (any layout/codec drift fails loudly here, not
// in a user's trace archive), writer/reader round trips, CRC corruption
// detection and verification, and TraceReplayGenerator's allocation-free
// streaming through next().
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fileio.hh"
#include "common/rng.hh"
#include "counting_new.hh"
#include "trace/convert.hh"
#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"

namespace allarm::trace {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + "/allarm_trace_" + name + ".altr";
}

std::string hex_of(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (const unsigned char c : bytes) {
    hex.push_back(digits[c >> 4]);
    hex.push_back(digits[c & 0xF]);
  }
  return hex;
}

/// The golden trace: two threads, block payloads capped at 16 bytes so
/// thread 0 spans two blocks, one setup touch, every metadata field
/// non-trivial.  Any change to its bytes is a format change.
void write_golden(const std::string& path) {
  TraceWriter writer(path, /*block_payload_bytes=*/16);
  writer.meta().workload = "golden";
  writer.meta().seed = 7;
  writer.meta().directory_mode = 1;
  writer.meta().alloc_policy = 0;
  writer.meta().setup = {SetupTouch{0, 0x40000, 2}, SetupTouch{1, 0x3FFF0, 5}};

  TraceThreadMeta t0;
  t0.id = 0;
  t0.asid = 0;
  t0.node = 0;
  t0.accesses = 5;
  t0.warmup_accesses = 0;
  t0.think = 2000;
  t0.think_jitter = 0.25;
  const std::uint32_t slot0 = writer.add_thread(t0);

  TraceThreadMeta t1;
  t1.id = 9;
  t1.asid = 1;
  t1.node = 3;
  t1.accesses = 1;
  t1.think = 0;
  t1.start_offset = 3000;
  const std::uint32_t slot1 = writer.add_thread(t1);

  using workload::Access;
  writer.record(slot0, Access{0x40000000, AccessType::kLoad}, 0);
  writer.record(slot0, Access{0x40000040, AccessType::kStore}, 2);
  writer.record(slot0, Access{0x3FFFFFC0, AccessType::kLoad}, 1);
  writer.record(slot1, Access{0xdeadbeef, AccessType::kInstFetch}, 0);
  writer.record(slot0, Access{0x40000000, AccessType::kStore}, 3);
  writer.record(slot0, Access{0x40000100, AccessType::kLoad}, 0);
  writer.finish();
}

TEST(TraceFormat, LayoutConstants) {
  EXPECT_EQ(sizeof(FileHeader), 16u);
  EXPECT_EQ(sizeof(BlockHeader), 32u);
  EXPECT_EQ(sizeof(IndexEntry), 24u);
  EXPECT_EQ(sizeof(Footer), 64u);
  // "ALTRHDR1" / "ALTRFTR1" little-endian.
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(&kFileMagic), 8),
            "ALTRHDR1");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(&kFooterMagic), 8),
            "ALTRFTR1");
}

TEST(TraceFormat, GoldenBytes) {
  const std::string path = temp_path("golden");
  write_golden(path);
  const std::string bytes = read_file(path);
  const std::string kGoldenHex =
      "414c54524844523101000000a16480ce02000000000000000400000013000000"
      "0000000000000000a0680a5da2cc76a1008080808008000180010200ff010101"
      "80010302000000000000000100000007000000040000000000000093cb426dd9"
      "1d11d00080848080080002000000010000000100000007000000000000000000"
      "00005e3064c2e2557be302defbedea1b00010000000000000000000000960000"
      "000000000000000000a6f0170eddd98fa006000000676f6c64656e0700000000"
      "0000000100000000000000020000000000000000000000000000000500000000"
      "0000000000000000000000d007000000000000000000000000d03f0000000000"
      "0000000900000001000000030000000100000000000000000000000000000000"
      "000000000000000000000000000000b80b000000000000020000000000000000"
      "0280802001051f10000000000000000000000000000000000000000400000043"
      "00000000000000040000000000000000000000010000006a0000000000000000"
      "000000000000000100000001000000414c545246545231010000000200000006"
      "0000000000000003000000000000004701000000000000910000000000000000"
      "000000000000009caff1cc6da8795b";
  EXPECT_EQ(hex_of(bytes), kGoldenHex)
      << "the .altr on-disk format changed; if that is intentional, bump "
         "kFormatVersion and re-pin this vector";
  std::remove(path.c_str());
}

TEST(TraceFormat, ZigzagRoundTrips) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{63},
        std::int64_t{-64}, std::int64_t{1} << 40, -(std::int64_t{1} << 40),
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
}

TEST(TraceFormat, RecordCodecHandlesExtremeDeltas) {
  // Deltas straddling 2^63 (legal: vaddr is a full u64) must round-trip
  // via wrapping arithmetic, not signed overflow.
  const Addr extremes[] = {0x0,
                           0x1,
                           0x8000000000000000ull,
                           0xFFFFFFFFFFFFFFFFull,
                           0x1,
                           0x7FFFFFFFFFFFFFFFull,
                           0x8000000000000001ull};
  std::string payload;
  Addr prev = 0;
  for (const Addr vaddr : extremes) {
    Record r;
    r.access.vaddr = vaddr;
    r.access.type = AccessType::kStore;
    r.rng_draws = 1;
    encode_record(payload, r, prev);
    prev = vaddr;
  }
  Decoder in{reinterpret_cast<const unsigned char*>(payload.data()),
             payload.size(), 0};
  prev = 0;
  for (const Addr vaddr : extremes) {
    const Record r = decode_record(in, prev);
    EXPECT_EQ(r.access.vaddr, vaddr);
  }
  EXPECT_TRUE(in.done());
}

TEST(TraceFormat, MetaEncodeDecodeRoundTrips) {
  TraceMeta meta;
  meta.workload = "round-trip";
  meta.seed = 0xFEEDFACE12345678ull;
  meta.directory_mode = 1;
  meta.alloc_policy = 1;
  TraceThreadMeta t;
  t.id = 42;
  t.asid = 3;
  t.node = 15;
  t.accesses = 1u << 20;
  t.warmup_accesses = 12345;
  t.think = ticks_from_ns(1.5);
  t.think_jitter = 0.3;
  t.start_offset = 9000;
  meta.threads.push_back(t);
  meta.setup = {SetupTouch{0, 1000, 1}, SetupTouch{0, 10, 2},  // Negative delta.
                SetupTouch{0xFFFFFFFFu, 0xFFFFFFFFFFFull, 15}};

  const std::string encoded = encode_meta(meta);
  const TraceMeta decoded = decode_meta(encoded.data(), encoded.size());
  EXPECT_EQ(decoded.workload, meta.workload);
  EXPECT_EQ(decoded.seed, meta.seed);
  EXPECT_EQ(decoded.directory_mode, meta.directory_mode);
  EXPECT_EQ(decoded.alloc_policy, meta.alloc_policy);
  ASSERT_EQ(decoded.threads.size(), 1u);
  EXPECT_EQ(decoded.threads[0].id, t.id);
  EXPECT_EQ(decoded.threads[0].asid, t.asid);
  EXPECT_EQ(decoded.threads[0].node, t.node);
  EXPECT_EQ(decoded.threads[0].accesses, t.accesses);
  EXPECT_EQ(decoded.threads[0].warmup_accesses, t.warmup_accesses);
  EXPECT_EQ(decoded.threads[0].think, t.think);
  EXPECT_DOUBLE_EQ(decoded.threads[0].think_jitter, t.think_jitter);
  EXPECT_EQ(decoded.threads[0].start_offset, t.start_offset);
  ASSERT_EQ(decoded.setup.size(), 3u);
  for (std::size_t i = 0; i < meta.setup.size(); ++i) {
    EXPECT_EQ(decoded.setup[i].asid, meta.setup[i].asid);
    EXPECT_EQ(decoded.setup[i].vpage, meta.setup[i].vpage);
    EXPECT_EQ(decoded.setup[i].node, meta.setup[i].node);
  }
  // Truncations and trailing garbage are loud.
  EXPECT_THROW(decode_meta(encoded.data(), encoded.size() - 1),
               std::runtime_error);
  const std::string padded = encoded + "x";
  EXPECT_THROW(decode_meta(padded.data(), padded.size()), std::runtime_error);
}

/// Deterministic pseudo-random record stream for round-trip tests.
std::vector<Record> make_records(std::uint64_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> records;
  records.reserve(count);
  Addr addr = 0x1000;
  for (std::uint64_t i = 0; i < count; ++i) {
    Record r;
    // Mix small strides, large jumps and backward deltas.
    switch (rng.below(4)) {
      case 0: addr += kLineBytes; break;
      case 1: addr += rng.below(1u << 20); break;
      case 2: addr = addr > (1u << 22) ? addr - (1u << 22) : 0x1000; break;
      case 3: addr = 0x7f00000000ull + rng.below(1u << 24); break;
    }
    r.access.vaddr = addr;
    r.access.type = static_cast<AccessType>(rng.below(3));
    r.rng_draws = static_cast<std::uint32_t>(rng.below(5));
    records.push_back(r);
  }
  return records;
}

TEST(TraceFormat, WriterReaderRoundTripsAcrossBlocks) {
  const std::string path = temp_path("roundtrip");
  const std::vector<Record> t0 = make_records(2000, 1);
  const std::vector<Record> t1 = make_records(371, 2);
  {
    TraceWriter writer(path, /*block_payload_bytes=*/256);
    writer.meta().workload = "rt";
    TraceThreadMeta a;
    a.id = 0;
    a.accesses = t0.size();
    TraceThreadMeta b;
    b.id = 1;
    b.accesses = t1.size();
    const std::uint32_t s0 = writer.add_thread(a);
    const std::uint32_t s1 = writer.add_thread(b);
    // Interleave the streams; per-thread order is what must survive.
    std::size_t i0 = 0, i1 = 0;
    Rng rng(3);
    while (i0 < t0.size() || i1 < t1.size()) {
      if (i1 >= t1.size() || (i0 < t0.size() && rng.chance(0.8))) {
        writer.record(s0, t0[i0].access, t0[i0].rng_draws);
        ++i0;
      } else {
        writer.record(s1, t1[i1].access, t1[i1].rng_draws);
        ++i1;
      }
    }
    EXPECT_EQ(writer.thread_records(s0), t0.size());
    writer.finish();
  }

  auto reader = std::make_shared<TraceReader>(path);
  EXPECT_EQ(reader->meta().workload, "rt");
  ASSERT_EQ(reader->thread_count(), 2u);
  EXPECT_EQ(reader->total_records(), t0.size() + t1.size());
  EXPECT_EQ(reader->thread_records(0), t0.size());
  EXPECT_EQ(reader->thread_records(1), t1.size());
  EXPECT_GT(reader->thread_blocks(0).size(), 10u) << "blocks did not split";

  for (std::uint32_t slot = 0; slot < 2; ++slot) {
    const std::vector<Record>& expected = slot == 0 ? t0 : t1;
    TraceCursor cursor(*reader, slot);
    Record r;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(cursor.next(r)) << "stream ended early at " << i;
      ASSERT_EQ(r.access.vaddr, expected[i].access.vaddr) << "record " << i;
      ASSERT_EQ(r.access.type, expected[i].access.type) << "record " << i;
      ASSERT_EQ(r.rng_draws, expected[i].rng_draws) << "record " << i;
    }
    EXPECT_FALSE(cursor.next(r));
  }
  std::remove(path.c_str());
}

TEST(TraceFormat, DetectsCorruption) {
  const std::string path = temp_path("corrupt");
  write_golden(path);
  const std::string pristine = read_file(path);

  const auto rewrite = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
  };
  const auto with_flipped_byte = [&](std::size_t offset) {
    std::string bytes = pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    rewrite(bytes);
  };

  IndexEntry block0;
  {
    TraceReader probe(path);
    block0 = probe.blocks().at(0);
  }

  // A flipped byte inside a record block's payload: the framing still
  // parses, but loading that block fails its payload CRC — at the block
  // that suffered it, as a loud error, never as garbage records.
  {
    with_flipped_byte(block0.offset + sizeof(BlockHeader));
    TraceReader reader(path);
    std::string payload;
    EXPECT_THROW(reader.load_block(reader.blocks().at(0), payload),
                 std::runtime_error);
    TraceCursor cursor(reader, block0.thread_slot);
    Record r;
    EXPECT_THROW(cursor.next(r), std::runtime_error);
  }

  // A flipped byte in the block header fails the header CRC.
  {
    with_flipped_byte(block0.offset + offsetof(BlockHeader, record_count));
    TraceReader reader(path);
    std::string payload;
    EXPECT_THROW(reader.load_block(reader.blocks().at(0), payload),
                 std::runtime_error);
  }

  // Damage to the footer, the block index, or the file header is caught
  // at open.
  with_flipped_byte(pristine.size() - 6);  // Inside the footer CRC region.
  EXPECT_THROW(TraceReader bad_footer(path), std::runtime_error);
  with_flipped_byte(pristine.size() - sizeof(Footer) - 4);  // Index bytes.
  EXPECT_THROW(TraceReader bad_index(path), std::runtime_error);
  with_flipped_byte(2);  // File header magic.
  EXPECT_THROW(TraceReader bad_header(path), std::runtime_error);

  // A torn capture (writer never reached finish(): no footer) is refused.
  rewrite(pristine.substr(0, pristine.size() - sizeof(Footer)));
  EXPECT_THROW(TraceReader torn(path), std::runtime_error);

  // And the pristine bytes still read fine.
  rewrite(pristine);
  EXPECT_NO_THROW(TraceReader ok(path));
  std::remove(path.c_str());
}

TEST(TraceFormat, VerifyScansEveryBlockWithoutStoppingAtTheFirstBadOne) {
  const std::string path = temp_path("verify");
  write_golden(path);
  const std::string pristine = read_file(path);

  const auto rewrite = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
  };

  // Pristine: clean bill of health, every record counted.
  const VerifyReport clean = verify_trace(path);
  EXPECT_TRUE(clean.ok());
  EXPECT_TRUE(clean.framing_ok);
  EXPECT_EQ(clean.blocks_total, 3u);  // Thread 0 spans two blocks + one more.
  EXPECT_EQ(clean.blocks_ok, clean.blocks_total);
  EXPECT_EQ(clean.records_ok, 6u);
  EXPECT_TRUE(clean.issues.empty());

  // Rot the payloads of the FIRST TWO blocks: verify must report both
  // (not stop at the first) and still count the intact third block.
  IndexEntry block0, block1;
  {
    TraceReader probe(path);
    block0 = probe.blocks().at(0);
    block1 = probe.blocks().at(1);
  }
  std::string bytes = pristine;
  bytes[block0.offset + sizeof(BlockHeader)] ^= 0x40;
  bytes[block1.offset + sizeof(BlockHeader)] ^= 0x40;
  rewrite(bytes);
  const VerifyReport rotten = verify_trace(path);
  EXPECT_FALSE(rotten.ok());
  EXPECT_TRUE(rotten.framing_ok);  // Framing is intact, payloads are not.
  EXPECT_EQ(rotten.blocks_total, 3u);
  EXPECT_EQ(rotten.blocks_ok, 1u);
  ASSERT_EQ(rotten.issues.size(), 2u);
  EXPECT_EQ(rotten.issues[0].offset, block0.offset);
  EXPECT_EQ(rotten.issues[1].offset, block1.offset);

  // A torn capture (no footer): framing is gone, but the sequential
  // fallback walk still credits the intact leading blocks.
  rewrite(pristine.substr(0, pristine.size() - sizeof(Footer)));
  const VerifyReport torn = verify_trace(path);
  EXPECT_FALSE(torn.ok());
  EXPECT_FALSE(torn.framing_ok);
  EXPECT_GT(torn.blocks_ok, 0u);
  EXPECT_GT(torn.records_ok, 0u);
  EXPECT_FALSE(torn.issues.empty());

  // Only real I/O errors throw; a missing file is one.
  std::remove(path.c_str());
  EXPECT_THROW(verify_trace(path), std::runtime_error);
}

// ----------------------------------------------------- TraceReplayGenerator ----

/// Writes `records` as a single-thread trace and returns a shared reader.
std::shared_ptr<const TraceReader> single_thread_trace(
    const std::string& path, const std::vector<Record>& records,
    std::uint32_t block_payload_bytes) {
  TraceWriter writer(path, block_payload_bytes);
  writer.meta().workload = "replay-test";
  TraceThreadMeta t;
  t.id = 0;
  t.accesses = records.size();
  const std::uint32_t slot = writer.add_thread(t);
  for (const Record& r : records) writer.record(slot, r.access, r.rng_draws);
  writer.finish();
  return std::make_shared<const TraceReader>(path);
}

TEST(TraceReplay, SteadyStateStreamingIsAllocationFree) {
  const std::string path = temp_path("alloc");
  const std::vector<Record> records = make_records(4096, 8);
  auto reader = single_thread_trace(path, records, 1024);
  const std::vector<IndexEntry>& blocks = reader->thread_blocks(0);
  ASSERT_GT(blocks.size(), 8u) << "trace did not split into many blocks";

  // The cursor's payload buffer grows only until it has held the largest
  // block, so warm up through the end of that block and measure the rest.
  std::size_t largest = 0;
  std::size_t largest_bytes = 0;
  std::string payload;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    reader->load_block(blocks[b], payload);
    if (payload.size() > largest_bytes) {
      largest = b;
      largest_bytes = payload.size();
    }
  }
  const std::uint64_t warm =
      blocks[largest].first_index + blocks[largest].record_count;
  ASSERT_LT(warm, records.size() / 2)
      << "largest block leaves too short a measured stream";

  TraceReplayGenerator gen(reader, 0);
  Rng rng(2);
  std::uint64_t i = 0;
  for (; i < warm; ++i) gen.next(rng, 0);

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (; i < records.size(); ++i) {
    const workload::Access a = gen.next(rng, 0);
    ASSERT_EQ(a.vaddr, records[i].access.vaddr) << "record " << i;
    ASSERT_EQ(a.type, records[i].access.type) << "record " << i;
  }
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(news_after - news_before, 0u)
      << "trace replay allocated on the steady-state streaming path";

  // Every record burned exactly its captured draw count.
  Rng expected(2);
  for (const Record& r : records) {
    for (std::uint32_t d = 0; d < r.rng_draws; ++d) expected.next();
  }
  EXPECT_TRUE(rng == expected) << "replay burned the wrong number of draws";

  // Running past the end of the trace is a loud logic error.
  EXPECT_THROW(gen.next(rng, 0), std::logic_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace allarm::trace
