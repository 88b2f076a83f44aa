#include "trace/reader.hh"

#include <memory>
#include <stdexcept>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "obs/timeline.hh"

namespace allarm::trace {

namespace {

[[noreturn]] void bad_trace(const std::string& path, const std::string& why) {
  throw std::runtime_error("trace " + path + ": " + why);
}

}  // namespace

TraceReader::TraceReader(const std::string& path)
    : file_(path, File::Mode::kRead), file_size_(file_.size()) {
  const std::uint64_t size = file_size_;
  if (size < sizeof(FileHeader) + sizeof(Footer)) {
    bad_trace(path, "file too short for header + footer");
  }

  FileHeader header;
  file_.read_at(0, &header, sizeof(header));
  if (header.magic != kFileMagic) bad_trace(path, "bad magic");
  if (header.version != kFormatVersion) {
    bad_trace(path, "unsupported version " + std::to_string(header.version));
  }
  if (header.header_crc != crc32c(&header, offsetof(FileHeader, header_crc))) {
    bad_trace(path, "file header checksum mismatch");
  }

  Footer footer;
  file_.read_at(size - sizeof(Footer), &footer, sizeof(footer));
  if (footer.magic != kFooterMagic) {
    bad_trace(path, "missing footer (torn capture? the writer never "
                    "reached finish())");
  }
  if (footer.version != kFormatVersion) {
    bad_trace(path,
              "unsupported footer version " + std::to_string(footer.version));
  }
  if (footer.footer_crc != crc32c(&footer, offsetof(Footer, footer_crc))) {
    bad_trace(path, "footer checksum mismatch");
  }
  // Validate the counted sizes BEFORE doing arithmetic or allocation with
  // them: a crafted footer must fail here as a runtime_error, not as an
  // overflow-defeated geometry check, a length_error from resize, or a
  // multi-GiB speculative allocation.
  if (footer.block_count > size / sizeof(IndexEntry)) {
    bad_trace(path, "footer block count exceeds the file size");
  }
  const std::uint64_t index_bytes = footer.block_count * sizeof(IndexEntry);
  if (footer.index_offset + index_bytes + sizeof(Footer) != size ||
      footer.index_offset > size) {
    bad_trace(path, "footer geometry does not match the file size");
  }

  index_.resize(footer.block_count);
  file_.read_at(footer.index_offset, index_.data(), index_bytes);
  if (footer.index_crc != crc32c(index_.data(), index_bytes)) {
    bad_trace(path, "block index checksum mismatch");
  }

  // Meta block.
  if (footer.meta_offset + sizeof(BlockHeader) > size) {
    bad_trace(path, "meta block offset out of range");
  }
  BlockHeader meta_header;
  file_.read_at(footer.meta_offset, &meta_header, sizeof(meta_header));
  if (meta_header.header_crc !=
      crc32c(&meta_header, offsetof(BlockHeader, header_crc))) {
    bad_trace(path, "meta block header checksum mismatch");
  }
  if (meta_header.kind != kBlockMeta) bad_trace(path, "meta block missing");
  if (footer.meta_offset + sizeof(BlockHeader) + meta_header.payload_size >
      size) {
    bad_trace(path, "meta block payload extends past the file");
  }
  std::string meta_payload(meta_header.payload_size, '\0');
  file_.read_at(footer.meta_offset + sizeof(BlockHeader), meta_payload.data(),
                meta_payload.size());
  if (meta_header.payload_crc != crc32c(meta_payload)) {
    bad_trace(path, "meta block payload checksum mismatch");
  }
  meta_ = decode_meta(meta_payload.data(), meta_payload.size());
  if (meta_.threads.size() != footer.thread_count) {
    bad_trace(path, "thread table does not match the footer");
  }

  // Per-thread block lists and record totals.
  thread_blocks_.resize(meta_.threads.size());
  thread_records_.assign(meta_.threads.size(), 0);
  for (const IndexEntry& entry : index_) {
    if (entry.thread_slot >= meta_.threads.size()) {
      bad_trace(path, "index references an unknown thread slot");
    }
    auto& list = thread_blocks_[entry.thread_slot];
    if (entry.first_index != thread_records_[entry.thread_slot]) {
      bad_trace(path, "thread stream has a gap at block index " +
                          std::to_string(entry.first_index));
    }
    list.push_back(entry);
    thread_records_[entry.thread_slot] += entry.record_count;
    total_records_ += entry.record_count;
  }
  if (total_records_ != footer.total_records) {
    bad_trace(path, "index record count does not match the footer");
  }
}

void TraceReader::load_block(const IndexEntry& block,
                             std::string& payload) const {
  OBS_SPAN_N("trace.read", "trace", block.record_count);
  // trace.read_block failpoint: short/torn deliver a truncated payload so
  // the CRC check below fires — the exact failure a torn tail or bad
  // sector produces; delay and err act as at every whole-operation site.
  // Inactive: one predicted branch.
  std::size_t injected_want = 0;
  if (const auto hit = failpoint::check("trace.read_block")) {
    if (hit.action == failpoint::Action::kShortIo ||
        hit.action == failpoint::Action::kTornWrite) {
      injected_want = hit.arg != 0 ? static_cast<std::size_t>(hit.arg)
                                   : static_cast<std::size_t>(-1);
    } else {
      failpoint::act(hit, "trace.read_block",
                     "trace " + file_.path() + ": block at offset " +
                         std::to_string(block.offset));
    }
  }
  BlockHeader header;
  file_.read_at(block.offset, &header, sizeof(header));
  if (header.header_crc !=
      crc32c(&header, offsetof(BlockHeader, header_crc))) {
    bad_trace(file_.path(), "block header checksum mismatch at offset " +
                                std::to_string(block.offset));
  }
  if (header.kind != kBlockRecords || header.thread_slot != block.thread_slot ||
      header.record_count != block.record_count ||
      header.first_index != block.first_index) {
    bad_trace(file_.path(), "block header disagrees with the footer index "
                            "at offset " + std::to_string(block.offset));
  }
  if (block.offset + sizeof(header) + header.payload_size > file_size_) {
    bad_trace(file_.path(), "block payload extends past the file at offset " +
                                std::to_string(block.offset));
  }
  payload.resize(header.payload_size);
  std::size_t want = payload.size();
  if (injected_want != 0) {
    want = injected_want < want ? injected_want : want / 2;
  }
  file_.read_at(block.offset + sizeof(header), payload.data(), want);
  if (want != payload.size() || header.payload_crc != crc32c(payload)) {
    bad_trace(file_.path(), "block payload checksum mismatch at offset " +
                                std::to_string(block.offset));
  }
}

// -------------------------------------------------------------- verify ----

namespace {

/// Decodes all `count` records of a CRC-clean payload; throws on malformed
/// bytes (a CRC collision or an encoder bug — either way worth surfacing).
void decode_all_records(std::uint32_t count, const std::string& payload) {
  Decoder decoder{reinterpret_cast<const unsigned char*>(payload.data()),
                  payload.size(), 0};
  Addr prev_vaddr = 0;
  Record scratch;
  for (std::uint32_t i = 0; i < count; ++i) {
    scratch = decode_record(decoder, prev_vaddr);
  }
  (void)scratch;
}

}  // namespace

VerifyReport verify_trace(const std::string& path) {
  VerifyReport report;
  File file(path, File::Mode::kRead);
  report.file_bytes = file.size();

  // Framing first: a TraceReader open validates the header, footer, block
  // index and meta block in one pass.
  std::unique_ptr<TraceReader> reader;
  std::string framing_error;
  try {
    reader = std::make_unique<TraceReader>(path);
    report.framing_ok = true;
  } catch (const std::exception& e) {
    framing_error = e.what();
  }

  if (reader) {
    // Index-driven scan: every record block the footer knows about, each
    // checked independently so one bad sector reports one issue, not a
    // truncated scan.
    std::string payload;
    for (const IndexEntry& block : reader->blocks()) {
      ++report.blocks_total;
      try {
        reader->load_block(block, payload);
        decode_all_records(block.record_count, payload);
        ++report.blocks_ok;
        report.records_ok += block.record_count;
      } catch (const std::exception& e) {
        report.issues.push_back(VerifyIssue{block.offset, e.what()});
      }
    }
    return report;
  }

  // Broken framing (torn capture, corrupt footer/index): record why, then
  // walk blocks sequentially from the file header — block headers are
  // self-describing, so intact leading blocks are still counted and the
  // walk pinpoints where the file stops making sense.
  report.issues.push_back(VerifyIssue{0, framing_error});
  if (report.file_bytes < sizeof(FileHeader)) return report;
  FileHeader header;
  file.read_at(0, &header, sizeof(header));
  if (header.magic != kFileMagic ||
      header.header_crc != crc32c(&header, offsetof(FileHeader, header_crc))) {
    report.issues.push_back(
        VerifyIssue{0, "file header damaged; cannot walk blocks"});
    return report;
  }
  std::uint64_t offset = sizeof(FileHeader);
  std::string payload;
  while (offset + sizeof(BlockHeader) <= report.file_bytes) {
    BlockHeader bh;
    file.read_at(offset, &bh, sizeof(bh));
    if (bh.header_crc != crc32c(&bh, offsetof(BlockHeader, header_crc))) {
      report.issues.push_back(VerifyIssue{
          offset, "sequential walk stopped: no valid block header here "
                  "(torn tail, or damage spanning a block header)"});
      break;
    }
    const std::uint64_t payload_offset = offset + sizeof(bh);
    if (payload_offset + bh.payload_size > report.file_bytes) {
      report.issues.push_back(
          VerifyIssue{offset, "block payload extends past the file"});
      break;
    }
    payload.resize(bh.payload_size);
    file.read_at(payload_offset, payload.data(), payload.size());
    if (bh.kind == kBlockRecords) {
      ++report.blocks_total;
      if (bh.payload_crc != crc32c(payload)) {
        report.issues.push_back(
            VerifyIssue{offset, "block payload checksum mismatch"});
      } else {
        try {
          decode_all_records(bh.record_count, payload);
          ++report.blocks_ok;
          report.records_ok += bh.record_count;
        } catch (const std::exception& e) {
          report.issues.push_back(VerifyIssue{offset, e.what()});
        }
      }
    } else if (bh.kind == kBlockMeta) {
      if (bh.payload_crc != crc32c(payload)) {
        report.issues.push_back(
            VerifyIssue{offset, "meta block payload checksum mismatch"});
      }
    } else {
      report.issues.push_back(VerifyIssue{
          offset, "unknown block kind " + std::to_string(bh.kind)});
      break;
    }
    offset = payload_offset + bh.payload_size;
  }
  return report;
}

// -------------------------------------------------------------- cursor ----

TraceCursor::TraceCursor(std::shared_ptr<const TraceReader> reader,
                         std::uint32_t slot)
    : owner_(std::move(reader)),
      reader_(owner_.get()),
      blocks_(&reader_->thread_blocks(slot)),
      slot_(slot),
      size_(reader_->thread_records(slot)) {}

TraceCursor::TraceCursor(const TraceReader& reader, std::uint32_t slot)
    : reader_(&reader),
      blocks_(&reader_->thread_blocks(slot)),
      slot_(slot),
      size_(reader_->thread_records(slot)) {}

void TraceCursor::load(std::size_t block_pos) {
  const IndexEntry& block = (*blocks_)[block_pos];
  reader_->load_block(block, payload_);
  decoder_ = Decoder{reinterpret_cast<const unsigned char*>(payload_.data()),
                     payload_.size(), 0};
  prev_vaddr_ = 0;
  block_pos_ = block_pos;
  left_in_block_ = block.record_count;
  loaded_ = true;
}

bool TraceCursor::next(Record& out) {
  if (position_ >= size_) return false;
  if (!loaded_ || left_in_block_ == 0) {
    load(loaded_ ? block_pos_ + 1 : 0);
  }
  out = decode_record(decoder_, prev_vaddr_);
  --left_in_block_;
  ++position_;
  return true;
}

}  // namespace allarm::trace
