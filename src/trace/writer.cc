#include "trace/writer.hh"

#include <stdexcept>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "obs/timeline.hh"

namespace allarm::trace {

TraceWriter::TraceWriter(const std::string& path,
                         std::uint32_t block_payload_bytes, bool durable)
    : file_(path, File::Mode::kCreate),
      block_payload_bytes_(block_payload_bytes),
      durable_(durable) {
  if (block_payload_bytes_ == 0) {
    throw std::invalid_argument("TraceWriter: zero block size");
  }
  FileHeader header;
  header.header_crc = crc32c(&header, offsetof(FileHeader, header_crc));
  file_.write_at(0, &header, sizeof(header));
  end_ = sizeof(header);
}

std::uint32_t TraceWriter::add_thread(const TraceThreadMeta& thread) {
  if (finished_) throw std::logic_error("TraceWriter: already finished");
  meta_.threads.push_back(thread);
  open_.emplace_back();
  next_index_.push_back(0);
  return static_cast<std::uint32_t>(meta_.threads.size() - 1);
}

void TraceWriter::record(std::uint32_t slot, const workload::Access& access,
                         std::uint32_t rng_draws) {
  if (finished_) throw std::logic_error("TraceWriter: already finished");
  OpenBlock& block = open_.at(slot);
  Record r;
  r.access = access;
  r.rng_draws = rng_draws;
  encode_record(block.payload, r, block.prev_vaddr);
  block.prev_vaddr = access.vaddr;
  ++block.record_count;
  ++next_index_[slot];
  if (block.payload.size() >= block_payload_bytes_) flush_block(slot);
}

std::uint64_t TraceWriter::thread_records(std::uint32_t slot) const {
  return next_index_.at(slot);
}

std::uint64_t TraceWriter::write_block(std::uint32_t kind,
                                       std::uint32_t thread_slot,
                                       std::uint32_t record_count,
                                       std::uint64_t first_index,
                                       const std::string& payload) {
  failpoint::inject("trace.write_block",
                    [&] { return "trace " + file_.path(); });
  BlockHeader header;
  header.kind = kind;
  header.thread_slot = thread_slot;
  header.record_count = record_count;
  header.payload_size = static_cast<std::uint32_t>(payload.size());
  header.first_index = first_index;
  header.payload_crc = crc32c(payload);
  header.header_crc = crc32c(&header, offsetof(BlockHeader, header_crc));
  const std::uint64_t offset = end_;
  file_.write_at(end_, &header, sizeof(header));
  file_.write_at(end_ + sizeof(header), payload.data(), payload.size());
  end_ += sizeof(header) + payload.size();
  return offset;
}

void TraceWriter::flush_block(std::uint32_t slot) {
  OpenBlock& block = open_[slot];
  if (block.record_count == 0) return;
  OBS_SPAN_N("trace.flush", "trace", block.record_count);
  IndexEntry entry;
  entry.thread_slot = slot;
  entry.record_count = block.record_count;
  entry.first_index = block.first_index;
  entry.offset = write_block(kBlockRecords, slot, block.record_count,
                             block.first_index, block.payload);
  index_.push_back(entry);
  block.payload.clear();  // Keeps capacity: steady-state flushes reuse it.
  block.first_index = next_index_[slot];
  block.record_count = 0;
  block.prev_vaddr = 0;
}

void TraceWriter::finish() {
  if (finished_) throw std::logic_error("TraceWriter: finish() called twice");
  OBS_SPAN("trace.finish", "trace");
  failpoint::inject("trace.finish", [&] { return "trace " + file_.path(); });
  finished_ = true;

  // Flush in slot order so the tail blocks land deterministically.
  for (std::uint32_t slot = 0; slot < open_.size(); ++slot) {
    flush_block(slot);
  }

  const std::string meta_payload = encode_meta(meta_);
  const std::uint64_t meta_offset =
      write_block(kBlockMeta, 0, 0, 0, meta_payload);

  Footer footer;
  footer.thread_count = static_cast<std::uint32_t>(meta_.threads.size());
  for (const std::uint64_t n : next_index_) footer.total_records += n;
  footer.block_count = index_.size();
  footer.index_offset = end_;
  footer.meta_offset = meta_offset;
  footer.index_crc = crc32c(index_.data(), index_.size() * sizeof(IndexEntry));
  footer.footer_crc = crc32c(&footer, offsetof(Footer, footer_crc));

  file_.write_at(end_, index_.data(), index_.size() * sizeof(IndexEntry));
  end_ += index_.size() * sizeof(IndexEntry);
  file_.write_at(end_, &footer, sizeof(footer));
  end_ += sizeof(footer);
  if (durable_) file_.sync();
  file_.close();
}

}  // namespace allarm::trace
