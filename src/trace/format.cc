#include "trace/format.hh"

#include <cstring>

#include "common/config.hh"
#include "numa/os.hh"

namespace allarm::trace {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t get_u32(Decoder& in) {
  if (in.size - in.pos < 4) throw std::runtime_error("trace meta truncated");
  std::uint32_t v = 0;
  std::memcpy(&v, in.data + in.pos, sizeof(v));
  in.pos += sizeof(v);
  return v;
}

std::uint64_t get_u64(Decoder& in) {
  if (in.size - in.pos < 8) throw std::runtime_error("trace meta truncated");
  std::uint64_t v = 0;
  std::memcpy(&v, in.data + in.pos, sizeof(v));
  in.pos += sizeof(v);
  return v;
}

}  // namespace

std::string encode_meta(const TraceMeta& meta) {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(meta.workload.size()));
  out.append(meta.workload);
  put_u64(out, meta.seed);
  put_u32(out, meta.directory_mode);
  put_u32(out, meta.alloc_policy);

  put_u32(out, static_cast<std::uint32_t>(meta.threads.size()));
  for (const TraceThreadMeta& t : meta.threads) {
    put_u32(out, t.id);
    put_u32(out, t.asid);
    put_u32(out, t.node);
    put_u64(out, t.accesses);
    put_u64(out, t.warmup_accesses);
    put_u64(out, static_cast<std::uint64_t>(t.think));
    std::uint64_t jitter_bits = 0;
    std::memcpy(&jitter_bits, &t.think_jitter, sizeof(jitter_bits));
    put_u64(out, jitter_bits);
    put_u64(out, static_cast<std::uint64_t>(t.start_offset));
  }

  put_u64(out, meta.setup.size());
  PageNum prev_vpage = 0;
  for (const SetupTouch& touch : meta.setup) {
    put_varint(out, touch.asid);
    put_varint(out, touch.node);
    // Wrapping unsigned delta, like encode_record (signed subtraction
    // would be UB for vpages straddling 2^63).
    put_varint(out, zigzag(static_cast<std::int64_t>(touch.vpage - prev_vpage)));
    prev_vpage = touch.vpage;
  }
  return out;
}

TraceMeta decode_meta(const void* data, std::size_t size) {
  Decoder in{static_cast<const unsigned char*>(data), size, 0};
  TraceMeta meta;

  const std::uint32_t name_len = get_u32(in);
  if (in.size - in.pos < name_len) {
    throw std::runtime_error("trace meta truncated");
  }
  meta.workload.assign(reinterpret_cast<const char*>(in.data + in.pos),
                       name_len);
  in.pos += name_len;
  meta.seed = get_u64(in);
  meta.directory_mode = get_u32(in);
  if (meta.directory_mode >
      static_cast<std::uint32_t>(DirectoryMode::kRegion)) {
    throw std::runtime_error("trace meta names unknown directory mode " +
                             std::to_string(meta.directory_mode));
  }
  meta.alloc_policy = get_u32(in);
  if (meta.alloc_policy >
      static_cast<std::uint32_t>(numa::AllocPolicy::kInterleave)) {
    throw std::runtime_error("trace meta names unknown allocation policy " +
                             std::to_string(meta.alloc_policy));
  }

  const std::uint32_t thread_count = get_u32(in);
  meta.threads.reserve(thread_count);
  for (std::uint32_t i = 0; i < thread_count; ++i) {
    TraceThreadMeta t;
    t.id = get_u32(in);
    t.asid = get_u32(in);
    t.node = static_cast<NodeId>(get_u32(in));
    t.accesses = get_u64(in);
    t.warmup_accesses = get_u64(in);
    t.think = static_cast<Tick>(get_u64(in));
    const std::uint64_t jitter_bits = get_u64(in);
    std::memcpy(&t.think_jitter, &jitter_bits, sizeof(t.think_jitter));
    t.start_offset = static_cast<Tick>(get_u64(in));
    meta.threads.push_back(t);
  }

  const std::uint64_t setup_count = get_u64(in);
  meta.setup.reserve(setup_count);
  PageNum prev_vpage = 0;
  for (std::uint64_t i = 0; i < setup_count; ++i) {
    SetupTouch touch;
    touch.asid = static_cast<AddressSpaceId>(in.varint());
    touch.node = static_cast<NodeId>(in.varint());
    touch.vpage =
        prev_vpage + static_cast<PageNum>(unzigzag(in.varint()));  // Wraps.
    prev_vpage = touch.vpage;
    meta.setup.push_back(touch);
  }
  if (!in.done()) {
    throw std::runtime_error("trace meta has trailing bytes");
  }
  return meta;
}

}  // namespace allarm::trace
