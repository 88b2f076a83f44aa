#include "trace/record.hh"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace allarm::trace {

namespace {

/// Number of rng draws separating two generator states: steps `before`
/// forward until it matches `after`.  The draw count per access is small
/// (a Mix pick plus a child's one or two draws, with rare Lemire
/// rejections), so the walk is a handful of state comparisons.
std::uint32_t count_draws(Rng probe, const Rng& after) {
  constexpr std::uint32_t kMaxDraws = 65536;
  std::uint32_t draws = 0;
  while (probe != after) {
    probe.next();
    if (++draws > kMaxDraws) {
      throw std::runtime_error(
          "trace capture: generator consumed an implausible number of rng "
          "draws for one access");
    }
  }
  return draws;
}

/// Records every access its inner generator returns, with the rng draws
/// the generation consumed: the count TraceReplayGenerator burns on replay.
class RecordingGenerator final : public workload::AccessGenerator {
 public:
  RecordingGenerator(std::unique_ptr<workload::AccessGenerator> inner,
                     TraceWriter* writer, std::uint32_t slot)
      : inner_(std::move(inner)), writer_(writer), slot_(slot) {}

  workload::Access next(Rng& rng, Tick now) override {
    const Rng before = rng;
    const workload::Access access = inner_->next(rng, now);
    writer_->record(slot_, access, count_draws(before, rng));
    return access;
  }

 private:
  std::unique_ptr<workload::AccessGenerator> inner_;
  TraceWriter* writer_;
  std::uint32_t slot_;
};

}  // namespace

workload::WorkloadSpec record_workload(const workload::WorkloadSpec& spec,
                                       TraceWriter& writer) {
  workload::WorkloadSpec recorded = spec;
  writer.meta().workload = spec.name;
  for (workload::ThreadSpec& ts : recorded.threads) {
    TraceThreadMeta meta;
    meta.id = ts.id;
    meta.asid = ts.asid;
    meta.node = ts.node;
    meta.accesses = ts.accesses;
    meta.warmup_accesses = ts.warmup_accesses;
    meta.think = ts.think;
    meta.think_jitter = ts.think_jitter;
    meta.start_offset = ts.start_offset;
    const std::uint32_t slot = writer.add_thread(meta);
    ts.make_generator = [inner = std::move(ts.make_generator), w = &writer,
                         slot] {
      return std::make_unique<RecordingGenerator>(inner(), w, slot);
    };
  }
  // Replaying the setup phase's first-touch placements, in order,
  // reproduces the page homes (and the interleave policy's allocation
  // counter) exactly.
  if (spec.setup) {
    recorded.setup = [inner = spec.setup, w = &writer](numa::Os& os) {
      os.set_touch_observer(
          [](void* ctx, AddressSpaceId asid, PageNum vpage, NodeId node) {
            static_cast<std::vector<SetupTouch>*>(ctx)->push_back(
                SetupTouch{asid, vpage, node});
          },
          &w->meta().setup);
      inner(os);
      os.set_touch_observer(nullptr, nullptr);
    };
  }
  return recorded;
}

}  // namespace allarm::trace
