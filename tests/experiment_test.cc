// Tests for the experiment harness and the remaining protocol edges:
// queued writeback processing, writeback-buffer probe supply, message
// naming, and the run_single harness the examples rely on.
#include <gtest/gtest.h>

#include "coherence/messages.hh"
#include "core/experiment.hh"
#include "test_util.hh"
#include "workload/profiles.hh"

namespace allarm {
namespace {

using test::load;
using test::make_scripted;
using test::priv;
using test::run_scripted;
using test::small_config;
using test::store;

TEST(Messages, NamesAndSizes) {
  SystemConfig config;
  using coherence::MsgKind;
  EXPECT_EQ(coherence::to_string(MsgKind::kGetS), "GetS");
  EXPECT_EQ(coherence::to_string(MsgKind::kLocalProbe), "LocalProbe");
  EXPECT_TRUE(coherence::carries_data(MsgKind::kData));
  EXPECT_TRUE(coherence::carries_data(MsgKind::kPutM));
  EXPECT_FALSE(coherence::carries_data(MsgKind::kPutE));
  EXPECT_EQ(coherence::size_of(MsgKind::kGetS, config), 8u);
  EXPECT_EQ(coherence::size_of(MsgKind::kAckData, config), 72u);
  EXPECT_EQ(coherence::size_of(MsgKind::kComplete, config), 8u);
}

TEST(Experiment, RunSingleIsSelfConsistentAcrossModes) {
  SystemConfig config = small_config();
  std::vector<workload::Access> script;
  for (std::uint32_t i = 0; i < 64; ++i) script.push_back(load(priv(0, i)));
  const auto spec = make_scripted({{0, script}});
  const auto base =
      core::run_single(config, DirectoryMode::kBaseline, spec, 11);
  const auto allarm =
      core::run_single(config, DirectoryMode::kAllarm, spec, 11);
  EXPECT_GT(base.runtime, 0u);
  EXPECT_GT(allarm.runtime, 0u);
  EXPECT_GT(base.stats.get("pf.inserts"), 0.0);
  // Purely local workload: ALLARM allocates nothing.
  EXPECT_DOUBLE_EQ(allarm.stats.normalized_to(base.stats, "pf.inserts"), 0.0);
}

TEST(Protocol, WritebackBufferSuppliesDataToProbe) {
  // Core 0 dirties a big region so early lines sit in the writeback buffer
  // with PutM in flight; core 1 immediately reads one of them.  The probe
  // must be answered from the buffer (dirty data), never from stale DRAM,
  // and the racing PutM must be dropped as stale without corruption.
  std::vector<workload::Access> writer;
  for (std::uint32_t i = 0; i < 48; ++i) writer.push_back(store(priv(27, i)));
  std::vector<workload::Access> reader{load(priv(27, 0))};
  auto spec = make_scripted({
      {0, writer, 0, 0},
      {1, reader, ticks_from_ns(1200.0), 0},
  });
  auto ran = run_scripted(small_config(), DirectoryMode::kBaseline, spec, 3);
  const LineAddr line = line_of(*ran.system->os().translate(0, priv(27, 0)));
  // The reader holds a copy (Shared or better) - data flowed somewhere.
  EXPECT_TRUE(ran.system->cache(1).hierarchy().locate(line).present());
  EXPECT_EQ(ran.result.stats.get("sanity.wbb_collisions"), 0.0);
  EXPECT_EQ(ran.result.stats.get("sanity.upgrade_without_line"), 0.0);
}

TEST(Protocol, QueuedOperationsDrainInOrder) {
  // Many cores request the same line back-to-back; the per-line queue at
  // the home directory must drain them all (the run would hang otherwise)
  // and each request gets exactly one grant.
  std::vector<test::ScriptThread> threads;
  for (NodeId n = 0; n < 8; ++n) {
    threads.push_back({n,
                       {load(priv(28, 0)), store(priv(28, 0)),
                        load(priv(28, 0))},
                       ticks_from_ns(0.5) * n,
                       0});
  }
  auto ran = run_scripted(small_config(), DirectoryMode::kBaseline,
                          make_scripted(std::move(threads)), 3);
  EXPECT_GT(ran.result.stats.get("dir.queued_ops"), 0.0);
  EXPECT_NEAR(ran.result.stats.get("cache.misses"),
              ran.result.stats.get("dir.requests"), 1.0);
}

TEST(Protocol, DirectoryQuiescentAfterRun) {
  auto ran = run_scripted(
      small_config(), DirectoryMode::kAllarm,
      make_scripted({{0, {load(priv(0, 0)), store(priv(0, 1))}}}), 3);
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_TRUE(ran.system->directory(n).quiescent());
    EXPECT_FALSE(ran.system->cache(n).request_outstanding());
    EXPECT_EQ(ran.system->cache(n).writebacks_in_flight(), 0u);
  }
  EXPECT_TRUE(ran.system->quiescent());
}

TEST(Protocol, RuntimeScalesWithAccessCount) {
  SystemConfig config = small_config();
  auto make = [&](std::uint32_t n) {
    std::vector<workload::Access> script;
    for (std::uint32_t i = 0; i < n; ++i) {
      script.push_back(load(priv(0, i % 256)));
    }
    return make_scripted({{0, script}});
  };
  const auto small_run =
      core::run_single(config, DirectoryMode::kBaseline, make(100), 3);
  const auto big_run =
      core::run_single(config, DirectoryMode::kBaseline, make(400), 3);
  EXPECT_GT(big_run.runtime, 2 * small_run.runtime);
}

}  // namespace
}  // namespace allarm
