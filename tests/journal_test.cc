// Tests for the streaming sweep chassis: the on-disk journal (torn-record
// recovery, checksums, spec-hash stamping), resume/shard/merge
// determinism, and the O(jobs) residency guarantee of run_streaming.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "common/fileio.hh"
#include "core/experiment.hh"
#include "runner/grids.hh"
#include "runner/journal.hh"
#include "runner/report.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "workload/profiles.hh"

namespace allarm {
namespace {

// ------------------------------------------------------------- utilities ----

/// Fresh path under the gtest temp dir, unique per test.
std::string temp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + std::string(info->test_suite_name()) + "_" +
         info->name() + "_" + stem;
}

void remove_journal(const std::string& path) {
  std::remove(path.c_str());
  std::remove(runner::journal_data_path(path).c_str());
}

void truncate_file(const std::string& path, std::uint64_t size) {
  File file(path, File::Mode::kReadWrite);
  file.truncate(size);
}

void append_bytes(const std::string& path, const std::string& bytes) {
  File file(path, File::Mode::kReadWrite);
  file.write_at(file.size(), bytes.data(), bytes.size());
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  File file(path, File::Mode::kReadWrite);
  unsigned char b = 0;
  file.read_at(offset, &b, 1);
  b ^= 0xFF;
  file.write_at(offset, &b, 1);
}

core::RunResult sample_result(int salt) {
  core::RunResult result;
  result.runtime = static_cast<Tick>(1000 + salt);
  result.thread_finish = {static_cast<Tick>(10 + salt),
                          static_cast<Tick>(20 + salt)};
  result.stats.set("cache.misses", 17.0 + salt);
  result.stats.set("noc.bytes", 0.5 * salt);
  result.wall_ns = 123456789ull + static_cast<std::uint64_t>(salt);
  return result;
}

runner::JournalMeta sample_meta() {
  runner::JournalMeta meta;
  meta.spec_hash = 0xDEADBEEFCAFEF00Dull;
  meta.job_count = 64;
  meta.base_seed = 42;
  return meta;
}

/// Same tiny machine/workloads as runner_test: milliseconds per sweep.
SystemConfig tiny_config() {
  SystemConfig config;
  config.num_cores = 4;
  config.mesh_width = 2;
  config.mesh_height = 2;
  config.l1i = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l1d = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l2 = CacheConfig{16 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.probe_filter_coverage_bytes = 32 * kLineBytes;
  return config;
}

workload::WorkloadSpec tiny_workload(const std::string& name,
                                     const SystemConfig& config,
                                     std::uint64_t accesses) {
  workload::ProfileParams params;
  params.name = name;
  params.hot_bytes = 8 * 1024;
  params.cold_bytes = 8 * 1024;
  params.kernel_bytes = 32 * 1024;
  params.shared_bytes = 16 * 1024;
  params.pattern = name == "alpha" ? workload::SharedPattern::kUniform
                                   : workload::SharedPattern::kZipf;
  return workload::make_from_params(params, config, accesses, 4);
}

runner::SweepSpec tiny_spec() {
  runner::SweepSpec spec;
  spec.name = "tiny";
  spec.workloads = {"alpha", "beta"};
  spec.configs = {{"small", tiny_config()}};
  spec.modes = {DirectoryMode::kBaseline, DirectoryMode::kAllarm};
  spec.replicates = 2;
  spec.base_seed = 7;
  spec.accesses_per_thread = 200;
  spec.make_workload = tiny_workload;
  return spec;
}

/// Streams `spec` to a JSON string through run_streaming.
std::string stream_json(const runner::SweepSpec& spec, std::uint32_t jobs,
                        const runner::StreamOptions& options = {},
                        runner::StreamStats* stats_out = nullptr) {
  std::ostringstream out;
  runner::JsonStreamSink sink(out);
  const runner::StreamStats stats =
      runner::SweepRunner(jobs).run_streaming(spec, sink, options);
  if (stats_out != nullptr) *stats_out = stats;
  return out.str();
}

// -------------------------------------------------------------- checksums ----

TEST(Checksum, Crc32cKnownAnswers) {
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);  // Canonical CRC32C vector.
  EXPECT_EQ(crc32c(""), 0x00000000u);
  // Incremental == one-shot.
  const std::string text = "streaming sweep journal";
  const std::uint32_t part = crc32c(text.substr(0, 9));
  EXPECT_EQ(crc32c(text.substr(9), part), crc32c(text));
}

TEST(Checksum, Fnv1a64IsOrderAndLengthSensitive) {
  Fnv1a64 a, b, c;
  a.update(std::string("ab"));
  a.update(std::string("c"));
  b.update(std::string("a"));
  b.update(std::string("bc"));
  c.update(std::string("abc"));
  EXPECT_NE(a.digest(), b.digest());  // Length prefix separates the folds.
  EXPECT_NE(a.digest(), c.digest());
  Fnv1a64 d;
  d.update(std::string("abc"));
  EXPECT_EQ(c.digest(), d.digest());
}

// ---------------------------------------------------------- serialization ----

TEST(RunResultSerialization, RoundTrips) {
  const core::RunResult original = sample_result(3);
  const std::string blob = runner::serialize_run_result(original);
  const core::RunResult restored =
      runner::deserialize_run_result(blob.data(), blob.size());
  EXPECT_EQ(restored.runtime, original.runtime);
  EXPECT_EQ(restored.thread_finish, original.thread_finish);
  EXPECT_EQ(restored.stats.values(), original.stats.values());
  EXPECT_EQ(restored.wall_ns, original.wall_ns);
}

TEST(RunResultSerialization, ReadsPreWallNsPayloadsAsUnmeasured) {
  // The trailing optional section grows field by field: journals written
  // before wall_ns end right after the stats, ones written before the
  // cell hash end right after wall_ns.  The reader must accept each
  // vintage and report the missing fields as "not recorded" (zero).
  const std::string blob = runner::serialize_run_result(sample_result(5));
  const std::string pre_hash =
      blob.substr(0, blob.size() - sizeof(std::uint64_t));
  std::uint64_t hash = 42;
  const core::RunResult no_hash = runner::deserialize_run_result(
      pre_hash.data(), pre_hash.size(), &hash);
  EXPECT_EQ(no_hash.wall_ns, sample_result(5).wall_ns);
  EXPECT_EQ(hash, 0u);

  const std::string pre_wall =
      blob.substr(0, blob.size() - 2 * sizeof(std::uint64_t));
  const core::RunResult restored =
      runner::deserialize_run_result(pre_wall.data(), pre_wall.size());
  EXPECT_EQ(restored.wall_ns, 0u);
  EXPECT_EQ(restored.runtime, sample_result(5).runtime);
}

TEST(RunResultSerialization, RejectsTruncatedAndTrailingBytes) {
  const std::string blob = runner::serialize_run_result(sample_result(1));
  EXPECT_THROW(runner::deserialize_run_result(blob.data(), blob.size() - 1),
               std::runtime_error);
  const std::string padded = blob + "x";
  EXPECT_THROW(runner::deserialize_run_result(padded.data(), padded.size()),
               std::runtime_error);
}

TEST(RunResultSerialization, ProfileSectionRoundTrips) {
  core::RunResult original = sample_result(2);
  Histogram latency;
  for (const std::uint64_t v : {0ull, 1ull, 7ull, 900ull, 900ull}) {
    latency.record(v);
  }
  original.profile["access_latency_ns"] = latency;
  Histogram occupancy;
  occupancy.record(3);
  original.profile["dir_occupancy"] = occupancy;

  const std::string blob = runner::serialize_run_result(original, 99);
  std::uint64_t hash = 0;
  const core::RunResult restored =
      runner::deserialize_run_result(blob.data(), blob.size(), &hash);
  EXPECT_EQ(hash, 99u);
  ASSERT_EQ(restored.profile.size(), 2u);
  const Histogram& r = restored.profile.at("access_latency_ns");
  EXPECT_EQ(r.count(), latency.count());
  EXPECT_EQ(r.max(), latency.max());
  EXPECT_EQ(r.buckets(), latency.buckets());
  EXPECT_EQ(restored.profile.at("dir_occupancy").count(), 1u);
}

TEST(RunResultSerialization, ProfileRidesAsATrailingSection) {
  // A profiled payload is the profile-free payload plus a trailing
  // section, and the profile-free bytes still deserialize on their own —
  // so default journals keep the legacy layout and pre-profile journals
  // read back as unprofiled rather than erroring.
  core::RunResult original = sample_result(6);
  Histogram h;
  h.record(5);
  original.profile["m"] = h;
  const std::string profiled = runner::serialize_run_result(original, 11);
  core::RunResult plain = original;
  plain.profile.clear();
  const std::string legacy = runner::serialize_run_result(plain, 11);
  ASSERT_LT(legacy.size(), profiled.size());
  EXPECT_EQ(profiled.substr(0, legacy.size()), legacy);

  std::uint64_t hash = 0;
  const core::RunResult restored =
      runner::deserialize_run_result(legacy.data(), legacy.size(), &hash);
  EXPECT_TRUE(restored.profile.empty());
  EXPECT_EQ(hash, 11u);
}

// ------------------------------------------------------------- journal IO ----

TEST(Journal, RoundTripsRecordsAndPayloads) {
  const std::string path = temp_path("journal");
  remove_journal(path);
  {
    auto journal = runner::Journal::create(path, sample_meta());
    journal.append(0, 111, sample_result(0));
    journal.append(5, 222, sample_result(5));
    journal.append(9, 333, sample_result(9));
    journal.close();
  }
  auto journal = runner::Journal::open_read(path);
  EXPECT_EQ(journal.meta().spec_hash, sample_meta().spec_hash);
  ASSERT_EQ(journal.record_count(), 3u);
  const auto& entries = journal.index().entries;
  EXPECT_EQ(entries[1].job_index, 5u);
  EXPECT_EQ(entries[1].seed, 222u);
  EXPECT_TRUE(entries[1].payload_ok);
  const core::RunResult restored = journal.read_payload(entries[1]);
  EXPECT_EQ(restored.stats.values(), sample_result(5).stats.values());
  EXPECT_EQ(journal.index().dropped_records, 0u);
  remove_journal(path);
}

TEST(Journal, RecoversFromTornFinalRecord) {
  const std::string path = temp_path("journal");
  remove_journal(path);
  {
    auto journal = runner::Journal::create(path, sample_meta());
    for (int i = 0; i < 4; ++i) {
      journal.append(i, 100 + i, sample_result(i));
    }
    journal.close();
  }
  // A kill mid-append leaves a partial trailing record.
  truncate_file(path, runner::Journal::kHeaderSize +
                          2 * runner::Journal::kRecordSize + 13);

  const runner::JournalIndex index = runner::Journal::load_index(path);
  EXPECT_EQ(index.entries.size(), 2u);
  EXPECT_EQ(index.dropped_records, 1u);  // The torn tail.

  // Resume truncates the tail and appends cleanly after it.
  {
    auto journal = runner::Journal::open_resume(path, sample_meta());
    EXPECT_EQ(journal.record_count(), 2u);
    journal.append(2, 102, sample_result(2));
    journal.close();
  }
  const runner::JournalIndex after = runner::Journal::load_index(path);
  EXPECT_EQ(after.entries.size(), 3u);
  EXPECT_TRUE(after.entries.back().payload_ok);
  remove_journal(path);
}

TEST(Journal, DropsRecordsFromFirstCorruptOne) {
  const std::string path = temp_path("journal");
  remove_journal(path);
  {
    auto journal = runner::Journal::create(path, sample_meta());
    for (int i = 0; i < 3; ++i) journal.append(i, i, sample_result(i));
    journal.close();
  }
  // Corrupt record 1: it and everything after is untrusted.
  flip_byte(path, runner::Journal::kHeaderSize + runner::Journal::kRecordSize +
                      4);
  const runner::JournalIndex index = runner::Journal::load_index(path);
  EXPECT_EQ(index.entries.size(), 1u);
  EXPECT_EQ(index.dropped_records, 2u);
  remove_journal(path);
}

TEST(Journal, FlagsCorruptPayloadWithoutLosingLaterRecords) {
  const std::string path = temp_path("journal");
  remove_journal(path);
  std::uint64_t payload0_offset = 0;
  {
    auto journal = runner::Journal::create(path, sample_meta());
    journal.append(0, 0, sample_result(0));
    journal.append(1, 1, sample_result(1));
    payload0_offset = journal.index().entries[0].payload_offset;
    journal.close();
  }
  flip_byte(runner::journal_data_path(path), payload0_offset + 2);
  const runner::JournalIndex index = runner::Journal::load_index(path);
  ASSERT_EQ(index.entries.size(), 2u);
  EXPECT_FALSE(index.entries[0].payload_ok);  // Job 0 must re-run...
  EXPECT_TRUE(index.entries[1].payload_ok);   // ...job 1 is still good.
  remove_journal(path);
}

TEST(Journal, TornPayloadTailInvalidatesItsRecord) {
  const std::string path = temp_path("journal");
  remove_journal(path);
  {
    auto journal = runner::Journal::create(path, sample_meta());
    journal.append(0, 0, sample_result(0));
    journal.append(1, 1, sample_result(1));
    journal.close();
  }
  // Chop the last payload short: its record now points past EOF.
  const std::string data = runner::journal_data_path(path);
  truncate_file(data, File(data, File::Mode::kRead).size() - 5);
  const runner::JournalIndex index = runner::Journal::load_index(path);
  EXPECT_EQ(index.entries.size(), 1u);
  EXPECT_EQ(index.dropped_records, 1u);
  remove_journal(path);
}

TEST(Journal, RecoversFromDoubleTornTail) {
  // Both files torn at once — the crash case journal + data tearing
  // together (power cut mid-batch): record k is torn AND its payload (and
  // earlier ones') bytes are chopped.
  const std::string path = temp_path("journal");
  remove_journal(path);
  {
    auto journal = runner::Journal::create(path, sample_meta());
    for (int i = 0; i < 4; ++i) journal.append(i, 100 + i, sample_result(i));
    journal.close();
  }
  truncate_file(path, runner::Journal::kHeaderSize +
                          3 * runner::Journal::kRecordSize + 7);
  const std::string data = runner::journal_data_path(path);
  const std::uint64_t data_size = File(data, File::Mode::kRead).size();
  truncate_file(data, data_size / 2);  // Tears into record 1's payload.

  const runner::JournalIndex index = runner::Journal::load_index(path);
  // Whatever survives is intact; everything referencing torn bytes is
  // dropped or flagged, never trusted.
  std::uint64_t usable = 0;
  for (const auto& entry : index.entries) {
    if (!entry.payload_ok) continue;
    ++usable;
    runner::Journal journal = runner::Journal::open_read(path);
    EXPECT_NO_THROW(journal.read_payload(entry));
  }
  EXPECT_LT(usable, 4u);
  EXPECT_GT(index.dropped_records, 0u);

  // And resume appends cleanly after the recovered extent.
  {
    auto journal = runner::Journal::open_resume(path, sample_meta());
    journal.append(9, 109, sample_result(9));
    journal.close();
  }
  const runner::JournalIndex after = runner::Journal::load_index(path);
  EXPECT_TRUE(after.entries.back().payload_ok);
  EXPECT_EQ(after.entries.back().job_index, 9u);
  remove_journal(path);
}

TEST(Journal, AppendSurvivesInjectedWriteFailureViaResume) {
  // A pwrite that tears mid-append must leave a journal that load_index
  // recovers (prefix intact) and open_resume continues.
  const std::string path = temp_path("journal");
  remove_journal(path);
  {
    auto journal = runner::Journal::create(path, sample_meta());
    journal.append(0, 100, sample_result(0));
    failpoint::Scoped guard("fileio.pwrite=torn@1");
    EXPECT_THROW(journal.append(1, 101, sample_result(1)),
                 std::runtime_error);
  }
  const runner::JournalIndex index = runner::Journal::load_index(path);
  ASSERT_GE(index.entries.size(), 1u);
  EXPECT_EQ(index.entries[0].job_index, 0u);
  EXPECT_TRUE(index.entries[0].payload_ok);
  {
    auto journal = runner::Journal::open_resume(path, sample_meta());
    journal.append(1, 101, sample_result(1));
    journal.close();
  }
  const runner::JournalIndex after = runner::Journal::load_index(path);
  EXPECT_EQ(after.entries.size(), 2u);
  EXPECT_TRUE(after.entries[1].payload_ok);
  failpoint::clear();
  remove_journal(path);
}

TEST(Journal, SyncFailureSurfacesLoudly) {
  const std::string path = temp_path("journal");
  remove_journal(path);
  auto journal = runner::Journal::create(path, sample_meta());
  journal.append(0, 100, sample_result(0));
  failpoint::Scoped guard("journal.fsync=err@1");
  try {
    journal.sync();
    FAIL() << "injected fsync failure did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos)
        << e.what();
  }
  failpoint::clear();
  remove_journal(path);
}

// ---------------------------------------------------- quarantine records ----

TEST(Journal, FailureRecordsRoundTrip) {
  const runner::FailureRecord failure{3, "job 5: injected fault"};
  const std::string blob = runner::serialize_failure(failure);
  const runner::FailureRecord restored =
      runner::deserialize_failure(blob.data(), blob.size());
  EXPECT_EQ(restored.attempts, 3u);
  EXPECT_EQ(restored.error, failure.error);
  EXPECT_THROW(runner::deserialize_failure(blob.data(), blob.size() - 1),
               std::runtime_error);

  const std::string path = temp_path("journal");
  remove_journal(path);
  {
    auto journal = runner::Journal::create(path, sample_meta());
    journal.append(0, 100, sample_result(0));
    journal.append_failed(1, 101, failure);
    journal.close();
  }
  const runner::JournalIndex index = runner::Journal::load_index(path);
  ASSERT_EQ(index.entries.size(), 2u);
  EXPECT_FALSE(index.entries[0].failed);
  EXPECT_TRUE(index.entries[1].failed);
  EXPECT_TRUE(index.entries[1].payload_ok);
  runner::Journal journal = runner::Journal::open_read(path);
  const runner::FailureRecord read = journal.read_failure(index.entries[1]);
  EXPECT_EQ(read.attempts, 3u);
  EXPECT_EQ(read.error, failure.error);
  remove_journal(path);
}

TEST(Journal, LaterSuccessSupersedesAFailureRecordOnResume) {
  // Quarantine then heal: the journal holds failed(1) followed by a
  // success for the same job.  Resume must treat job 1 as done with the
  // success payload (last record wins in both directions).
  const std::string path = temp_path("journal");
  remove_journal(path);
  {
    auto journal = runner::Journal::create(path, sample_meta());
    journal.append(0, 100, sample_result(0));
    journal.append_failed(1, 101, {2, "transient"});
    journal.append(1, 101, sample_result(1));
    journal.close();
  }
  const runner::JournalIndex index = runner::Journal::load_index(path);
  ASSERT_EQ(index.entries.size(), 3u);
  // Fold the way resume does: failed erases, success (re)inserts.
  bool job1_done = false;
  for (const auto& entry : index.entries) {
    if (entry.job_index != 1 || !entry.payload_ok) continue;
    job1_done = !entry.failed;
  }
  EXPECT_TRUE(job1_done);
  remove_journal(path);
}

TEST(Journal, RejectsMetaMismatchOnResume) {
  const std::string path = temp_path("journal");
  remove_journal(path);
  runner::Journal::create(path, sample_meta()).close();

  runner::JournalMeta other = sample_meta();
  other.spec_hash ^= 1;
  EXPECT_THROW(runner::Journal::open_resume(path, other), std::runtime_error);
  other = sample_meta();
  other.job_count += 1;
  EXPECT_THROW(runner::Journal::open_resume(path, other), std::runtime_error);
  other = sample_meta();
  other.shard_index = 2;
  other.shard_count = 2;
  EXPECT_THROW(runner::Journal::open_resume(path, other), std::runtime_error);
  EXPECT_NO_THROW(runner::Journal::open_resume(path, sample_meta()).close());
  remove_journal(path);
}

TEST(Journal, RejectsGarbageHeader) {
  const std::string path = temp_path("journal");
  remove_journal(path);
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a journal, not even 64 bytes of one";
  }
  { std::ofstream f(runner::journal_data_path(path), std::ios::binary); }
  EXPECT_THROW(runner::Journal::load_index(path), std::runtime_error);
  append_bytes(path, std::string(64, '\0'));
  EXPECT_THROW(runner::Journal::load_index(path), std::runtime_error);
  remove_journal(path);
}

// ------------------------------------------------------------- spec hash ----

TEST(SpecHash, SensitiveToEverythingThatChangesResults) {
  const runner::SweepSpec spec = tiny_spec();
  const std::uint64_t base = runner::spec_hash(spec);

  auto changed = spec;
  changed.base_seed = 8;
  EXPECT_NE(runner::spec_hash(changed), base);
  changed = spec;
  changed.accesses_per_thread = 300;
  EXPECT_NE(runner::spec_hash(changed), base);
  changed = spec;
  changed.replicates = 3;
  EXPECT_NE(runner::spec_hash(changed), base);
  changed = spec;
  changed.workloads.push_back("gamma");
  EXPECT_NE(runner::spec_hash(changed), base);
  changed = spec;
  changed.configs[0].config.probe_filter_coverage_bytes *= 2;
  EXPECT_NE(runner::spec_hash(changed), base);
  changed = spec;
  changed.modes = {DirectoryMode::kBaseline};
  EXPECT_NE(runner::spec_hash(changed), base);

  EXPECT_EQ(runner::spec_hash(spec), base);  // And stable.
}

TEST(SpecHash, BuiltinGridIdentityIsPinnedAcrossVersions) {
  // Literal values, not comparisons within one binary: a journal written
  // by an older build resumes only while these hold.  A change here is a
  // deliberate journal-compatibility break.
  runner::GridKnobs knobs;
  knobs.seeds = 2;
  knobs.base_seed = 42;
  knobs.accesses = 500;
  const runner::SweepSpec spec = runner::make_builtin_grid("quick", knobs);
  EXPECT_EQ(runner::spec_hash(spec), 0x136c1aafe524a9beull);
  const std::vector<std::uint64_t> cells = {
      0x8cd1bdcffa39b8faull, 0x3e775a1dfe5fdf26ull, 0x69e74d848f9df90cull,
      0x4168e7c0106c3588ull};
  ASSERT_EQ(spec.cell_count(), cells.size());
  for (std::uint64_t cell = 0; cell < cells.size(); ++cell) {
    EXPECT_EQ(runner::cell_hash(spec, cell), cells[cell]) << "cell " << cell;
  }
}

// ------------------------------------------------------------- sharding ----

TEST(ShardSpec, ValidatesBounds) {
  EXPECT_NO_THROW((runner::ShardSpec{1, 1}).validate());
  EXPECT_NO_THROW((runner::ShardSpec{3, 3}).validate());
  EXPECT_THROW((runner::ShardSpec{0, 2}).validate(), std::invalid_argument);
  EXPECT_THROW((runner::ShardSpec{3, 2}).validate(), std::invalid_argument);
  EXPECT_THROW((runner::ShardSpec{1, 0}).validate(), std::invalid_argument);
}

TEST(ShardSpec, PartitionsEveryCellExactlyOnce) {
  for (const std::uint32_t shards : {1u, 2u, 3u, 5u, 8u}) {
    for (const std::uint64_t cells : {1ull, 4ull, 10ull, 37ull}) {
      for (std::uint64_t cell = 0; cell < cells; ++cell) {
        std::uint32_t owners = 0;
        for (std::uint32_t k = 1; k <= shards; ++k) {
          if (runner::ShardSpec{k, shards}.owns_cell(cell)) ++owners;
        }
        EXPECT_EQ(owners, 1u) << "cell " << cell << " of " << cells << " in "
                              << shards << " shards";
      }
    }
  }
}

TEST(ShardSpec, EveryJobLandsInExactlyOneShard) {
  auto spec = tiny_spec();
  spec.workloads = {"alpha", "beta", "gamma"};  // 6 cells, 12 jobs.
  const auto jobs = runner::expand_jobs(spec);
  for (const std::uint32_t shards : {1u, 2u, 4u, 7u}) {
    std::multiset<std::uint64_t> seen;
    for (std::uint64_t job = 0; job < jobs.size(); ++job) {
      const std::uint64_t cell = job / spec.replicates;
      for (std::uint32_t k = 1; k <= shards; ++k) {
        if (runner::ShardSpec{k, shards}.owns_cell(cell)) seen.insert(job);
      }
    }
    EXPECT_EQ(seen.size(), jobs.size());
    for (std::uint64_t job = 0; job < jobs.size(); ++job) {
      EXPECT_EQ(seen.count(job), 1u);
    }
  }
}

// ------------------------------------------------- streaming determinism ----

TEST(Streaming, MatchesCollectedReportsAtAnyJobCount) {
  const auto spec = tiny_spec();
  const runner::SweepResult collected = runner::SweepRunner(4).run(spec);
  const std::string reference = runner::to_json(collected);
  EXPECT_EQ(stream_json(spec, 1), reference);
  EXPECT_EQ(stream_json(spec, 8), reference);

  std::ostringstream csv_out;
  runner::CsvStreamSink csv_sink(csv_out);
  runner::SweepRunner(3).run_streaming(spec, csv_sink);
  EXPECT_EQ(csv_out.str(), runner::to_csv(collected));
}

TEST(Streaming, TimingModeAddsWallNsAndDefaultStaysCanonical) {
  const auto spec = tiny_spec();

  // Default report: no timing field — byte-identical across runs.
  const std::string canonical = stream_json(spec, 2);
  EXPECT_EQ(canonical.find("wall_ns"), std::string::npos);

  // Timing mode: every cell carries a wall_ns summary with one count per
  // replicate (run_request measures every job).
  std::ostringstream out;
  runner::JsonStreamSink sink(out);
  sink.set_include_timing(true);
  runner::SweepRunner(2).run_streaming(spec, sink);
  const std::string timed = out.str();
  std::size_t cells = 0, pos = 0;
  while ((pos = timed.find("\"wall_ns\"", pos)) != std::string::npos) {
    ++cells;
    pos += 1;
  }
  EXPECT_EQ(cells, spec.cell_count());
  // Stripping the timing lines recovers the canonical bytes.
  std::string stripped;
  std::istringstream lines(timed);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"wall_ns\"") == std::string::npos) {
      stripped += line + "\n";
    }
  }
  EXPECT_EQ(stripped, canonical);
}

TEST(Streaming, ProfileModeAddsHistAndDefaultStaysCanonical) {
  auto spec = tiny_spec();

  // Default report: no hist section — and a profiled spec streamed into a
  // default sink reports the same canonical bytes (the histograms ride the
  // journal side-channel, never the report, unless the sink opts in).
  const std::string canonical = stream_json(spec, 2);
  EXPECT_EQ(canonical.find("\"hist\""), std::string::npos);
  spec.profile = true;
  EXPECT_EQ(stream_json(spec, 2), canonical);

  // Profile sink: every cell carries a hist object, and the bytes are
  // --jobs invariant (the fold merges histograms in grid order).
  const auto profiled_json = [&](std::uint32_t jobs) {
    std::ostringstream out;
    runner::JsonStreamSink sink(out);
    sink.set_include_profile(true);
    runner::SweepRunner(jobs).run_streaming(spec, sink);
    return out.str();
  };
  const std::string profiled = profiled_json(2);
  std::size_t cells = 0, pos = 0;
  while ((pos = profiled.find("\"hist\"", pos)) != std::string::npos) {
    ++cells;
    pos += 1;
  }
  EXPECT_EQ(cells, spec.cell_count());
  EXPECT_NE(profiled.find("\"access_latency_ns\""), std::string::npos);
  EXPECT_NE(profiled.find("\"p99\""), std::string::npos);
  EXPECT_EQ(profiled_json(1), profiled);
  EXPECT_EQ(profiled_json(8), profiled);
}

TEST(Streaming, JournalRecordsPerJobWallClock) {
  const auto spec = tiny_spec();
  const std::string path = temp_path("walltime.journal");
  remove_journal(path);

  std::ostringstream out;
  runner::JsonStreamSink sink(out);
  runner::StreamOptions options;
  options.journal_path = path;
  runner::SweepRunner(2).run_streaming(spec, sink, options);

  const runner::JournalIndex index = runner::Journal::load_index(path);
  ASSERT_EQ(index.entries.size(), spec.job_count());
  runner::Journal journal = runner::Journal::open_read(path);
  for (const runner::JournalEntry& entry : index.entries) {
    const core::RunResult result = journal.read_payload(entry);
    EXPECT_GT(result.wall_ns, 0u)
        << "job " << entry.job_index << " has no measured wall clock";
  }
  remove_journal(path);
}

TEST(Streaming, PeakResidencyIsBoundedByTheWindowNotTheGrid) {
  auto spec = tiny_spec();
  // 16 cells x 1 replicate = 16 jobs; far more than the window.
  spec.workloads = {"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"};
  spec.replicates = 1;
  spec.accesses_per_thread = 100;

  runner::StreamOptions options;
  options.max_outstanding = 4;
  runner::StreamStats stats;
  const std::string windowed = stream_json(spec, 2, options, &stats);

  EXPECT_EQ(stats.jobs_total, 16u);
  EXPECT_EQ(stats.cells_emitted, 16u);
  EXPECT_LE(stats.peak_resident_results, 4u);  // O(jobs), not O(grid).
  EXPECT_GT(stats.peak_resident_results, 0u);

  // The throttle must not change a single output byte.
  EXPECT_EQ(windowed, stream_json(spec, 2));
}

TEST(Streaming, ShardsEmitDisjointCellsAndMergeReproducesTheWhole) {
  const auto spec = tiny_spec();
  const std::string reference = stream_json(spec, 2);

  const std::string j1 = temp_path("shard1");
  const std::string j2 = temp_path("shard2");
  remove_journal(j1);
  remove_journal(j2);

  runner::StreamOptions options;
  options.journal_path = j1;
  options.shard = {1, 2};
  runner::StreamStats s1;
  stream_json(spec, 2, options, &s1);
  options.journal_path = j2;
  options.shard = {2, 2};
  runner::StreamStats s2;
  stream_json(spec, 2, options, &s2);
  EXPECT_EQ(s1.jobs_total + s2.jobs_total, spec.job_count());
  EXPECT_EQ(s1.cells_emitted + s2.cells_emitted, spec.cell_count());

  std::ostringstream merged;
  runner::JsonStreamSink sink(merged);
  const runner::StreamStats stats =
      runner::merge_journals(spec, {j2, j1}, sink);  // Order must not matter.
  EXPECT_EQ(stats.jobs_resumed, spec.job_count());
  EXPECT_EQ(merged.str(), reference);

  remove_journal(j1);
  remove_journal(j2);
}

TEST(Streaming, MergeRefusesACorruptShardInsteadOfDroppingItsJobs) {
  const auto spec = tiny_spec();
  const std::string j1 = temp_path("shard1");
  const std::string j2 = temp_path("shard2");
  remove_journal(j1);
  remove_journal(j2);

  runner::StreamOptions options;
  options.journal_path = j1;
  options.shard = {1, 2};
  stream_json(spec, 2, options);
  options.journal_path = j2;
  options.shard = {2, 2};
  stream_json(spec, 2, options);

  // Rot one payload in shard 1: its job is untrusted, so the merge no
  // longer covers the grid and must refuse — never a silently thinner
  // report.
  const runner::JournalIndex index = runner::Journal::load_index(j1);
  flip_byte(runner::journal_data_path(j1),
            index.entries[0].payload_offset + 1);
  std::ostringstream out;
  runner::JsonStreamSink sink(out);
  try {
    runner::merge_journals(spec, {j1, j2}, sink);
    FAIL() << "merge accepted a corrupt shard";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("incomplete"), std::string::npos)
        << e.what();
  }
  remove_journal(j1);
  remove_journal(j2);
}

TEST(Streaming, MergeRejectsOverlapAndIncompleteCoverage) {
  const auto spec = tiny_spec();
  const std::string j1 = temp_path("shard1");
  remove_journal(j1);

  runner::StreamOptions options;
  options.journal_path = j1;
  options.shard = {1, 2};
  stream_json(spec, 2, options);

  std::ostringstream out;
  runner::JsonStreamSink sink(out);
  // Half the grid missing.
  EXPECT_THROW(runner::merge_journals(spec, {j1}, sink), std::runtime_error);
  // Same shard twice: overlapping jobs.
  std::ostringstream out2;
  runner::JsonStreamSink sink2(out2);
  EXPECT_THROW(runner::merge_journals(spec, {j1, j1}, sink2),
               std::runtime_error);
  remove_journal(j1);
}

TEST(Streaming, RefusesToTruncateAnExistingJournalWithoutResume) {
  const auto spec = tiny_spec();
  const std::string path = temp_path("journal");
  remove_journal(path);

  runner::StreamOptions options;
  options.journal_path = path;
  stream_json(spec, 2, options);  // First run journals to completion.

  // Rerunning without resume must refuse, not wipe the journaled work.
  std::ostringstream out;
  runner::JsonStreamSink sink(out);
  EXPECT_THROW(runner::SweepRunner(2).run_streaming(spec, sink, options),
               std::runtime_error);
  EXPECT_EQ(runner::Journal::load_index(path).entries.size(),
            spec.job_count());  // Untouched.
  remove_journal(path);
}

TEST(Streaming, ResumeRejectsSeedDerivationMismatch) {
  const auto spec = tiny_spec();
  const auto jobs = runner::expand_jobs(spec);
  const std::string path = temp_path("journal");
  remove_journal(path);

  runner::JournalMeta meta;
  meta.spec_hash = runner::spec_hash(spec);
  meta.job_count = jobs.size();
  meta.base_seed = spec.base_seed;
  {
    auto journal = runner::Journal::create(path, meta);
    // Journaled under a seed the spec does not derive.
    journal.append(0, jobs[0].request.seed + 1, sample_result(0));
    journal.close();
  }
  runner::StreamOptions options;
  options.journal_path = path;
  options.resume = runner::ResumeMode::kStrict;
  std::ostringstream out;
  runner::JsonStreamSink sink(out);
  EXPECT_THROW(runner::SweepRunner(1).run_streaming(spec, sink, options),
               std::runtime_error);
  remove_journal(path);
}

TEST(Streaming, FaultWhileCreatingTheJournalLeavesItResumable) {
  // A fault while the journal is created — opening its second file (open
  // #2) or writing its header (pwrite #1) — must leave no journal or a
  // valid empty one, so either resume mode finishes the sweep.
  const auto spec = tiny_spec();
  const std::string reference = stream_json(spec, 1);
  for (const char* fault : {"fileio.open=err@2", "fileio.pwrite=err@1"}) {
    for (const runner::ResumeMode mode :
         {runner::ResumeMode::kStrict, runner::ResumeMode::kPerCell}) {
      const std::string path = temp_path("journal");
      remove_journal(path);
      runner::StreamOptions options;
      options.journal_path = path;
      {
        failpoint::Scoped guard(fault);
        EXPECT_THROW(stream_json(spec, 1, options), std::runtime_error)
            << fault;
      }
      options.resume = mode;
      runner::StreamStats stats;
      EXPECT_EQ(stream_json(spec, 1, options, &stats), reference) << fault;
      EXPECT_EQ(stats.jobs_executed, spec.job_count()) << fault;
      remove_journal(path);
      std::remove((path + ".tmp").c_str());
    }
  }
}

// -------------------------------------------------- crash-resume property ----

TEST(Streaming, ResumeFromAnyKillPointReproducesTheReport) {
  const auto spec = tiny_spec();  // 8 jobs.
  const std::string reference = stream_json(spec, 2);
  const std::string full = temp_path("full");
  remove_journal(full);

  // A completed journal to carve kill points out of.
  runner::StreamOptions options;
  options.journal_path = full;
  ASSERT_EQ(stream_json(spec, 2, options), reference);

  const std::string data_full = runner::journal_data_path(full);
  const std::uint64_t data_size = File(data_full, File::Mode::kRead).size();

  std::mt19937 rng(20260730);
  for (int trial = 0; trial < 8; ++trial) {
    const std::string crash = temp_path("crash" + std::to_string(trial));
    remove_journal(crash);
    write_file_durable(crash, read_file(full));
    write_file_durable(runner::journal_data_path(crash), read_file(data_full));
    // Kill after k completed jobs, optionally mid-append of record k+1
    // (torn record) and/or mid-payload (torn data file).
    const std::uint64_t k = rng() % (spec.job_count() + 1);
    std::uint64_t journal_size =
        runner::Journal::kHeaderSize + k * runner::Journal::kRecordSize;
    if (k < spec.job_count() && rng() % 2 == 0) {
      journal_size += 1 + rng() % (runner::Journal::kRecordSize - 1);
    }
    truncate_file(crash, journal_size);
    if (rng() % 2 == 0) {
      const std::uint64_t chop = rng() % (data_size / 2 + 1);
      truncate_file(runner::journal_data_path(crash), data_size - chop);
    }

    runner::StreamOptions resume;
    resume.journal_path = crash;
    resume.resume = runner::ResumeMode::kStrict;
    runner::StreamStats stats;
    EXPECT_EQ(stream_json(spec, 3, resume, &stats), reference)
        << "kill point " << k << ", trial " << trial;
    EXPECT_EQ(stats.jobs_resumed + stats.jobs_executed, spec.job_count());
    remove_journal(crash);
  }
  remove_journal(full);
}

// ------------------------------------- per-cell incremental re-sweep ----

TEST(ResumeCells, CellHashBindsIdentityConfigAndSeeds) {
  const auto spec = tiny_spec();
  // Distinct per cell, stable per call.
  std::set<std::uint64_t> hashes;
  for (std::uint64_t cell = 0; cell < spec.cell_count(); ++cell) {
    const std::uint64_t h = runner::cell_hash(spec, cell);
    EXPECT_EQ(h, runner::cell_hash(spec, cell));
    hashes.insert(h);
  }
  EXPECT_EQ(hashes.size(), spec.cell_count());
  EXPECT_THROW(runner::cell_hash(spec, spec.cell_count()), std::out_of_range);

  // A config edit moves the hash of cells using that config.
  auto edited = spec;
  edited.configs[0].config.l2.size_bytes *= 2;
  EXPECT_NE(runner::cell_hash(edited, 0), runner::cell_hash(spec, 0));
  // A base-seed change moves every cell (replicate seeds are identity).
  auto reseeded = spec;
  reseeded.base_seed += 1;
  for (std::uint64_t cell = 0; cell < spec.cell_count(); ++cell) {
    EXPECT_NE(runner::cell_hash(reseeded, cell), runner::cell_hash(spec, cell));
  }
}

TEST(ResumeCells, EditedConfigRerunsOnlyItsCells) {
  // Two configs: editing one must invalidate exactly its half of the grid.
  auto spec = tiny_spec();
  auto big = tiny_config();
  big.l2 = CacheConfig{64 * kLineBytes, 4, ticks_from_ns(1.0)};
  spec.configs.push_back({"big", big});  // 2 wl x 2 cfg x 2 modes = 8 cells.

  const std::string path = temp_path("journal");
  remove_journal(path);
  runner::StreamOptions options;
  options.journal_path = path;
  options.resume = runner::ResumeMode::kPerCell;  // Missing: created fresh.
  runner::StreamStats stats;
  stream_json(spec, 2, options, &stats);
  EXPECT_EQ(stats.jobs_executed, spec.job_count());

  // Identical resubmission: everything resumes, nothing runs.
  const std::string replay = stream_json(spec, 2, options, &stats);
  EXPECT_EQ(stats.jobs_executed, 0u);
  EXPECT_EQ(stats.jobs_resumed, spec.job_count());

  // Edit the "big" config: its 4 cells (8 jobs) re-run, the "small" 8
  // jobs resume, and the merged bytes equal an uninterrupted run of the
  // edited spec.
  auto edited = spec;
  edited.configs[1].config.l2.ways = 8;
  const std::string reference = stream_json(edited, 2);
  const std::string incremental = stream_json(edited, 2, options, &stats);
  EXPECT_EQ(stats.jobs_executed, spec.job_count() / 2);
  EXPECT_EQ(stats.jobs_resumed, spec.job_count() / 2);
  EXPECT_EQ(incremental, reference);
  remove_journal(path);
}

TEST(ResumeCells, SeedChangeRebindsAndRerunsEverything) {
  const auto spec = tiny_spec();
  const std::string path = temp_path("journal");
  remove_journal(path);
  runner::StreamOptions options;
  options.journal_path = path;
  options.resume = runner::ResumeMode::kPerCell;
  stream_json(spec, 2, options);

  // Per-cell resume rebinds instead of refusing: the new base seed
  // invalidates every recorded job, so the whole grid re-runs, and the
  // journal is durably re-stamped for the new identity.
  auto reseeded = spec;
  reseeded.base_seed = 4242;
  runner::StreamStats stats;
  const std::string got = stream_json(reseeded, 2, options, &stats);
  EXPECT_EQ(stats.jobs_executed, spec.job_count());
  EXPECT_EQ(stats.jobs_resumed, 0u);
  EXPECT_EQ(got, stream_json(reseeded, 2));

  // And the rebound journal now resumes under the new identity.
  const std::string replay = stream_json(reseeded, 2, options, &stats);
  EXPECT_EQ(stats.jobs_executed, 0u);
  EXPECT_EQ(stats.jobs_resumed, spec.job_count());
  EXPECT_EQ(replay, got);
  remove_journal(path);
}

TEST(ResumeCells, RequiresUnshardedRunWithJournal) {
  const auto spec = tiny_spec();
  std::ostringstream out;
  runner::JsonStreamSink sink(out);
  runner::StreamOptions options;
  options.resume = runner::ResumeMode::kPerCell;  // No journal path.
  EXPECT_THROW(runner::SweepRunner(1).run_streaming(spec, sink, options),
               std::invalid_argument);
  options.journal_path = temp_path("journal");
  options.shard = {1, 2, {}};
  EXPECT_THROW(runner::SweepRunner(1).run_streaming(spec, sink, options),
               std::invalid_argument);
}

// ------------------------------------------ one rule for reading a journal ----
//
// Strict resume, per-cell resume, merge and cost planning all read each
// job's latest record whose payload verified, then apply their own rule.

/// Journals a full run of `spec` at `path`, then appends one more record
/// for job 0: a quarantine record, or a result whose payload is then
/// damaged.
void journal_with_trailing_record(const runner::SweepSpec& spec,
                                  const std::string& path, bool failure) {
  remove_journal(path);
  runner::StreamOptions options;
  options.journal_path = path;
  stream_json(spec, 2, options);

  runner::JournalMeta meta;
  meta.spec_hash = runner::spec_hash(spec);
  meta.job_count = spec.job_count();
  meta.base_seed = spec.base_seed;
  const std::uint64_t seed = runner::expand_jobs(spec)[0].request.seed;
  auto journal = runner::Journal::open_resume(path, meta);
  if (failure) {
    journal.append_failed(0, seed, {1, "injected"});
  } else {
    journal.append(0, seed, sample_result(0), runner::cell_hash(spec, 0));
  }
  journal.close();
  if (!failure) {
    const runner::JournalIndex index = runner::Journal::load_index(path);
    flip_byte(runner::journal_data_path(path),
              index.entries.back().payload_offset + 1);
  }
}

/// wall_ns of every job's intact result record, by job index.
std::vector<double> journaled_wall_ns(const runner::SweepSpec& spec,
                                      const std::string& path) {
  const runner::Journal journal = runner::Journal::open_read(path);
  std::vector<double> wall(spec.job_count(), 0.0);
  for (const runner::JournalEntry& entry : journal.index().entries) {
    if (!entry.payload_ok || entry.failed) continue;
    wall[entry.job_index] =
        static_cast<double>(journal.read_payload(entry).wall_ns);
  }
  return wall;
}

void copy_journal(const std::string& from, const std::string& to) {
  write_file_durable(to, read_file(from));
  write_file_durable(runner::journal_data_path(to),
                     read_file(runner::journal_data_path(from)));
}

TEST(JournalReadRule, DamagedRecordNeverHidesAnEarlierIntactOne) {
  const auto spec = tiny_spec();
  const std::string reference = stream_json(spec, 2);
  const std::string path = temp_path("journal");
  journal_with_trailing_record(spec, path, /*failure=*/false);
  ASSERT_FALSE(runner::Journal::load_index(path).entries.back().payload_ok);

  // Cost planning measures job 0 from its intact record, not the mean.
  const std::vector<double> wall = journaled_wall_ns(spec, path);
  ASSERT_GT(wall[0], 0.0);
  const std::vector<double> costs = runner::cell_costs_from_journal(spec, path);
  EXPECT_DOUBLE_EQ(costs[0], wall[0] + wall[1]);

  std::ostringstream merged;
  runner::JsonStreamSink sink(merged);
  EXPECT_EQ(runner::merge_journals(spec, {path}, sink).jobs_failed, 0u);
  EXPECT_EQ(merged.str(), reference);

  for (const runner::ResumeMode mode :
       {runner::ResumeMode::kPerCell, runner::ResumeMode::kStrict}) {
    runner::StreamOptions options;
    options.journal_path = path;
    options.resume = mode;
    runner::StreamStats stats;
    EXPECT_EQ(stream_json(spec, 2, options, &stats), reference);
    EXPECT_EQ(stats.jobs_executed, 0u);
    EXPECT_EQ(stats.jobs_resumed, spec.job_count());
  }
  remove_journal(path);
}

TEST(JournalReadRule, LaterFailureRecordSupersedesAnEarlierSuccess) {
  const auto spec = tiny_spec();
  const std::string reference = stream_json(spec, 2);
  const std::string path = temp_path("journal");
  journal_with_trailing_record(spec, path, /*failure=*/true);

  // Cost planning: a failure carries no wall clock, so job 0 takes the
  // mean of the measured jobs.
  const std::vector<double> wall = journaled_wall_ns(spec, path);
  double total = 0.0;
  for (std::size_t j = 1; j < wall.size(); ++j) total += wall[j];
  const double mean = total / static_cast<double>(wall.size() - 1);
  const std::vector<double> costs = runner::cell_costs_from_journal(spec, path);
  EXPECT_DOUBLE_EQ(costs[0], mean + wall[1]);

  // Merge folds it as a degraded cell.
  std::ostringstream merged;
  runner::JsonStreamSink sink(merged);
  const runner::StreamStats merge = runner::merge_journals(spec, {path}, sink);
  EXPECT_EQ(merge.jobs_failed, 1u);
  EXPECT_EQ(merge.cells_failed, 1u);
  EXPECT_NE(merged.str().find("\"failed\""), std::string::npos);

  // Both resumes re-run the job (each on its own copy: the re-run's
  // success supersedes the failure).
  for (const runner::ResumeMode mode :
       {runner::ResumeMode::kStrict, runner::ResumeMode::kPerCell}) {
    const std::string copy = temp_path("copy");
    remove_journal(copy);
    copy_journal(path, copy);
    runner::StreamOptions options;
    options.journal_path = copy;
    options.resume = mode;
    runner::StreamStats stats;
    EXPECT_EQ(stream_json(spec, 2, options, &stats), reference);
    EXPECT_EQ(stats.jobs_executed, 1u);
    EXPECT_EQ(stats.jobs_resumed, spec.job_count() - 1);
    remove_journal(copy);
  }
  remove_journal(path);
}

// ------------------------------------------------------- loud I/O failure ----

TEST(Streaming, ReportWriteFailureThrowsInsteadOfTruncating) {
  std::ofstream dev_full("/dev/full", std::ios::binary);
  if (!dev_full.is_open()) GTEST_SKIP() << "/dev/full not available";
  runner::JsonStreamSink sink(dev_full, "/dev/full");
  const auto spec = tiny_spec();
  EXPECT_THROW(runner::SweepRunner(2).run_streaming(spec, sink),
               std::runtime_error);
}

}  // namespace
}  // namespace allarm
