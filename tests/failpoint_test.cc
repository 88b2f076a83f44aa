// Tests for the deterministic fault-injection layer: the failpoint spec
// grammar, hit-window arithmetic, indexed matching, env configuration,
// the whole-operation interpreter (`inject`: delay proceeds, everything
// else throws), and the five fileio sites' action semantics (err/short/
// torn/eintr/delay) including the enriched path + context + strerror
// error strings.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/failpoint.hh"
#include "common/fileio.hh"

namespace allarm {
namespace {

std::string temp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + std::string(info->test_suite_name()) + "_" +
         info->name() + "_" + stem;
}

/// Every failpoint test leaves the registry clean, even on failure.
class Failpoint : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::clear(); }
};

// ---------------------------------------------------------------- grammar ----

TEST_F(Failpoint, InactiveByDefaultAndAfterClear) {
  EXPECT_FALSE(failpoint::active());
  EXPECT_FALSE(failpoint::check("anything"));
  failpoint::configure("a=err@1");
  EXPECT_TRUE(failpoint::active());
  failpoint::clear();
  EXPECT_FALSE(failpoint::active());
  EXPECT_FALSE(failpoint::check("a"));
  EXPECT_EQ(failpoint::describe(), "");
}

TEST_F(Failpoint, ParsesEveryActionWithArgsAndDefaults) {
  failpoint::configure(
      "a=err@1;b=short.7@1;c=torn.3@1;d=eintr@1;e=delay.2@1;f=eintr.5@1");
  EXPECT_EQ(failpoint::check("a").action, failpoint::Action::kError);
  const auto b = failpoint::check("b");
  EXPECT_EQ(b.action, failpoint::Action::kShortIo);
  EXPECT_EQ(b.arg, 7u);
  const auto c = failpoint::check("c");
  EXPECT_EQ(c.action, failpoint::Action::kTornWrite);
  EXPECT_EQ(c.arg, 3u);
  const auto d = failpoint::check("d");
  EXPECT_EQ(d.action, failpoint::Action::kEintrStorm);
  EXPECT_EQ(d.arg, 16u);  // Default storm length.
  const auto e = failpoint::check("e");
  EXPECT_EQ(e.action, failpoint::Action::kDelay);
  EXPECT_EQ(e.arg, 2u);
  EXPECT_EQ(failpoint::check("f").arg, 5u);
}

TEST_F(Failpoint, RejectsMalformedSpecs) {
  for (const char* bad :
       {"noequals", "a=@1", "a=err", "a=err@", "a=err@x", "a=bogus@1",
        "a=err.@1", "a=err@1:", "a=err@1:x", "=err@1"}) {
    EXPECT_THROW(failpoint::configure(bad), std::invalid_argument)
        << "accepted: " << bad;
    EXPECT_FALSE(failpoint::active()) << "partially installed: " << bad;
  }
}

TEST_F(Failpoint, DescribeReturnsTheInstalledSpec) {
  const std::string spec = "journal.fsync=err@3;fileio.pwrite=short@11:2";
  failpoint::configure(spec);
  EXPECT_EQ(failpoint::describe(), spec);
}

// ------------------------------------------------------------- hit windows ----

TEST_F(Failpoint, FiresOnlyInsideItsWindow) {
  failpoint::configure("p=err@3:2");  // Polls 3 and 4.
  EXPECT_FALSE(failpoint::check("p"));  // 1
  EXPECT_FALSE(failpoint::check("p"));  // 2
  EXPECT_TRUE(failpoint::check("p"));   // 3
  EXPECT_TRUE(failpoint::check("p"));   // 4
  EXPECT_FALSE(failpoint::check("p"));  // 5
  EXPECT_EQ(failpoint::hits("p"), 5u);
}

TEST_F(Failpoint, CountZeroFiresForever) {
  failpoint::configure("p=err@2:0");
  EXPECT_FALSE(failpoint::check("p"));
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(failpoint::check("p"));
}

TEST_F(Failpoint, CountersAreIndependentPerName) {
  failpoint::configure("p=err@2;q=err@1");
  EXPECT_TRUE(failpoint::check("q"));
  EXPECT_FALSE(failpoint::check("p"));  // q's poll did not advance p.
  EXPECT_TRUE(failpoint::check("p"));
  EXPECT_EQ(failpoint::hits("p"), 2u);
  EXPECT_EQ(failpoint::hits("q"), 1u);
  EXPECT_EQ(failpoint::hits("unconfigured"), 0u);
}

TEST_F(Failpoint, ReconfigureResetsCounters) {
  failpoint::configure("p=err@1");
  EXPECT_TRUE(failpoint::check("p"));
  failpoint::configure("p=err@1");
  EXPECT_TRUE(failpoint::check("p"));  // Counter restarted at 0.
}

TEST_F(Failpoint, IndexedMatchIgnoresArrivalOrder) {
  failpoint::configure("cell=err@5");
  // Rules match the caller-supplied ordinal directly (`cell.job=err@5`
  // means grid job index 5), not the arrival counter.
  EXPECT_FALSE(failpoint::check_indexed("cell", 4));
  EXPECT_TRUE(failpoint::check_indexed("cell", 5));
  EXPECT_FALSE(failpoint::check_indexed("cell", 6));
  // Same ordinal fires again regardless of how many polls happened.
  EXPECT_TRUE(failpoint::check_indexed("cell", 5));
  EXPECT_EQ(failpoint::hits("cell"), 4u);  // Every poll observed.
}

TEST_F(Failpoint, ScopedInstallsAndClears) {
  {
    failpoint::Scoped guard("p=err@1");
    EXPECT_TRUE(failpoint::active());
    EXPECT_TRUE(failpoint::check("p"));
  }
  EXPECT_FALSE(failpoint::active());
}

TEST_F(Failpoint, ConfiguresFromEnvironment) {
  ASSERT_EQ(::setenv("ALLARM_FAILPOINTS", "envpoint=err@1", 1), 0);
  EXPECT_EQ(failpoint::configure_from_env(), "envpoint=err@1");
  EXPECT_TRUE(failpoint::check("envpoint"));
  ::unsetenv("ALLARM_FAILPOINTS");
  EXPECT_EQ(failpoint::configure_from_env(), "");
  EXPECT_TRUE(failpoint::active());  // Unset env leaves the spec alone.
}

TEST_F(Failpoint, InjectDelaysProceedAndEveryOtherActionThrows) {
  failpoint::Scoped guard("site.x=delay.1@1;site.x=err@2;site.x=torn@3");
  int built = 0;
  const auto where = [&] {
    ++built;
    return std::string("subject");
  };
  EXPECT_NO_THROW(failpoint::inject("site.x", where));  // Delay proceeds.
  try {
    failpoint::inject("site.x", where);
    FAIL() << "err did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "subject: injected fault (failpoint site.x)");
  }
  EXPECT_THROW(failpoint::inject("site.x", where), std::runtime_error);
  EXPECT_NO_THROW(failpoint::inject("site.x", where));  // Past every rule.
  EXPECT_EQ(built, 3);  // Only polls where a rule fired build the subject.
}

// ------------------------------------------------------ fileio integration ----

TEST_F(Failpoint, FileioErrorsCarryPathContextAndInjectionMarker) {
  const std::string path = temp_path("file");
  write_file_durable(path, std::string(64, 'x'));

  failpoint::Scoped guard("fileio.pread=err@1");
  File file(path, File::Mode::kRead);
  char buffer[16];
  try {
    file.read_at(0, buffer, sizeof(buffer));
    FAIL() << "injected pread error did not throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("pread of 16 bytes at offset 0"), std::string::npos)
        << what;
    EXPECT_NE(what.find("injected fault (failpoint fileio.pread)"),
              std::string::npos)
        << what;
  }
}

TEST_F(Failpoint, RealErrorsCarryStrerror) {
  // A genuine (non-injected) failure: opening a missing file must name the
  // path and the kernel's reason.
  const std::string path = temp_path("missing");
  try {
    File file(path, File::Mode::kRead);
    FAIL() << "opening a missing file did not throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("No such file or directory"), std::string::npos)
        << what;
  }
}

TEST_F(Failpoint, ShortReadDeliversFewerBytes) {
  const std::string path = temp_path("file");
  write_file_durable(path, std::string(64, 'x'));
  File file(path, File::Mode::kRead);
  char buffer[32];

  {
    failpoint::Scoped guard("fileio.pread=short.5@1");
    EXPECT_EQ(file.read_at_most(0, buffer, sizeof(buffer)), 5u);
  }
  {
    failpoint::Scoped guard("fileio.pread=short@1");  // Default: half.
    EXPECT_EQ(file.read_at_most(0, buffer, sizeof(buffer)), 16u);
  }
  // read_at turns the short count into its structured short-read error.
  failpoint::Scoped guard("fileio.pread=short.5@1");
  try {
    file.read_at(0, buffer, sizeof(buffer));
    FAIL() << "short read did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("wanted 32 bytes at offset 0, got 5"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(Failpoint, TornWriteLeavesARealPrefixThenFails) {
  const std::string path = temp_path("file");
  {
    File file(path, File::Mode::kCreate);
    const std::string payload(32, 'y');
    failpoint::Scoped guard("fileio.pwrite=torn.10@1");
    try {
      file.write_at(0, payload.data(), payload.size());
      FAIL() << "torn write did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("wrote only 10 bytes"),
                std::string::npos)
          << e.what();
    }
    file.close();
  }
  // The prefix is really on disk — exactly what a power cut leaves.
  EXPECT_EQ(read_file(path), std::string(10, 'y'));
}

TEST_F(Failpoint, EintrStormIsAbsorbedByTheRetryLoop) {
  const std::string path = temp_path("file");
  const std::string payload = "interrupted but complete";
  {
    failpoint::Scoped guard("fileio.pwrite=eintr.40@1;fileio.pread=eintr@1");
    File file(path, File::Mode::kCreate);
    file.write_at(0, payload.data(), payload.size());
    std::string got(payload.size(), '\0');
    file.read_at(0, got.data(), got.size());
    EXPECT_EQ(got, payload);
  }
  EXPECT_EQ(read_file(path), payload);
}

TEST_F(Failpoint, SyncAndTruncateAndOpenSitesFire) {
  const std::string path = temp_path("file");
  write_file_durable(path, "data");
  {
    failpoint::Scoped guard("fileio.fsync=err@1");
    File file(path, File::Mode::kReadWrite);
    EXPECT_THROW(file.sync(), std::runtime_error);
  }
  {
    failpoint::Scoped guard("fileio.ftruncate=err@1");
    File file(path, File::Mode::kReadWrite);
    EXPECT_THROW(file.truncate(0), std::runtime_error);
  }
  failpoint::Scoped guard("fileio.open=err@2");
  File ok(path, File::Mode::kRead);  // Poll 1: passes.
  EXPECT_THROW(File(path, File::Mode::kRead), std::runtime_error);
}

TEST_F(Failpoint, WholeOperationFileioSitesHonourDelay) {
  const std::string path = temp_path("file");
  write_file_durable(path, "data");
  failpoint::Scoped guard(
      "fileio.open=delay.1@1;fileio.fsync=delay.1@1:2;"
      "fileio.ftruncate=delay.1@1");
  File file(path, File::Mode::kReadWrite);
  file.sync();
  sync_directory(::testing::TempDir());
  file.truncate(2);
  file.close();
  EXPECT_EQ(read_file(path), "da");
}

}  // namespace
}  // namespace allarm
