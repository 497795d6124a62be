// StorageGovernor unit tests: byte/budget arithmetic, the
// degraded-mode state machine (write failure -> degraded, Admit
// refusals, rate-limited self-heal probe, success-triggered immediate
// probe), the free-space floor, and the metrics surface. All disk
// pressure is injected deterministically — a FaultyFileInjector space
// quota gates the write probe, a closure supplies free bytes, and a
// pinned millisecond clock steps the probe rate limiter by hand.

#include "storage/governor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "obs/metrics_registry.h"
#include "storage/faulty_file.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "gsgov-" +
                    info->test_suite_name() + "-" + info->name() + "-" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(StorageGovernorTest, UsageArithmetic) {
  StorageGovernor governor({});

  EXPECT_EQ(governor.Usage("store"), 0u);

  governor.SetUsage("store", 1000);
  governor.AddUsage("store", 500);
  governor.AddUsage("store", -200);
  EXPECT_EQ(governor.Usage("store"), 1300u);
  governor.SetUsage("store", 400);
  EXPECT_EQ(governor.Usage("store"), 400u);

  // Accounting drift clamps at zero instead of wrapping.
  governor.AddUsage("store", -4000);
  EXPECT_EQ(governor.Usage("store"), 0u);

  // Subsystems are independent.
  governor.SetUsage("journal", 77);
  EXPECT_EQ(governor.Usage("journal"), 77u);
  EXPECT_EQ(governor.Usage("store"), 0u);
}

TEST(StorageGovernorTest, NonIoFailuresAreNotDiskPressure) {
  StorageGovernor governor({});
  governor.RecordWriteResult("journal",
                             Status::InvalidArgument("caller bug"));
  governor.RecordWriteResult("journal",
                             Status::FailedPrecondition("closed"));
  EXPECT_FALSE(governor.degraded());
  EXPECT_EQ(governor.stats().write_errors, 0u);
  GS_ASSERT_OK(governor.Admit("journal"));
}

TEST(StorageGovernorTest, WriteFailureDegradesAndHealsWhenSpaceFrees) {
  const std::string dir = FreshDir("heal");
  FaultyFileOptions fopts;
  fopts.space_quota_bytes = 1;  // the disk is full from the start
  FaultyFileInjector injector(fopts);

  uint64_t now = 10000;
  StorageGovernorOptions options;
  options.probe_dir = dir;
  options.probe_interval_ms = 200;
  options.file_factory = injector.Factory();
  options.now_ms = [&now] { return now; };
  StorageGovernor governor(options);

  GS_ASSERT_OK(governor.Admit("journal"));
  EXPECT_FALSE(governor.degraded());

  // The journal reports ENOSPC on its own append: degraded, loudly.
  governor.RecordWriteResult(
      "journal", Status::ResourceExhausted("no space left on device"));
  EXPECT_TRUE(governor.degraded());
  StorageGovernorStats stats = governor.stats();
  EXPECT_EQ(stats.degraded_entries, 1u);
  EXPECT_EQ(stats.write_errors, 1u);
  EXPECT_NE(stats.last_error.find("journal"), std::string::npos);

  // Admission now probes (the quota still refuses the probe's bytes)
  // and refuses the write — this is what makes the journal NACK.
  Status admitted = governor.Admit("journal");
  EXPECT_EQ(admitted.code(), StatusCode::kUnavailable);
  stats = governor.stats();
  EXPECT_GE(stats.probes, 1u);
  EXPECT_GE(stats.probe_failures, 1u);
  EXPECT_GE(stats.admissions_refused, 1u);
  EXPECT_GT(injector.stats().enospc_failures, 0u);

  // Space frees up (operator deletes files / retention reclaims):
  // the next admission probe heals the plane.
  injector.SetSpaceQuota(0);  // unlimited again
  now += 201;                 // past the probe interval
  GS_ASSERT_OK(governor.Admit("journal"));
  EXPECT_FALSE(governor.degraded());
  EXPECT_EQ(governor.stats().healed, 1u);
}

TEST(StorageGovernorTest, ProbesAreRateLimitedOnTheAdmissionPath) {
  const std::string dir = FreshDir("rate");
  FaultyFileOptions fopts;
  fopts.space_quota_bytes = 1;
  FaultyFileInjector injector(fopts);

  uint64_t now = 10000;
  StorageGovernorOptions options;
  options.probe_dir = dir;
  options.probe_interval_ms = 200;
  options.file_factory = injector.Factory();
  options.now_ms = [&now] { return now; };
  StorageGovernor governor(options);

  governor.RecordWriteResult("store", Status::IoError("EIO"));
  ASSERT_TRUE(governor.degraded());

  // A burst of refused admissions at one instant runs ONE probe; the
  // rest are refused without touching the disk (a NACK storm must not
  // become a probe storm).
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(governor.Admit("store").code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(governor.stats().probes, 1u);

  now += 200;  // the interval elapses: exactly one more probe
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(governor.Admit("store").code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(governor.stats().probes, 2u);
}

TEST(StorageGovernorTest, SuccessfulWriteWhileDegradedProbesImmediately) {
  // No probe_dir: the probe itself always succeeds, so the state
  // machine is driven purely by reported write results.
  StorageGovernor governor({});
  governor.RecordWriteResult("store", Status::IoError("EIO"));
  ASSERT_TRUE(governor.degraded());

  // One subsystem's write lands while the plane is degraded: verify
  // with a probe right now instead of waiting out the interval.
  governor.RecordWriteResult("store", Status::OK());
  EXPECT_FALSE(governor.degraded());
  const StorageGovernorStats stats = governor.stats();
  EXPECT_EQ(stats.healed, 1u);
  EXPECT_GE(stats.probes, 1u);
}

TEST(StorageGovernorTest, FreeSpaceFloorDegradesBeforeFirstEnospc) {
  const std::string dir = FreshDir("floor");
  uint64_t now = 10000;
  uint64_t free_bytes = 50;  // under the floor from the start
  StorageGovernorOptions options;
  options.probe_dir = dir;
  options.min_free_bytes = 1000;
  options.probe_interval_ms = 200;
  options.now_ms = [&now] { return now; };
  options.free_bytes_fn = [&free_bytes](const std::string&)
      -> Result<uint64_t> { return free_bytes; };
  StorageGovernor governor(options);

  // The healthy admission path checks the floor at probe cadence and
  // degrades before any write ever fails.
  now += 200;
  Status first = governor.Admit("store");
  EXPECT_TRUE(governor.degraded());
  EXPECT_EQ(first.code(), StatusCode::kUnavailable) << first.ToString();

  // Space returns over the floor: the degraded-path probe heals.
  free_bytes = 1u << 20;
  now += 200;
  GS_ASSERT_OK(governor.Admit("store"));
  EXPECT_FALSE(governor.degraded());

  auto reported = governor.FreeBytes();
  GS_ASSERT_OK(reported.status());
  EXPECT_EQ(*reported, free_bytes);
}

TEST(StorageGovernorTest, ProbeNowForcesAnImmediateVerdict) {
  const std::string dir = FreshDir("probenow");
  FaultyFileOptions fopts;
  fopts.space_quota_bytes = 1;
  FaultyFileInjector injector(fopts);
  StorageGovernorOptions options;
  options.probe_dir = dir;
  options.file_factory = injector.Factory();
  StorageGovernor governor(options);

  // Healthy plane, dead disk: ProbeNow discovers the pressure without
  // any subsystem write having failed yet.
  EXPECT_FALSE(governor.ProbeNow());
  EXPECT_TRUE(governor.degraded());

  injector.SetSpaceQuota(0);
  EXPECT_TRUE(governor.ProbeNow());
  EXPECT_FALSE(governor.degraded());
  // No stale probe file left behind.
  EXPECT_FALSE(fs::exists(fs::path(dir) / ".gs-write-probe"));
}

TEST(StorageGovernorTest, MetricsExportTheStateMachine) {
  MetricsRegistry registry;
  StorageGovernorOptions options;
  options.metrics = &registry;
  StorageGovernor governor(options);
  governor.SetUsage("journal", 1234);

  governor.RecordWriteResult("journal", Status::IoError("EIO"));
  std::string prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("geostreams_storage_degraded 1"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("geostreams_storage_degraded_entries_total 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("geostreams_storage_bytes{subsystem=\"journal\"} 1234"),
            std::string::npos)
      << prom;

  governor.RecordWriteResult("journal", Status::OK());  // heals via probe
  prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("geostreams_storage_degraded 0"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("geostreams_storage_healed_total 1"),
            std::string::npos)
      << prom;
}

}  // namespace
}  // namespace geostreams
