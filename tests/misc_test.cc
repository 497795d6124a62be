// Coverage for the small shared utilities: logging, metrics,
// diagnostic string forms.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/status.h"
#include "core/stream_event.h"
#include "stream/memory_tracker.h"
#include "stream/metrics.h"
#include "stream/operator.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

TEST(LoggingTest, LevelRoundTrip) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Messages below the level are dropped (no crash, no output check
  // needed beyond exercising the path).
  GEOSTREAMS_LOG(kDebug) << "suppressed " << 42;
  GEOSTREAMS_LOG(kError) << "emitted " << 43;
  SetLogLevel(before);
}

/// Counts how often a log statement formats it.
struct FormatCounter {
  int* formatted;
};

std::ostream& operator<<(std::ostream& os, const FormatCounter& counter) {
  ++*counter.formatted;
  return os << "counted";
}

TEST(LoggingTest, SuppressedLinesFormatNothing) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  int formatted = 0;
  GEOSTREAMS_LOG(kDebug) << FormatCounter{&formatted};
  GEOSTREAMS_LOG(kInfo) << "value " << FormatCounter{&formatted};
  EXPECT_EQ(formatted, 0);
  GEOSTREAMS_LOG(kWarning) << FormatCounter{&formatted};
  EXPECT_EQ(formatted, 1);
  // One expression: an `else` after it binds to the caller's `if`.
  bool took_else = false;
  if (formatted == 0)
    GEOSTREAMS_LOG(kError) << FormatCounter{&formatted};
  else
    took_else = true;
  EXPECT_TRUE(took_else);
  EXPECT_EQ(formatted, 1);
  SetLogLevel(before);
}

TEST(MetricsTest, HighWaterTracksPeak) {
  OperatorMetrics metrics;
  metrics.SetBuffered(100);
  metrics.SetBuffered(50);
  EXPECT_EQ(metrics.buffered_bytes, 50u);
  EXPECT_EQ(metrics.buffered_bytes_high_water, 100u);
  metrics.SetBuffered(200);
  EXPECT_EQ(metrics.buffered_bytes_high_water, 200u);
  const std::string s = metrics.ToString();
  EXPECT_NE(s.find("high_water=200"), std::string::npos);
  metrics.Reset();
  EXPECT_EQ(metrics.buffered_bytes_high_water, 0u);
}

TEST(MetricsTest, MergeFromSumsHighWaterButKeepsTrueMax) {
  OperatorMetrics a;
  a.SetBuffered(300);
  a.SetBuffered(0);
  OperatorMetrics b;
  b.SetBuffered(120);
  OperatorMetrics merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  // The summed high water is an upper bound (peaks need not coincide);
  // the max records the worst single operator.
  EXPECT_EQ(merged.buffered_bytes_high_water, 420u);
  EXPECT_EQ(merged.buffered_bytes_high_water_max, 300u);
  EXPECT_EQ(merged.buffered_bytes, 120u);
  const std::string s = merged.ToString();
  EXPECT_NE(s.find("high_water=420"), std::string::npos);
  EXPECT_NE(s.find("high_water_max=300"), std::string::npos);
}

TEST(MemoryTrackerTest, AggregatesAcrossOwners) {
  MemoryTracker tracker;
  tracker.Update("a", 100);
  tracker.Update("b", 50);
  EXPECT_EQ(tracker.TotalBytes(), 150u);
  tracker.Update("a", 10);  // replaces, not adds
  EXPECT_EQ(tracker.TotalBytes(), 60u);
  EXPECT_EQ(tracker.HighWaterBytes(), 150u);
  EXPECT_EQ(tracker.OwnerHighWater("a"), 100u);
  EXPECT_EQ(tracker.OwnerHighWater("unknown"), 0u);
  tracker.Reset();
  EXPECT_EQ(tracker.TotalBytes(), 0u);
  EXPECT_EQ(tracker.HighWaterBytes(), 0u);
}

/// An operator whose buffered figure the test sets directly.
class ReportingOp : public UnaryOperator {
 public:
  using UnaryOperator::UnaryOperator;
  void Report(uint64_t bytes) { ReportBuffered(bytes); }

 protected:
  Status Process(const StreamEvent& event) override { return Emit(event); }
};

TEST(MemoryTrackerTest, UnchangedReportsKeepEveryFigure) {
  // Operators skip the tracker when their figure did not change. The
  // tracker must still read exactly as if it heard every report.
  MemoryTracker tracker;
  MemoryTracker every_report;
  ReportingOp a("a");
  ReportingOp b("b");
  a.BindMemoryTracker(&tracker);
  b.BindMemoryTracker(&tracker);
  const std::vector<std::pair<ReportingOp*, uint64_t>> reports = {
      {&a, 0},   {&b, 0},   {&a, 0},  {&a, 64}, {&a, 64}, {&b, 32},
      {&b, 32},  {&a, 64},  {&b, 96}, {&a, 16}, {&a, 16}, {&b, 96},
      {&b, 0},   {&b, 0},   {&a, 0},  {&a, 80}, {&b, 80}, {&b, 80},
      {&a, 80},  {&a, 0},
  };
  for (size_t i = 0; i < reports.size(); ++i) {
    auto [op, bytes] = reports[i];
    op->Report(bytes);
    every_report.Update(op->name(), bytes);
    EXPECT_EQ(tracker.TotalBytes(), every_report.TotalBytes()) << i;
    EXPECT_EQ(tracker.HighWaterBytes(), every_report.HighWaterBytes()) << i;
    EXPECT_EQ(tracker.OwnerHighWater("a"), every_report.OwnerHighWater("a"))
        << i;
    EXPECT_EQ(tracker.OwnerHighWater("b"), every_report.OwnerHighWater("b"))
        << i;
    EXPECT_EQ(tracker.Snapshot(), every_report.Snapshot()) << i;
    EXPECT_EQ(op->metrics().buffered_bytes, bytes) << i;
  }
  EXPECT_EQ(tracker.HighWaterBytes(), 160u);
  // Rebinding forgets the last figure: the new tracker hears it.
  MemoryTracker other;
  a.BindMemoryTracker(&other);
  a.Report(0);
  EXPECT_EQ(other.Snapshot().count("a"), 1u);
}

TEST(DiagnosticsTest, StatusCodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCrsMismatch), "CrsMismatch");
  EXPECT_STREQ(StatusCodeName(StatusCode::kLatticeMismatch),
               "LatticeMismatch");
}

TEST(DiagnosticsTest, FrameInfoToString) {
  FrameInfo info;
  info.frame_id = 12;
  info.lattice = testing_util::LatLonLattice(4, 4);
  info.expected_points = 16;
  const std::string s = info.ToString();
  EXPECT_NE(s.find("frame 12"), std::string::npos);
  EXPECT_NE(s.find("expected=16"), std::string::npos);
  EXPECT_NE(s.find("latlon"), std::string::npos);
}

TEST(DiagnosticsTest, CollectingSinkHelpers) {
  CollectingSink sink;
  GridLattice lattice = testing_util::LatLonLattice(3, 3);
  GS_ASSERT_OK(testing_util::PushFrame(&sink, lattice, 0));
  GS_ASSERT_OK(testing_util::PushFrame(&sink, lattice, 1));
  EXPECT_EQ(sink.NumFrames(), 2u);
  EXPECT_EQ(sink.TotalPoints(), 18u);
  sink.Clear();
  EXPECT_EQ(sink.events().size(), 0u);
}

TEST(DiagnosticsTest, NullSinkCounts) {
  NullSink sink;
  GridLattice lattice = testing_util::LatLonLattice(3, 2);
  GS_ASSERT_OK(testing_util::PushFrame(&sink, lattice, 0));
  EXPECT_EQ(sink.points(), 6u);
  EXPECT_EQ(sink.events(), 2u + 2u);  // begin + 2 rows + end
}

}  // namespace
}  // namespace geostreams
