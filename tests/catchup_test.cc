// Hybrid stream/stored catch-up tests: a query registered with
// CatchUpOptions replays the recorded history through its own plan and
// then cuts over to the live stream exactly once at a frame-id
// watermark. These tests audit the seam — the delivered frame-id
// sequence must be gapless and duplicate-free across the cut-over —
// under synchronous and worker-pool execution, empty stores, mid-frame
// late attaches, SINCE offsets, and temporal windows spanning
// past + future.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "server/dsms_server.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

namespace fs = std::filesystem;
using testing_util::LatLonLattice;
using testing_util::PushFrame;
using testing_util::TestDescriptor;
using testing_util::TestValue;

std::string FreshDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "gscatchup-" +
                    info->test_suite_name() + "-" + info->name() + "-" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Thread-safe frame capture with the exactly-once audit: the frame-id
/// sequence a subscriber sees must be strictly ascending (no
/// duplicates, no reordering across the stored→live seam).
class Audit {
 public:
  FrameCallback Callback() {
    return [this](int64_t frame_id, const Raster& raster,
                  const std::vector<uint8_t>&) {
      // A filtered frame delivers as all-nodata (0.0); a data frame
      // has TestValue samples, which are nonzero off the origin cell.
      bool any = false;
      for (int64_t row = 0; row < raster.height() && !any; ++row) {
        for (int64_t col = 0; col < raster.width() && !any; ++col) {
          any = raster.At(col, row) != 0.0;
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      ids_.push_back(frame_id);
      if (any) {
        data_ids_.push_back(frame_id);
        sample_.emplace_back(frame_id, raster.At(3, 2));
      }
    };
  }

  std::vector<int64_t> ids() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_;
  }

  std::vector<int64_t> data_ids() const {
    std::lock_guard<std::mutex> lock(mu_);
    return data_ids_;
  }

  /// Asserts the full exactly-once contract: delivered ids are exactly
  /// first..last with no gap and no duplicate.
  void ExpectContiguous(int64_t first, int64_t last) const {
    std::vector<int64_t> expect;
    for (int64_t f = first; f <= last; ++f) expect.push_back(f);
    EXPECT_EQ(ids(), expect);
  }

  /// Sampled cell values round-tripped bit-exact through the store.
  void ExpectSampleValues() const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [frame_id, value] : sample_) {
      EXPECT_EQ(value, TestValue(frame_id, 3, 2)) << "frame " << frame_id;
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<int64_t> ids_;
  std::vector<int64_t> data_ids_;
  std::vector<std::pair<int64_t, double>> sample_;
};

/// A server with the tile store enabled and one synthetic stream
/// ("src", 16x12 lat/lon) whose frames are pushed by hand so the test
/// controls exactly which frame ids exist where.
class CatchUpFixture {
 public:
  explicit CatchUpFixture(DsmsOptions options = {}) {
    options.store_dir = FreshDir("store");
    server_ = std::make_unique<DsmsServer>(options);
    Status st = server_->RegisterStream(TestDescriptor("src"));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  Status Ingest(int64_t first, int64_t count) {
    for (int64_t f = first; f < first + count; ++f) {
      GEOSTREAMS_RETURN_IF_ERROR(
          PushFrame(server_->ingest("src"), lattice_, f));
    }
    return server_->Flush();
  }

  Result<QueryId> Subscribe(Audit* audit, int64_t since,
                            const std::string& text = "src") {
    CatchUpOptions catch_up;
    catch_up.since = since;
    return server_->RegisterQuery(text, audit->Callback(), catch_up);
  }

  DsmsServer& server() { return *server_; }
  const GridLattice& lattice() const { return lattice_; }

 private:
  GridLattice lattice_ = LatLonLattice(16, 12);
  std::unique_ptr<DsmsServer> server_;
};

TEST(CatchUpTest, LateSubscriberReplaysHistoryThenLiveWithNoSeam) {
  CatchUpFixture fixture;
  GS_ASSERT_OK(fixture.Ingest(0, 10));

  Audit audit;
  auto id = fixture.Subscribe(&audit, INT64_MIN);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // All of history arrived before the registration call returned.
  audit.ExpectContiguous(0, 9);

  GS_ASSERT_OK(fixture.Ingest(10, 5));
  audit.ExpectContiguous(0, 14);
  audit.ExpectSampleValues();
  GS_ASSERT_OK(fixture.server().UnregisterQuery(*id));
}

TEST(CatchUpTest, WorkerPoolKeepsTheSeamExactlyOnce) {
  DsmsOptions options;
  options.workers = 2;
  CatchUpFixture fixture(options);
  GS_ASSERT_OK(fixture.Ingest(0, 12));

  Audit audit;
  auto id = fixture.Subscribe(&audit, INT64_MIN);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  GS_ASSERT_OK(fixture.Ingest(12, 8));
  GS_ASSERT_OK(fixture.server().Flush());
  audit.ExpectContiguous(0, 19);
  audit.ExpectSampleValues();
  GS_ASSERT_OK(fixture.server().UnregisterQuery(*id));
}

TEST(CatchUpTest, EmptyStoreCatchUpActsLikePlainSubscribe) {
  CatchUpFixture fixture;
  Audit audit;
  auto id = fixture.Subscribe(&audit, INT64_MIN);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(audit.ids().empty());

  GS_ASSERT_OK(fixture.Ingest(0, 4));
  audit.ExpectContiguous(0, 3);
  GS_ASSERT_OK(fixture.server().UnregisterQuery(*id));
}

TEST(CatchUpTest, SinceOffsetsTheReplayStart) {
  CatchUpFixture fixture;
  GS_ASSERT_OK(fixture.Ingest(0, 10));

  Audit audit;
  auto id = fixture.Subscribe(&audit, 5);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  audit.ExpectContiguous(5, 9);
  GS_ASSERT_OK(fixture.Ingest(10, 3));
  audit.ExpectContiguous(5, 12);
  GS_ASSERT_OK(fixture.server().UnregisterQuery(*id));
}

TEST(CatchUpTest, SinceBeyondHistoryDeliversOnlyLive) {
  CatchUpFixture fixture;
  GS_ASSERT_OK(fixture.Ingest(0, 6));

  Audit audit;
  auto id = fixture.Subscribe(&audit, 100);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(audit.ids().empty());
  // Live frames 6..8 are all <= nothing — they flow normally (they are
  // above the store watermark 5, which the gate froze at registration).
  GS_ASSERT_OK(fixture.Ingest(6, 3));
  audit.ExpectContiguous(6, 8);
  GS_ASSERT_OK(fixture.server().UnregisterQuery(*id));
}

TEST(CatchUpTest, StoreEndingExactlyAtWatermarkHandlesStreamEnd) {
  CatchUpFixture fixture;
  GS_ASSERT_OK(fixture.Ingest(0, 7));

  Audit audit;
  auto id = fixture.Subscribe(&audit, INT64_MIN);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  audit.ExpectContiguous(0, 6);

  // No live frame ever arrives past the watermark: the StreamEnd must
  // drain the (empty) remainder of the store and pass through without
  // re-delivering history.
  GS_ASSERT_OK(fixture.server().EndAllStreams());
  GS_ASSERT_OK(fixture.server().Flush());
  audit.ExpectContiguous(0, 6);
}

TEST(CatchUpTest, LateAttachMidFrameNeverSplitsAFrame) {
  CatchUpFixture fixture;
  GS_ASSERT_OK(fixture.Ingest(0, 5));

  // Start frame 5 by hand and leave it half-ingested.
  EventSink* ingest = fixture.server().ingest("src");
  ASSERT_NE(ingest, nullptr);
  const GridLattice& lattice = fixture.lattice();
  FrameInfo info;
  info.frame_id = 5;
  info.lattice = lattice;
  info.expected_points = lattice.num_cells();
  GS_ASSERT_OK(ingest->Consume(StreamEvent::FrameBegin(info)));
  {
    auto batch = std::make_shared<PointBatch>();
    batch->frame_id = 5;
    batch->band_count = 1;
    for (int64_t col = 0; col < lattice.width(); ++col) {
      batch->Append1(static_cast<int32_t>(col), 0, 5, TestValue(5, col, 0));
    }
    GS_ASSERT_OK(ingest->Consume(StreamEvent::Batch(std::move(batch))));
  }

  // Attach mid-frame: the store holds 0..4, frame 5 is in flight.
  Audit audit;
  auto id = fixture.Subscribe(&audit, INT64_MIN);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  audit.ExpectContiguous(0, 4);

  // Finish frame 5 and push more: the subscriber must see 5 exactly
  // once — from whichever side of the seam won — then 6..7.
  for (int64_t row = 1; row < lattice.height(); ++row) {
    auto batch = std::make_shared<PointBatch>();
    batch->frame_id = 5;
    batch->band_count = 1;
    for (int64_t col = 0; col < lattice.width(); ++col) {
      batch->Append1(static_cast<int32_t>(col), static_cast<int32_t>(row), 5,
                     TestValue(5, col, row));
    }
    GS_ASSERT_OK(ingest->Consume(StreamEvent::Batch(std::move(batch))));
  }
  GS_ASSERT_OK(ingest->Consume(StreamEvent::FrameEnd(info)));
  GS_ASSERT_OK(fixture.Ingest(6, 2));
  audit.ExpectContiguous(0, 7);
  audit.ExpectSampleValues();
  GS_ASSERT_OK(fixture.server().UnregisterQuery(*id));
}

TEST(CatchUpTest, TemporalWindowSpansPastAndFuture) {
  CatchUpFixture fixture;
  GS_ASSERT_OK(fixture.Ingest(0, 10));

  // The G|T window covers stored frames 3..9 and future frames 10..12.
  // Every frame still delivers an envelope (the delivery op emits
  // all-nodata rasters for filtered frames), but only the window
  // carries data — across both the stored and the live side.
  Audit audit;
  auto id = fixture.Subscribe(&audit, INT64_MIN, "time(src, range(3, 12))");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  GS_ASSERT_OK(fixture.Ingest(10, 5));
  audit.ExpectContiguous(0, 14);
  std::vector<int64_t> expect_data;
  for (int64_t f = 3; f <= 12; ++f) expect_data.push_back(f);
  EXPECT_EQ(audit.data_ids(), expect_data);
  GS_ASSERT_OK(fixture.server().UnregisterQuery(*id));
}

TEST(CatchUpTest, RegionQueryReplaysOnlyTheRegion) {
  CatchUpFixture fixture;
  GS_ASSERT_OK(fixture.Ingest(0, 6));

  // A box over part of the lattice: replayed frames run through the
  // same region plan the live chain uses, so both sides agree.
  Audit audit;
  auto id = fixture.Subscribe(&audit, INT64_MIN,
                              "region(src, bbox(-125, 43, -122, 45))");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  GS_ASSERT_OK(fixture.Ingest(6, 3));
  audit.ExpectContiguous(0, 8);
  // Every delivered frame has data (the box overlaps the lattice) and
  // the frames were reduced to the region on both sides of the seam.
  EXPECT_EQ(audit.data_ids().size(), 9u);
  GS_ASSERT_OK(fixture.server().UnregisterQuery(*id));
}

TEST(CatchUpTest, CatchUpFailsCleanlyOnBadQueryText) {
  CatchUpFixture fixture;
  GS_ASSERT_OK(fixture.Ingest(0, 3));
  Audit audit;
  auto id = fixture.Subscribe(&audit, INT64_MIN, "nope.stream");
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(fixture.server().num_queries(), 0u);
  // The server keeps working for the next subscriber.
  Audit ok_audit;
  auto ok_id = fixture.Subscribe(&ok_audit, INT64_MIN);
  ASSERT_TRUE(ok_id.ok()) << ok_id.status().ToString();
  ok_audit.ExpectContiguous(0, 2);
  GS_ASSERT_OK(fixture.server().UnregisterQuery(*ok_id));
}

TEST(CatchUpTest, StoreSurvivesServerRestartAndServesNewSubscribers) {
  DsmsOptions options;
  options.store_dir = FreshDir("restart");
  const GridLattice lattice = LatLonLattice(16, 12);
  {
    DsmsServer server(options);
    GS_ASSERT_OK(server.RegisterStream(TestDescriptor("src")));
    for (int64_t f = 0; f < 5; ++f) {
      GS_ASSERT_OK(PushFrame(server.ingest("src"), lattice, f));
    }
    GS_ASSERT_OK(server.Flush());
  }
  // A new server over the same directory recovers the history and
  // serves it to a catch-up subscriber, then appends live frames.
  DsmsServer server(options);
  GS_ASSERT_OK(server.RegisterStream(TestDescriptor("src")));
  ASSERT_NE(server.store(), nullptr);
  EXPECT_EQ(server.store()->Watermark("src"), 4);

  Audit audit;
  CatchUpOptions catch_up;
  catch_up.since = INT64_MIN;
  auto id = server.RegisterQuery("src", audit.Callback(), catch_up);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  audit.ExpectContiguous(0, 4);
  for (int64_t f = 5; f < 8; ++f) {
    GS_ASSERT_OK(PushFrame(server.ingest("src"), lattice, f));
  }
  GS_ASSERT_OK(server.Flush());
  audit.ExpectContiguous(0, 7);
  audit.ExpectSampleValues();
  GS_ASSERT_OK(server.UnregisterQuery(*id));
}

/// Seam audit under concurrent ingest: a producer thread pushes live
/// frames, then a StreamEnd, while a SINCE registration replays the
/// store and arms its gates. Depending on the interleaving, a live
/// frame is replayed by the registering thread (it committed before
/// the gate armed, which moves the watermark and makes the arming
/// retry), by the seam or the StreamEnd drain (it committed after),
/// or flows live; a StreamEnd that beats the arming is dropped. Every
/// interleaving must deliver each frame exactly once, in order.
/// Parameterized on the worker count and on the plan: one source, or
/// a two-source ndvi(a, b) whose two gates arm independently.
class CatchUpConcurrentIngestTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(CatchUpConcurrentIngestTest, LiveFramesRacingTheReplayArriveOnce) {
  const size_t workers = std::get<0>(GetParam());
  const bool ndvi = std::get<1>(GetParam());
  DsmsOptions options;
  options.workers = workers;
  options.store_dir = FreshDir("store");
  DsmsServer server(options);
  GS_ASSERT_OK(server.RegisterStream(TestDescriptor("a")));
  GS_ASSERT_OK(server.RegisterStream(TestDescriptor("b")));
  const std::vector<std::string> sources =
      ndvi ? std::vector<std::string>{"a", "b"}
           : std::vector<std::string>{"a"};
  const GridLattice lattice = LatLonLattice(16, 12);
  auto push = [&](int64_t frame) -> Status {
    for (const std::string& source : sources) {
      GEOSTREAMS_RETURN_IF_ERROR(
          PushFrame(server.ingest(source), lattice, frame));
    }
    return Status::OK();
  };
  // A history long enough that the producer usually finishes — its
  // StreamEnd included — while the replay is still running.
  constexpr int64_t kHistory = 48;
  constexpr int64_t kLive = 8;
  for (int64_t f = 0; f < kHistory; ++f) GS_ASSERT_OK(push(f));
  GS_ASSERT_OK(server.Flush());

  Audit audit;
  std::atomic<bool> go{false};
  Status produced = Status::OK();
  std::thread producer([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int64_t f = kHistory; f < kHistory + kLive && produced.ok(); ++f) {
      produced = push(f);
    }
    for (const std::string& source : sources) {
      if (!produced.ok()) break;
      produced = server.ingest(source)->Consume(StreamEvent::StreamEnd());
    }
  });
  CatchUpOptions catch_up;
  catch_up.since = INT64_MIN;
  go.store(true, std::memory_order_release);
  auto id = server.RegisterQuery(ndvi ? "ndvi(a, b)" : "a", audit.Callback(),
                                 catch_up);
  producer.join();
  GS_ASSERT_OK(produced);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  GS_ASSERT_OK(server.Flush());
  audit.ExpectContiguous(0, kHistory + kLive - 1);
  GS_ASSERT_OK(server.UnregisterQuery(*id));
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndPlans, CatchUpConcurrentIngestTest,
    ::testing::Combine(::testing::Values(size_t{0}, size_t{2}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>>& info) {
      return StringPrintf("Workers%zu%s", std::get<0>(info.param),
                          std::get<1>(info.param) ? "Ndvi" : "OneSource");
    });

}  // namespace
}  // namespace geostreams
