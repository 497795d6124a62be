// One registration path: every query — live, SINCE or a derived view
// — reads each source from a frame boundary on, through its inputs'
// CatchUpGates. A query registered while a frame is in flight never
// sees that frame's rows without its FrameBegin: without a store it
// starts at the next frame; with one it gets the in-flight frame
// whole, exactly once, from the store, then every later frame.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
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

/// Every frame a query delivered, by id, with all its samples.
class Frames {
 public:
  FrameCallback Callback() {
    return [this](int64_t frame_id, const Raster& raster,
                  const std::vector<uint8_t>&) {
      std::vector<double> samples;
      samples.reserve(static_cast<size_t>(raster.num_pixels()));
      for (int64_t row = 0; row < raster.height(); ++row) {
        for (int64_t col = 0; col < raster.width(); ++col) {
          samples.push_back(raster.At(col, row));
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      ids_.push_back(frame_id);
      samples_[frame_id] = std::move(samples);
    };
  }

  std::vector<int64_t> ids() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_;
  }

  std::vector<double> samples(int64_t frame_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = samples_.find(frame_id);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::vector<int64_t> ids_;
  std::map<int64_t, std::vector<double>> samples_;
};

/// A single-source plan, a frame-scoped one, and a two-source one.
const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      "a", "reproject(a, \"mercator\")", "ndvi(a, b)"};
  return queries;
}

/// A fresh, empty tile-store directory named after the running test.
std::string FreshStoreDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = std::string(info->test_suite_name()) + "-" + info->name();
  std::replace(tag.begin(), tag.end(), '/', '_');
  const std::string dir = ::testing::TempDir() + "gsregister-" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Two synthetic sources "a" and "b" (16x12 lat/lon), with the tile
/// store in `store_dir` (none when empty).
std::unique_ptr<DsmsServer> MakeServer(size_t workers,
                                       const std::string& store_dir) {
  DsmsOptions options;
  options.workers = workers;
  options.store_dir = store_dir;
  auto server = std::make_unique<DsmsServer>(options);
  EXPECT_TRUE(server->RegisterStream(TestDescriptor("a")).ok());
  EXPECT_TRUE(server->RegisterStream(TestDescriptor("b")).ok());
  return server;
}

std::unique_ptr<DsmsServer> MakeServer(size_t workers, bool store) {
  return MakeServer(workers, store ? FreshStoreDir() : std::string());
}

FrameInfo Info(const GridLattice& lattice, int64_t frame_id) {
  FrameInfo info;
  info.frame_id = frame_id;
  info.lattice = lattice;
  info.expected_points = lattice.num_cells();
  return info;
}

Status PushRow(EventSink* sink, const GridLattice& lattice, int64_t frame_id,
               int64_t row) {
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = frame_id;
  batch->band_count = 1;
  for (int64_t col = 0; col < lattice.width(); ++col) {
    batch->Append1(static_cast<int32_t>(col), static_cast<int32_t>(row),
                   frame_id, TestValue(frame_id, col, row));
  }
  return sink->Consume(StreamEvent::Batch(std::move(batch)));
}

std::vector<int64_t> Range(int64_t first, int64_t last) {
  std::vector<int64_t> out;
  for (int64_t f = first; f <= last; ++f) out.push_back(f);
  return out;
}

TEST(RegistrationTest, PointByPointResultIsRefusedButAViewOverItFlows) {
  for (size_t workers : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(StringPrintf("workers=%zu", workers));
    DsmsOptions options;
    options.workers = workers;
    DsmsServer server(options);
    GS_ASSERT_OK(server.RegisterStream(
        TestDescriptor("p", 16, 12, PointOrganization::kPointByPoint)));
    // Delivery assembles frames, and a point-by-point result never
    // opens one: refused up front instead of quarantined at the first
    // batch.
    auto refused = server.RegisterQuery(
        "p", [](int64_t, const Raster&, const std::vector<uint8_t>&) {});
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(server.num_queries(), 0u);

    // A view over the frameless stream is allowed, and its gate is
    // open from registration: batches flow with no FrameBegin at all.
    auto view = server.RegisterDerivedStream("pv", "p");
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    auto batch = std::make_shared<PointBatch>();
    batch->band_count = 1;
    batch->Append1(3, 2, 7, TestValue(0, 3, 2));
    GS_ASSERT_OK(
        server.ingest("p")->Consume(StreamEvent::Batch(std::move(batch))));
    GS_ASSERT_OK(server.Flush());
    const std::string pipeline =
        StringPrintf("q%lld", static_cast<long long>(*view));
    bool found = false;
    for (const ScheduledQueueStats& stats : server.SchedulerStats()) {
      if (stats.name != pipeline) continue;
      found = true;
      EXPECT_EQ(stats.processed, 1u);
      EXPECT_EQ(stats.health, PipelineHealth::kRunning);
    }
    EXPECT_TRUE(found);
  }
}

using WorkersAndStore = std::tuple<size_t, bool>;

std::string ParamName(const ::testing::TestParamInfo<WorkersAndStore>& info) {
  return StringPrintf("Workers%zu%s", std::get<0>(info.param),
                      std::get<1>(info.param) ? "Store" : "NoStore");
}

class MidFrameRegistrationTest
    : public ::testing::TestWithParam<WorkersAndStore> {};

TEST_P(MidFrameRegistrationTest, LiveQueriesStartAtAFrameBoundary) {
  const auto [workers, store] = GetParam();
  std::unique_ptr<DsmsServer> server = MakeServer(workers, store);
  const GridLattice lattice = LatLonLattice(16, 12);
  EventSink* a = server->ingest("a");
  EventSink* b = server->ingest("b");

  // Reference subscribers, registered before any frame: they see all.
  std::vector<std::unique_ptr<Frames>> reference;
  for (const std::string& text : Queries()) {
    reference.push_back(std::make_unique<Frames>());
    ASSERT_TRUE(server->RegisterQuery(text, reference.back()->Callback()).ok());
  }

  // Frame 0 goes in flight on both sources...
  for (EventSink* sink : {a, b}) {
    GS_ASSERT_OK(sink->Consume(StreamEvent::FrameBegin(Info(lattice, 0))));
    GS_ASSERT_OK(PushRow(sink, lattice, 0, 0));
  }
  // ...and the same queries register in the middle of it.
  std::vector<std::unique_ptr<Frames>> late;
  std::vector<QueryId> late_ids;
  for (const std::string& text : Queries()) {
    late.push_back(std::make_unique<Frames>());
    auto id = server->RegisterQuery(text, late.back()->Callback());
    ASSERT_TRUE(id.ok()) << text << ": " << id.status().ToString();
    late_ids.push_back(*id);
  }
  for (int64_t row = 1; row < lattice.height(); ++row) {
    for (EventSink* sink : {a, b}) {
      GS_ASSERT_OK(PushRow(sink, lattice, 0, row));
    }
  }
  for (EventSink* sink : {a, b}) {
    GS_ASSERT_OK(sink->Consume(StreamEvent::FrameEnd(Info(lattice, 0))));
  }
  for (int64_t f = 1; f <= 2; ++f) {
    GS_ASSERT_OK(PushFrame(a, lattice, f));
    GS_ASSERT_OK(PushFrame(b, lattice, f));
  }
  GS_ASSERT_OK(server->Flush());

  for (size_t q = 0; q < Queries().size(); ++q) {
    SCOPED_TRACE(Queries()[q]);
    auto health = server->QueryHealth(late_ids[q]);
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(*health, PipelineHealth::kRunning)
        << server->QueryError(late_ids[q]).ToString();
    EXPECT_EQ(reference[q]->ids(), Range(0, 2));
    // Without history the in-flight frame is lost whole; with it, the
    // store delivers it whole, once.
    EXPECT_EQ(late[q]->ids(), Range(store ? 0 : 1, 2));
    for (int64_t f : late[q]->ids()) {
      EXPECT_EQ(late[q]->samples(f), reference[q]->samples(f))
          << "frame " << f;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorkersAndStore, MidFrameRegistrationTest,
                         ::testing::Combine(::testing::Values(size_t{0},
                                                              size_t{2}),
                                            ::testing::Bool()),
                         ParamName);

/// Two producers keep ingesting "a" and "b" while the queries register
/// over and over: every registration lands at some arbitrary point of
/// some frame, yet each query stays healthy and delivers a gapless run
/// of whole frames, identical to a subscriber registered before the
/// stream began.
class ConcurrentRegistrationTest
    : public ::testing::TestWithParam<WorkersAndStore> {};

TEST_P(ConcurrentRegistrationTest, QueriesRegisteringWhileProducersIngest) {
  const auto [workers, store] = GetParam();
  std::unique_ptr<DsmsServer> server = MakeServer(workers, store);
  const GridLattice lattice = LatLonLattice(16, 12);
  constexpr int64_t kFrames = 24;
  constexpr int kRounds = 4;

  std::vector<std::unique_ptr<Frames>> reference;
  for (const std::string& text : Queries()) {
    reference.push_back(std::make_unique<Frames>());
    ASSERT_TRUE(server->RegisterQuery(text, reference.back()->Callback()).ok());
  }

  // The frame producer "a" is pushing; rounds of registrations are
  // spread over the stream by it.
  std::atomic<int64_t> a_frame{-1};
  Status produced[2] = {Status::OK(), Status::OK()};
  std::vector<std::thread> producers;
  for (int s = 0; s < 2; ++s) {
    producers.emplace_back([&, s] {
      EventSink* sink = server->ingest(s == 0 ? "a" : "b");
      for (int64_t f = 0; f < kFrames && produced[s].ok(); ++f) {
        if (s == 0) a_frame.store(f, std::memory_order_release);
        produced[s] = PushFrame(sink, lattice, f);
      }
      if (s == 0) a_frame.store(kFrames, std::memory_order_release);
    });
  }
  std::vector<std::unique_ptr<Frames>> late;
  std::vector<QueryId> late_ids;
  std::vector<size_t> late_query;
  for (int round = 0; round < kRounds; ++round) {
    while (a_frame.load(std::memory_order_acquire) <
           (round + 1) * kFrames / (kRounds + 1)) {
      std::this_thread::yield();
    }
    for (size_t q = 0; q < Queries().size(); ++q) {
      late.push_back(std::make_unique<Frames>());
      auto id = server->RegisterQuery(Queries()[q], late.back()->Callback());
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      late_ids.push_back(*id);
      late_query.push_back(q);
    }
  }
  for (std::thread& producer : producers) producer.join();
  GS_ASSERT_OK(produced[0]);
  GS_ASSERT_OK(produced[1]);
  // One more frame after every registration, so each query has
  // something to deliver.
  GS_ASSERT_OK(PushFrame(server->ingest("a"), lattice, kFrames));
  GS_ASSERT_OK(PushFrame(server->ingest("b"), lattice, kFrames));
  GS_ASSERT_OK(server->Flush());

  for (size_t i = 0; i < late.size(); ++i) {
    const size_t q = late_query[i];
    SCOPED_TRACE(StringPrintf("%s (registration %zu)",
                              Queries()[q].c_str(), i));
    auto health = server->QueryHealth(late_ids[i]);
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(*health, PipelineHealth::kRunning)
        << server->QueryError(late_ids[i]).ToString();
    const std::vector<int64_t> ids = late[i]->ids();
    ASSERT_FALSE(ids.empty());
    EXPECT_EQ(ids, Range(ids.front(), kFrames));
    for (int64_t f : ids) {
      EXPECT_EQ(late[i]->samples(f), reference[q]->samples(f))
          << "frame " << f;
    }
  }
}

/// A StreamEnd ingested the moment registration has assigned the
/// query id (on_registered lingers, so the end races whatever the
/// registration does next) still reaches every input of the query.
TEST_P(ConcurrentRegistrationTest, StreamEndRacingTheRegistrationArrives) {
  const auto [workers, store] = GetParam();
  const GridLattice lattice = LatLonLattice(16, 12);
  for (const std::string& text : Queries()) {
    SCOPED_TRACE(text);
    std::unique_ptr<DsmsServer> server = MakeServer(workers, store);
    // History a live query does not replay.
    for (int64_t f = 0; f < 2; ++f) {
      GS_ASSERT_OK(PushFrame(server->ingest("a"), lattice, f));
      GS_ASSERT_OK(PushFrame(server->ingest("b"), lattice, f));
    }
    GS_ASSERT_OK(server->Flush());

    std::atomic<bool> registered{false};
    Status ended = Status::OK();
    std::thread producer([&] {
      while (!registered.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (const char* source : {"a", "b"}) {
        if (ended.ok()) {
          ended = server->ingest(source)->Consume(StreamEvent::StreamEnd());
        }
      }
    });
    CatchUpOptions live;
    live.since = std::numeric_limits<int64_t>::max();
    live.on_registered = [&registered](QueryId) {
      registered.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    Frames frames;
    auto id = server->RegisterQuery(text, frames.Callback(), live);
    producer.join();
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    GS_ASSERT_OK(ended);
    GS_ASSERT_OK(server->Flush());

    // Nothing but the end reaches the query: one StreamEnd per input.
    const uint64_t inputs = text.find("ndvi") == 0 ? 2 : 1;
    const std::string pipeline =
        StringPrintf("q%lld", static_cast<long long>(*id));
    bool found = false;
    for (const ScheduledQueueStats& stats : server->SchedulerStats()) {
      if (stats.name != pipeline) continue;
      found = true;
      EXPECT_EQ(stats.processed, inputs);
      EXPECT_EQ(stats.health, PipelineHealth::kRunning) << stats.error;
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(frames.ids().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(WorkersAndStore, ConcurrentRegistrationTest,
                         ::testing::Combine(::testing::Values(size_t{0},
                                                              size_t{2}),
                                            ::testing::Bool()),
                         ParamName);

/// A server restarted over the store of an earlier run whose producer
/// numbers its frames from 0 again: the recovered watermark is above
/// every new frame id, yet live queries and a derived view registered
/// after the restart deliver every new frame.
class RestartRegistrationTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RestartRegistrationTest, LiveQueriesAfterARestartSeeEveryFrame) {
  const size_t workers = GetParam();
  const std::string dir = FreshStoreDir();
  const GridLattice lattice = LatLonLattice(16, 12);
  constexpr int64_t kFrames = 4;
  std::vector<std::string> texts = Queries();
  texts.push_back("v");
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(StringPrintf("run %d", run));
    std::unique_ptr<DsmsServer> server = MakeServer(workers, dir);
    auto view = server->RegisterDerivedStream("v", "ndvi(a, b)");
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    std::vector<std::unique_ptr<Frames>> frames;
    std::vector<QueryId> ids;
    for (const std::string& text : texts) {
      frames.push_back(std::make_unique<Frames>());
      auto id = server->RegisterQuery(text, frames.back()->Callback());
      ASSERT_TRUE(id.ok()) << text << ": " << id.status().ToString();
      ids.push_back(*id);
    }
    for (int64_t f = 0; f < kFrames; ++f) {
      GS_ASSERT_OK(PushFrame(server->ingest("a"), lattice, f));
      GS_ASSERT_OK(PushFrame(server->ingest("b"), lattice, f));
    }
    GS_ASSERT_OK(server->Flush());
    for (size_t q = 0; q < texts.size(); ++q) {
      SCOPED_TRACE(texts[q]);
      auto health = server->QueryHealth(ids[q]);
      ASSERT_TRUE(health.ok());
      EXPECT_EQ(*health, PipelineHealth::kRunning)
          << server->QueryError(ids[q]).ToString();
      EXPECT_EQ(frames[q]->ids(), Range(0, kFrames - 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, RestartRegistrationTest,
                         ::testing::Values(size_t{0}, size_t{2}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return StringPrintf("Workers%zu", info.param);
                         });

}  // namespace
}  // namespace geostreams
