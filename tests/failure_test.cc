// Failure injection (DESIGN.md §5): malformed event sequences, stream
// protocol violations, and degenerate inputs must surface as Status
// errors — never as silent corruption or crashes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>

#include "geo/geographic_crs.h"
#include "ops/compose_op.h"
#include "ops/fault_injector_op.h"
#include "ops/reproject_op.h"
#include "ops/spatial_transform_op.h"
#include "ops/stretch_transform_op.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "query/planner.h"
#include "server/dsms_server.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"
#include "stream/pipeline.h"
#include "stream/scheduler.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::LatLonLattice;
using testing_util::MakeTestCatalog;
using testing_util::PushFrame;

StreamEvent BeginFor(const GridLattice& lattice, int64_t id) {
  FrameInfo info;
  info.frame_id = id;
  info.lattice = lattice;
  return StreamEvent::FrameBegin(info);
}

StreamEvent EndFor(const GridLattice& lattice, int64_t id) {
  FrameInfo info;
  info.frame_id = id;
  info.lattice = lattice;
  return StreamEvent::FrameEnd(info);
}

TEST(FailureTest, NestedFrameBeginRejectedByStretch) {
  GridLattice lattice = LatLonLattice(4, 4);
  StretchOptions opts;
  opts.in_lo = 0.0;
  opts.in_hi = 1.0;
  StretchTransformOp op("s", opts);
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(op.input(0)->Consume(BeginFor(lattice, 0)));
  EXPECT_EQ(op.input(0)->Consume(BeginFor(lattice, 1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FailureTest, ComposeDoubleBeginAndOrphanEvents) {
  GridLattice lattice = LatLonLattice(4, 4);
  ComposeOp op("c", ComposeFn::kAdd);
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(op.input(0)->Consume(BeginFor(lattice, 0)));
  // Same frame beginning twice on the same port.
  EXPECT_EQ(op.input(0)->Consume(BeginFor(lattice, 0)).code(),
            StatusCode::kFailedPrecondition);
  // FrameEnd for a frame that never began on that port.
  EXPECT_EQ(op.input(1)->Consume(EndFor(lattice, 0)).code(),
            StatusCode::kFailedPrecondition);
  // Batch for an unknown frame.
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = 99;
  batch->band_count = 1;
  batch->Append1(0, 0, 99, 1.0);
  EXPECT_EQ(op.input(0)->Consume(StreamEvent::Batch(batch)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FailureTest, ComposeOutOfOrderFramesOnOnePort) {
  // Frames arrive in increasing id order per stream; a regression
  // (lower id after higher) must not deadlock the serializer — the
  // stale frame begins both sides and is emitted, in order, when the
  // open frame closes. Here we inject: port 0 begins 5 then 3.
  GridLattice lattice = LatLonLattice(2, 2);
  ComposeOp op("c", ComposeFn::kAdd);
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(op.input(0)->Consume(BeginFor(lattice, 5)));
  GS_ASSERT_OK(op.input(1)->Consume(BeginFor(lattice, 5)));
  GS_ASSERT_OK(op.input(0)->Consume(BeginFor(lattice, 3)));
  GS_ASSERT_OK(op.input(1)->Consume(BeginFor(lattice, 3)));
  GS_ASSERT_OK(op.input(0)->Consume(EndFor(lattice, 3)));
  GS_ASSERT_OK(op.input(1)->Consume(EndFor(lattice, 3)));
  GS_ASSERT_OK(op.input(0)->Consume(EndFor(lattice, 5)));
  GS_ASSERT_OK(op.input(1)->Consume(EndFor(lattice, 5)));
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::StreamEnd()));
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::StreamEnd()));
  EXPECT_TRUE(testing_util::WellFormedFrames(sink.events()));
  EXPECT_EQ(sink.NumFrames(), 2u);
}

TEST(FailureTest, EmptySectorsFlowThrough) {
  // Sectors that deliver zero points (instrument gap) keep the
  // pipeline healthy.
  GridLattice lattice = LatLonLattice(4, 4);
  ReduceOp op("r", 2);
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(op.input(0)->Consume(BeginFor(lattice, 0)));
  GS_ASSERT_OK(op.input(0)->Consume(EndFor(lattice, 0)));
  GS_ASSERT_OK(PushFrame(op.input(0), lattice, 1));
  EXPECT_EQ(sink.NumFrames(), 2u);
  EXPECT_EQ(sink.TotalPoints(), 4u);  // only frame 1 contributes
}

TEST(FailureTest, BatchOutsideLatticeRejectedByBufferingOps) {
  GridLattice lattice = LatLonLattice(4, 4);
  ReprojectOp op("p", GeographicCrs::Instance());
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(op.input(0)->Consume(BeginFor(lattice, 0)));
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = 0;
  batch->band_count = 1;
  batch->Append1(99, 99, 0, 1.0);  // outside the 4x4 sector
  EXPECT_EQ(op.input(0)->Consume(StreamEvent::Batch(batch)).code(),
            StatusCode::kOutOfRange);
}

TEST(FailureTest, AnalyzerRejectsMalformedQueriesWithoutCrashing) {
  StreamCatalog catalog = MakeTestCatalog();
  const char* bad_queries[] = {
      "add(g.nir, missing.stream)",
      "reproject(lidar.z, \"latlon\")",
      "stack(cam.rgb, cam.rgb, cam.rgb)",  // arity
      "region(g.nir, bbox(0,0,1))",
      "ndvi(g.nir)",
      "time(g.nir)",
      "stretch(g.nir)",
      "band(g.nir, -1)",
  };
  for (const char* q : bad_queries) {
    auto parsed = ParseQuery(q);
    if (!parsed.ok()) continue;  // parser already refused: fine
    EXPECT_FALSE(AnalyzeQuery(catalog, *parsed).ok()) << q;
  }
}

TEST(FailureTest, StackedBandsOverflowRejected) {
  StreamCatalog catalog = MakeTestCatalog();
  // 3+3+3 = 9 bands > kMaxBands (8).
  auto parsed =
      ParseQuery("stack(stack(cam.rgb, cam.rgb), cam.rgb)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(AnalyzeQuery(catalog, *parsed).ok());
}

TEST(FailureTest, ServerSurvivesQueryChurnUnderLoad) {
  DsmsServer server;
  StreamCatalog catalog = MakeTestCatalog();
  GS_ASSERT_OK(server.RegisterStream(*catalog.Lookup("g.nir")));
  GridLattice lattice = LatLonLattice(16, 12);
  // Register/ingest/unregister repeatedly; nothing may leak or fail.
  for (int round = 0; round < 10; ++round) {
    auto id = server.RegisterQuery(
        "region(g.nir, bbox(-125, 40, -121, 45))",
        [](int64_t, const Raster&, const std::vector<uint8_t>&) {});
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    GS_ASSERT_OK(PushFrame(server.ingest("g.nir"), lattice, round));
    GS_ASSERT_OK(server.UnregisterQuery(*id));
  }
  EXPECT_EQ(server.num_queries(), 0u);
  // Ingest with zero registered queries is a no-op, not an error.
  GS_ASSERT_OK(PushFrame(server.ingest("g.nir"), lattice, 99));
}

TEST(FailureTest, ZeroAreaRegionDeliversNothing) {
  StreamCatalog catalog = MakeTestCatalog();
  auto parsed = ParseQuery("region(g.nir, bbox(-120, 42, -120, 42))");
  ASSERT_TRUE(parsed.ok());
  GS_ASSERT_OK(AnalyzeQuery(catalog, *parsed));
  CollectingSink sink;
  auto plan = BuildPlan(*parsed, &sink);
  ASSERT_TRUE(plan.ok());
  GridLattice lattice = LatLonLattice(16, 12);
  GS_ASSERT_OK(PushFrame((*plan)->input("g.nir"), lattice, 0));
  EXPECT_EQ(sink.TotalPoints(), 0u);
}

// --- Fault-injected end-to-end runs (supervision) ---------------------------

TEST(FaultInjectionE2eTest, PoisonQuarantinesExactlyOneQueryOfFour) {
  // Four concurrent queries; a stream protocol violation (nested
  // FrameBegin) poisons exactly the one query reading the corrupted
  // band. The other three keep delivering. Supervision is the same
  // whether the scheduler runs on the ingest thread or on a pool.
  for (size_t workers : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    DsmsOptions options;
    options.workers = workers;
    DsmsServer server(options);
    StreamCatalog catalog = MakeTestCatalog();
    GS_ASSERT_OK(server.RegisterStream(*catalog.Lookup("g.nir")));
    GS_ASSERT_OK(server.RegisterStream(*catalog.Lookup("g.vis")));

    struct Counter {
      std::atomic<uint64_t> frames{0};
    };
    Counter counters[4];
    QueryId ids[4];
    const char* queries[4] = {
        "region(g.nir, bbox(-125, 40, -121, 45))",
        "region(g.nir, bbox(-124, 41, -120, 44))",
        "region(g.nir, bbox(-123, 42, -119, 43))",
        "region(g.vis, bbox(-125, 40, -121, 45))",
    };
    for (int i = 0; i < 4; ++i) {
      Counter* c = &counters[i];
      auto id = server.RegisterQuery(
          queries[i],
          [c](int64_t, const Raster&, const std::vector<uint8_t>&) {
            ++c->frames;
          });
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids[i] = *id;
    }

    GridLattice lattice = LatLonLattice(16, 12);
    GS_ASSERT_OK(PushFrame(server.ingest("g.nir"), lattice, 0));
    GS_ASSERT_OK(PushFrame(server.ingest("g.vis"), lattice, 0));
    GS_ASSERT_OK(server.Flush());
    for (int i = 0; i < 4; ++i) {
      auto health = server.QueryHealth(ids[i]);
      ASSERT_TRUE(health.ok());
      EXPECT_EQ(*health, PipelineHealth::kRunning) << i;
    }

    // Corrupt the vis downlink: frame 1 begins, then frame 2 begins
    // without a FrameEnd in between. Ingest itself must stay OK — the
    // failure belongs to the query pipeline, not the source.
    GS_ASSERT_OK(server.ingest("g.vis")->Consume(BeginFor(lattice, 1)));
    GS_ASSERT_OK(server.ingest("g.vis")->Consume(BeginFor(lattice, 2)));
    GS_ASSERT_OK(server.Flush());

    auto vis_health = server.QueryHealth(ids[3]);
    ASSERT_TRUE(vis_health.ok());
    EXPECT_EQ(*vis_health, PipelineHealth::kQuarantined);
    EXPECT_EQ(server.QueryError(ids[3]).code(),
              StatusCode::kFailedPrecondition);

    // The three healthy queries ride on: two more frames each arrive in
    // full, and pushing to the corrupted stream still does not error.
    for (int64_t frame = 1; frame <= 2; ++frame) {
      GS_ASSERT_OK(PushFrame(server.ingest("g.nir"), lattice, frame));
    }
    GS_ASSERT_OK(PushFrame(server.ingest("g.vis"), lattice, 3));
    GS_ASSERT_OK(server.Flush());
    for (int i = 0; i < 3; ++i) {
      auto health = server.QueryHealth(ids[i]);
      ASSERT_TRUE(health.ok());
      EXPECT_EQ(*health, PipelineHealth::kRunning) << i;
      EXPECT_EQ(counters[i].frames.load(), 3u) << i;
    }
    EXPECT_EQ(counters[3].frames.load(), 1u);  // only the clean frame 0

    // Post-quarantine enqueues were rejected and counted.
    ScheduledQueueStats totals;
    for (const auto& qs : server.SchedulerStats()) totals.MergeFrom(qs);
    EXPECT_EQ(totals.health, PipelineHealth::kQuarantined);
    EXPECT_GT(totals.rejected, 0u);

    // The quarantined query can still be torn down cleanly.
    GS_ASSERT_OK(server.UnregisterQuery(ids[3]));
    EXPECT_EQ(server.num_queries(), 3u);
    EXPECT_EQ(server.SchedulerStats().size(), 3u);
  }
}

TEST(FaultInjectionE2eTest, TransientFaultRecoversWithinBackoffBudget) {
  // A transient (Unavailable) fault on frame 1's FrameBegin fails
  // twice; the supervisor resets the chain and redelivers. The full
  // three-frame stream still comes out, within the backoff budget.
  std::vector<InjectedFault> faults;
  faults.push_back({14, StatusCode::kUnavailable, "downlink glitch", 2});
  auto injector_op =
      std::make_unique<FaultInjectorOp>("inject", std::move(faults));
  FaultInjectorOp* injector = injector_op.get();
  StretchOptions stretch_opts;
  stretch_opts.in_lo = 0.0;
  stretch_opts.in_hi = 1.0;
  Pipeline pipeline;
  pipeline.Add(std::move(injector_op));
  pipeline.Add(std::make_unique<StretchTransformOp>("s", stretch_opts));
  CollectingSink sink;
  GS_ASSERT_OK(pipeline.Finish(&sink));

  QueryScheduler scheduler(SchedulerOptions{});
  const size_t id = scheduler.AddPipelineGroup("transient");
  EventSink* in = scheduler.AddPipelineInput(id, &pipeline);
  scheduler.SetPipelineReset(id, [&pipeline] { pipeline.Reset(); });
  GS_ASSERT_OK(scheduler.Start());

  const auto t0 = std::chrono::steady_clock::now();
  GridLattice lattice = LatLonLattice(16, 12);
  // 14 events per frame (begin + 12 rows + end): ordinal 14 is
  // exactly frame 1's FrameBegin, so the post-reset redelivery starts
  // a fresh frame and no buffered state is lost.
  for (int64_t frame = 0; frame < 3; ++frame) {
    GS_ASSERT_OK(PushFrame(in, lattice, frame));
  }
  GS_ASSERT_OK(in->Consume(StreamEvent::StreamEnd()));
  GS_ASSERT_OK(scheduler.WaitIdle());
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(scheduler.Health(id), PipelineHealth::kRunning);
  EXPECT_TRUE(testing_util::WellFormedFrames(sink.events()));
  EXPECT_EQ(sink.NumFrames(), 3u);
  EXPECT_EQ(sink.TotalPoints(), 3u * 16u * 12u);
  EXPECT_EQ(injector->faults_injected(), 2u);
  // Backoff budget: 1ms + 2ms (+jitter) of backoff, generously
  // bounded — recovery must not stall the pipeline for seconds.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  GS_ASSERT_OK(scheduler.Stop());
  auto stats = scheduler.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].restarts, 2u);
  EXPECT_EQ(stats[0].processed, stats[0].enqueued);
}

TEST(FaultInjectionE2eTest, DeadLetterCountMatchesInjectedCorruption) {
  // The generator corrupts three batches of band 0 after checksumming
  // them; the FaultInjectorOp's verifier dead-letters exactly those
  // three rows while band 1 sails through untouched.
  InstrumentConfig config;
  config.crs_name = "latlon";
  config.cells_per_sector = 16 * 12;
  config.bands = {SpectralBand::kVisible, SpectralBand::kNearInfrared};
  config.name_prefix = "sat";
  StreamGenerator generator(config, ScanSchedule::GoesRoutine());
  GS_ASSERT_OK(generator.Init());
  CorruptionConfig corruption;
  corruption.target_band = 0;
  corruption.checksum_batches = true;
  corruption.corrupt_value_batches = {1, 4, 7};
  generator.SetCorruption(corruption);

  SchedulerOptions options;
  options.supervisor.poison_limit = 100;  // count poison, keep running
  QueryScheduler scheduler(options);
  FaultInjectorOp verifier0("verify0", {}, /*verify_checksums=*/true);
  FaultInjectorOp verifier1("verify1", {}, /*verify_checksums=*/true);
  CollectingSink sink0, sink1;
  verifier0.BindOutput(&sink0);
  verifier1.BindOutput(&sink1);
  const size_t p0 = scheduler.AddPipelineGroup("band0");
  const size_t p1 = scheduler.AddPipelineGroup("band1");
  std::vector<EventSink*> sinks = {
      scheduler.AddPipelineInput(p0, &verifier0),
      scheduler.AddPipelineInput(p1, &verifier1)};
  GS_ASSERT_OK(scheduler.Start());
  GS_ASSERT_OK(generator.GenerateScans(0, 2, sinks));
  GS_ASSERT_OK(generator.Finish(sinks));
  GS_ASSERT_OK(scheduler.WaitIdle());
  GS_ASSERT_OK(scheduler.Stop());

  EXPECT_EQ(generator.corruption_stats().values_corrupted, 3u);
  EXPECT_GT(generator.corruption_stats().checksums_attached, 0u);
  EXPECT_EQ(verifier0.checksum_failures(), 3u);
  EXPECT_EQ(verifier1.checksum_failures(), 0u);
  auto stats = scheduler.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].dead_letters, 3u);
  EXPECT_EQ(stats[0].health, PipelineHealth::kDegraded);
  EXPECT_EQ(stats[1].dead_letters, 0u);
  EXPECT_EQ(stats[1].health, PipelineHealth::kRunning);
  // Exactly the three corrupted rows are missing from band 0.
  auto num_batches = [](const CollectingSink& sink) {
    size_t n = 0;
    for (const auto& event : sink.events()) {
      if (event.kind == EventKind::kPointBatch) ++n;
    }
    return n;
  };
  EXPECT_EQ(num_batches(sink0) + 3, num_batches(sink1));
}

TEST(FaultInjectionE2eTest, ServerQueryChurnReturnsQueueCountToBaseline) {
  // Registering and unregistering 1000 queries against a live
  // scheduler must return it to its baseline queue count —
  // UnregisterQuery frees the pipeline, not just the plan.
  for (size_t workers : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    DsmsOptions options;
    options.workers = workers;
    DsmsServer server(options);
    StreamCatalog catalog = MakeTestCatalog();
    GS_ASSERT_OK(server.RegisterStream(*catalog.Lookup("g.nir")));
    GridLattice lattice = LatLonLattice(16, 12);
    ASSERT_EQ(server.SchedulerStats().size(), 0u);
    for (int i = 0; i < 1000; ++i) {
      auto id = server.RegisterQuery(
          "region(g.nir, bbox(-125, 40, -121, 45))",
          [](int64_t, const Raster&, const std::vector<uint8_t>&) {});
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      if (i % 100 == 0) {
        GS_ASSERT_OK(PushFrame(server.ingest("g.nir"), lattice, i));
      }
      GS_ASSERT_OK(server.UnregisterQuery(*id));
    }
    EXPECT_EQ(server.num_queries(), 0u);
    EXPECT_EQ(server.SchedulerStats().size(), 0u);

    // The pool is still serviceable after the churn.
    std::atomic<uint64_t> frames{0};
    auto id = server.RegisterQuery(
        "region(g.nir, bbox(-125, 40, -121, 45))",
        [&frames](int64_t, const Raster&, const std::vector<uint8_t>&) {
          ++frames;
        });
    ASSERT_TRUE(id.ok());
    GS_ASSERT_OK(PushFrame(server.ingest("g.nir"), lattice, 5000));
    GS_ASSERT_OK(server.Flush());
    EXPECT_EQ(frames.load(), 1u);
  }
}

}  // namespace
}  // namespace geostreams
