#include "server/dsms_server.h"

#include <gtest/gtest.h>

#include <map>

#include "server/scan_schedule.h"
#include "server/stream_generator.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

/// Full Fig.-3 setup: a 2-band lat/lon instrument registered with a
/// server; `Ingest` pushes scans through the server's ingest sinks.
class ServerFixture {
 public:
  explicit ServerFixture(DsmsOptions options = {})
      : server_(options),
        gen_(MakeConfig(), ScanSchedule::GoesRoutine()) {
    Status st = gen_.Init();
    EXPECT_TRUE(st.ok());
    for (size_t b = 0; b < 2; ++b) {
      auto d = gen_.Descriptor(b);
      EXPECT_TRUE(d.ok());
      st = server_.RegisterStream(*d);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }

  static InstrumentConfig MakeConfig() {
    InstrumentConfig config;
    config.crs_name = "latlon";
    config.cells_per_sector = 24 * 16;
    config.bands = {SpectralBand::kNearInfrared, SpectralBand::kVisible};
    config.name_prefix = "goes";
    return config;
  }

  Status Ingest(int64_t first_scan, int64_t count) {
    std::vector<EventSink*> sinks = {server_.ingest("goes.band2"),
                                     server_.ingest("goes.band1")};
    GEOSTREAMS_RETURN_IF_ERROR(gen_.GenerateScans(first_scan, count, sinks));
    return Status::OK();
  }

  DsmsServer& server() { return server_; }

 private:
  DsmsServer server_;
  StreamGenerator gen_;
};

/// Captures delivered frames per query.
struct Capture {
  std::vector<std::pair<int64_t, Raster>> frames;

  FrameCallback Callback() {
    return [this](int64_t frame_id, const Raster& raster,
                  const std::vector<uint8_t>&) {
      frames.emplace_back(frame_id, raster);
    };
  }
};

TEST(DsmsServerTest, RegisterStreamAndQuery) {
  ServerFixture fixture;
  Capture capture;
  auto id = fixture.server().RegisterQuery(
      "region(goes.band1, bbox(-120, 28, -100, 45))", capture.Callback());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(fixture.server().num_queries(), 1u);
  GS_ASSERT_OK(fixture.Ingest(0, 3));
  EXPECT_EQ(capture.frames.size(), 3u);
  auto delivered = fixture.server().FramesDelivered(*id);
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, 3u);
}

TEST(DsmsServerTest, UnknownStreamInQueryFails) {
  ServerFixture fixture;
  Capture capture;
  EXPECT_FALSE(
      fixture.server().RegisterQuery("nope.band9", capture.Callback()).ok());
  EXPECT_FALSE(fixture.server()
                   .RegisterQuery("region(goes.band1, bbox(0,0,1,1)",
                                  capture.Callback())
                   .ok());  // parse error
  EXPECT_EQ(fixture.server().num_queries(), 0u);
}

TEST(DsmsServerTest, NdviQueryDeliversIndexValues) {
  ServerFixture fixture;
  Capture capture;
  auto id = fixture.server().RegisterQuery(
      "ndvi(goes.band2, goes.band1)", capture.Callback());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  GS_ASSERT_OK(fixture.Ingest(0, 2));
  ASSERT_EQ(capture.frames.size(), 2u);
  const Raster& frame = capture.frames[0].second;
  double lo, hi;
  frame.MinMax(0, &lo, &hi);
  EXPECT_GE(lo, -1.0);
  EXPECT_LE(hi, 1.0);
  EXPECT_GT(hi, lo);  // not a constant image
}

TEST(DsmsServerTest, MultipleQueriesShareTheStream) {
  ServerFixture fixture;
  Capture west, east, unrestricted;
  auto id1 = fixture.server().RegisterQuery(
      "region(goes.band1, bbox(-125, 24, -110, 50))", west.Callback());
  auto id2 = fixture.server().RegisterQuery(
      "region(goes.band1, bbox(-90, 24, -66, 50))", east.Callback());
  auto id3 = fixture.server().RegisterQuery("goes.band1",
                                            unrestricted.Callback());
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(id3.ok());
  GS_ASSERT_OK(fixture.Ingest(0, 2));
  ASSERT_EQ(west.frames.size(), 2u);
  ASSERT_EQ(east.frames.size(), 2u);
  ASSERT_EQ(unrestricted.frames.size(), 2u);
}

TEST(DsmsServerTest, SharedVsDirectModesAgree) {
  // The cascade-tree shared restriction must not change any delivered
  // pixel compared to per-query direct filtering.
  const char* queries[] = {
      "region(goes.band1, bbox(-120, 28, -100, 45))",
      "region(ndvi(goes.band2, goes.band1), bbox(-110, 25, -80, 48))",
  };
  std::map<int, std::vector<std::pair<int64_t, Raster>>> by_mode[2];
  for (int mode = 0; mode < 2; ++mode) {
    DsmsOptions options;
    options.shared_restriction = (mode == 1);
    ServerFixture fixture(options);
    std::vector<Capture> captures(2);
    for (int q = 0; q < 2; ++q) {
      auto id = fixture.server().RegisterQuery(queries[q],
                                               captures[q].Callback());
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
    GS_ASSERT_OK(fixture.Ingest(0, 3));
    for (int q = 0; q < 2; ++q) {
      by_mode[mode][q] = std::move(captures[q].frames);
    }
  }
  for (int q = 0; q < 2; ++q) {
    ASSERT_EQ(by_mode[0][q].size(), by_mode[1][q].size()) << "query " << q;
    for (size_t f = 0; f < by_mode[0][q].size(); ++f) {
      EXPECT_EQ(by_mode[0][q][f].first, by_mode[1][q][f].first);
      auto diff = Raster::AbsDifference(by_mode[0][q][f].second,
                                        by_mode[1][q][f].second);
      ASSERT_TRUE(diff.ok()) << diff.status().ToString();
      EXPECT_NEAR(*diff, 0.0, 1e-9) << "query " << q << " frame " << f;
    }
  }
}

TEST(DsmsServerTest, UnregisterStopsDelivery) {
  ServerFixture fixture;
  Capture capture;
  auto id = fixture.server().RegisterQuery(
      "region(goes.band1, bbox(-120, 28, -100, 45))", capture.Callback());
  ASSERT_TRUE(id.ok());
  GS_ASSERT_OK(fixture.Ingest(0, 1));
  EXPECT_EQ(capture.frames.size(), 1u);
  GS_ASSERT_OK(fixture.server().UnregisterQuery(*id));
  GS_ASSERT_OK(fixture.Ingest(1, 1));
  EXPECT_EQ(capture.frames.size(), 1u);
  EXPECT_EQ(fixture.server().UnregisterQuery(*id).code(),
            StatusCode::kNotFound);
}

TEST(DsmsServerTest, ExplainShowsOptimizedPlan) {
  ServerFixture fixture;
  Capture capture;
  auto id = fixture.server().RegisterQuery(
      "region(ndvi(goes.band2, goes.band1), bbox(-110, 25, -80, 48))",
      capture.Callback());
  ASSERT_TRUE(id.ok());
  auto text = fixture.server().Explain(*id);
  ASSERT_TRUE(text.ok());
  // After pushdown the restriction sits below the NDVI macro.
  EXPECT_NE(text->find("NdviMacro"), std::string::npos);
  const size_t ndvi_pos = text->find("NdviMacro");
  const size_t restrict_pos = text->find("SpatialRestrict");
  EXPECT_NE(restrict_pos, std::string::npos);
  EXPECT_LT(ndvi_pos, restrict_pos);
  EXPECT_FALSE(fixture.server().Explain(999).ok());
}

TEST(DsmsServerTest, PngDelivery) {
  DsmsOptions options;
  options.encode_png = true;
  ServerFixture fixture(options);
  std::vector<size_t> png_sizes;
  auto id = fixture.server().RegisterQuery(
      "goes.band1",
      [&png_sizes](int64_t, const Raster&, const std::vector<uint8_t>& png) {
        png_sizes.push_back(png.size());
        // PNG signature present.
        ASSERT_GE(png.size(), 8u);
        EXPECT_EQ(png[1], 'P');
      });
  ASSERT_TRUE(id.ok());
  GS_ASSERT_OK(fixture.Ingest(0, 1));
  ASSERT_EQ(png_sizes.size(), 1u);
  EXPECT_GT(png_sizes[0], 100u);
}

TEST(DsmsServerTest, EndAllStreamsBroadcastsStreamEnd) {
  ServerFixture fixture;
  Capture capture;
  auto id = fixture.server().RegisterQuery("goes.band1",
                                           capture.Callback());
  ASSERT_TRUE(id.ok());
  GS_ASSERT_OK(fixture.Ingest(0, 1));
  GS_ASSERT_OK(fixture.server().EndAllStreams());
  EXPECT_EQ(capture.frames.size(), 1u);
}

TEST(DsmsServerTest, AggregateQueryThroughServer) {
  ServerFixture fixture;
  std::vector<double> averages;
  auto id = fixture.server().RegisterQuery(
      "aggregate(goes.band1, \"avg\", 1, bbox(-120, 28, -100, 45))",
      [&averages](int64_t, const Raster& raster,
                  const std::vector<uint8_t>&) {
        averages.push_back(raster.At(0, 0));
      });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  GS_ASSERT_OK(fixture.Ingest(0, 3));
  ASSERT_EQ(averages.size(), 3u);
  for (double avg : averages) {
    EXPECT_GE(avg, 0.0);
    EXPECT_LE(avg, 1.0);
  }
}


TEST(DsmsServerTest, RgbCompositeQueryDeliversThreeBands) {
  // stack()/rgb() build the colour (Z^3) value sets of Sec. 2 from
  // single-band instrument streams; delivery assembles 3-band frames
  // that PNG-encode as colour images.
  DsmsOptions options;
  options.encode_png = true;
  ServerFixture fixture(options);
  int bands_seen = 0;
  size_t png_size = 0;
  auto id = fixture.server().RegisterQuery(
      "rgb(goes.band2, goes.band1, goes.band2)",
      [&](int64_t, const Raster& raster, const std::vector<uint8_t>& png) {
        bands_seen = raster.bands();
        png_size = png.size();
      });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  GS_ASSERT_OK(fixture.Ingest(0, 1));
  EXPECT_EQ(bands_seen, 3);
  ASSERT_GT(png_size, 100u);
}

TEST(DsmsServerTest, SlidingAggregateQuery) {
  ServerFixture fixture;
  std::vector<int64_t> window_starts;
  auto id = fixture.server().RegisterQuery(
      "aggregate(goes.band1, \"avg\", 3, 1, bbox(-120, 28, -100, 45))",
      [&window_starts](int64_t frame_id, const Raster&,
                       const std::vector<uint8_t>&) {
        window_starts.push_back(frame_id);
      });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  GS_ASSERT_OK(fixture.Ingest(0, 6));
  // Window 3 sliding by 1 over 6 scans: emissions for windows starting
  // at scans 0, 1, 2, 3.
  ASSERT_EQ(window_starts.size(), 4u);
  EXPECT_EQ(window_starts[0], 0);
  EXPECT_EQ(window_starts[3], 3);
}


TEST(DsmsServerTest, DerivedStreamServesDownstreamQueries) {
  // Closure at the system level: register NDVI once as a continuous
  // view, then subscribe two regional queries to the view.
  ServerFixture fixture;
  auto view = fixture.server().RegisterDerivedStream(
      "products.ndvi", "ndvi(goes.band2, goes.band1)");
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  Capture west, east;
  auto id1 = fixture.server().RegisterQuery(
      "region(products.ndvi, bbox(-125, 24, -100, 50))", west.Callback());
  auto id2 = fixture.server().RegisterQuery(
      "region(products.ndvi, bbox(-100, 24, -66, 50))", east.Callback());
  ASSERT_TRUE(id1.ok()) << id1.status().ToString();
  ASSERT_TRUE(id2.ok()) << id2.status().ToString();

  GS_ASSERT_OK(fixture.Ingest(0, 2));
  ASSERT_EQ(west.frames.size(), 2u);
  ASSERT_EQ(east.frames.size(), 2u);
  // The view really computed NDVI: values stay in [-1, 1].
  double lo, hi;
  west.frames[0].second.MinMax(0, &lo, &hi);
  EXPECT_GE(lo, -1.0);
  EXPECT_LE(hi, 1.0);
}

TEST(DsmsServerTest, DerivedStreamMatchesDirectQuery) {
  // A query over the view delivers the same pixels as the inlined
  // query over the base bands.
  ServerFixture fixture;
  auto view = fixture.server().RegisterDerivedStream(
      "products.ndvi", "ndvi(goes.band2, goes.band1)");
  ASSERT_TRUE(view.ok());
  Capture via_view, direct;
  auto q1 = fixture.server().RegisterQuery(
      "region(products.ndvi, bbox(-120, 28, -100, 45))",
      via_view.Callback());
  auto q2 = fixture.server().RegisterQuery(
      "region(ndvi(goes.band2, goes.band1), bbox(-120, 28, -100, 45))",
      direct.Callback());
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  GS_ASSERT_OK(fixture.Ingest(0, 2));
  ASSERT_EQ(via_view.frames.size(), direct.frames.size());
  for (size_t f = 0; f < direct.frames.size(); ++f) {
    auto diff = Raster::AbsDifference(via_view.frames[f].second,
                                      direct.frames[f].second);
    ASSERT_TRUE(diff.ok()) << diff.status().ToString();
    EXPECT_NEAR(*diff, 0.0, 1e-9) << "frame " << f;
  }
}

TEST(DsmsServerTest, DerivedStreamRestrictions) {
  ServerFixture fixture;
  // Duplicate names and self-reference are rejected.
  auto v1 = fixture.server().RegisterDerivedStream(
      "goes.band1", "ndvi(goes.band2, goes.band1)");
  EXPECT_EQ(v1.status().code(), StatusCode::kAlreadyExists);
  auto v2 = fixture.server().RegisterDerivedStream(
      "loop", "region(loop, bbox(0,0,1,1))");
  EXPECT_FALSE(v2.ok());  // unknown stream 'loop' at analysis time
  // A registered view cannot be unregistered.
  auto v3 = fixture.server().RegisterDerivedStream(
      "products.ndvi", "ndvi(goes.band2, goes.band1)");
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(fixture.server().UnregisterQuery(*v3).code(),
            StatusCode::kFailedPrecondition);
  // Views have no delivery operator.
  EXPECT_FALSE(fixture.server().FramesDelivered(*v3).ok());
}

TEST(DsmsServerTest, ViewsOnViews) {
  ServerFixture fixture;
  auto v1 = fixture.server().RegisterDerivedStream(
      "products.ndvi", "ndvi(goes.band2, goes.band1)");
  ASSERT_TRUE(v1.ok());
  auto v2 = fixture.server().RegisterDerivedStream(
      "products.ndvi_scaled", "rescale(products.ndvi, 100, 100)");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  Capture capture;
  auto q = fixture.server().RegisterQuery("products.ndvi_scaled",
                                          capture.Callback());
  ASSERT_TRUE(q.ok());
  GS_ASSERT_OK(fixture.Ingest(0, 1));
  ASSERT_EQ(capture.frames.size(), 1u);
  double lo, hi;
  capture.frames[0].second.MinMax(0, &lo, &hi);
  EXPECT_GE(lo, 0.0);
  EXPECT_LE(hi, 200.0);
  EXPECT_GT(hi, lo);
}

TEST(DsmsServerTest, ShedQueryThroughServer) {
  ServerFixture fixture;
  Capture full, shed;
  auto q1 = fixture.server().RegisterQuery("goes.band1", full.Callback());
  auto q2 = fixture.server().RegisterQuery(
      "shed(goes.band1, \"rows\", 0.5)", shed.Callback());
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  GS_ASSERT_OK(fixture.Ingest(0, 1));
  ASSERT_EQ(shed.frames.size(), 1u);
  // The shed frame has nodata rows the full frame does not.
  auto diff = Raster::AbsDifference(full.frames[0].second,
                                    shed.frames[0].second);
  ASSERT_TRUE(diff.ok());
  EXPECT_GT(*diff, 0.0);
}


TEST(DsmsServerTest, WorkerPoolMatchesSynchronousDelivery) {
  // The same queries through a 4-worker pool and synchronously must
  // deliver pixel-identical frames (per-query event order is the
  // scheduler's ordering invariant).
  const char* queries[] = {
      "region(goes.band1, bbox(-120, 28, -100, 45))",
      "ndvi(goes.band2, goes.band1)",
      "vrange(goes.band2, 0, 0.3, 1.0)",
  };
  auto run = [&](size_t workers) {
    DsmsOptions options;
    options.workers = workers;
    ServerFixture fixture(options);
    // Callbacks fire on worker threads; captures are per-query, and
    // one query's callbacks are serialized by the pipeline claim, so
    // plain vectors are safe (TSan would flag violations).
    std::vector<std::unique_ptr<Capture>> captures;
    for (const char* q : queries) {
      captures.push_back(std::make_unique<Capture>());
      auto id = fixture.server().RegisterQuery(q, captures.back()->Callback());
      EXPECT_TRUE(id.ok()) << id.status().ToString();
    }
    Status st = fixture.Ingest(0, 3);
    EXPECT_TRUE(st.ok()) << st.ToString();
    st = fixture.server().Flush();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return captures;
  };
  auto pooled = run(4);
  auto sync = run(0);
  ASSERT_EQ(pooled.size(), sync.size());
  for (size_t q = 0; q < sync.size(); ++q) {
    ASSERT_EQ(pooled[q]->frames.size(), sync[q]->frames.size())
        << "query " << q;
    for (size_t f = 0; f < sync[q]->frames.size(); ++f) {
      EXPECT_EQ(pooled[q]->frames[f].first, sync[q]->frames[f].first);
      auto diff = Raster::AbsDifference(pooled[q]->frames[f].second,
                                        sync[q]->frames[f].second);
      ASSERT_TRUE(diff.ok());
      EXPECT_EQ(*diff, 0.0) << "query " << q << " frame " << f;
    }
  }
}

TEST(DsmsServerTest, WorkerPoolEndAllStreamsDrains) {
  DsmsOptions options;
  options.workers = 2;
  ServerFixture fixture(options);
  EXPECT_EQ(fixture.server().num_workers(), 2u);
  Capture capture;
  auto id = fixture.server().RegisterQuery("goes.band1", capture.Callback());
  ASSERT_TRUE(id.ok());
  GS_ASSERT_OK(fixture.Ingest(0, 2));
  // EndAllStreams flushes the pool, so delivery counters are final.
  GS_ASSERT_OK(fixture.server().EndAllStreams());
  EXPECT_EQ(capture.frames.size(), 2u);
  auto delivered = fixture.server().FramesDelivered(*id);
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, 2u);
  auto stats = fixture.server().SchedulerStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].processed, stats[0].enqueued);
  EXPECT_EQ(stats[0].dropped, 0u);
}

TEST(DsmsServerTest, WorkerPoolUnregisterStopsDelivery) {
  DsmsOptions options;
  options.workers = 2;
  ServerFixture fixture(options);
  Capture keep, drop;
  auto id_keep =
      fixture.server().RegisterQuery("goes.band1", keep.Callback());
  auto id_drop =
      fixture.server().RegisterQuery("goes.band2", drop.Callback());
  ASSERT_TRUE(id_keep.ok());
  ASSERT_TRUE(id_drop.ok());
  GS_ASSERT_OK(fixture.Ingest(0, 1));
  GS_ASSERT_OK(fixture.server().Flush());
  GS_ASSERT_OK(fixture.server().UnregisterQuery(*id_drop));
  GS_ASSERT_OK(fixture.Ingest(1, 1));
  GS_ASSERT_OK(fixture.server().Flush());
  EXPECT_EQ(keep.frames.size(), 2u);
  EXPECT_EQ(drop.frames.size(), 1u);
}

TEST(DsmsServerTest, ExplainAnalyzeShowsRuntimeCounters) {
  ServerFixture fixture;
  Capture capture;
  auto id = fixture.server().RegisterQuery(
      "region(ndvi(goes.band2, goes.band1), bbox(-110, 25, -80, 48))",
      capture.Callback());
  ASSERT_TRUE(id.ok());
  GS_ASSERT_OK(fixture.Ingest(0, 2));
  auto text = fixture.server().ExplainAnalyze(*id);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("points_in="), std::string::npos);
  EXPECT_NE(text->find("ndvi"), std::string::npos);
  // The counters are non-zero after ingest.
  EXPECT_EQ(text->find("points_in=0 "), std::string::npos);
  EXPECT_FALSE(fixture.server().ExplainAnalyze(12345).ok());
}

}  // namespace
}  // namespace geostreams
