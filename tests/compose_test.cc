#include "ops/compose_op.h"

#include <gtest/gtest.h>

#include "ops/macro_ops.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::CollectPoints;
using testing_util::LatLonLattice;
using testing_util::TestValue;
using testing_util::WellFormedFrames;

/// Pushes one frame with frame-id timestamps into both compose ports,
/// row-interleaved (row-by-row organization), with per-port values.
Status PushInterleavedFrame(ComposeOp* op, const GridLattice& lattice,
                            int64_t frame, double left_bias,
                            double right_bias) {
  FrameInfo info;
  info.frame_id = frame;
  info.lattice = lattice;
  GEOSTREAMS_RETURN_IF_ERROR(
      op->input(0)->Consume(StreamEvent::FrameBegin(info)));
  GEOSTREAMS_RETURN_IF_ERROR(
      op->input(1)->Consume(StreamEvent::FrameBegin(info)));
  for (int64_t row = 0; row < lattice.height(); ++row) {
    for (int port = 0; port < 2; ++port) {
      auto batch = std::make_shared<PointBatch>();
      batch->frame_id = frame;
      batch->band_count = 1;
      const double bias = port == 0 ? left_bias : right_bias;
      for (int64_t col = 0; col < lattice.width(); ++col) {
        batch->Append1(static_cast<int32_t>(col), static_cast<int32_t>(row),
                       frame, TestValue(frame, col, row) + bias);
      }
      GEOSTREAMS_RETURN_IF_ERROR(
          op->input(port)->Consume(StreamEvent::Batch(std::move(batch))));
    }
  }
  GEOSTREAMS_RETURN_IF_ERROR(
      op->input(0)->Consume(StreamEvent::FrameEnd(info)));
  return op->input(1)->Consume(StreamEvent::FrameEnd(info));
}

TEST(ComposeTest, SubtractMatchesPointwise) {
  GridLattice lattice = LatLonLattice(6, 4);
  ComposeOp op("c", ComposeFn::kSubtract);
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(PushInterleavedFrame(&op, lattice, 1, 0.5, 0.2));
  EXPECT_TRUE(WellFormedFrames(sink.events()));
  auto points = CollectPoints(sink.events());
  ASSERT_EQ(points.size(), 24u);
  for (const auto& [key, v] : points) {
    EXPECT_NEAR(v, 0.3, 1e-12);
  }
  EXPECT_EQ(op.matches(), 24u);
}

TEST(ComposeTest, AllGammaFunctions) {
  struct Case {
    ComposeFn fn;
    double expected;  // for left=0.8, right=0.2 at a constant field
  };
  for (const Case& c :
       {Case{ComposeFn::kAdd, 1.0}, Case{ComposeFn::kSubtract, 0.6},
        Case{ComposeFn::kMultiply, 0.16}, Case{ComposeFn::kDivide, 4.0},
        Case{ComposeFn::kSupremum, 0.8}, Case{ComposeFn::kInfimum, 0.2}}) {
    GridLattice lattice = LatLonLattice(2, 2);
    ComposeOp op("c", c.fn);
    CollectingSink sink;
    op.BindOutput(&sink);
    // Constant fields: left 0.8, right 0.2 (bias replaces TestValue by
    // using a 1x1 lattice at frame 0 where TestValue(0,0,0)=0).
    FrameInfo info;
    info.frame_id = 0;
    info.lattice = lattice;
    GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameBegin(info)));
    GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameBegin(info)));
    for (int port = 0; port < 2; ++port) {
      auto batch = std::make_shared<PointBatch>();
      batch->frame_id = 0;
      batch->band_count = 1;
      batch->Append1(0, 0, 0, port == 0 ? 0.8 : 0.2);
      GS_ASSERT_OK(op.input(port)->Consume(StreamEvent::Batch(batch)));
    }
    GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameEnd(info)));
    GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameEnd(info)));
    auto points = CollectPoints(sink.events());
    ASSERT_EQ(points.size(), 1u) << ComposeFnName(c.fn);
    EXPECT_NEAR(points.begin()->second, c.expected, 1e-12)
        << ComposeFnName(c.fn);
  }
}

TEST(ComposeTest, RowInterleavedBuffersAboutOneRow) {
  const int64_t w = 64, h = 32;
  GridLattice lattice = LatLonLattice(w, h, 0.05);
  ComposeOp op("c", ComposeFn::kSubtract);
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(PushInterleavedFrame(&op, lattice, 0, 0.0, 0.1));
  // With row interleaving, at most one row of one side is pending.
  const uint64_t entry_bytes = 16 + 8;
  EXPECT_LE(op.metrics().buffered_bytes_high_water,
            static_cast<uint64_t>(w) * entry_bytes * 2);
  EXPECT_EQ(sink.TotalPoints(), static_cast<uint64_t>(w * h));
}

TEST(ComposeTest, SequentialFramesBufferWholeImage) {
  const int64_t w = 32, h = 32;
  GridLattice lattice = LatLonLattice(w, h, 0.05);
  ComposeOp op("c", ComposeFn::kSubtract);
  CollectingSink sink;
  op.BindOutput(&sink);
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = lattice;
  // Whole left frame first (image-by-image arrival)...
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameBegin(info)));
  auto left = std::make_shared<PointBatch>();
  left->frame_id = 0;
  left->band_count = 1;
  for (int64_t r = 0; r < h; ++r) {
    for (int64_t c = 0; c < w; ++c) {
      left->Append1(static_cast<int32_t>(c), static_cast<int32_t>(r), 0,
                    1.0);
    }
  }
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::Batch(left)));
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameEnd(info)));
  // The whole left frame is now buffered.
  const uint64_t entry_bytes = 16 + 8;
  EXPECT_GE(op.metrics().buffered_bytes,
            static_cast<uint64_t>(w * h) * entry_bytes);
  // ...then the right frame matches everything away.
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameBegin(info)));
  auto right = std::make_shared<PointBatch>();
  right->frame_id = 0;
  right->band_count = 1;
  for (int64_t r = 0; r < h; ++r) {
    for (int64_t c = 0; c < w; ++c) {
      right->Append1(static_cast<int32_t>(c), static_cast<int32_t>(r), 0,
                     0.25);
    }
  }
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::Batch(right)));
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameEnd(info)));
  EXPECT_EQ(sink.TotalPoints(), static_cast<uint64_t>(w * h));
  EXPECT_EQ(op.metrics().buffered_bytes, 0u);
  EXPECT_TRUE(WellFormedFrames(sink.events()));
}

TEST(ComposeTest, MeasurementTimestampsNeverMatch) {
  // Sec. 3.3: "If incoming points are timestamped based on when the
  // points were measured, a stream composition operator would never
  // produce new image data."
  GridLattice lattice = LatLonLattice(8, 4);
  ComposeOp op("c", ComposeFn::kSubtract);
  CollectingSink sink;
  op.BindOutput(&sink);
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = lattice;
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameBegin(info)));
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameBegin(info)));
  int64_t clock = 0;
  for (int port = 0; port < 2; ++port) {
    auto batch = std::make_shared<PointBatch>();
    batch->frame_id = 0;
    batch->band_count = 1;
    for (int64_t r = 0; r < 4; ++r) {
      for (int64_t c = 0; c < 8; ++c) {
        batch->Append1(static_cast<int32_t>(c), static_cast<int32_t>(r),
                       clock++, 1.0);
      }
    }
    GS_ASSERT_OK(op.input(port)->Consume(StreamEvent::Batch(batch)));
  }
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameEnd(info)));
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameEnd(info)));
  EXPECT_EQ(sink.TotalPoints(), 0u);
  EXPECT_EQ(op.matches(), 0u);
  // Eviction at frame close keeps the pending buffers bounded.
  EXPECT_EQ(op.metrics().buffered_bytes, 0u);
}

TEST(ComposeTest, LatticeMismatchFails) {
  ComposeOp op("c", ComposeFn::kAdd);
  CollectingSink sink;
  op.BindOutput(&sink);
  FrameInfo a;
  a.frame_id = 0;
  a.lattice = LatLonLattice(4, 4, 0.5);
  FrameInfo b;
  b.frame_id = 0;
  b.lattice = LatLonLattice(4, 4, 0.25);  // different resolution
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameBegin(a)));
  EXPECT_EQ(op.input(1)->Consume(StreamEvent::FrameBegin(b)).code(),
            StatusCode::kLatticeMismatch);
}

TEST(ComposeTest, MultipleFramesStayWellFormed) {
  GridLattice lattice = LatLonLattice(8, 4);
  ComposeOp op("c", ComposeFn::kAdd);
  CollectingSink sink;
  op.BindOutput(&sink);
  for (int64_t f = 0; f < 5; ++f) {
    GS_ASSERT_OK(PushInterleavedFrame(&op, lattice, f, 0.0, 0.0));
  }
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::StreamEnd()));
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::StreamEnd()));
  EXPECT_TRUE(WellFormedFrames(sink.events()));
  EXPECT_EQ(sink.NumFrames(), 5u);
  EXPECT_EQ(sink.TotalPoints(), 5u * 32u);
  // Exactly one StreamEnd is forwarded.
  int ends = 0;
  for (const auto& e : sink.events()) {
    if (e.kind == EventKind::kStreamEnd) ++ends;
  }
  EXPECT_EQ(ends, 1);
}

TEST(ComposeTest, FrameOnlyOneSideDeliversIsDroppedOnceTheOtherMovesOn) {
  // The right input opened one frame earlier than the left (two
  // inputs registered mid-stream open at their own next frames): its
  // frame 0 can never match, and must not hold frame 1 back.
  GridLattice lattice = LatLonLattice(6, 4);
  ComposeOp op("c", ComposeFn::kAdd);
  CollectingSink sink;
  op.BindOutput(&sink);
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = lattice;
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameBegin(info)));
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = 0;
  batch->band_count = 1;
  batch->Append1(0, 0, 0, 1.0);
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::Batch(std::move(batch))));
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameEnd(info)));
  GS_ASSERT_OK(PushInterleavedFrame(&op, lattice, 1, 0.0, 0.0));
  EXPECT_TRUE(WellFormedFrames(sink.events()));
  EXPECT_EQ(sink.NumFrames(), 1u);
  EXPECT_EQ(sink.TotalPoints(), 24u);
  EXPECT_EQ(op.metrics().buffered_bytes, 0u);
}

TEST(ComposeTest, PartialOverlapOnlyMatchesCommonPoints) {
  // Left stream misses some rows: only common points are output
  // ("it can happen that there is no single point that occurs in both
  // streams", Sec. 3.3).
  GridLattice lattice = LatLonLattice(4, 4);
  ComposeOp op("c", ComposeFn::kAdd);
  CollectingSink sink;
  op.BindOutput(&sink);
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = lattice;
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameBegin(info)));
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameBegin(info)));
  auto left = std::make_shared<PointBatch>();
  left->frame_id = 0;
  left->band_count = 1;
  left->Append1(0, 0, 0, 1.0);
  left->Append1(1, 0, 0, 1.0);
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::Batch(left)));
  auto right = std::make_shared<PointBatch>();
  right->frame_id = 0;
  right->band_count = 1;
  right->Append1(1, 0, 0, 2.0);
  right->Append1(2, 0, 0, 2.0);
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::Batch(right)));
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameEnd(info)));
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameEnd(info)));
  auto points = CollectPoints(sink.events());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points.at({1, 0, 0}), 3.0);
}

TEST(NdviMacroTest, ComputesNormalizedDifference) {
  GridLattice lattice = LatLonLattice(4, 2);
  auto op = MakeNdviOp("ndvi");
  CollectingSink sink;
  op->BindOutput(&sink);
  GS_ASSERT_OK(PushInterleavedFrame(op.get(), lattice, 0, 0.6, 0.2));
  auto points = CollectPoints(sink.events());
  ASSERT_EQ(points.size(), 8u);
  for (const auto& [key, v] : points) {
    const double nir = TestValue(0, std::get<0>(key), std::get<1>(key)) + 0.6;
    const double vis = TestValue(0, std::get<0>(key), std::get<1>(key)) + 0.2;
    EXPECT_NEAR(v, (nir - vis) / (nir + vis), 1e-12);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(NdviMacroTest, ZeroSumGivesZero) {
  auto op = MakeNdviOp("ndvi");
  CollectingSink sink;
  op->BindOutput(&sink);
  GridLattice lattice = LatLonLattice(1, 1);
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = lattice;
  GS_ASSERT_OK(op->input(0)->Consume(StreamEvent::FrameBegin(info)));
  GS_ASSERT_OK(op->input(1)->Consume(StreamEvent::FrameBegin(info)));
  for (int port = 0; port < 2; ++port) {
    auto batch = std::make_shared<PointBatch>();
    batch->frame_id = 0;
    batch->band_count = 1;
    batch->Append1(0, 0, 0, 0.0);
    GS_ASSERT_OK(op->input(port)->Consume(StreamEvent::Batch(batch)));
  }
  GS_ASSERT_OK(op->input(0)->Consume(StreamEvent::FrameEnd(info)));
  GS_ASSERT_OK(op->input(1)->Consume(StreamEvent::FrameEnd(info)));
  auto points = CollectPoints(sink.events());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points.begin()->second, 0.0);
}

TEST(MacroOpsTest, RatioAndDifferenceFactories) {
  auto ratio = MakeBandRatioOp("r");
  auto diff = MakeBandDifferenceOp("d");
  EXPECT_EQ(ratio->fn().name, "/");
  EXPECT_EQ(diff->fn().name, "-");
  auto nd = MakeNormalizedDifferenceOp("n");
  EXPECT_EQ(nd->fn().name, "normalized_difference");
}

// Property: composition output is identical whether the two bands
// arrive row-interleaved or image-sequential (only buffering differs).
TEST(ComposeTest, OutputInvariantUnderOrganization) {
  InstrumentConfig config;
  config.crs_name = "latlon";
  config.cells_per_sector = 1024;
  config.bands = {SpectralBand::kNearInfrared, SpectralBand::kVisible};

  auto run = [&](PointOrganization org) {
    InstrumentConfig c = config;
    c.organization = org;
    StreamGenerator gen(c, ScanSchedule::GoesRoutine());
    ComposeOp op("c", ComposeFn::kSubtract);
    CollectingSink sink;
    op.BindOutput(&sink);
    Status st = gen.GenerateScans(0, 3, {op.input(0), op.input(1)});
    EXPECT_TRUE(st.ok()) << st.ToString();
    st = gen.Finish({op.input(0), op.input(1)});
    EXPECT_TRUE(st.ok()) << st.ToString();
    return CollectPoints(sink.events());
  };

  auto row = run(PointOrganization::kRowByRow);
  auto image = run(PointOrganization::kImageByImage);
  ASSERT_GT(row.size(), 0u);
  EXPECT_EQ(row, image);
}

}  // namespace
}  // namespace geostreams
