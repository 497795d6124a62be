#include "ops/delivery_op.h"

#include <gtest/gtest.h>

#include "geo/region.h"
#include "ops/compose_op.h"
#include "ops/restriction_ops.h"
#include "stream/memory_tracker.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::LatLonLattice;
using testing_util::PushFrame;
using testing_util::TestValue;

TEST(DeliveryTest, DeliversAssembledFrames) {
  GridLattice lattice = LatLonLattice(6, 4);
  std::vector<std::pair<int64_t, Raster>> delivered;
  DeliveryOp op(
      "d",
      [&delivered](int64_t id, const Raster& raster,
                   const std::vector<uint8_t>&) {
        delivered.emplace_back(id, raster);
      });
  NullSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(PushFrame(op.input(0), lattice, 3));
  GS_ASSERT_OK(PushFrame(op.input(0), lattice, 4));
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].first, 3);
  EXPECT_EQ(delivered[1].first, 4);
  EXPECT_DOUBLE_EQ(delivered[0].second.At(5, 3), TestValue(3, 5, 3));
  EXPECT_EQ(op.frames_delivered(), 2u);
}

TEST(DeliveryTest, SmallRegionReportsItsWindowBytes) {
  // A region of 2x3 cells out of a 16x12 sector: the delivery buffer
  // the MemoryTracker hears of is the region's window, not the sector.
  GridLattice lattice = LatLonLattice(16, 12);
  SpatialRestrictionOp region("region",
                              MakeBBoxRegion(-123.5, 41.5, -122.5, 43.0));
  DeliveryOp op("deliver", nullptr);
  MemoryTracker tracker;
  op.BindMemoryTracker(&tracker);
  NullSink sink;
  region.BindOutput(op.input(0));
  op.BindOutput(&sink);
  GS_ASSERT_OK(PushFrame(region.input(0), lattice, 0));
  const uint64_t window_bytes = 2 * 3 * sizeof(double);
  EXPECT_EQ(tracker.OwnerHighWater("deliver"), window_bytes);
  EXPECT_EQ(tracker.HighWaterBytes(), window_bytes);
  EXPECT_LT(tracker.OwnerHighWater("deliver"),
            lattice.num_cells() * sizeof(double));
  EXPECT_EQ(tracker.TotalBytes(), 0u);  // released at the frame's end
  EXPECT_EQ(op.metrics().frames_widened, 0u);
  EXPECT_EQ(op.points_delivered(), 6u);
}

TEST(DeliveryTest, PngEncodingProducesValidBytes) {
  GridLattice lattice = LatLonLattice(8, 8);
  DeliveryOptions options;
  options.encode_png = true;
  options.png_lo = 0.0;
  options.png_hi = 1.0;
  std::vector<uint8_t> last_png;
  DeliveryOp op(
      "d",
      [&last_png](int64_t, const Raster&, const std::vector<uint8_t>& png) {
        last_png = png;
      },
      options);
  NullSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(PushFrame(op.input(0), lattice, 0));
  ASSERT_GE(last_png.size(), 8u);
  EXPECT_EQ(last_png[1], 'P');
  EXPECT_EQ(op.bytes_encoded(), last_png.size());
}

TEST(DeliveryTest, NodataFillsMissingCells) {
  GridLattice lattice = LatLonLattice(4, 4);
  DeliveryOptions options;
  options.nodata = -5.0;
  Raster captured;
  DeliveryOp op(
      "d",
      [&captured](int64_t, const Raster& raster,
                  const std::vector<uint8_t>&) { captured = raster; },
      options);
  NullSink sink;
  op.BindOutput(&sink);
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = lattice;
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameBegin(info)));
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = 0;
  batch->band_count = 1;
  batch->Append1(1, 1, 0, 9.0);
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::Batch(batch)));
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameEnd(info)));
  EXPECT_DOUBLE_EQ(captured.At(1, 1), 9.0);
  EXPECT_DOUBLE_EQ(captured.At(0, 0), -5.0);
}

TEST(DeliveryTest, EmptyFrameStillDelivered) {
  // A restricted query can produce frames with no surviving points;
  // clients still receive the (all-nodata) frame.
  GridLattice lattice = LatLonLattice(4, 4);
  int delivered = 0;
  DeliveryOp op("d", [&delivered](int64_t, const Raster&,
                                  const std::vector<uint8_t>&) {
    ++delivered;
  });
  NullSink sink;
  op.BindOutput(&sink);
  FrameInfo info;
  info.frame_id = 7;
  info.lattice = lattice;
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameBegin(info)));
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameEnd(info)));
  EXPECT_EQ(delivered, 1);
}

TEST(DeliveryTest, MultiBandFrames) {
  // 3-band (colour) frames assemble into 3-band rasters: the Z^3
  // value sets of Sec. 2, e.g. from stacked compositions.
  GridLattice lattice = LatLonLattice(2, 2);
  Raster captured;
  DeliveryOp op("d", [&captured](int64_t, const Raster& raster,
                                 const std::vector<uint8_t>&) {
    captured = raster;
  });
  NullSink sink;
  op.BindOutput(&sink);
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = lattice;
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameBegin(info)));
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = 0;
  batch->band_count = 3;
  const double rgb[3] = {0.9, 0.5, 0.1};
  batch->Append(0, 0, 0, rgb);
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::Batch(batch)));
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameEnd(info)));
  EXPECT_EQ(captured.bands(), 3);
  EXPECT_DOUBLE_EQ(captured.At(0, 0, 0), 0.9);
  EXPECT_DOUBLE_EQ(captured.At(0, 0, 2), 0.1);
}

TEST(DeliveryTest, ForwardsEventsDownstream) {
  // Delivery is itself a stream operator (the algebra stays closed):
  // everything it consumes continues downstream.
  GridLattice lattice = LatLonLattice(3, 3);
  DeliveryOp op("d", nullptr);
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(PushFrame(op.input(0), lattice, 0));
  EXPECT_EQ(sink.TotalPoints(), 9u);
  EXPECT_EQ(sink.NumFrames(), 1u);
}

TEST(BandStackTest, StacksTwoSingleBandStreams) {
  GridLattice lattice = LatLonLattice(4, 2);
  ComposeOp op("stack", BinaryValueFn::Stack(1, 1));
  CollectingSink sink;
  op.BindOutput(&sink);
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = lattice;
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameBegin(info)));
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameBegin(info)));
  for (int port = 0; port < 2; ++port) {
    auto batch = std::make_shared<PointBatch>();
    batch->frame_id = 0;
    batch->band_count = 1;
    for (int32_t c = 0; c < 4; ++c) {
      batch->Append1(c, 0, 0, port == 0 ? c * 1.0 : c * 10.0);
    }
    GS_ASSERT_OK(op.input(port)->Consume(StreamEvent::Batch(batch)));
  }
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameEnd(info)));
  GS_ASSERT_OK(op.input(1)->Consume(StreamEvent::FrameEnd(info)));
  uint64_t points = 0;
  for (const StreamEvent& e : sink.events()) {
    if (e.kind != EventKind::kPointBatch) continue;
    EXPECT_EQ(e.batch->band_count, 2);
    for (size_t i = 0; i < e.batch->size(); ++i) {
      const double left = e.batch->ValueAt(i, 0);
      const double right = e.batch->ValueAt(i, 1);
      EXPECT_DOUBLE_EQ(right, left * 10.0);
      ++points;
    }
  }
  EXPECT_EQ(points, 4u);
}

TEST(BandStackTest, MismatchedBandCountRejected) {
  ComposeOp op("stack", BinaryValueFn::Stack(1, 2));
  CollectingSink sink;
  op.BindOutput(&sink);
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = LatLonLattice(2, 2);
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameBegin(info)));
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = 0;
  batch->band_count = 3;  // port 0 expects 1
  const double v[3] = {1, 2, 3};
  batch->Append(0, 0, 0, v);
  EXPECT_FALSE(op.input(0)->Consume(StreamEvent::Batch(batch)).ok());
}

}  // namespace
}  // namespace geostreams
