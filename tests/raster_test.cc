#include "raster/raster.h"

#include <gtest/gtest.h>

#include <cmath>

#include "raster/frame_assembler.h"
#include "raster/histogram.h"
#include "raster/resample.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::LatLonLattice;

TEST(RasterTest, CreateAndAccess) {
  auto r = Raster::Create(4, 3, 1, 0.5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->width(), 4);
  EXPECT_EQ(r->height(), 3);
  EXPECT_EQ(r->num_pixels(), 12);
  EXPECT_DOUBLE_EQ(r->At(0, 0), 0.5);
  r->Set(2, 1, 7.0);
  EXPECT_DOUBLE_EQ(r->At(2, 1), 7.0);
}

TEST(RasterTest, CreateRejectsBadShapes) {
  EXPECT_FALSE(Raster::Create(0, 3, 1).ok());
  EXPECT_FALSE(Raster::Create(3, -1, 1).ok());
  EXPECT_FALSE(Raster::Create(3, 3, 0).ok());
  EXPECT_FALSE(Raster::Create(3, 3, kMaxBands + 1).ok());
}

TEST(RasterTest, MultiBand) {
  Raster r(2, 2, 3);
  r.Set(1, 1, 2, 9.0);
  EXPECT_DOUBLE_EQ(r.At(1, 1, 2), 9.0);
  EXPECT_DOUBLE_EQ(r.At(1, 1, 0), 0.0);
}

TEST(RasterTest, AtClampedReplicatesEdges) {
  Raster r(3, 3, 1);
  r.Set(0, 0, 1.0);
  r.Set(2, 2, 9.0);
  EXPECT_DOUBLE_EQ(r.AtClamped(-5, -5), 1.0);
  EXPECT_DOUBLE_EQ(r.AtClamped(10, 10), 9.0);
}

TEST(RasterTest, MinMaxMean) {
  Raster r(2, 2, 1);
  r.Set(0, 0, 1.0);
  r.Set(1, 0, 2.0);
  r.Set(0, 1, 3.0);
  r.Set(1, 1, 6.0);
  double lo, hi;
  r.MinMax(0, &lo, &hi);
  EXPECT_DOUBLE_EQ(lo, 1.0);
  EXPECT_DOUBLE_EQ(hi, 6.0);
  EXPECT_DOUBLE_EQ(r.Mean(), 3.0);
}

TEST(RasterTest, AbsDifference) {
  Raster a(2, 2, 1, 1.0);
  Raster b(2, 2, 1, 3.0);
  auto d = Raster::AbsDifference(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*d, 8.0);
  Raster c(2, 3, 1);
  EXPECT_FALSE(Raster::AbsDifference(a, c).ok());
}

// --- Histogram --------------------------------------------------------------

TEST(HistogramTest, CountsAndCdf) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.Add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_NEAR(h.Cdf(4.9), 0.5, 1e-9);
  EXPECT_NEAR(h.Cdf(9.9), 1.0, 1e-9);
  EXPECT_NEAR(h.Mean(), 5.0, 1e-9);
}

TEST(HistogramTest, OutOfRangeValuesClampToEdgeBins) {
  Histogram h(0.0, 1.0, 4);
  h.Add(-5.0);
  h.Add(5.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(HistogramTest, Quantile) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.Add(static_cast<double>(i));
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.Quantile(0.05), 5.0, 1.5);
  EXPECT_NEAR(h.Quantile(0.95), 95.0, 1.5);
}

TEST(HistogramTest, StdDev) {
  Histogram h(-10.0, 10.0, 100);
  // Two-point distribution at -1 and 1: stddev 1.
  for (int i = 0; i < 500; ++i) {
    h.Add(-1.0);
    h.Add(1.0);
  }
  EXPECT_NEAR(h.StdDev(), 1.0, 1e-9);
  EXPECT_NEAR(h.Mean(), 0.0, 1e-9);
}

TEST(HistogramTest, ResetClears) {
  Histogram h(0.0, 1.0, 4);
  h.Add(0.5);
  h.Reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.Cdf(1.0), 0.0);
}

TEST(HistogramTest, IgnoresNan) {
  Histogram h(0.0, 1.0, 4);
  h.Add(std::nan(""));
  EXPECT_EQ(h.total(), 0u);
}

// --- Resampling --------------------------------------------------------------

TEST(ResampleTest, NearestPicksClosestPixel) {
  Raster r(2, 1, 1);
  r.Set(0, 0, 10.0);
  r.Set(1, 0, 20.0);
  EXPECT_DOUBLE_EQ(SampleRaster(r, 0.2, 0.0, 0, ResampleKernel::kNearest),
                   10.0);
  EXPECT_DOUBLE_EQ(SampleRaster(r, 0.8, 0.0, 0, ResampleKernel::kNearest),
                   20.0);
}

TEST(ResampleTest, BilinearInterpolates) {
  Raster r(2, 2, 1);
  r.Set(0, 0, 0.0);
  r.Set(1, 0, 10.0);
  r.Set(0, 1, 20.0);
  r.Set(1, 1, 30.0);
  EXPECT_DOUBLE_EQ(SampleRaster(r, 0.5, 0.5, 0, ResampleKernel::kBilinear),
                   15.0);
  EXPECT_DOUBLE_EQ(SampleRaster(r, 0.0, 0.0, 0, ResampleKernel::kBilinear),
                   0.0);
  EXPECT_DOUBLE_EQ(SampleRaster(r, 1.0, 0.0, 0, ResampleKernel::kBilinear),
                   10.0);
}

TEST(ResampleTest, BoxAverageHandlesEdges) {
  Raster r(3, 3, 1, 1.0);
  EXPECT_DOUBLE_EQ(BoxAverage(r, 0, 0, 2, 0), 1.0);
  // 2x2 block starting at (2, 2) only covers one valid pixel.
  r.Set(2, 2, 5.0);
  EXPECT_DOUBLE_EQ(BoxAverage(r, 2, 2, 2, 0), 5.0);
}

TEST(ResampleTest, ReduceAverages) {
  Raster r(4, 4, 1);
  for (int64_t y = 0; y < 4; ++y) {
    for (int64_t x = 0; x < 4; ++x) r.Set(x, y, static_cast<double>(x));
  }
  auto red = ReduceRaster(r, 2);
  ASSERT_TRUE(red.ok());
  EXPECT_EQ(red->width(), 2);
  EXPECT_EQ(red->height(), 2);
  EXPECT_DOUBLE_EQ(red->At(0, 0), 0.5);  // mean of columns 0,1
  EXPECT_DOUBLE_EQ(red->At(1, 0), 2.5);  // mean of columns 2,3
}

TEST(ResampleTest, MagnifyReplicates) {
  Raster r(2, 1, 1);
  r.Set(0, 0, 1.0);
  r.Set(1, 0, 2.0);
  auto mag = MagnifyRaster(r, 3);
  ASSERT_TRUE(mag.ok());
  EXPECT_EQ(mag->width(), 6);
  EXPECT_EQ(mag->height(), 3);
  EXPECT_DOUBLE_EQ(mag->At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(mag->At(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(mag->At(3, 0), 2.0);
  EXPECT_DOUBLE_EQ(mag->At(5, 2), 2.0);
}

TEST(ResampleTest, MagnifyThenReduceIsIdentity) {
  Raster r(3, 2, 1);
  for (int64_t y = 0; y < 2; ++y) {
    for (int64_t x = 0; x < 3; ++x) {
      r.Set(x, y, static_cast<double>(x * 10 + y));
    }
  }
  auto mag = MagnifyRaster(r, 4);
  ASSERT_TRUE(mag.ok());
  auto back = ReduceRaster(*mag, 4);
  ASSERT_TRUE(back.ok());
  auto diff = Raster::AbsDifference(r, *back);
  ASSERT_TRUE(diff.ok());
  EXPECT_NEAR(*diff, 0.0, 1e-9);
}

TEST(ResampleTest, InvalidFactorsRejected) {
  Raster r(2, 2, 1);
  EXPECT_FALSE(ReduceRaster(r, 0).ok());
  EXPECT_FALSE(MagnifyRaster(r, 0).ok());
  EXPECT_FALSE(ReduceRaster(Raster(), 2).ok());
}

// --- FrameAssembler -----------------------------------------------------------

TEST(FrameAssemblerTest, AssemblesFullFrame) {
  FrameAssembler assembler(-1.0);
  FrameInfo info;
  info.frame_id = 7;
  info.lattice = LatLonLattice(4, 3);
  GS_ASSERT_OK(assembler.Begin(info, 1));
  EXPECT_TRUE(assembler.active());

  PointBatch batch;
  batch.frame_id = 7;
  batch.band_count = 1;
  for (int32_t r = 0; r < 3; ++r) {
    for (int32_t c = 0; c < 4; ++c) {
      batch.Append1(c, r, 7, c * 10.0 + r);
    }
  }
  GS_ASSERT_OK(assembler.Add(batch));
  EXPECT_EQ(assembler.points_seen(), 12);
  auto frame = assembler.Finish();
  ASSERT_TRUE(frame.ok());
  EXPECT_DOUBLE_EQ(frame->raster.At(3, 2), 32.0);
  EXPECT_TRUE(frame->IsFilled(3, 2));
  EXPECT_FALSE(assembler.active());
}

TEST(FrameAssemblerTest, NodataFillsGaps) {
  FrameAssembler assembler(-99.0);
  FrameInfo info;
  info.frame_id = 1;
  info.lattice = LatLonLattice(2, 2);
  GS_ASSERT_OK(assembler.Begin(info, 1));
  PointBatch batch;
  batch.frame_id = 1;
  batch.band_count = 1;
  batch.Append1(0, 0, 1, 5.0);
  GS_ASSERT_OK(assembler.Add(batch));
  auto frame = assembler.Finish();
  ASSERT_TRUE(frame.ok());
  EXPECT_DOUBLE_EQ(frame->raster.At(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(frame->raster.At(1, 1), -99.0);
  EXPECT_TRUE(frame->IsFilled(0, 0));
  EXPECT_FALSE(frame->IsFilled(1, 1));
}

TEST(FrameAssemblerTest, RejectsWrongFrameAndBounds) {
  FrameAssembler assembler;
  FrameInfo info;
  info.frame_id = 1;
  info.lattice = LatLonLattice(2, 2);
  GS_ASSERT_OK(assembler.Begin(info, 1));

  PointBatch wrong_frame;
  wrong_frame.frame_id = 2;
  wrong_frame.band_count = 1;
  wrong_frame.Append1(0, 0, 2, 0.0);
  EXPECT_FALSE(assembler.Add(wrong_frame).ok());

  PointBatch out_of_bounds;
  out_of_bounds.frame_id = 1;
  out_of_bounds.band_count = 1;
  out_of_bounds.Append1(5, 0, 1, 0.0);
  EXPECT_FALSE(assembler.Add(out_of_bounds).ok());

  PointBatch wrong_bands;
  wrong_bands.frame_id = 1;
  wrong_bands.band_count = 2;
  const double v[2] = {0.0, 0.0};
  wrong_bands.Append(0, 0, 1, v);
  EXPECT_FALSE(assembler.Add(wrong_bands).ok());
}

TEST(FrameAssemblerTest, RejectsNestedFramesAndEmptyFinish) {
  FrameAssembler assembler;
  FrameInfo info;
  info.frame_id = 1;
  info.lattice = LatLonLattice(2, 2);
  EXPECT_FALSE(assembler.Finish().ok());  // nothing open
  GS_ASSERT_OK(assembler.Begin(info, 1));
  EXPECT_FALSE(assembler.Begin(info, 1).ok());  // nested
}

TEST(FrameAssemblerTest, ReportsBufferedBytes) {
  // The window is allocated at the frame's first point, not at Begin,
  // and holds the frame's support, not its lattice.
  FrameAssembler assembler;
  EXPECT_EQ(assembler.BufferedBytes(), 0u);
  FrameInfo info;
  info.frame_id = 1;
  info.lattice = LatLonLattice(16, 16);
  info.support = CellRect{2, 3, 5, 4};
  GS_ASSERT_OK(assembler.Begin(info, 1));
  EXPECT_EQ(assembler.BufferedBytes(), 0u);
  PointBatch batch;
  batch.frame_id = 1;
  batch.band_count = 1;
  batch.Append1(3, 4, 1, 2.5);
  GS_ASSERT_OK(assembler.Add(batch));
  EXPECT_GE(assembler.BufferedBytes(), 5u * 4u * sizeof(double));
  EXPECT_LT(assembler.BufferedBytes(), 16u * 16u * sizeof(double));
  EXPECT_EQ(assembler.widenings(), 0u);
}

TEST(FrameAssemblerTest, FrameWithoutPointsFinishesAllNodata) {
  FrameAssembler assembler(-7.0);
  FrameInfo info;
  info.frame_id = 3;
  info.lattice = LatLonLattice(5, 4);
  GS_ASSERT_OK(assembler.Begin(info, 2));
  PointBatch empty;
  empty.frame_id = 3;
  empty.band_count = 2;
  GS_ASSERT_OK(assembler.Add(empty));  // an empty batch allocates nothing
  EXPECT_EQ(assembler.BufferedBytes(), 0u);
  auto frame = assembler.Finish();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->raster.width(), 5);
  EXPECT_EQ(frame->raster.height(), 4);
  EXPECT_EQ(frame->raster.bands(), 2);
  EXPECT_EQ(frame->raster.lattice().width(), 5);
  ASSERT_EQ(frame->filled.size(), 20u);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 5; ++c) {
      EXPECT_FALSE(frame->IsFilled(c, r));
      EXPECT_DOUBLE_EQ(frame->raster.At(c, r, 0), -7.0);
      EXPECT_DOUBLE_EQ(frame->raster.At(c, r, 1), -7.0);
    }
  }
}

TEST(FrameAssemblerTest, AbortBeforeTheFirstPointBuffersNothing) {
  FrameAssembler assembler;
  FrameInfo info;
  info.frame_id = 1;
  info.lattice = LatLonLattice(16, 16);
  GS_ASSERT_OK(assembler.Begin(info, 1));
  assembler.Abort();
  EXPECT_FALSE(assembler.active());
  EXPECT_EQ(assembler.BufferedBytes(), 0u);
  // The assembler is reusable, and the next frame allocates afresh.
  info.frame_id = 2;
  GS_ASSERT_OK(assembler.Begin(info, 1));
  PointBatch batch;
  batch.frame_id = 2;
  batch.band_count = 1;
  batch.Append1(15, 15, 2, 1.0);
  GS_ASSERT_OK(assembler.Add(batch));
  auto frame = assembler.Finish();
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->IsFilled(15, 15));
  EXPECT_FALSE(frame->IsFilled(0, 0));
}

TEST(FrameAssemblerTest, MismatchedBatchIsRejectedBeforeAllocation) {
  FrameAssembler assembler;
  FrameInfo info;
  info.frame_id = 1;
  info.lattice = LatLonLattice(16, 16);
  GS_ASSERT_OK(assembler.Begin(info, 1));

  PointBatch wrong_frame;
  wrong_frame.frame_id = 2;
  wrong_frame.band_count = 1;
  wrong_frame.Append1(0, 0, 2, 0.0);
  EXPECT_EQ(assembler.Add(wrong_frame).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(assembler.BufferedBytes(), 0u);

  PointBatch wrong_bands;
  wrong_bands.frame_id = 1;
  wrong_bands.band_count = 2;
  const double v[2] = {0.0, 0.0};
  wrong_bands.Append(0, 0, 1, v);
  EXPECT_EQ(assembler.Add(wrong_bands).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(assembler.BufferedBytes(), 0u);
  EXPECT_EQ(assembler.points_seen(), 0);
}

TEST(FrameAssemblerTest, BeginStillValidatesTheShape) {
  FrameAssembler assembler;
  FrameInfo info;
  info.frame_id = 1;
  info.lattice = LatLonLattice(4, 4);
  EXPECT_FALSE(assembler.Begin(info, 0).ok());
  EXPECT_FALSE(assembler.Begin(info, kMaxBands + 1).ok());
  EXPECT_FALSE(assembler.active());
}

}  // namespace
}  // namespace geostreams
