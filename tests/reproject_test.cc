#include "ops/reproject_op.h"

#include <gtest/gtest.h>

#include <set>

#include "geo/crs_registry.h"
#include "geo/geographic_crs.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::CollectPoints;
using testing_util::LatLonLattice;
using testing_util::PushFrame;
using testing_util::TestValue;
using testing_util::WellFormedFrames;

TEST(DeriveLatticeTest, PreservesSizeAndAspect) {
  GridLattice src = LatLonLattice(40, 20);
  auto utm = ResolveCrs("utm:10n");
  ASSERT_TRUE(utm.ok());
  auto out = ReprojectOp::DeriveLattice(src, *utm);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->width(), 40);
  EXPECT_EQ(out->height(), 20);
  EXPECT_EQ(out->crs()->name(), "utm:10n");
  EXPECT_GT(out->dx(), 0.0);
  EXPECT_LT(out->dy(), 0.0);  // row 0 north
}

TEST(DeriveLatticeTest, FailsOutsideTargetDomain) {
  GridLattice src = LatLonLattice(10, 10, 0.5, /*west=*/100.0);
  auto geos = ResolveCrs("geos:-75");  // antipodal: not visible
  ASSERT_TRUE(geos.ok());
  EXPECT_FALSE(ReprojectOp::DeriveLattice(src, *geos).ok());
}

TEST(ReprojectTest, IdentityReprojectionKeepsValues) {
  GridLattice lattice = LatLonLattice(8, 6);
  ReprojectOp op("p", GeographicCrs::Instance(), ResampleKernel::kNearest);
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(PushFrame(op.input(0), lattice, 4));
  GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::StreamEnd()));

  EXPECT_TRUE(WellFormedFrames(sink.events()));
  auto points = CollectPoints(sink.events());
  ASSERT_EQ(points.size(), 48u);
  // Same CRS: derived lattice matches the source, values survive.
  EXPECT_NEAR(points.at({3, 2, 4}), TestValue(4, 3, 2), 1e-12);
  EXPECT_NEAR(points.at({7, 5, 4}), TestValue(4, 7, 5), 1e-12);
}

TEST(ReprojectTest, LatLonToMercatorPreservesColumnStructure) {
  // TestValue varies mostly with the column; a lat/lon -> Mercator
  // re-projection preserves columns (both are equirectangular in x).
  GridLattice lattice = LatLonLattice(16, 8);
  auto merc = ResolveCrs("mercator");
  ASSERT_TRUE(merc.ok());
  ReprojectOp op("p", *merc, ResampleKernel::kBilinear);
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(PushFrame(op.input(0), lattice, 0));

  auto points = CollectPoints(sink.events());
  ASSERT_EQ(points.size(), 16u * 8u);
  // For every output point, the value modulo the row contribution
  // tracks the column: check monotonicity along each row.
  for (int32_t row = 0; row < 8; ++row) {
    double prev = -1.0;
    for (int32_t col = 0; col < 16; ++col) {
      const double v = points.at({col, row, 0});
      EXPECT_GT(v, prev) << "col " << col << " row " << row;
      prev = v;
    }
  }
}

TEST(ReprojectTest, GeosToLatLonRoundTripsValues) {
  // Build a frame in geostationary scan angles covering the western
  // US, re-project to lat/lon, and verify values by inverse lookup.
  auto geos = ResolveCrs("geos:-75");
  ASSERT_TRUE(geos.ok());
  // Scan-angle box around California seen from 75W.
  double x0, y0, x1, y1;
  ASSERT_TRUE((*geos)->FromGeographic(-124.0, 33.0, &x0, &y0).ok());
  ASSERT_TRUE((*geos)->FromGeographic(-114.0, 42.0, &x1, &y1).ok());
  const int64_t w = 24, h = 20;
  const double dx = (x1 - x0) / w;
  const double dy = (y1 - y0) / h;
  GridLattice lattice(*geos, x0 + dx / 2.0, y1 - dy / 2.0, dx, -dy, w, h);
  ASSERT_TRUE(lattice.Validate().ok());

  ReprojectOp op("p", GeographicCrs::Instance(), ResampleKernel::kNearest);
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(PushFrame(op.input(0), lattice, 0));

  auto points = CollectPoints(sink.events());
  // The curved geostationary footprint covers only part of its
  // lat/lon bounding lattice; emptily-mapped cells are skipped.
  ASSERT_GT(points.size(), static_cast<size_t>(w * h) / 3);
  ASSERT_LT(points.size(), static_cast<size_t>(w * h));
  // Spot-check: output values must be values that exist in the input
  // frame (nearest-neighbour gather cannot invent values).
  std::set<int64_t> input_values;
  for (int64_t r = 0; r < h; ++r) {
    for (int64_t c = 0; c < w; ++c) {
      input_values.insert(
          static_cast<int64_t>(TestValue(0, c, r) * 1e9 + 0.5));
    }
  }
  for (const auto& [key, v] : points) {
    EXPECT_TRUE(input_values.count(static_cast<int64_t>(v * 1e9 + 0.5)))
        << "value " << v << " not from the input frame";
  }
}

TEST(ReprojectTest, BuffersTheFrame) {
  GridLattice lattice = LatLonLattice(32, 32);
  auto merc = ResolveCrs("mercator");
  ASSERT_TRUE(merc.ok());
  ReprojectOp op("p", *merc);
  CollectingSink sink;
  op.BindOutput(&sink);
  GS_ASSERT_OK(PushFrame(op.input(0), lattice, 0));
  EXPECT_GE(op.metrics().buffered_bytes_high_water,
            32u * 32u * sizeof(double));
  EXPECT_EQ(op.metrics().buffered_bytes, 0u);  // released after flush
}

TEST(ReprojectTest, RejectsUnframedAndMultiband) {
  auto merc = ResolveCrs("mercator");
  ASSERT_TRUE(merc.ok());
  ReprojectOp op("p", *merc);
  CollectingSink sink;
  op.BindOutput(&sink);
  auto batch = std::make_shared<PointBatch>();
  batch->band_count = 1;
  batch->Append1(0, 0, 0, 1.0);
  EXPECT_FALSE(op.input(0)->Consume(StreamEvent::Batch(batch)).ok());
}

}  // namespace
}  // namespace geostreams
