#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>

#include "common/math_util.h"
#include "mqo/cascade_tree.h"
#include "mqo/filter_bank.h"
#include "mqo/grid_index.h"
#include "mqo/shared_restriction.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::LatLonLattice;
using testing_util::PushFrame;

const BoundingBox kExtent(0.0, 0.0, 1024.0, 1024.0);

std::vector<QueryId> SortedStab(const RegionIndex& index, double x,
                                double y) {
  std::vector<QueryId> out;
  index.Stab(x, y, &out);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FilterBankTest, InsertStabRemove) {
  FilterBank bank;
  GS_ASSERT_OK(bank.Insert(1, BoundingBox(0, 0, 10, 10)));
  GS_ASSERT_OK(bank.Insert(2, BoundingBox(5, 5, 15, 15)));
  EXPECT_EQ(bank.size(), 2u);
  EXPECT_EQ(SortedStab(bank, 7, 7), (std::vector<QueryId>{1, 2}));
  EXPECT_EQ(SortedStab(bank, 1, 1), (std::vector<QueryId>{1}));
  EXPECT_EQ(SortedStab(bank, 20, 20), (std::vector<QueryId>{}));
  GS_ASSERT_OK(bank.Remove(1));
  EXPECT_EQ(SortedStab(bank, 7, 7), (std::vector<QueryId>{2}));
  EXPECT_EQ(bank.Remove(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(bank.Insert(2, BoundingBox()).code(),
            StatusCode::kAlreadyExists);
}

TEST(CascadeTreeTest, BasicStab) {
  CascadeTree tree(kExtent, 8);
  GS_ASSERT_OK(tree.Insert(1, BoundingBox(0, 0, 512, 512)));
  GS_ASSERT_OK(tree.Insert(2, BoundingBox(256, 256, 768, 768)));
  EXPECT_EQ(SortedStab(tree, 300, 300), (std::vector<QueryId>{1, 2}));
  EXPECT_EQ(SortedStab(tree, 100, 100), (std::vector<QueryId>{1}));
  EXPECT_EQ(SortedStab(tree, 700, 700), (std::vector<QueryId>{2}));
  EXPECT_EQ(SortedStab(tree, 900, 100), (std::vector<QueryId>{}));
}

TEST(CascadeTreeTest, PointsOutsideExtentStabNothing) {
  CascadeTree tree(kExtent);
  GS_ASSERT_OK(tree.Insert(1, BoundingBox(-100, -100, 2000, 2000)));
  EXPECT_EQ(SortedStab(tree, 512, 512), (std::vector<QueryId>{1}));
  EXPECT_EQ(SortedStab(tree, -50, -50), (std::vector<QueryId>{}));
}

TEST(CascadeTreeTest, RemovePrunesNodes) {
  CascadeTree tree(kExtent, 8);
  const size_t base_nodes = tree.node_count();
  GS_ASSERT_OK(tree.Insert(1, BoundingBox(10, 10, 20, 20)));
  EXPECT_GT(tree.node_count(), base_nodes);
  GS_ASSERT_OK(tree.Remove(1));
  EXPECT_EQ(tree.node_count(), base_nodes);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(SortedStab(tree, 15, 15), (std::vector<QueryId>{}));
}

TEST(CascadeTreeTest, DuplicateAndMissingIds) {
  CascadeTree tree(kExtent);
  GS_ASSERT_OK(tree.Insert(1, BoundingBox(0, 0, 10, 10)));
  EXPECT_EQ(tree.Insert(1, BoundingBox(0, 0, 5, 5)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(tree.Remove(9).code(), StatusCode::kNotFound);
}

TEST(GridIndexTest, BasicStab) {
  GridIndex grid(kExtent, 16, 16);
  GS_ASSERT_OK(grid.Insert(1, BoundingBox(0, 0, 100, 100)));
  GS_ASSERT_OK(grid.Insert(2, BoundingBox(50, 50, 200, 200)));
  EXPECT_EQ(SortedStab(grid, 75, 75), (std::vector<QueryId>{1, 2}));
  EXPECT_EQ(SortedStab(grid, 150, 150), (std::vector<QueryId>{2}));
  GS_ASSERT_OK(grid.Remove(2));
  EXPECT_EQ(SortedStab(grid, 150, 150), (std::vector<QueryId>{}));
}

// Property: all three index structures agree with each other on
// randomized rectangle sets and probe points.
class IndexEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(IndexEquivalence, AllStructuresAgree) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919;
  FilterBank bank;
  CascadeTree tree(kExtent, 7);
  GridIndex grid(kExtent, 32, 32);

  // Random rectangles, some tiny, some huge, some outside the extent.
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    const double x0 = HashToUnit(seed + i * 5 + 0) * 1400.0 - 200.0;
    const double y0 = HashToUnit(seed + i * 5 + 1) * 1400.0 - 200.0;
    const double w = HashToUnit(seed + i * 5 + 2) *
                     (i % 3 == 0 ? 1000.0 : 60.0);
    const double h = HashToUnit(seed + i * 5 + 3) *
                     (i % 3 == 0 ? 1000.0 : 60.0);
    const BoundingBox box(x0, y0, x0 + w, y0 + h);
    GS_ASSERT_OK(bank.Insert(i, box));
    GS_ASSERT_OK(tree.Insert(i, box));
    GS_ASSERT_OK(grid.Insert(i, box));
  }
  // Remove a third of them again (dynamic workload).
  for (int i = 0; i < n; i += 3) {
    GS_ASSERT_OK(bank.Remove(i));
    GS_ASSERT_OK(tree.Remove(i));
    GS_ASSERT_OK(grid.Remove(i));
  }

  for (int p = 0; p < 500; ++p) {
    const double x = HashToUnit(seed * 31 + p * 2) * 1024.0;
    const double y = HashToUnit(seed * 31 + p * 2 + 1) * 1024.0;
    const auto expected = SortedStab(bank, x, y);
    EXPECT_EQ(SortedStab(tree, x, y), expected)
        << "cascade tree at (" << x << ", " << y << ")";
    EXPECT_EQ(SortedStab(grid, x, y), expected)
        << "grid index at (" << x << ", " << y << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexEquivalence, ::testing::Range(1, 9));

// Property: the tree's depth changes its shape, never its answers. At
// every depth it reports exactly the boxes that contain the probe,
// also on the quadrant boundaries the tree splits at, on box edges
// that coincide with them, and outside the extent.
const GridLattice kDepthLattice = LatLonLattice(160, 96, 0.25);

/// Split coordinates of [lo, hi] down to `depth` levels, computed as
/// the tree computes its quadrants.
std::vector<double> Splits(double lo, double hi, int depth) {
  std::vector<double> out = {lo, hi};
  if (depth == 0) return out;
  const double mid = (lo + hi) / 2.0;
  for (double v : Splits(lo, mid, depth - 1)) out.push_back(v);
  for (double v : Splits(mid, hi, depth - 1)) out.push_back(v);
  return out;
}

class IndexEquivalenceAtDepth : public ::testing::TestWithParam<int> {};

TEST_P(IndexEquivalenceAtDepth, CascadeTreeMatchesFilterBank) {
  const int depth = GetParam();
  const BoundingBox extent = kDepthLattice.Extent();
  const std::vector<double> xs = Splits(extent.min_x, extent.max_x, 10);
  const std::vector<double> ys = Splits(extent.min_y, extent.max_y, 10);
  FilterBank bank;
  CascadeTree tree(extent, depth);
  // Random boxes, boxes whose edges lie on split lines, and boxes
  // whose edges pass through cell centres; some reach outside.
  const int n = 90;
  for (int i = 0; i < n; ++i) {
    const auto u = [&](int k) {
      return HashToUnit(static_cast<uint64_t>(depth) * 104729 + i * 7 + k);
    };
    BoundingBox box;
    switch (i % 3) {
      case 0: {
        const double x0 = extent.min_x + (u(0) * 1.2 - 0.1) * extent.width();
        const double y0 = extent.min_y + (u(1) * 1.2 - 0.1) * extent.height();
        box = BoundingBox(x0, y0, x0 + u(2) * extent.width() * 0.5,
                          y0 + u(3) * extent.height() * 0.5);
        break;
      }
      case 1:
        box = BoundingBox(xs[static_cast<size_t>(u(0) * xs.size())],
                          ys[static_cast<size_t>(u(1) * ys.size())],
                          xs[static_cast<size_t>(u(2) * xs.size())],
                          ys[static_cast<size_t>(u(3) * ys.size())]);
        break;
      default: {
        const auto col = [&](int k) {
          return kDepthLattice.CellX(
              static_cast<int64_t>(u(k) * kDepthLattice.width()));
        };
        const auto row = [&](int k) {
          return kDepthLattice.CellY(
              static_cast<int64_t>(u(k) * kDepthLattice.height()));
        };
        box = BoundingBox(col(0), row(1), col(2), row(3));
        break;
      }
    }
    GS_ASSERT_OK(bank.Insert(i, box));
    GS_ASSERT_OK(tree.Insert(i, box));
  }
  for (int i = 0; i < n; i += 4) {
    GS_ASSERT_OK(bank.Remove(i));
    GS_ASSERT_OK(tree.Remove(i));
  }

  std::vector<std::pair<double, double>> probes;
  for (int64_t r = 0; r < kDepthLattice.height(); ++r) {
    for (int64_t c = 0; c < kDepthLattice.width(); ++c) {
      probes.emplace_back(kDepthLattice.CellX(c), kDepthLattice.CellY(r));
    }
  }
  for (size_t i = 0; i < xs.size(); ++i) {
    probes.emplace_back(xs[i], ys[(i * 37) % ys.size()]);
    probes.emplace_back(xs[(i * 53) % xs.size()], ys[i]);
    probes.emplace_back(xs[i], ys[i]);
  }
  const double w = extent.width(), h = extent.height();
  for (const auto& [fx, fy] : std::vector<std::pair<double, double>>{
           {-0.5, 0.5}, {1.5, 0.5}, {0.5, -0.5}, {0.5, 1.5}, {-0.01, -0.01},
           {1.01, 1.01}, {-3.0, 4.0}}) {
    probes.emplace_back(extent.min_x + fx * w, extent.min_y + fy * h);
  }
  for (const auto& [x, y] : probes) {
    const bool inside = extent.Contains(x, y);
    std::vector<QueryId> expected;
    if (inside) expected = SortedStab(bank, x, y);
    ASSERT_EQ(SortedStab(tree, x, y), expected)
        << "depth " << depth << " at (" << x << ", " << y << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Depth, IndexEquivalenceAtDepth,
    ::testing::Values(1, 6, 10, CascadeTree::DepthFor(kDepthLattice)));

TEST(CascadeTreeTest, DepthFollowsTheLattice) {
  // Cells are split while the children span at least 4 lattice cells
  // along the longer axis.
  EXPECT_EQ(CascadeTree::DepthFor(LatLonLattice(256, 256)), 6);
  EXPECT_EQ(CascadeTree::DepthFor(LatLonLattice(255, 100)), 5);
  EXPECT_EQ(CascadeTree::DepthFor(LatLonLattice(512, 256)), 7);
  EXPECT_EQ(CascadeTree::DepthFor(kDepthLattice), 5);
  EXPECT_EQ(CascadeTree::DepthFor(LatLonLattice(16, 12)), 2);
  EXPECT_EQ(CascadeTree::DepthFor(LatLonLattice(4, 4)), 1);
  EXPECT_EQ(CascadeTree::DepthFor(LatLonLattice(1, 1)), 1);
}

TEST(CascadeTreeTest, FanoutRegionsFitInAThousandNodes) {
  // The loopback benchmark's live_fanout set: 248 CONUS boxes (224 of
  // 4.5 x 2.7 degrees, 16 of 4 x 2.4, 8 of 5.5 x 3.3) on the 256 x 256
  // full-disk reference lattice. At depth 10 the tree held 59,641
  // nodes for them, 240 per region.
  InstrumentConfig config;
  config.crs_name = "latlon";
  config.bands = {SpectralBand::kVisible};
  config.cells_per_sector = 64 * 1024;
  StreamGenerator generator(config, ScanSchedule::GoesRoutine());
  GS_ASSERT_OK(generator.Init());
  auto desc = generator.Descriptor(0);
  GS_ASSERT_OK(desc.status());
  const GridLattice& lattice = desc->reference_lattice();
  ASSERT_EQ(lattice.width(), 256);
  ASSERT_EQ(lattice.height(), 256);
  CascadeTree tree(lattice);
  CascadeTree deep(lattice.Extent(), 10);
  QueryId id = 0;
  for (const auto& [count, w] : std::vector<std::pair<int, double>>{
           {224, 4.5}, {16, 4.0}, {8, 5.5}}) {
    for (int i = 0; i < count; ++i, ++id) {
      const double h = 0.6 * w;
      const double x0 =
          -125.0 + HashToUnit(static_cast<uint64_t>(id) * 2) * (59.0 - w);
      const double y0 =
          24.0 + HashToUnit(static_cast<uint64_t>(id) * 2 + 1) * (26.0 - h);
      const BoundingBox box(x0, y0, x0 + w, y0 + h);
      GS_ASSERT_OK(tree.Insert(id, box));
      GS_ASSERT_OK(deep.Insert(id, box));
    }
  }
  EXPECT_EQ(tree.size(), 248u);
  EXPECT_LE(tree.node_count(), 1000u);
  EXPECT_GT(deep.node_count(), 20 * tree.node_count());
}

// --- SharedRestrictionOp ------------------------------------------------------

TEST(SharedRestrictionTest, RoutesPointsToMatchingQueries) {
  GridLattice lattice = LatLonLattice(10, 8);
  auto op = SharedRestrictionOp(
      std::make_unique<CascadeTree>(lattice.Extent(), 8));
  CollectingSink west, east, nothing;
  // West: columns 0..1; East: columns 8..9; nothing: far away.
  GS_ASSERT_OK(op.RegisterQuery(
      1, MakeBBoxRegion(-125.0, 40.0, -123.9, 45.0), &west));
  GS_ASSERT_OK(op.RegisterQuery(
      2, MakeBBoxRegion(-121.1, 40.0, -120.0, 45.0), &east));
  GS_ASSERT_OK(op.RegisterQuery(3, MakeBBoxRegion(0.0, 0.0, 1.0, 1.0),
                                &nothing));
  GS_ASSERT_OK(PushFrame(&op, lattice, 0));
  EXPECT_EQ(west.TotalPoints(), 2u * 8u);
  EXPECT_EQ(east.TotalPoints(), 2u * 8u);
  EXPECT_EQ(nothing.TotalPoints(), 0u);
  // Frame metadata reaches every subscriber.
  EXPECT_EQ(west.NumFrames(), 1u);
  EXPECT_EQ(nothing.NumFrames(), 1u);
}

TEST(SharedRestrictionTest, ExactTestForNonBBoxRegions) {
  GridLattice lattice = LatLonLattice(10, 8);
  auto op = SharedRestrictionOp(
      std::make_unique<CascadeTree>(lattice.Extent(), 8));
  CollectingSink sink;
  // A disk whose bbox covers more cells than the disk itself.
  auto disk = ConstraintRegion::Disk(-122.5, 42.75, 0.6);
  GS_ASSERT_OK(op.RegisterQuery(1, disk, &sink));
  GS_ASSERT_OK(PushFrame(&op, lattice, 0));
  ASSERT_GT(sink.TotalPoints(), 0u);
  for (const auto& [key, v] : testing_util::CollectPoints(sink.events())) {
    const double x = lattice.CellX(std::get<0>(key));
    const double y = lattice.CellY(std::get<1>(key));
    EXPECT_TRUE(disk->Contains(x, y));
  }
}

TEST(SharedRestrictionTest, UnregisterStopsDelivery) {
  GridLattice lattice = LatLonLattice(4, 4);
  auto op = SharedRestrictionOp(
      std::make_unique<FilterBank>());
  CollectingSink sink;
  GS_ASSERT_OK(op.RegisterQuery(1, AllRegion::Instance(), &sink));
  GS_ASSERT_OK(PushFrame(&op, lattice, 0));
  const uint64_t after_first = sink.TotalPoints();
  EXPECT_EQ(after_first, 16u);
  GS_ASSERT_OK(op.UnregisterQuery(1));
  GS_ASSERT_OK(PushFrame(&op, lattice, 1));
  EXPECT_EQ(sink.TotalPoints(), after_first);
  EXPECT_EQ(op.UnregisterQuery(1).code(), StatusCode::kNotFound);
}

TEST(SharedRestrictionTest, BatchesPreserveValuesAndTimestamps) {
  GridLattice lattice = LatLonLattice(6, 4);
  auto op = SharedRestrictionOp(
      std::make_unique<GridIndex>(lattice.Extent(), 8, 8));
  CollectingSink sink;
  GS_ASSERT_OK(op.RegisterQuery(7, AllRegion::Instance(), &sink));
  GS_ASSERT_OK(PushFrame(&op, lattice, 5));
  auto points = testing_util::CollectPoints(sink.events());
  ASSERT_EQ(points.size(), 24u);
  EXPECT_DOUBLE_EQ(points.at({3, 2, 5}), testing_util::TestValue(5, 3, 2));
}

/// Every event a sink saw, flattened: (kind, frame, col, row, t, value)
/// per point, and one entry per frame-level event.
std::vector<std::tuple<int, int64_t, int32_t, int32_t, int64_t, double>>
Flatten(const std::vector<StreamEvent>& events) {
  std::vector<std::tuple<int, int64_t, int32_t, int32_t, int64_t, double>>
      out;
  for (const StreamEvent& e : events) {
    if (e.kind != EventKind::kPointBatch) {
      out.emplace_back(static_cast<int>(e.kind), e.frame.frame_id, 0, 0, 0,
                       0.0);
      continue;
    }
    const PointBatch& b = *e.batch;
    for (size_t i = 0; i < b.size(); ++i) {
      out.emplace_back(static_cast<int>(e.kind), b.frame_id, b.cols[i],
                       b.rows[i], b.timestamps[i], b.ValueAt(i, 0));
    }
  }
  return out;
}

TEST(SharedRestrictionTest, LatticeDepthRoutesLikeDepthTen) {
  // 64 x 48 cells of 0.5 degrees: the lattice's depth is 4.
  const GridLattice lattice = LatLonLattice(64, 48);
  ASSERT_EQ(CascadeTree::DepthFor(lattice), 4);
  SharedRestrictionOp shallow(std::make_unique<CascadeTree>(lattice));
  SharedRestrictionOp deep(
      std::make_unique<CascadeTree>(lattice.Extent(), 10));
  const double x0 = lattice.CellX(0), y0 = lattice.CellY(47);
  std::vector<std::pair<double, double>> cells;
  for (int k = 0; k < 9; ++k) {
    cells.emplace_back(lattice.CellX(10 + 5 * k), lattice.CellY(3 + 4 * k));
  }
  const std::vector<RegionPtr> regions = {
      // Edges through cell centres, and a box beyond the extent.
      MakeBBoxRegion(lattice.CellX(3), lattice.CellY(20), lattice.CellX(40),
                     lattice.CellY(2)),
      MakeBBoxRegion(x0 - 10.0, y0 - 10.0, x0 + 1.0, y0 + 30.0),
      ConstraintRegion::Disk(-105.0, 33.0, 6.3),
      MakePolygonRegion({{-120.0, 30.0}, {-100.0, 26.0}, {-96.0, 40.0},
                         {-112.0, 44.0}}),
      MakeUnionRegion({MakeBBoxRegion(-124.0, 40.0, -118.0, 44.0),
                       ConstraintRegion::Disk(-99.0, 27.0, 2.2)}),
      std::make_shared<EnumeratedRegion>(cells, 0.5),
      // Exactly the lattice extent.
      MakeBBoxRegion(lattice.Extent().min_x, lattice.Extent().min_y,
                     lattice.Extent().max_x, lattice.Extent().max_y),
  };
  std::vector<CollectingSink> shallow_sinks(regions.size());
  std::vector<CollectingSink> deep_sinks(regions.size());
  auto reg = [&](size_t i) {
    const auto id = static_cast<QueryId>(i + 1);
    GS_ASSERT_OK(shallow.RegisterQuery(id, regions[i], &shallow_sinks[i]));
    GS_ASSERT_OK(deep.RegisterQuery(id, regions[i], &deep_sinks[i]));
  };
  auto unreg = [&](size_t i) {
    const auto id = static_cast<QueryId>(i + 1);
    GS_ASSERT_OK(shallow.UnregisterQuery(id));
    GS_ASSERT_OK(deep.UnregisterQuery(id));
  };
  auto frame = [&](int64_t id) {
    GS_ASSERT_OK(PushFrame(&shallow, lattice, id));
    GS_ASSERT_OK(PushFrame(&deep, lattice, id));
  };
  for (size_t i = 0; i < regions.size(); i += 2) reg(i);
  frame(0);
  for (size_t i = 1; i < regions.size(); i += 2) reg(i);
  unreg(2);
  frame(1);
  unreg(0);
  reg(2);
  frame(2);
  reg(0);
  frame(3);
  for (size_t i = 0; i < regions.size(); ++i) {
    SCOPED_TRACE(regions[i]->ToString());
    EXPECT_GT(deep_sinks[i].TotalPoints(), 0u);
    EXPECT_EQ(Flatten(shallow_sinks[i].events()),
              Flatten(deep_sinks[i].events()));
  }
}

}  // namespace
}  // namespace geostreams
