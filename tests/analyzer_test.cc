#include "query/analyzer.h"

#include <gtest/gtest.h>

#include <functional>

#include "geo/crs_registry.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::MakeTestCatalog;

Result<ExprPtr> ParseAndAnalyze(const StreamCatalog& catalog,
                                const std::string& query) {
  GEOSTREAMS_ASSIGN_OR_RETURN(ExprPtr e, ParseQuery(query));
  GEOSTREAMS_RETURN_IF_ERROR(AnalyzeQuery(catalog, e));
  return e;
}

TEST(CatalogTest, RegisterAndLookup) {
  StreamCatalog catalog = MakeTestCatalog();
  auto d = catalog.Lookup("g.nir");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->value_set().bands(), 1);
  EXPECT_FALSE(catalog.Lookup("nope").ok());
  // Duplicate registration rejected.
  EXPECT_EQ(catalog.Register(*d).code(), StatusCode::kAlreadyExists);
}

TEST(AnalyzerTest, StreamRefGetsDescriptor) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = ParseAndAnalyze(catalog, "g.nir");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE((*e)->analyzed);
  EXPECT_EQ((*e)->out_desc.name(), "g.nir");
}

TEST(AnalyzerTest, UnknownStreamFails) {
  StreamCatalog catalog = MakeTestCatalog();
  EXPECT_EQ(ParseAndAnalyze(catalog, "missing.stream").status().code(),
            StatusCode::kNotFound);
}

TEST(AnalyzerTest, ClosurePropertyEveryNodeIsAGeoStream) {
  // The algebra is closed: after analysis, every node carries a valid
  // GeoStream descriptor (value set + lattice + CRS).
  StreamCatalog catalog = MakeTestCatalog();
  auto e = ParseAndAnalyze(
      catalog,
      "region(reproject(stretch(ndvi(g.nir, g.vis), \"linear\"), "
      "\"utm:10n\"), bbox(400000, 4400000, 700000, 5000000))");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  std::function<void(const ExprPtr&)> check = [&](const ExprPtr& node) {
    if (!node) return;
    EXPECT_TRUE(node->analyzed);
    Status st = node->out_desc.Validate();
    EXPECT_TRUE(st.ok()) << ExprKindName(node->kind) << ": "
                         << st.ToString();
    EXPECT_NE(node->out_desc.crs(), nullptr);
    check(node->child);
    check(node->right);
  };
  check(*e);
}

TEST(AnalyzerTest, ValueTransformResolvesBands) {
  StreamCatalog catalog = MakeTestCatalog();
  auto gray = ParseAndAnalyze(catalog, "gray(cam.rgb)");
  ASSERT_TRUE(gray.ok());
  EXPECT_EQ((*gray)->out_desc.value_set().bands(), 1);
  EXPECT_EQ((*gray)->value_fn.in_bands, 3);
  // gray() on a single-band stream fails.
  EXPECT_FALSE(ParseAndAnalyze(catalog, "gray(g.nir)").ok());
  // band() out of range fails.
  EXPECT_FALSE(ParseAndAnalyze(catalog, "band(cam.rgb, 3)").ok());
  auto band = ParseAndAnalyze(catalog, "band(cam.rgb, 1)");
  ASSERT_TRUE(band.ok());
  EXPECT_EQ((*band)->out_desc.value_set().bands(), 1);
}

TEST(AnalyzerTest, VrangeBandChecks) {
  StreamCatalog catalog = MakeTestCatalog();
  EXPECT_TRUE(ParseAndAnalyze(catalog, "vrange(cam.rgb, 2, 0, 255)").ok());
  EXPECT_FALSE(ParseAndAnalyze(catalog, "vrange(cam.rgb, 3, 0, 255)").ok());
  EXPECT_FALSE(ParseAndAnalyze(catalog, "vrange(g.nir, 0, 1, 0)").ok());
}

TEST(AnalyzerTest, StretchPreconditions) {
  StreamCatalog catalog = MakeTestCatalog();
  EXPECT_TRUE(ParseAndAnalyze(catalog, "stretch(g.nir, \"linear\")").ok());
  // Multi-band: rejected.
  EXPECT_FALSE(ParseAndAnalyze(catalog, "stretch(cam.rgb, \"linear\")").ok());
  // Point-by-point: rejected (no frames to compute statistics over).
  EXPECT_FALSE(ParseAndAnalyze(catalog, "stretch(lidar.z, \"linear\")").ok());
  // Output value set fills the stretch range.
  auto e = ParseAndAnalyze(catalog, "stretch(g.nir, \"histeq\")");
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ((*e)->out_desc.value_set().max_value(), 255.0);
  EXPECT_EQ((*e)->out_desc.organization(),
            PointOrganization::kImageByImage);
}

TEST(AnalyzerTest, SpatialTransformDescriptors) {
  StreamCatalog catalog = MakeTestCatalog();
  auto mag = ParseAndAnalyze(catalog, "magnify(g.nir, 4)");
  ASSERT_TRUE(mag.ok());
  EXPECT_EQ((*mag)->out_desc.reference_lattice().width(), 64);
  auto red = ParseAndAnalyze(catalog, "reduce(g.nir, 4)");
  ASSERT_TRUE(red.ok());
  EXPECT_EQ((*red)->out_desc.reference_lattice().width(), 4);
  EXPECT_FALSE(ParseAndAnalyze(catalog, "reduce(lidar.z, 2)").ok());
  EXPECT_FALSE(ParseAndAnalyze(catalog, "reduce(cam.rgb, 2)").ok());
}

TEST(AnalyzerTest, ReprojectDescriptors) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = ParseAndAnalyze(catalog, "reproject(g.nir, \"utm:10n\")");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->out_desc.crs()->name(), "utm:10n");
  EXPECT_EQ((*e)->out_desc.organization(),
            PointOrganization::kImageByImage);
  // Unknown CRS fails.
  EXPECT_FALSE(ParseAndAnalyze(catalog, "reproject(g.nir, \"epsg\")").ok());
  // Identity reprojection keeps geometry.
  auto id = ParseAndAnalyze(catalog, "reproject(g.nir, \"latlon\")");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ((*id)->out_desc.reference_lattice().width(), 16);
}

TEST(AnalyzerTest, CompositionPreconditions) {
  StreamCatalog catalog = MakeTestCatalog();
  // Aligned same-CRS single-band streams: fine.
  EXPECT_TRUE(ParseAndAnalyze(catalog, "sub(g.nir, g.vis)").ok());
  EXPECT_TRUE(ParseAndAnalyze(catalog, "ndvi(g.nir, g.vis)").ok());
  // Misaligned lattices (different resolution): rejected.
  EXPECT_EQ(
      ParseAndAnalyze(catalog, "add(g.nir, lidar.z)").status().code(),
      StatusCode::kLatticeMismatch);
  // Different band counts: rejected.
  EXPECT_FALSE(ParseAndAnalyze(catalog, "add(g.nir, cam.rgb)").ok());
  // Different CRS: rejected.
  StreamCatalog catalog2 = MakeTestCatalog();
  GridLattice merc_lattice(*ResolveCrs("mercator"), 0.0, 0.0, 1000.0,
                           -1000.0, 16, 12);
  GS_ASSERT_OK(catalog2.Register(GeoStreamDescriptor(
      "merc.band", ValueSet::ReflectanceF32(), merc_lattice,
      PointOrganization::kRowByRow, TimestampPolicy::kScanSectorId)));
  EXPECT_EQ(
      ParseAndAnalyze(catalog2, "add(g.nir, merc.band)").status().code(),
      StatusCode::kCrsMismatch);
}

TEST(AnalyzerTest, CompositionTimestampPolicyMismatch) {
  StreamCatalog catalog = MakeTestCatalog();
  GridLattice lattice = testing_util::LatLonLattice(16, 12);
  GS_ASSERT_OK(catalog.Register(GeoStreamDescriptor(
      "g.meas", ValueSet::ReflectanceF32(), lattice,
      PointOrganization::kRowByRow, TimestampPolicy::kMeasurementTime)));
  EXPECT_FALSE(ParseAndAnalyze(catalog, "add(g.nir, g.meas)").ok());
}

TEST(AnalyzerTest, NdviOutputValueSet) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = ParseAndAnalyze(catalog, "ndvi(g.nir, g.vis)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->out_desc.value_set().name(), "index");
  EXPECT_DOUBLE_EQ((*e)->out_desc.value_set().min_value(), -1.0);
  EXPECT_DOUBLE_EQ((*e)->out_desc.value_set().max_value(), 1.0);
}

TEST(AnalyzerTest, AggregateDescriptor) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = ParseAndAnalyze(
      catalog,
      "aggregate(g.nir, \"avg\", 4, bbox(-125,40,-123,45), "
      "bbox(-123,40,-121,45))");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->out_desc.reference_lattice().width(), 2);
  EXPECT_EQ((*e)->out_desc.reference_lattice().height(), 1);
  EXPECT_FALSE(
      ParseAndAnalyze(catalog, "aggregate(cam.rgb, \"avg\", 1, all())").ok());
}

TEST(AnalyzerTest, AggregateRefusesPointByPointInput) {
  // AggregateOp closes its regions at each FrameEnd, so a stream with
  // no frames would register and then quarantine on its first batch.
  StreamCatalog catalog = MakeTestCatalog();
  auto e = ParseAndAnalyze(catalog, "aggregate(lidar.z, \"avg\", 1, all())");
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(e.status().message().find("framed input"), std::string::npos);
}

TEST(AnalyzerTest, IsIdempotent) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = ParseAndAnalyze(catalog, "ndvi(g.nir, g.vis)");
  ASSERT_TRUE(e.ok());
  const std::string before = (*e)->out_desc.ToString();
  GS_ASSERT_OK(AnalyzeQuery(catalog, *e));
  EXPECT_EQ((*e)->out_desc.ToString(), before);
}


TEST(AnalyzerTest, BandStackDescriptors) {
  StreamCatalog catalog = MakeTestCatalog();
  auto two = ParseAndAnalyze(catalog, "stack(g.nir, g.vis)");
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_EQ((*two)->out_desc.value_set().bands(), 2);
  // rgb() of three single-band streams gives a 3-band value set (Z^3).
  auto rgb = ParseAndAnalyze(catalog, "rgb(g.nir, g.vis, g.nir)");
  ASSERT_TRUE(rgb.ok());
  EXPECT_EQ((*rgb)->out_desc.value_set().bands(), 3);
  // Stacking mixed band counts works (1 + 3 = 4)...
  StreamCatalog catalog2 = MakeTestCatalog();
  GS_ASSERT_OK(catalog2.Register(GeoStreamDescriptor(
      "g.rgb", ValueSet::RgbU8(), testing_util::LatLonLattice(16, 12),
      PointOrganization::kRowByRow, TimestampPolicy::kScanSectorId)));
  auto mixed = ParseAndAnalyze(catalog2, "stack(g.nir, g.rgb)");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ((*mixed)->out_desc.value_set().bands(), 4);
  // ...but stacks may not exceed kMaxBands, and the usual CRS/lattice
  // preconditions still apply.
  EXPECT_FALSE(
      ParseAndAnalyze(catalog, "stack(g.nir, lidar.z)").ok());
}

}  // namespace
}  // namespace geostreams
