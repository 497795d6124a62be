#include "query/optimizer.h"

#include <gtest/gtest.h>

#include <functional>

#include "query/explain.h"
#include "query/parser.h"
#include "query/planner.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::CollectPoints;
using testing_util::MakeTestCatalog;

Result<ExprPtr> Analyzed(const StreamCatalog& catalog,
                         const std::string& query) {
  GEOSTREAMS_ASSIGN_OR_RETURN(ExprPtr e, ParseQuery(query));
  GEOSTREAMS_RETURN_IF_ERROR(AnalyzeQuery(catalog, e));
  return e;
}

/// Counts nodes of a kind in the tree.
int CountKind(const ExprPtr& e, ExprKind kind) {
  if (!e) return 0;
  return (e->kind == kind ? 1 : 0) + CountKind(e->child, kind) +
         CountKind(e->right, kind);
}

/// Depth (root = 0) of the shallowest node of a kind; -1 if absent.
int DepthOfKind(const ExprPtr& e, ExprKind kind, int depth = 0) {
  if (!e) return -1;
  if (e->kind == kind) return depth;
  const int l = DepthOfKind(e->child, kind, depth + 1);
  if (l >= 0) return l;
  return DepthOfKind(e->right, kind, depth + 1);
}

TEST(OptimizerTest, RemovesTrivialRestrictions) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog, "region(time(g.nir, all()), all())");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ((*opt)->kind, ExprKind::kStreamRef);
}

TEST(OptimizerTest, MergesNestedSpatialRestrictions) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog,
                    "region(region(g.nir, bbox(-125,40,-121,45)), "
                    "bbox(-123,40,-119,45))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(CountKind(*opt, ExprKind::kSpatialRestrict), 1);
  ASSERT_EQ((*opt)->kind, ExprKind::kSpatialRestrict);
  // The merged region is the conjunction.
  EXPECT_TRUE((*opt)->region->Contains(-122.0, 42.0));
  EXPECT_FALSE((*opt)->region->Contains(-124.0, 42.0));
  EXPECT_FALSE((*opt)->region->Contains(-120.0, 42.0));
}

TEST(OptimizerTest, PushesSpatialThroughValueTransform) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog,
                    "region(rescale(g.nir, 2, 0), bbox(-125,40,-123,45))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  // The restriction ends up below the transform.
  EXPECT_EQ((*opt)->kind, ExprKind::kValueTransform);
  EXPECT_EQ((*opt)->child->kind, ExprKind::kSpatialRestrict);
}

TEST(OptimizerTest, PushesRestrictionsThroughShed) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog,
                    "region(shed(g.nir, \"points\", 0.5), "
                    "bbox(-125, 40, -123, 45))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ((*opt)->kind, ExprKind::kShed);
  EXPECT_EQ((*opt)->child->kind, ExprKind::kSpatialRestrict);
}

TEST(OptimizerTest, PushesSpatialThroughBandStack) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog,
                    "region(stack(g.nir, g.vis), bbox(-125, 40, -123, 45))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ((*opt)->kind, ExprKind::kBandStack);
  EXPECT_EQ(CountKind(*opt, ExprKind::kSpatialRestrict), 2);
}

TEST(OptimizerTest, PushesSpatialThroughComposition) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog,
                    "region(ndvi(g.nir, g.vis), bbox(-125,40,-123,45))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  // The top restriction disappears; both inputs are restricted.
  EXPECT_EQ((*opt)->kind, ExprKind::kNdviMacro);
  EXPECT_EQ((*opt)->child->kind, ExprKind::kSpatialRestrict);
  EXPECT_EQ((*opt)->right->kind, ExprKind::kSpatialRestrict);
  EXPECT_EQ(CountKind(*opt, ExprKind::kSpatialRestrict), 2);
}

TEST(OptimizerTest, PushesSpatialThroughReprojectConservatively) {
  StreamCatalog catalog = MakeTestCatalog();
  // The Sec. 3.4 query: R given in UTM must be mapped back into the
  // source CRS and planted below the re-projection.
  auto e = Analyzed(catalog,
                    "region(reproject(g.nir, \"utm:10n\"), "
                    "bbox(500000, 4500000, 600000, 4800000))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  // The original restriction stays on top (conservative rewrite)...
  ASSERT_EQ((*opt)->kind, ExprKind::kSpatialRestrict);
  ASSERT_EQ((*opt)->child->kind, ExprKind::kReproject);
  // ...and a derived restriction appears below the reproject.
  ASSERT_EQ((*opt)->child->child->kind, ExprKind::kSpatialRestrict);
  EXPECT_TRUE((*opt)->child->child->derived_restriction);
  // The derived region, expressed in lat/lon, must cover the UTM box
  // mapped back: UTM 10N easting 500000-600000 is lon -123..-121.8.
  EXPECT_TRUE((*opt)->child->child->region->Contains(-122.5, 41.5));
  // It must not balloon to the whole domain.
  EXPECT_FALSE((*opt)->child->child->region->Contains(-100.0, 20.0));
  // No repeated firing.
  EXPECT_EQ(CountKind(*opt, ExprKind::kSpatialRestrict), 2);
}

TEST(OptimizerTest, PushesSpatialThroughReduce) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog,
                    "region(reduce(g.nir, 2), bbox(-125,43,-123,45))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  ASSERT_EQ((*opt)->kind, ExprKind::kSpatialRestrict);
  ASSERT_EQ((*opt)->child->kind, ExprKind::kReduce);
  ASSERT_EQ((*opt)->child->child->kind, ExprKind::kSpatialRestrict);
  EXPECT_TRUE((*opt)->child->child->derived_restriction);
  // The derived box is inflated by the neighbourhood margin.
  const BoundingBox inner = (*opt)->child->child->region->bounds();
  EXPECT_LT(inner.min_x, -125.0);
  EXPECT_GT(inner.max_x, -123.0);
}

TEST(OptimizerTest, DoesNotPushSpatialThroughStretch) {
  // A stretch computes frame statistics: restricting first would
  // change them, so the rewrite must not fire.
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog,
                    "region(stretch(g.nir, \"linear\"), "
                    "bbox(-125,43,-123,45))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ((*opt)->kind, ExprKind::kSpatialRestrict);
  EXPECT_EQ((*opt)->child->kind, ExprKind::kStretch);
  EXPECT_EQ((*opt)->child->child->kind, ExprKind::kStreamRef);
}

TEST(OptimizerTest, PushesTemporalThroughComposition) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog, "time(ndvi(g.nir, g.vis), range(0, 5))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ((*opt)->kind, ExprKind::kNdviMacro);
  EXPECT_EQ(CountKind(*opt, ExprKind::kTemporalRestrict), 2);
}

TEST(OptimizerTest, SpatialSinksBelowTemporal) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(
      catalog, "region(time(g.nir, range(0, 5)), bbox(-125,43,-123,45))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ((*opt)->kind, ExprKind::kTemporalRestrict);
  EXPECT_EQ((*opt)->child->kind, ExprKind::kSpatialRestrict);
  // And the rewrite terminates (no ping-pong).
}

TEST(OptimizerTest, FusesNdviPattern) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog, "div(sub(g.nir, g.vis), add(g.nir, g.vis))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ((*opt)->kind, ExprKind::kNdviMacro);
  EXPECT_EQ(CountKind(*opt, ExprKind::kCompose), 0);
}

TEST(OptimizerTest, DoesNotFuseMismatchedPattern) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog, "div(sub(g.nir, g.vis), add(g.vis, g.nir))");
  ASSERT_TRUE(e.ok());
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ((*opt)->kind, ExprKind::kCompose);
}

TEST(OptimizerTest, ExpandsMacrosWhenAsked) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog, "ndvi(g.nir, g.vis)");
  ASSERT_TRUE(e.ok());
  OptimizerOptions opts;
  opts.expand_macros = true;
  auto opt = OptimizeQuery(catalog, *e, opts);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ((*opt)->kind, ExprKind::kCompose);
  EXPECT_EQ((*opt)->gamma, ComposeFn::kDivide);
  EXPECT_EQ(CountKind(*opt, ExprKind::kNdviMacro), 0);
  EXPECT_EQ(CountKind(*opt, ExprKind::kStreamRef), 4);
}

TEST(OptimizerTest, DisabledRulesLeaveTreeAlone) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog,
                    "region(ndvi(g.nir, g.vis), bbox(-125,40,-123,45))");
  ASSERT_TRUE(e.ok());
  OptimizerOptions opts;
  opts.spatial_pushdown = false;
  opts.temporal_pushdown = false;
  opts.merge_restrictions = false;
  opts.remove_trivial = false;
  opts.fuse_ndvi_macro = false;
  OptimizerStats stats;
  auto opt = OptimizeQuery(catalog, *e, opts, &stats);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ((*opt)->ToString(), (*e)->ToString());
  EXPECT_EQ(stats.rewrites, 0);
}

TEST(OptimizerTest, OriginalTreeIsNotMutated) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog,
                    "region(rescale(g.nir, 2, 0), bbox(-125,40,-123,45))");
  ASSERT_TRUE(e.ok());
  const std::string before = (*e)->ToString();
  auto opt = OptimizeQuery(catalog, *e);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ((*e)->ToString(), before);
  EXPECT_NE((*opt)->ToString(), before);
}

TEST(OptimizerTest, StatsCountRewrites) {
  StreamCatalog catalog = MakeTestCatalog();
  auto e = Analyzed(catalog,
                    "region(ndvi(g.nir, g.vis), bbox(-125,40,-123,45))");
  ASSERT_TRUE(e.ok());
  OptimizerStats stats;
  auto opt = OptimizeQuery(catalog, *e, OptimizerOptions{}, &stats);
  ASSERT_TRUE(opt.ok());
  EXPECT_GT(stats.rewrites, 0);
  EXPECT_GT(stats.passes, 1);
}

// --- Equivalence property: optimized and naive plans deliver the
// --- same points on generated streams.

struct EquivalenceCase {
  const char* name;
  const char* query;
};

// Without a printer gtest names each case after the struct's raw bytes
// (two pointers), which change with the load address.
void PrintTo(const EquivalenceCase& c, std::ostream* os) { *os << c.name; }

class RewriteEquivalence : public ::testing::TestWithParam<EquivalenceCase> {
 protected:
  /// Runs `expr` over 3 scans of a 2-band generated instrument and
  /// returns the delivered point map.
  static std::map<std::tuple<int32_t, int32_t, int64_t>, double> Run(
      const ExprPtr& expr) {
    CollectingSink sink;
    auto plan = BuildPlan(expr, &sink);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return {};

    InstrumentConfig config;
    config.crs_name = "latlon";
    config.cells_per_sector = 16 * 12;
    config.bands = {SpectralBand::kNearInfrared, SpectralBand::kVisible};
    config.name_prefix = "g";
    StreamGenerator gen(config, ScanSchedule::GoesRoutine());
    EXPECT_TRUE(gen.Init().ok());

    // Wire generator band sinks to plan inputs (missing inputs get a
    // throwaway sink).
    // Band order matches config.bands: index 0 = NIR ("g.band2"),
    // index 1 = VIS ("g.band1").
    NullSink null;
    EventSink* nir = (*plan)->input("g.band2");
    EventSink* vis = (*plan)->input("g.band1");
    std::vector<EventSink*> sinks = {
        nir ? nir : static_cast<EventSink*>(&null),
        vis ? vis : static_cast<EventSink*>(&null)};
    Status st = gen.GenerateScans(0, 3, sinks);
    EXPECT_TRUE(st.ok()) << st.ToString();
    st = gen.Finish(sinks);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return CollectPoints(sink.events());
  }
};

TEST_P(RewriteEquivalence, OptimizedEqualsNaive) {
  // Catalog mirrors the generator's band descriptors.
  InstrumentConfig config;
  config.crs_name = "latlon";
  config.cells_per_sector = 16 * 12;
  config.bands = {SpectralBand::kNearInfrared, SpectralBand::kVisible};
  config.name_prefix = "g";
  StreamGenerator gen(config, ScanSchedule::GoesRoutine());
  ASSERT_TRUE(gen.Init().ok());
  StreamCatalog catalog;
  for (size_t b = 0; b < 2; ++b) {
    auto d = gen.Descriptor(b);
    ASSERT_TRUE(d.ok());
    GS_ASSERT_OK(catalog.Register(*d));
  }

  auto parsed = ParseQuery(GetParam().query);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  GS_ASSERT_OK(AnalyzeQuery(catalog, *parsed));

  OptimizerOptions naive_opts;
  naive_opts.spatial_pushdown = false;
  naive_opts.temporal_pushdown = false;
  naive_opts.merge_restrictions = false;
  naive_opts.remove_trivial = false;
  naive_opts.fuse_ndvi_macro = false;
  auto naive = OptimizeQuery(catalog, *parsed, naive_opts);
  ASSERT_TRUE(naive.ok());
  auto optimized = OptimizeQuery(catalog, *parsed);
  ASSERT_TRUE(optimized.ok());

  auto naive_points = Run(*naive);
  auto optimized_points = Run(*optimized);
  ASSERT_GT(naive_points.size(), 0u) << GetParam().name;
  EXPECT_EQ(naive_points.size(), optimized_points.size());
  for (const auto& [key, v] : naive_points) {
    auto it = optimized_points.find(key);
    ASSERT_NE(it, optimized_points.end())
        << GetParam().name << ": missing point";
    EXPECT_NEAR(it->second, v, 1e-9) << GetParam().name;
  }
}

// The generator emits CONUS-like sectors spanning lon [-125, -66],
// lat [24, 50] (ScanSchedule::GoesRoutine); regions below target that.
INSTANTIATE_TEST_SUITE_P(
    Queries, RewriteEquivalence,
    ::testing::Values(
        EquivalenceCase{"restricted_ndvi",
                        "region(ndvi(g.band2, g.band1), "
                        "bbox(-120, 30, -100, 45))"},
        EquivalenceCase{"restricted_expanded_ndvi",
                        "region(div(sub(g.band2, g.band1), "
                        "add(g.band2, g.band1)), bbox(-110, 28, -90, 40))"},
        EquivalenceCase{"nested_restrictions",
                        "region(region(vrange(g.band1, 0, 0.1, 0.9), "
                        "bbox(-120, 25, -80, 48)), bbox(-110, 30, -90, 45))"},
        EquivalenceCase{"temporal_over_compose",
                        "time(sub(g.band2, g.band1), range(1, 2))"},
        EquivalenceCase{"rescale_then_region",
                        "region(rescale(g.band1, 100, 5), "
                        "bbox(-115, 30, -95, 42))"},
        EquivalenceCase{
            "reduce_with_region",
            "region(reduce(g.band1, 2), bbox(-115, 30, -95, 42))"},
        EquivalenceCase{"magnify_with_region",
                        "region(magnify(g.band1, 2), "
                        "bbox(-115, 30, -95, 42))"},
        EquivalenceCase{"shed_with_region",
                        "region(shed(g.band1, \"rows\", 0.5), "
                        "bbox(-115, 30, -95, 42))"},
        EquivalenceCase{"stacked_bands_with_region",
                        "region(stack(g.band2, g.band1), "
                        "bbox(-115, 30, -95, 42))"},
        EquivalenceCase{"fused_vs_region_over_shed",
                        "time(region(div(sub(g.band2, g.band1), "
                        "add(g.band2, g.band1)), bbox(-120, 26, -90, 48)), "
                        "range(0, 1))"}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace geostreams
