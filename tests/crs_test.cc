#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"

#include "geo/crs.h"
#include "geo/crs_registry.h"
#include "geo/geographic_crs.h"
#include "geo/geostationary_crs.h"
#include "geo/lambert_conformal_crs.h"
#include "geo/mercator_crs.h"
#include "geo/transverse_mercator_crs.h"

namespace geostreams {
namespace {

TEST(GeographicCrsTest, Identity) {
  auto crs = GeographicCrs::Instance();
  double x = 0.0, y = 0.0;
  ASSERT_TRUE(crs->FromGeographic(-121.5, 38.6, &x, &y).ok());
  EXPECT_DOUBLE_EQ(x, -121.5);
  EXPECT_DOUBLE_EQ(y, 38.6);
  double lon = 0.0, lat = 0.0;
  ASSERT_TRUE(crs->ToGeographic(x, y, &lon, &lat).ok());
  EXPECT_DOUBLE_EQ(lon, -121.5);
  EXPECT_DOUBLE_EQ(lat, 38.6);
}

TEST(GeographicCrsTest, RejectsBadLatitude) {
  auto crs = GeographicCrs::Instance();
  double x, y;
  EXPECT_FALSE(crs->FromGeographic(0.0, 91.0, &x, &y).ok());
}

TEST(MercatorCrsTest, EquatorMapsToZero) {
  auto crs = MercatorCrs::Instance();
  double x = 0.0, y = 0.0;
  ASSERT_TRUE(crs->FromGeographic(0.0, 0.0, &x, &y).ok());
  EXPECT_NEAR(x, 0.0, 1e-6);
  EXPECT_NEAR(y, 0.0, 1e-6);
}

TEST(MercatorCrsTest, RejectsPolarLatitudes) {
  auto crs = MercatorCrs::Instance();
  double x, y;
  EXPECT_FALSE(crs->FromGeographic(0.0, 89.0, &x, &y).ok());
}

struct RoundTripCase {
  double lon;
  double lat;
};

class MercatorRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(MercatorRoundTrip, RoundTripsWithinTolerance) {
  auto crs = MercatorCrs::Instance();
  double x, y, lon, lat;
  ASSERT_TRUE(crs->FromGeographic(GetParam().lon, GetParam().lat, &x, &y).ok());
  ASSERT_TRUE(crs->ToGeographic(x, y, &lon, &lat).ok());
  EXPECT_NEAR(lon, GetParam().lon, 1e-9);
  EXPECT_NEAR(lat, GetParam().lat, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MercatorRoundTrip,
    ::testing::Values(RoundTripCase{0.0, 0.0}, RoundTripCase{-121.5, 38.6},
                      RoundTripCase{151.2, -33.9}, RoundTripCase{-75.0, 80.0},
                      RoundTripCase{179.9, -80.0}));

// --- UTM / Transverse Mercator ---------------------------------------------

TEST(UtmTest, KnownReferencePoint) {
  // Davis, CA: 38.5449N 121.7405W in UTM zone 10N. Reference values
  // E 609759.506, N 4267027.423 computed with an independent
  // 6th-order Krueger/Karney-series implementation; the Snyder series
  // used by the library must agree to centimetres.
  auto crs = TransverseMercatorCrs::Utm(10, true);
  double x = 0.0, y = 0.0;
  ASSERT_TRUE(crs->FromGeographic(-121.7405, 38.5449, &x, &y).ok());
  EXPECT_NEAR(x, 609759.506, 0.01);
  EXPECT_NEAR(y, 4267027.423, 0.01);
}

TEST(UtmTest, CentralMeridianEasting) {
  // On the central meridian the false easting is returned exactly.
  auto crs = TransverseMercatorCrs::Utm(10, true);  // CM = -123
  double x = 0.0, y = 0.0;
  ASSERT_TRUE(crs->FromGeographic(-123.0, 45.0, &x, &y).ok());
  EXPECT_NEAR(x, 500000.0, 1e-3);
}

TEST(UtmTest, SouthernHemisphereFalseNorthing) {
  auto north = TransverseMercatorCrs::Utm(56, true);
  auto south = TransverseMercatorCrs::Utm(56, false);
  double xn, yn, xs, ys;
  ASSERT_TRUE(north->FromGeographic(151.2, -33.9, &xn, &yn).ok());
  ASSERT_TRUE(south->FromGeographic(151.2, -33.9, &xs, &ys).ok());
  EXPECT_NEAR(ys - yn, 10000000.0, 1e-6);
  EXPECT_DOUBLE_EQ(xs, xn);
}

TEST(UtmTest, RejectsFarOutOfZone) {
  auto crs = TransverseMercatorCrs::Utm(10, true);
  double x, y;
  EXPECT_FALSE(crs->FromGeographic(60.0, 40.0, &x, &y).ok());
}

struct UtmCase {
  int zone;
  bool north;
  double lon;
  double lat;
};

// Without a printer gtest names each case after the struct's raw
// bytes, padding included.
void PrintTo(const UtmCase& c, std::ostream* os) {
  *os << "zone " << c.zone << (c.north ? "N" : "S") << " lon " << c.lon
      << " lat " << c.lat;
}

class UtmRoundTrip : public ::testing::TestWithParam<UtmCase> {};

TEST_P(UtmRoundTrip, SubMillimetreRoundTrip) {
  const UtmCase& c = GetParam();
  auto crs = TransverseMercatorCrs::Utm(c.zone, c.north);
  double x, y, lon, lat;
  ASSERT_TRUE(crs->FromGeographic(c.lon, c.lat, &x, &y).ok());
  ASSERT_TRUE(crs->ToGeographic(x, y, &lon, &lat).ok());
  // 1e-8 degrees is about 1 mm on the ground.
  EXPECT_NEAR(lon, c.lon, 1e-8);
  EXPECT_NEAR(lat, c.lat, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UtmRoundTrip,
    ::testing::Values(UtmCase{10, true, -121.74, 38.54},
                      UtmCase{10, true, -123.0, 0.1},
                      UtmCase{10, true, -120.1, 60.0},
                      UtmCase{33, true, 15.0, 52.5},
                      UtmCase{33, true, 12.49, 41.9},
                      UtmCase{56, false, 151.2, -33.9},
                      UtmCase{19, false, -70.6, -33.4},
                      UtmCase{1, true, -177.0, 10.0},
                      UtmCase{60, true, 177.0, -10.0},
                      UtmCase{31, true, 3.0, 75.0}));

// --- Geostationary ----------------------------------------------------------

TEST(GeostationaryTest, SubSatellitePointIsOrigin) {
  GeostationaryCrs crs(-75.0);
  double x = 1.0, y = 1.0;
  ASSERT_TRUE(crs.FromGeographic(-75.0, 0.0, &x, &y).ok());
  EXPECT_NEAR(x, 0.0, 1e-12);
  EXPECT_NEAR(y, 0.0, 1e-12);
}

TEST(GeostationaryTest, FarSideNotVisible) {
  GeostationaryCrs crs(-75.0);
  double x, y;
  EXPECT_FALSE(crs.FromGeographic(105.0, 0.0, &x, &y).ok());  // antipode
  EXPECT_FALSE(crs.FromGeographic(-75.0, 89.0, &x, &y).ok());  // pole-ish
}

TEST(GeostationaryTest, OffDiskScanAngleRejected) {
  GeostationaryCrs crs(-75.0);
  double lon, lat;
  EXPECT_FALSE(crs.ToGeographic(0.2, 0.0, &lon, &lat).ok());
  EXPECT_FALSE(crs.ToGeographic(0.0, -0.2, &lon, &lat).ok());
}

TEST(GeostationaryTest, ScanAngleMagnitudeIsPlausible) {
  // The Earth limb is ~8.7 degrees from geostationary orbit.
  GeostationaryCrs crs(-75.0);
  double x, y;
  ASSERT_TRUE(crs.FromGeographic(-75.0, 60.0, &x, &y).ok());
  EXPECT_GT(y, 0.0);  // north is positive elevation
  EXPECT_LT(std::fabs(y), GeostationaryCrs::kFullDiskHalfAngleRad);
}

class GeosRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(GeosRoundTrip, RoundTripsThroughScanAngles) {
  GeostationaryCrs crs(-75.0);
  double x, y, lon, lat;
  ASSERT_TRUE(crs.FromGeographic(GetParam().lon, GetParam().lat, &x, &y).ok());
  ASSERT_TRUE(crs.ToGeographic(x, y, &lon, &lat).ok());
  EXPECT_NEAR(lon, GetParam().lon, 1e-6);
  EXPECT_NEAR(lat, GetParam().lat, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeosRoundTrip,
    ::testing::Values(RoundTripCase{-75.0, 0.0}, RoundTripCase{-100.0, 40.0},
                      RoundTripCase{-50.0, -30.0}, RoundTripCase{-120.0, 35.0},
                      RoundTripCase{-75.0, 65.0}, RoundTripCase{-30.0, 10.0}));

// --- Registry and hub transforms --------------------------------------------

TEST(CrsRegistryTest, ResolvesKnownNames) {
  EXPECT_TRUE(ResolveCrs("latlon").ok());
  EXPECT_TRUE(ResolveCrs("mercator").ok());
  EXPECT_TRUE(ResolveCrs("utm:10n").ok());
  EXPECT_TRUE(ResolveCrs("UTM:33S").ok());
  EXPECT_TRUE(ResolveCrs("geos:-75").ok());
  EXPECT_TRUE(ResolveCrs(" latlon ").ok());
}

TEST(CrsRegistryTest, CachesInstances) {
  auto a = ResolveCrs("utm:10n");
  auto b = ResolveCrs("utm:10n");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get());
}

TEST(CrsRegistryTest, RejectsBadNames) {
  EXPECT_FALSE(ResolveCrs("").ok());
  EXPECT_FALSE(ResolveCrs("utm:0n").ok());
  EXPECT_FALSE(ResolveCrs("utm:61n").ok());
  EXPECT_FALSE(ResolveCrs("utm:10x").ok());
  EXPECT_FALSE(ResolveCrs("geos:200").ok());
  EXPECT_FALSE(ResolveCrs("wgs84").ok());
}

TEST(TransformPointTest, SameCrsIsIdentity) {
  auto crs = GeographicCrs::Instance();
  double x = 0.0, y = 0.0;
  ASSERT_TRUE(TransformPoint(*crs, *crs, -121.0, 38.0, &x, &y).ok());
  EXPECT_DOUBLE_EQ(x, -121.0);
  EXPECT_DOUBLE_EQ(y, 38.0);
}

TEST(TransformPointTest, GeosToUtmAndBack) {
  GeostationaryCrs geos(-75.0);
  auto utm = TransverseMercatorCrs::Utm(10, true);
  // A California point visible from GOES-East.
  double sx, sy;
  ASSERT_TRUE(geos.FromGeographic(-121.5, 38.5, &sx, &sy).ok());
  double ux, uy;
  ASSERT_TRUE(TransformPoint(geos, *utm, sx, sy, &ux, &uy).ok());
  double bx, by;
  ASSERT_TRUE(TransformPoint(*utm, geos, ux, uy, &bx, &by).ok());
  EXPECT_NEAR(bx, sx, 1e-9);
  EXPECT_NEAR(by, sy, 1e-9);
}

TEST(TransformBoundingBoxTest, LatLonToMercatorCoversCorners) {
  auto geo = GeographicCrs::Instance();
  auto merc = MercatorCrs::Instance();
  BoundingBox box(-10.0, -5.0, 10.0, 5.0);
  BoundingBox out = TransformBoundingBox(box, *geo, *merc);
  ASSERT_FALSE(out.empty());
  double x, y;
  ASSERT_TRUE(merc->FromGeographic(-10.0, -5.0, &x, &y).ok());
  EXPECT_TRUE(out.Contains(x, y));
  ASSERT_TRUE(merc->FromGeographic(10.0, 5.0, &x, &y).ok());
  EXPECT_TRUE(out.Contains(x, y));
}

TEST(TransformBoundingBoxTest, OutOfDomainGivesEmpty) {
  auto geo = GeographicCrs::Instance();
  GeostationaryCrs geos(-75.0);
  // A box centred on the antipode of the satellite: never visible.
  BoundingBox box(100.0, -10.0, 110.0, 10.0);
  BoundingBox out = TransformBoundingBox(box, *geo, geos);
  EXPECT_TRUE(out.empty());
}

TEST(TransformBoundingBoxTest, EmptyInEmptyOut) {
  auto geo = GeographicCrs::Instance();
  auto merc = MercatorCrs::Instance();
  EXPECT_TRUE(TransformBoundingBox(BoundingBox(), *geo, *merc).empty());
}


// --- Lambert conformal conic -------------------------------------------------

TEST(LambertConformalTest, KnownReferencePoints) {
  // NWS-style CONUS cone (33N/45N, origin 39N 96W, spherical R =
  // 6378137 m). References computed with an independent
  // implementation of Snyder eqs. 15-1..15-4.
  auto crs = LambertConformalCrs::Conus();
  double x, y;
  ASSERT_TRUE(crs->FromGeographic(-104.99, 39.74, &x, &y).ok());
  EXPECT_NEAR(x, -764122.899, 0.01);
  EXPECT_NEAR(y, 119752.722, 0.01);
  ASSERT_TRUE(crs->FromGeographic(-80.19, 25.76, &x, &y).ok());
  EXPECT_NEAR(x, 1609352.268, 0.01);
  EXPECT_NEAR(y, -1338340.559, 0.01);
}

TEST(LambertConformalTest, OriginMapsToZero) {
  auto crs = LambertConformalCrs::Conus();
  double x, y;
  ASSERT_TRUE(crs->FromGeographic(-96.0, 39.0, &x, &y).ok());
  EXPECT_NEAR(x, 0.0, 1e-6);
  EXPECT_NEAR(y, 0.0, 1e-6);
}

TEST(LambertConformalTest, ConeConstantBetweenParallelSines) {
  LambertConformalCrs crs(33.0, 45.0, 39.0, -96.0);
  EXPECT_GT(crs.cone_constant(), std::sin(DegreesToRadians(33.0)));
  EXPECT_LT(crs.cone_constant(), std::sin(DegreesToRadians(45.0)));
  // Tangent cone: n = sin(lat1).
  LambertConformalCrs tangent(40.0, 40.0, 40.0, -96.0);
  EXPECT_NEAR(tangent.cone_constant(), std::sin(DegreesToRadians(40.0)),
              1e-12);
}

class LccRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(LccRoundTrip, RoundTripsExactly) {
  auto crs = LambertConformalCrs::Conus();
  double x, y, lon, lat;
  ASSERT_TRUE(crs->FromGeographic(GetParam().lon, GetParam().lat, &x, &y).ok());
  ASSERT_TRUE(crs->ToGeographic(x, y, &lon, &lat).ok());
  EXPECT_NEAR(lon, GetParam().lon, 1e-9);
  EXPECT_NEAR(lat, GetParam().lat, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LccRoundTrip,
    ::testing::Values(RoundTripCase{-96.0, 39.0}, RoundTripCase{-125.0, 49.0},
                      RoundTripCase{-66.0, 24.0}, RoundTripCase{-104.99, 39.74},
                      RoundTripCase{-80.19, 25.76},
                      RoundTripCase{-96.0, 75.0}));

TEST(LambertConformalTest, SouthernCone) {
  // Southern-hemisphere cone (negative cone constant) round-trips.
  LambertConformalCrs crs(-20.0, -40.0, -30.0, -60.0);
  EXPECT_LT(crs.cone_constant(), 0.0);
  double x, y, lon, lat;
  ASSERT_TRUE(crs.FromGeographic(-65.0, -33.5, &x, &y).ok());
  ASSERT_TRUE(crs.ToGeographic(x, y, &lon, &lat).ok());
  EXPECT_NEAR(lon, -65.0, 1e-9);
  EXPECT_NEAR(lat, -33.5, 1e-9);
}

TEST(LambertConformalTest, DomainLimits) {
  auto crs = LambertConformalCrs::Conus();
  double x, y;
  EXPECT_FALSE(crs->FromGeographic(-96.0, 89.9, &x, &y).ok());
  EXPECT_FALSE(crs->FromGeographic(-96.0, -89.9, &x, &y).ok());
}

TEST(CrsRegistryTest, LambertNames) {
  EXPECT_TRUE(ResolveCrs("lcc").ok());
  EXPECT_TRUE(ResolveCrs("lcc:conus").ok());
  auto custom = ResolveCrs("lcc:30:50:40:-100");
  ASSERT_TRUE(custom.ok());
  EXPECT_EQ((*custom)->kind(), CrsKind::kLambertConformal);
  EXPECT_FALSE(ResolveCrs("lcc:30:50:40").ok());
  EXPECT_FALSE(ResolveCrs("lcc:30:-30:0:0").ok());   // antisymmetric
  EXPECT_FALSE(ResolveCrs("lcc:30:x:40:-100").ok());
}

}  // namespace
}  // namespace geostreams
