// Parity of windowed frame assembly against the whole-frame path it
// replaced. A restricted frame is assembled as its support window (the
// region's bounds snapped to the lattice) and encoded straight from
// it. The reference kept here assembles the whole lattice, one point
// at a time into a nodata raster, and encodes that raster with the
// whole-frame fill-window scan (EncodeResultFrame over a Raster, whose
// bytes codec_parity_test pins against a brute-force encoder). Every
// wire byte, every expanded raster and every PNG must match, and no
// restricted plan may widen its window. The window arithmetic indexes
// rows by support offsets, so this suite also runs in the ASan+UBSan
// lane.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geo/crs_registry.h"
#include "geo/region.h"
#include "mqo/cascade_tree.h"
#include "mqo/shared_restriction.h"
#include "net/wire_protocol.h"
#include "ops/delivery_op.h"
#include "ops/reproject_op.h"
#include "ops/restriction_ops.h"
#include "query/analyzer.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/planner.h"
#include "raster/png_encoder.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::LatLonLattice;

// 0.5-degree cells: centres x in [-124.75, -113.25], y in [36.25, 44.75]
// (row 0 at the north edge).
constexpr int64_t kW = 24;
constexpr int64_t kH = 18;

GridLattice SourceLattice() { return LatLonLattice(kW, kH); }

double FromBits(uint64_t bits) { return std::bit_cast<double>(bits); }

const double kNaNPayload = FromBits(0x7FF8000000000ABCull);
const double kInf = std::numeric_limits<double>::infinity();

/// Nodata values under test: both zeros, NaNs with and without a
/// payload, and both infinities.
const std::vector<double>& Nodatas() {
  static const std::vector<double> values = {
      0.0, -0.0, kNaNPayload, std::numeric_limits<double>::quiet_NaN(),
      kInf, -kInf};
  return values;
}

std::string Bits(double v) {
  char text[32];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(v)));
  return text;
}

/// A point's sample: mostly smooth data, with the nodata value itself
/// and its look-alikes (the other zero, other NaNs, infinities) mixed
/// in. A point carrying the nodata bits is cut by the trim like an
/// unfilled cell; a look-alike must be kept.
double SampleAt(int64_t frame, int64_t col, int64_t row, int band,
                double nodata) {
  const uint64_t h =
      static_cast<uint64_t>(frame * 7919 + col * 104729 + row * 1299709 +
                            band * 15485863) *
      0x9E3779B97F4A7C15ull;
  switch ((h >> 40) % 11) {
    case 0:
      return nodata;
    case 1:
      return -0.0;
    case 2:
      return 0.0;
    case 3:
      return kNaNPayload;
    case 4:
      return kInf;
    case 5:
      return -kInf;
    default:
      return 0.25 * static_cast<double>(col) -
             0.125 * static_cast<double>(row) + band + 0.5 * frame;
  }
}

/// One frame over `lattice` in row-by-row batches of `bands` samples
/// per point; with `points` false the frame carries no batch at all.
std::vector<StreamEvent> SourceFrame(const GridLattice& lattice,
                                     int64_t frame_id, int bands,
                                     double nodata, bool points = true) {
  FrameInfo info;
  info.frame_id = frame_id;
  info.lattice = lattice;
  info.expected_points = points ? lattice.num_cells() : 0;
  std::vector<StreamEvent> events = {StreamEvent::FrameBegin(info)};
  for (int64_t row = 0; points && row < lattice.height(); ++row) {
    auto batch = std::make_shared<PointBatch>();
    batch->frame_id = frame_id;
    batch->band_count = bands;
    for (int64_t col = 0; col < lattice.width(); ++col) {
      double vals[kMaxBands];
      for (int b = 0; b < bands; ++b) {
        vals[b] = SampleAt(frame_id, col, row, b, nodata);
      }
      batch->Append(static_cast<int32_t>(col), static_cast<int32_t>(row),
                    frame_id, vals);
    }
    events.push_back(StreamEvent::Batch(std::move(batch)));
  }
  events.push_back(StreamEvent::FrameEnd(info));
  return events;
}

/// Three frames: points, none at all, points.
std::vector<StreamEvent> SourceStream(int bands, double nodata) {
  std::vector<StreamEvent> events;
  for (int64_t f = 0; f < 3; ++f) {
    for (StreamEvent& e : SourceFrame(SourceLattice(), f, bands, nodata,
                                      /*points=*/f != 1)) {
      events.push_back(std::move(e));
    }
  }
  return events;
}

// ---------------------------------------------------------------------------
// Reference: whole-frame assembly

/// Assembles each frame the way the assembler did before windows: a
/// nodata raster of the whole lattice, every point written in. The
/// band count is learned from the first batch (1 before any), as
/// DeliveryOp learns it.
std::map<int64_t, Raster> ReferenceAssemble(
    const std::vector<StreamEvent>& events, double nodata) {
  std::map<int64_t, Raster> frames;
  int bands = 1;
  bool bands_known = false;
  std::vector<const PointBatch*> open;
  for (const StreamEvent& e : events) {
    if (e.kind == EventKind::kFrameBegin) {
      open.clear();
    } else if (e.kind == EventKind::kPointBatch) {
      if (!bands_known) {
        bands = e.batch->band_count;
        bands_known = true;
      }
      open.push_back(e.batch.get());
    } else if (e.kind == EventKind::kFrameEnd) {
      const GridLattice& lattice = e.frame.lattice;
      Raster raster(lattice.width(), lattice.height(), bands, nodata);
      raster.set_lattice(lattice);
      for (const PointBatch* batch : open) {
        for (size_t i = 0; i < batch->size(); ++i) {
          for (int b = 0; b < bands; ++b) {
            raster.Set(batch->cols[i], batch->rows[i], b,
                       batch->ValueAt(i, b));
          }
        }
      }
      frames[e.frame.frame_id] = std::move(raster);
    }
  }
  return frames;
}

// ---------------------------------------------------------------------------
// The windowed path

struct Delivered {
  int64_t frame_id = 0;
  AssembledFrame frame;
  std::vector<uint8_t> png;
};

struct DeliveryRun {
  std::vector<Delivered> frames;
  uint64_t widened = 0;
  uint64_t buffered_peak = 0;
};

DeliveryRun DeliverWindowed(const std::vector<StreamEvent>& events,
                            double nodata, bool png = false) {
  DeliveryRun run;
  DeliveryOptions options;
  options.nodata = nodata;
  options.encode_png = png;
  options.png_lo = -2.0;
  options.png_hi = 6.0;
  DeliveryOp op(
      "deliver",
      [&run](int64_t frame_id, const AssembledFrame& frame,
             const std::vector<uint8_t>& bytes) {
        run.frames.push_back({frame_id, frame, bytes});
      },
      options);
  NullSink null;
  op.BindOutput(&null);
  for (const StreamEvent& e : events) {
    Status st = op.input(0)->Consume(e);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  run.widened = op.metrics().frames_widened;
  run.buffered_peak = op.metrics().buffered_bytes_high_water;
  return run;
}

bool SameBits(const Raster& a, const Raster& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         a.bands() == b.bands() && a.data().size() == b.data().size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

/// Delivers `events` windowed and checks every frame against the
/// reference: wire bytes, the expanded raster, its lattice, and that
/// the frame never widened. Returns how many frames were windowed.
size_t ExpectParity(const std::vector<StreamEvent>& events, double nodata,
                    const std::string& label) {
  const std::map<int64_t, Raster> want = ReferenceAssemble(events, nodata);
  const DeliveryRun run = DeliverWindowed(events, nodata);
  EXPECT_EQ(run.widened, 0u) << label;
  EXPECT_EQ(run.frames.size(), want.size()) << label;
  size_t windowed = 0;
  for (const Delivered& d : run.frames) {
    auto it = want.find(d.frame_id);
    if (it == want.end()) {
      ADD_FAILURE() << label << ": unexpected frame " << d.frame_id;
      continue;
    }
    const Raster& ref = it->second;
    const std::string at = label + " frame " + std::to_string(d.frame_id);
    EXPECT_EQ(EncodeResultFrame(9, d.frame_id, d.frame, {}),
              EncodeResultFrame(9, d.frame_id, ref, {}))
        << at;
    const Raster& whole = d.frame;
    EXPECT_TRUE(SameBits(whole, ref)) << at;
    EXPECT_TRUE(whole.lattice() == ref.lattice()) << at;
    // The mask agrees with the points: a filled cell is one a point
    // reached, so (points or not) its bits may differ from nodata.
    for (int64_t r = 0; r < ref.height(); ++r) {
      for (int64_t c = 0; c < ref.width(); ++c) {
        if (!d.frame.IsFilled(c, r)) {
          for (int b = 0; b < ref.bands(); ++b) {
            EXPECT_EQ(Bits(d.frame.AtClamped(c, r, b)), Bits(nodata)) << at;
          }
        }
      }
    }
    if (d.frame.windowed()) ++windowed;
    EXPECT_LE(d.frame.raster.data().size(), ref.data().size()) << at;
  }
  return windowed;
}

// ---------------------------------------------------------------------------
// Regions

struct RegionCase {
  const char* name;
  RegionPtr region;
  /// Whether the support is smaller than the lattice.
  bool windowed;
};

std::vector<RegionCase> Regions() {
  return {
      {"bbox", MakeBBoxRegion(-121.0, 39.0, -117.0, 42.0), true},
      {"disk", ConstraintRegion::Disk(-118.0, 40.5, 2.2), true},
      {"polygon",
       MakePolygonRegion({{-123.0, 37.0}, {-115.0, 38.0}, {-119.0, 44.0}}),
       true},
      {"union",
       MakeUnionRegion({MakeBBoxRegion(-124.0, 42.0, -122.0, 44.0),
                        ConstraintRegion::Disk(-116.0, 38.0, 1.3)}),
       true},
      // Edges exactly on cell centres: the snap must keep them.
      {"bbox on cell centres", MakeBBoxRegion(-124.75, 40.25, -120.25, 44.75),
       true},
      {"touches cell (0, 0)", MakeBBoxRegion(-126.0, 43.0, -122.0, 46.0), true},
      {"top edge", MakeBBoxRegion(-120.0, 43.0, -116.0, 46.0), true},
      {"bottom edge", MakeBBoxRegion(-120.0, 35.0, -116.0, 38.0), true},
      {"left edge", MakeBBoxRegion(-126.0, 39.0, -122.0, 41.0), true},
      {"right edge", MakeBBoxRegion(-116.0, 39.0, -112.0, 41.0), true},
      {"bottom-right corner", MakeBBoxRegion(-115.0, 35.0, -112.0, 37.6),
       true},
      {"whole lattice", MakeBBoxRegion(-130.0, 30.0, -100.0, 50.0), false},
      // Misses the lattice: an empty support, frames without points.
      {"outside", MakeBBoxRegion(-100.0, 10.0, -90.0, 20.0), true},
  };
}

/// `events` through one SpatialRestrictionOp.
std::vector<StreamEvent> Restrict(const RegionPtr& region,
                                  const std::vector<StreamEvent>& events) {
  SpatialRestrictionOp op("region", region);
  CollectingSink sink;
  op.BindOutput(&sink);
  for (const StreamEvent& e : events) {
    Status st = op.input(0)->Consume(e);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return sink.events();
}

TEST(WindowedAssemblyParityTest, RestrictedFramesMatchWholeFrameAssembly) {
  for (int bands : {1, 2, 3}) {
    for (double nodata : Nodatas()) {
      const std::vector<StreamEvent> source = SourceStream(bands, nodata);
      for (const RegionCase& rc : Regions()) {
        const std::string label = std::string(rc.name) + ", " +
                                  std::to_string(bands) + " bands, nodata " +
                                  Bits(nodata);
        const std::vector<StreamEvent> events = Restrict(rc.region, source);
        const size_t windowed = ExpectParity(events, nodata, label);
        EXPECT_EQ(windowed, rc.windowed ? 3u : 0u) << label;
      }
    }
  }
}

TEST(WindowedAssemblyParityTest, SharedRestrictionGivesEachQueryItsSupport) {
  for (int bands : {1, 3}) {
    for (double nodata : Nodatas()) {
      const std::vector<RegionCase> regions = Regions();
      SharedRestrictionOp shared(
          std::make_unique<CascadeTree>(SourceLattice().Extent()));
      std::vector<CollectingSink> sinks(regions.size());
      for (size_t q = 0; q < regions.size(); ++q) {
        GS_ASSERT_OK(shared.RegisterQuery(static_cast<QueryId>(q),
                                          regions[q].region, &sinks[q]));
      }
      for (const StreamEvent& e : SourceStream(bands, nodata)) {
        GS_ASSERT_OK(shared.Consume(e));
      }
      for (size_t q = 0; q < regions.size(); ++q) {
        const std::string label = std::string("shared ") + regions[q].name +
                                  ", " + std::to_string(bands) +
                                  " bands, nodata " + Bits(nodata);
        // Each query's FrameBegin carries its own region's support.
        const StreamEvent& begin = sinks[q].events().front();
        ASSERT_EQ(begin.kind, EventKind::kFrameBegin) << label;
        ASSERT_TRUE(begin.frame.support.has_value()) << label;
        EXPECT_EQ(*begin.frame.support,
                  SourceLattice().CellsWithin(regions[q].region->bounds()))
            << label;
        const size_t windowed = ExpectParity(sinks[q].events(), nodata, label);
        EXPECT_EQ(windowed, regions[q].windowed ? 3u : 0u) << label;
      }
    }
  }
}

TEST(WindowedAssemblyParityTest, PngBytesMatchWholeFrameAssembly) {
  for (int bands : {1, 3}) {
    const double nodata = -1.0;
    const std::vector<StreamEvent> source = SourceStream(bands, nodata);
    for (const RegionCase& rc : Regions()) {
      const std::string label =
          std::string(rc.name) + ", " + std::to_string(bands) + " bands";
      const std::vector<StreamEvent> events = Restrict(rc.region, source);
      const std::map<int64_t, Raster> want = ReferenceAssemble(events, nodata);
      const DeliveryRun run = DeliverWindowed(events, nodata, /*png=*/true);
      ASSERT_EQ(run.frames.size(), want.size()) << label;
      for (const Delivered& d : run.frames) {
        auto png = RasterToPng(want.at(d.frame_id), -2.0, 6.0);
        ASSERT_TRUE(png.ok()) << png.status().ToString();
        EXPECT_EQ(d.png, *png) << label << " frame " << d.frame_id;
        EXPECT_EQ(EncodeResultFrame(4, d.frame_id, d.frame, d.png),
                  EncodeResultFrame(4, d.frame_id, want.at(d.frame_id), *png))
            << label;
      }
    }
  }
}

TEST(WindowedAssemblyParityTest, RegionBuffersItsWindowNotTheSector) {
  const double nodata = 0.0;
  const RegionPtr region = MakeBBoxRegion(-121.0, 39.0, -117.0, 42.0);
  const CellRect support = SourceLattice().CellsWithin(region->bounds());
  ASSERT_GT(support.num_cells(), 0);
  ASSERT_LT(support.num_cells(), kW * kH / 4);
  const DeliveryRun run =
      DeliverWindowed(Restrict(region, SourceStream(1, nodata)), nodata);
  EXPECT_EQ(run.buffered_peak,
            static_cast<uint64_t>(support.num_cells()) * sizeof(double));
  for (const Delivered& d : run.frames) {
    EXPECT_EQ(d.frame.window, support);
    EXPECT_EQ(d.frame.filled.size(), static_cast<size_t>(support.num_cells()));
  }
}

// ---------------------------------------------------------------------------
// A stale support: points outside it widen the window, once per frame

/// `events` with every FrameBegin's support replaced by `support`.
std::vector<StreamEvent> WithSupport(std::vector<StreamEvent> events,
                                     std::optional<CellRect> support) {
  for (StreamEvent& e : events) {
    if (e.kind == EventKind::kFrameBegin) e.frame.support = support;
  }
  return events;
}

TEST(WindowedAssemblyParityTest, StaleSupportWidensAndStillMatches) {
  const std::vector<CellRect> stale = {
      {10, 7, 2, 2},        // the points run far past it
      {0, 0, kW, kH - 1},   // only the last row falls outside
      {0, 0, 0, 0},         // an empty support
  };
  for (int bands : {1, 2}) {
    for (double nodata : Nodatas()) {
      for (size_t s = 0; s < stale.size(); ++s) {
        const std::string label = "stale support " + std::to_string(s) +
                                  ", " + std::to_string(bands) +
                                  " bands, nodata " + Bits(nodata);
        const std::vector<StreamEvent> events =
            WithSupport(SourceStream(bands, nodata), stale[s]);
        const std::map<int64_t, Raster> want =
            ReferenceAssemble(events, nodata);
        const DeliveryRun run = DeliverWindowed(events, nodata);
        // Frames 0 and 2 carry points outside the support; frame 1 has
        // none and keeps its window.
        EXPECT_EQ(run.widened, 2u) << label;
        ASSERT_EQ(run.frames.size(), want.size()) << label;
        for (const Delivered& d : run.frames) {
          const Raster& ref = want.at(d.frame_id);
          EXPECT_EQ(d.frame.windowed(), d.frame_id == 1) << label;
          EXPECT_EQ(EncodeResultFrame(9, d.frame_id, d.frame, {}),
                    EncodeResultFrame(9, d.frame_id, ref, {}))
              << label << " frame " << d.frame_id;
          EXPECT_TRUE(SameBits(d.frame, ref)) << label;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Gathers read through the window

/// Points of every batch, in order, with their values' bits.
std::vector<std::string> PointBits(const std::vector<StreamEvent>& events) {
  std::vector<std::string> out;
  for (const StreamEvent& e : events) {
    if (e.kind != EventKind::kPointBatch) continue;
    for (size_t i = 0; i < e.batch->size(); ++i) {
      out.push_back(std::to_string(e.batch->cols[i]) + "," +
                    std::to_string(e.batch->rows[i]) + "," +
                    std::to_string(e.batch->timestamps[i]) + "=" +
                    Bits(e.batch->ValueAt(i)));
    }
  }
  return out;
}

std::vector<StreamEvent> Reproject(const std::vector<StreamEvent>& events,
                                   ResampleKernel kernel,
                                   uint64_t* widened) {
  auto mercator = ResolveCrs("mercator");
  EXPECT_TRUE(mercator.ok());
  ReprojectOp op("reproject", *mercator, kernel);
  CollectingSink sink;
  op.BindOutput(&sink);
  for (const StreamEvent& e : events) {
    Status st = op.input(0)->Consume(e);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  *widened = op.metrics().frames_widened;
  return sink.events();
}

TEST(WindowedAssemblyParityTest, ReprojectReadsThroughTheWindow) {
  for (ResampleKernel kernel :
       {ResampleKernel::kNearest, ResampleKernel::kBilinear}) {
    for (const RegionCase& rc : Regions()) {
      const std::string label =
          std::string(rc.name) + " " + ResampleKernelName(kernel);
      const std::vector<StreamEvent> restricted =
          Restrict(rc.region, SourceStream(1, 0.0));
      uint64_t widened = 0, unused = 0;
      const std::vector<StreamEvent> got =
          Reproject(restricted, kernel, &widened);
      // The reference gathers from whole frames: the same events with
      // no support.
      const std::vector<StreamEvent> want =
          Reproject(WithSupport(restricted, std::nullopt), kernel, &unused);
      EXPECT_EQ(widened, 0u) << label;
      EXPECT_EQ(PointBits(got), PointBits(want)) << label;
      EXPECT_EQ(PointBits(got).empty(), std::string(rc.name) == "outside")
          << label;
      // The gather's output lattice is not the input's: no support.
      for (const StreamEvent& e : got) {
        if (e.kind == EventKind::kFrameBegin) {
          EXPECT_FALSE(e.frame.support.has_value()) << label;
        }
      }
    }
  }
}

TEST(WindowedAssemblyParityTest, EnumeratedPointsMatchWithinTheirCellOnBothPaths) {
  // points(0.5, -124.8, 44.8) keeps whatever rounds to its 0.5-degree
  // key, which includes the centre (-124.75, 44.75) of cell (0, 0) of
  // the 16x12 lattice, 0.05 degrees off the listed point. The shared
  // path prunes by the region's bounds and the support window is the
  // bounds snapped to the lattice, so the bounds must reach that
  // centre: both paths keep the point, and no frame widens.
  const GridLattice lattice = LatLonLattice(16, 12);
  auto parsed = ParseQuery("region(g.nir, points(0.5, -124.8, 44.8))");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const RegionPtr region = (*parsed)->region;
  ASSERT_NE(region, nullptr);
  ASSERT_TRUE(region->Contains(-124.75, 44.75));
  EXPECT_TRUE(region->bounds().Contains(-124.75, 44.75));
  const double nodata = std::numeric_limits<double>::quiet_NaN();
  std::vector<StreamEvent> source;
  for (int64_t f = 0; f < 3; ++f) {
    for (StreamEvent& e : SourceFrame(lattice, f, 1, nodata, f != 1)) {
      source.push_back(std::move(e));
    }
  }

  const std::vector<StreamEvent> unshared = Restrict(region, source);
  EXPECT_EQ(PointBits(unshared).size(), 2u);
  ExpectParity(unshared, nodata, "unshared points()");

  SharedRestrictionOp shared(std::make_unique<CascadeTree>(lattice.Extent()));
  CollectingSink sink;
  GS_ASSERT_OK(shared.RegisterQuery(0, region, &sink));
  for (const StreamEvent& e : source) GS_ASSERT_OK(shared.Consume(e));
  EXPECT_TRUE(PointBits(sink.events()) == PointBits(unshared));
  ExpectParity(sink.events(), nodata, "shared points()");
}

// ---------------------------------------------------------------------------
// Whole plans: NDVI and reproject(region(...)) as the server plans them

TEST(WindowedAssemblyParityTest, NdviAndReprojectPlansMatch) {
  const StreamCatalog catalog = testing_util::MakeTestCatalog();
  const GridLattice lattice = LatLonLattice(16, 12);
  const std::vector<std::string> queries = {
      "region(ndvi(g.nir, g.vis), bbox(-123, 40, -120, 43))",
      "region(ndvi(g.nir, g.vis), disk(-121, 42, 1.6))",
      "region(ndvi(g.nir, g.vis), polygon(-124, 40, -119, 41, -122, 44.5))",
      "region(ndvi(g.nir, g.vis), bbox(-126, 43, -123, 46))",
      "reproject(region(ndvi(g.nir, g.vis), bbox(-123, 40, -120, 43)), "
      "\"mercator\")",
  };
  for (double nodata : Nodatas()) {
    for (const std::string& text : queries) {
      const std::string label = text + ", nodata " + Bits(nodata);
      auto parsed = ParseQuery(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      GS_ASSERT_OK(AnalyzeQuery(catalog, *parsed));
      auto optimized = OptimizeQuery(catalog, *parsed);
      ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
      CollectingSink sink;
      auto plan = BuildPlan(*optimized, &sink);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      for (int64_t f = 0; f < 3; ++f) {
        // NIR and VIS differ, so NDVI is not constant.
        const std::vector<StreamEvent> nir =
            SourceFrame(lattice, f, 1, nodata, f != 1);
        const std::vector<StreamEvent> vis =
            SourceFrame(lattice, f + 5, 1, nodata, f != 1);
        for (size_t i = 0; i < nir.size(); ++i) {
          StreamEvent v = vis[i];
          if (v.kind == EventKind::kPointBatch) {
            auto batch = std::make_shared<PointBatch>(*v.batch);
            batch->frame_id = f;
            for (int64_t& t : batch->timestamps) t = f;
            v.batch = std::move(batch);
          } else if (v.kind != EventKind::kStreamEnd) {
            v.frame.frame_id = f;
          }
          GS_ASSERT_OK((*plan)->input("g.nir")->Consume(nir[i]));
          GS_ASSERT_OK((*plan)->input("g.vis")->Consume(v));
        }
      }
      uint64_t widened = 0;
      for (const auto& op : (*plan)->operators()) {
        widened += op->metrics().frames_widened;
      }
      EXPECT_EQ(widened, 0u) << label;
      EXPECT_GT(sink.TotalPoints(), 0u) << label;
      const size_t windowed = ExpectParity(sink.events(), nodata, label);
      // Region results are windowed; reprojected ones cover their own
      // lattice.
      EXPECT_EQ(windowed, text.rfind("region", 0) == 0 ? 3u : 0u) << label;
    }
  }
}

}  // namespace
}  // namespace geostreams
