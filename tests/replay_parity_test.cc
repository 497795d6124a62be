// Parity of the catch-up read path against the simple per-point path:
//
//  * StoreScanParityTest — TileStore scans (row runs of the occupancy
//    bitmap appended in bulk) against a per-point reference emitter
//    kept here, which walks the stored image tile by tile and cell by
//    cell. Events are compared one for one: frame envelopes, batch
//    boundaries, point order, and every sample bit.
//  * ReduceParityTest — ReduceOp (dense row slabs, summed one run of
//    same-cell points at a time) against the per-point hash-map
//    accumulator it replaced, kept here, over row-by-row, tile-ordered
//    and shuffled input, ragged extents, runs cut by cell edges and by
//    batch ends, cells that straddle tiles, cells that never complete,
//    and points that arrive again, inside a run or after their cell
//    was emitted. Output batches are compared bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/region.h"
#include "ops/spatial_transform_op.h"
#include "ops/time_set.h"
#include "store/tile_store.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

namespace fs = std::filesystem;
using testing_util::LatLonLattice;

std::string FreshDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "gsparity-" +
                    info->test_suite_name() + "-" + info->name() + "-" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Event-for-event equality: kinds, frame envelopes, batch boundaries,
/// point order, and sample bits.
::testing::AssertionResult SameEvents(const std::vector<StreamEvent>& want,
                                      const std::vector<StreamEvent>& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "event count " << got.size() << ", want " << want.size();
  }
  for (size_t e = 0; e < want.size(); ++e) {
    const StreamEvent& a = want[e];
    const StreamEvent& b = got[e];
    if (a.kind != b.kind) {
      return ::testing::AssertionFailure()
             << "event " << e << " is " << EventKindName(b.kind) << ", want "
             << EventKindName(a.kind);
    }
    if (a.kind == EventKind::kFrameBegin || a.kind == EventKind::kFrameEnd) {
      if (a.frame.frame_id != b.frame.frame_id ||
          a.frame.expected_points != b.frame.expected_points ||
          a.frame.lattice.width() != b.frame.lattice.width() ||
          a.frame.lattice.height() != b.frame.lattice.height() ||
          !SameBits(a.frame.lattice.origin_x(), b.frame.lattice.origin_x()) ||
          !SameBits(a.frame.lattice.origin_y(), b.frame.lattice.origin_y()) ||
          !SameBits(a.frame.lattice.dx(), b.frame.lattice.dx()) ||
          !SameBits(a.frame.lattice.dy(), b.frame.lattice.dy())) {
        return ::testing::AssertionFailure()
               << "event " << e << ": " << b.frame.ToString() << ", want "
               << a.frame.ToString();
      }
    }
    if (a.kind != EventKind::kPointBatch) continue;
    const PointBatch& x = *a.batch;
    const PointBatch& y = *b.batch;
    if (x.frame_id != y.frame_id || x.band_count != y.band_count ||
        x.size() != y.size() || x.values.size() != y.values.size()) {
      return ::testing::AssertionFailure()
             << "batch " << e << ": " << y.size() << " points of "
             << y.band_count << " bands in frame " << y.frame_id << ", want "
             << x.size() << " of " << x.band_count << " in " << x.frame_id;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (x.cols[i] != y.cols[i] || x.rows[i] != y.rows[i] ||
          x.timestamps[i] != y.timestamps[i]) {
        return ::testing::AssertionFailure()
               << "batch " << e << " point " << i << " is (" << y.cols[i]
               << ", " << y.rows[i] << ", t=" << y.timestamps[i] << "), want ("
               << x.cols[i] << ", " << x.rows[i] << ", t=" << x.timestamps[i]
               << ")";
      }
    }
    for (size_t v = 0; v < x.values.size(); ++v) {
      if (!SameBits(x.values[v], y.values[v])) {
        return ::testing::AssertionFailure()
               << "batch " << e << " sample " << v << " is " << y.values[v]
               << ", want " << x.values[v];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Store scans

/// One stored level as the reference sees it: samples and occupancy.
struct LevelImage {
  Raster raster;
  std::vector<uint8_t> filled;
};

/// The store's overview rule, restated: a cell averages the filled
/// cells of its 2x2 block (in row-major order) and is filled iff one
/// of them is.
LevelImage ReferenceReduce(const LevelImage& src) {
  const int64_t sw = src.raster.width();
  const int64_t sh = src.raster.height();
  const int bands = src.raster.bands();
  LevelImage out;
  out.raster = Raster((sw + 1) / 2, (sh + 1) / 2, bands);
  const int64_t w = out.raster.width();
  out.filled.assign(static_cast<size_t>(w * out.raster.height()), 0);
  for (int64_t r = 0; r < out.raster.height(); ++r) {
    for (int64_t c = 0; c < w; ++c) {
      for (int b = 0; b < bands; ++b) {
        double sum = 0.0;
        int count = 0;
        for (int64_t sr = 2 * r; sr < std::min(2 * r + 2, sh); ++sr) {
          for (int64_t sc = 2 * c; sc < std::min(2 * c + 2, sw); ++sc) {
            if (!src.filled[static_cast<size_t>(sr * sw + sc)]) continue;
            sum += src.raster.At(sc, sr, b);
            ++count;
          }
        }
        if (count == 0) continue;
        out.filled[static_cast<size_t>(r * w + c)] = 1;
        out.raster.Set(c, r, b, sum / count);
      }
    }
  }
  return out;
}

/// The stored pyramid: level 0 is the frame, each further level halves
/// it until one tile covers it.
std::vector<LevelImage> ReferencePyramid(const LevelImage& base,
                                         const TileStoreOptions& options) {
  std::vector<LevelImage> levels{base};
  while (static_cast<int>(levels.size()) <= options.max_levels &&
         (levels.back().raster.width() > options.tile_size ||
          levels.back().raster.height() > options.tile_size)) {
    levels.push_back(ReferenceReduce(levels.back()));
  }
  return levels;
}

/// What a scan of one stored frame emits, point by point: tiles in
/// row-major tile order, each tile's cells in row-major order, every
/// filled cell inside the region appended on its own, and a batch
/// handed on as soon as it holds max_batch_points.
std::vector<StreamEvent> ReferenceScan(const std::vector<LevelImage>& pyramid,
                                       const GridLattice& base,
                                       int64_t frame_id,
                                       const TileStoreOptions& options,
                                       const StoreScan& scan) {
  size_t level = 0;
  while (level + 1 < pyramid.size() &&
         (1 << static_cast<int>(level + 1)) <= std::max(scan.reduce, 1)) {
    ++level;
  }
  const LevelImage& img = pyramid[level];
  const GridLattice lattice =
      level == 0 ? base : base.Reduced(1 << static_cast<int>(level));
  FrameInfo info;
  info.frame_id = frame_id;
  info.lattice = lattice;
  info.expected_points = lattice.num_cells();

  std::vector<StreamEvent> out;
  out.push_back(StreamEvent::FrameBegin(info));
  bool times_pass = true;
  for (const TimeSet& times : scan.times) {
    times_pass = times_pass && times.Contains(frame_id);
  }
  const int bands = img.raster.bands();
  auto batch = std::make_shared<PointBatch>();
  auto flush = [&] {
    if (batch->empty()) return;
    out.push_back(StreamEvent::Batch(batch));
    batch = std::make_shared<PointBatch>();
  };
  const int64_t w = img.raster.width();
  const int64_t h = img.raster.height();
  const int tile = options.tile_size;
  std::vector<double> vals(static_cast<size_t>(bands));
  for (int64_t tr = 0; times_pass && tr * tile < h; ++tr) {
    for (int64_t tc = 0; tc * tile < w; ++tc) {
      for (int64_t row = tr * tile; row < std::min(h, (tr + 1) * tile);
           ++row) {
        for (int64_t col = tc * tile; col < std::min(w, (tc + 1) * tile);
             ++col) {
          if (!img.filled[static_cast<size_t>(row * w + col)]) continue;
          if (scan.region != nullptr &&
              !scan.region->Contains(lattice.CellX(col),
                                     lattice.CellY(row))) {
            continue;
          }
          batch->frame_id = frame_id;
          batch->band_count = bands;
          for (int b = 0; b < bands; ++b) {
            vals[static_cast<size_t>(b)] = img.raster.At(col, row, b);
          }
          batch->Append(static_cast<int32_t>(col), static_cast<int32_t>(row),
                        frame_id, vals.data());
          if (batch->size() >= scan.max_batch_points) flush();
        }
      }
    }
  }
  flush();
  out.push_back(StreamEvent::FrameEnd(info));
  return out;
}

enum class Fill { kFull, kRestricted };

/// A frame over a lattice that is not a multiple of the tile size, with
/// values that are sensitive to any change in summation order.
LevelImage MakeFrame(const GridLattice& lattice, int bands, Fill fill,
                     uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-20, 20);
  LevelImage img;
  img.raster = Raster(lattice.width(), lattice.height(), bands);
  img.raster.set_lattice(lattice);
  img.filled.assign(static_cast<size_t>(lattice.num_cells()), 1);
  for (int64_t row = 0; row < lattice.height(); ++row) {
    for (int64_t col = 0; col < lattice.width(); ++col) {
      for (int b = 0; b < bands; ++b) {
        img.raster.Set(col, row, b,
                       std::ldexp(mantissa(rng), exponent(rng)));
      }
      if (fill == Fill::kRestricted) {
        // A restricted raster: a disk of coverage, holes, and stripes of
        // short runs, so bitmap rows start, stop and restart anywhere.
        const double dx = static_cast<double>(col) - 20.0;
        const double dy = static_cast<double>(row) - 15.0;
        const bool in_disk = dx * dx + dy * dy <= 18.0 * 18.0;
        const bool stripe = (col + 3 * row) % 11 < 4;
        const bool hole = rng() % 9 == 0;
        img.filled[static_cast<size_t>(row * lattice.width() + col)] =
            (in_disk || stripe) && !hole ? 1 : 0;
      }
    }
  }
  return img;
}

std::vector<std::pair<std::string, RegionPtr>> Regions(
    const GridLattice& lattice) {
  // Regions in the lattice's own coordinates, cut through the middle
  // of tiles so that tile pruning and the per-cell test both matter.
  const double x0 = lattice.CellX(0);
  const double y0 = lattice.CellY(0);
  const double sx = lattice.dx();
  const double sy = lattice.dy();
  return {
      {"none", nullptr},
      {"bbox", MakeBBoxRegion(x0 + 5.3 * sx, y0 + 40.2 * sy, x0 + 35.6 * sx,
                              y0 + 7.7 * sy)},
      {"disk", ConstraintRegion::Disk(x0 + 24.0 * sx, y0 + 18.0 * sy,
                                      13.5 * std::abs(sx))},
      {"polygon", MakePolygonRegion({{x0 + 2.2 * sx, y0 + 3.1 * sy},
                                     {x0 + 48.4 * sx, y0 + 9.6 * sy},
                                     {x0 + 30.3 * sx, y0 + 38.8 * sy},
                                     {x0 + 12.1 * sx, y0 + 24.5 * sy}})},
  };
}

TEST(StoreScanParityTest, RunPathMatchesThePerPointEmitter) {
  const GridLattice lattice = LatLonLattice(53, 41);
  int tag = 0;
  for (int bands : {1, 3}) {
    for (Fill fill : {Fill::kFull, Fill::kRestricted}) {
      TileStoreOptions options;
      options.dir = FreshDir(std::to_string(tag++));
      options.tile_size = 16;
      auto store = TileStore::Open(options);
      GS_ASSERT_OK(store.status());
      const int64_t frame_id = 1000 + bands;
      const LevelImage base =
          MakeFrame(lattice, bands, fill, static_cast<uint32_t>(tag));
      FrameInfo info;
      info.frame_id = frame_id;
      info.lattice = lattice;
      info.expected_points = lattice.num_cells();
      GS_ASSERT_OK((*store)->PutFrame("src", info, base.raster, base.filled));
      const std::vector<LevelImage> pyramid =
          ReferencePyramid(base, (*store)->options());
      ASSERT_GE(pyramid.size(), 3u);

      for (const auto& [region_name, region] : Regions(lattice)) {
        for (int reduce : {1, 2, 4}) {
          for (size_t max_batch : {size_t{1}, size_t{7}, size_t{4096}}) {
            SCOPED_TRACE(::testing::Message()
                         << bands << " band(s), "
                         << (fill == Fill::kFull ? "full" : "restricted")
                         << " raster, region " << region_name << ", reduce "
                         << reduce << ", max_batch_points " << max_batch);
            StoreScan scan;
            scan.region = region;
            scan.reduce = reduce;
            scan.max_batch_points = max_batch;
            CollectingSink sink;
            GS_ASSERT_OK((*store)->Scan("src", scan, &sink));
            const std::vector<StreamEvent> want = ReferenceScan(
                pyramid, lattice, frame_id, (*store)->options(), scan);
            ASSERT_TRUE(SameEvents(want, sink.events()));
          }
        }
      }
    }
  }
}

TEST(StoreScanParityTest, ScansOfSeveralFramesAndTimeHintsMatch) {
  const GridLattice lattice = LatLonLattice(40, 33);
  TileStoreOptions options;
  options.dir = FreshDir("frames");
  options.tile_size = 16;
  auto store = TileStore::Open(options);
  GS_ASSERT_OK(store.status());
  std::map<int64_t, std::vector<LevelImage>> pyramids;
  for (int64_t f = 1; f <= 4; ++f) {
    const LevelImage base =
        MakeFrame(lattice, 1, f % 2 == 0 ? Fill::kFull : Fill::kRestricted,
                  static_cast<uint32_t>(100 + f));
    FrameInfo info;
    info.frame_id = f;
    info.lattice = lattice;
    info.expected_points = lattice.num_cells();
    GS_ASSERT_OK((*store)->PutFrame("src", info, base.raster, base.filled));
    pyramids[f] = ReferencePyramid(base, (*store)->options());
  }
  StoreScan scan;
  scan.min_frame_id = 2;
  scan.region = Regions(lattice)[2].second;  // disk
  scan.times.push_back(TimeSet::Range(2, 3));
  scan.max_batch_points = 64;
  CollectingSink sink;
  GS_ASSERT_OK((*store)->Scan("src", scan, &sink));
  std::vector<StreamEvent> want;
  for (int64_t f = 2; f <= 4; ++f) {
    const std::vector<StreamEvent> frame =
        ReferenceScan(pyramids[f], lattice, f, (*store)->options(), scan);
    want.insert(want.end(), frame.begin(), frame.end());
  }
  EXPECT_TRUE(SameEvents(want, sink.events()));
  // Frame 4 is outside the time hint: its envelope replays, its points
  // do not.
  ASSERT_GE(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[sink.events().size() - 2].kind,
            EventKind::kFrameBegin);
}

// ---------------------------------------------------------------------------
// Reduce

/// The accumulator ReduceOp had before row slabs: a hash map keyed by
/// output cell, an entry erased as its cell completes. Leftover cells
/// flush in row-major order.
class HashMapReduce {
 public:
  explicit HashMapReduce(int factor) : factor_(factor) {}

  std::vector<StreamEvent> Run(const std::vector<StreamEvent>& input) {
    std::vector<StreamEvent> out;
    for (const StreamEvent& event : input) {
      switch (event.kind) {
        case EventKind::kFrameBegin: {
          in_lattice_ = event.frame.lattice;
          out_lattice_ = in_lattice_.Reduced(factor_);
          frame_id_ = event.frame.frame_id;
          in_frame_ = true;
          accum_.clear();
          FrameInfo info = event.frame;
          info.lattice = out_lattice_;
          info.expected_points = out_lattice_.num_cells();
          out.push_back(StreamEvent::FrameBegin(info));
          break;
        }
        case EventKind::kFrameEnd: {
          Flush(&out);
          in_frame_ = false;
          FrameInfo info = event.frame;
          info.lattice = out_lattice_;
          out.push_back(StreamEvent::FrameEnd(info));
          break;
        }
        case EventKind::kStreamEnd:
          if (in_frame_) Flush(&out);
          in_frame_ = false;
          out.push_back(event);
          break;
        case EventKind::kPointBatch: {
          const PointBatch& in = *event.batch;
          auto batch = std::make_shared<PointBatch>();
          batch->frame_id = frame_id_;
          for (size_t i = 0; i < in.size(); ++i) {
            const int64_t oc = in.cols[i] / factor_;
            const int64_t orow = in.rows[i] / factor_;
            const int64_t key = orow * out_lattice_.width() + oc;
            Cell& cell = accum_[key];
            if (cell.count == 0) {
              const int64_t cw = std::min<int64_t>(
                  factor_, in_lattice_.width() - oc * factor_);
              const int64_t rh = std::min<int64_t>(
                  factor_, in_lattice_.height() - orow * factor_);
              cell.expected = static_cast<int32_t>(cw * rh);
              cell.timestamp = in.timestamps[i];
            }
            cell.sum += in.ValueAt(i);
            ++cell.count;
            if (cell.count >= cell.expected) {
              batch->Append1(static_cast<int32_t>(oc),
                             static_cast<int32_t>(orow), cell.timestamp,
                             cell.sum / cell.count);
              accum_.erase(key);
            }
          }
          if (!batch->empty()) out.push_back(StreamEvent::Batch(batch));
          break;
        }
      }
    }
    return out;
  }

 private:
  struct Cell {
    double sum = 0.0;
    int32_t count = 0;
    int32_t expected = 0;
    int64_t timestamp = 0;
  };

  void Flush(std::vector<StreamEvent>* out) {
    if (accum_.empty()) return;
    std::vector<int64_t> keys;
    for (const auto& [key, cell] : accum_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    auto batch = std::make_shared<PointBatch>();
    batch->frame_id = frame_id_;
    for (int64_t key : keys) {
      const Cell& cell = accum_[key];
      batch->Append1(static_cast<int32_t>(key % out_lattice_.width()),
                     static_cast<int32_t>(key / out_lattice_.width()),
                     cell.timestamp, cell.sum / cell.count);
    }
    accum_.clear();
    out->push_back(StreamEvent::Batch(batch));
  }

  int factor_;
  GridLattice in_lattice_;
  GridLattice out_lattice_;
  int64_t frame_id_ = 0;
  bool in_frame_ = false;
  std::unordered_map<int64_t, Cell> accum_;
};

struct InputPoint {
  int32_t col;
  int32_t row;
  int64_t t;
  double value;
};

/// Every cell of `lattice` once, row-major, with order-sensitive values
/// and a timestamp that varies per point.
std::vector<InputPoint> RowMajorPoints(const GridLattice& lattice,
                                       uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  std::vector<InputPoint> points;
  for (int32_t row = 0; row < lattice.height(); ++row) {
    for (int32_t col = 0; col < lattice.width(); ++col) {
      points.push_back({col, row, 7000 + row * 1000 + col,
                        std::ldexp(mantissa(rng), exponent(rng))});
    }
  }
  return points;
}

/// The same cells in tile order: tile x tile blocks, row-major inside.
std::vector<InputPoint> TileOrder(const std::vector<InputPoint>& points,
                                  int tile) {
  std::vector<InputPoint> out = points;
  std::stable_sort(out.begin(), out.end(),
                   [tile](const InputPoint& a, const InputPoint& b) {
                     const auto key = [tile](const InputPoint& p) {
                       return std::make_pair(p.row / tile, p.col / tile);
                     };
                     return key(a) < key(b);
                   });
  return out;
}

std::vector<InputPoint> Shuffled(std::vector<InputPoint> points,
                                 uint32_t seed) {
  std::mt19937 rng(seed);
  std::shuffle(points.begin(), points.end(), rng);
  return points;
}

/// One framed stream: FrameBegin, `points` cut into batches of
/// `batch_size`, FrameEnd.
std::vector<StreamEvent> Framed(const GridLattice& lattice, int64_t frame_id,
                                const std::vector<InputPoint>& points,
                                size_t batch_size) {
  FrameInfo info;
  info.frame_id = frame_id;
  info.lattice = lattice;
  info.expected_points = lattice.num_cells();
  std::vector<StreamEvent> events{StreamEvent::FrameBegin(info)};
  for (size_t i = 0; i < points.size(); i += batch_size) {
    auto batch = std::make_shared<PointBatch>();
    batch->frame_id = frame_id;
    for (size_t j = i; j < std::min(points.size(), i + batch_size); ++j) {
      batch->Append1(points[j].col, points[j].row, points[j].t,
                     points[j].value);
    }
    events.push_back(StreamEvent::Batch(std::move(batch)));
  }
  events.push_back(StreamEvent::FrameEnd(info));
  return events;
}

std::vector<StreamEvent> RunReduce(ReduceOp* op,
                                   const std::vector<StreamEvent>& input) {
  CollectingSink sink;
  op->BindOutput(&sink);
  for (const StreamEvent& event : input) {
    const Status st = op->input(0)->Consume(event);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return sink.events();
}

void ExpectReduceParity(int factor, const std::vector<StreamEvent>& input) {
  ReduceOp op("r", factor);
  const std::vector<StreamEvent> got = RunReduce(&op, input);
  const std::vector<StreamEvent> want = HashMapReduce(factor).Run(input);
  EXPECT_TRUE(SameEvents(want, got));
}

TEST(ReduceParityTest, RowTileAndShuffledOrdersMatchTheHashMap) {
  for (const auto& [w, h] : {std::pair<int64_t, int64_t>{37, 23},
                             std::pair<int64_t, int64_t>{64, 32},
                             std::pair<int64_t, int64_t>{5, 9}}) {
    const GridLattice lattice = LatLonLattice(w, h);
    const std::vector<InputPoint> rows =
        RowMajorPoints(lattice, static_cast<uint32_t>(w * h));
    for (int factor : {1, 2, 3, 4, 5, 8}) {
      SCOPED_TRACE(::testing::Message() << w << "x" << h << ", k=" << factor);
      // Row-major runs end at cell edges; batch sizes that k does not
      // divide also end them inside a cell, and the next batch resumes
      // the half-summed cell.
      for (size_t batch : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                           size_t{13}, static_cast<size_t>(lattice.width())}) {
        ExpectReduceParity(factor, Framed(lattice, 5, rows, batch));
      }
      ExpectReduceParity(factor,
                         Framed(lattice, 5, TileOrder(rows, 16), 97));
      ExpectReduceParity(factor,
                         Framed(lattice, 5, Shuffled(rows, 3), 100));
    }
  }
}

TEST(ReduceParityTest, IncompleteCellsFlushRowMajorAtFrameAndStreamEnd) {
  const GridLattice lattice = LatLonLattice(37, 23);
  std::vector<InputPoint> points;
  std::mt19937 rng(11);
  for (const InputPoint& p : Shuffled(RowMajorPoints(lattice, 9), 4)) {
    if (rng() % 10 != 0) points.push_back(p);  // ~10% never arrive
  }
  for (int factor : {2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << "k=" << factor);
    ExpectReduceParity(factor, Framed(lattice, 8, points, 64));
    // A StreamEnd that cuts the frame short flushes the same way.
    std::vector<StreamEvent> cut = Framed(lattice, 8, points, 64);
    cut.resize(cut.size() / 2);
    cut.push_back(StreamEvent::StreamEnd());
    ExpectReduceParity(factor, cut);
  }
}

TEST(ReduceParityTest, PointsArrivingAgainReopenTheirCell) {
  const GridLattice lattice = LatLonLattice(37, 23);
  std::vector<InputPoint> points = RowMajorPoints(lattice, 21);
  // Re-send an interior point, an edge point whose cell has one input,
  // and a whole block, each after its cell was emitted.
  const std::vector<InputPoint> again = {
      points[5], points.back(), points[0], points[1],
      points[static_cast<size_t>(lattice.width())],
      points[static_cast<size_t>(lattice.width()) + 1]};
  for (const InputPoint& p : again) {
    points.push_back({p.col, p.row, p.t + 1, p.value * 3.0});
  }
  for (int factor : {2, 3}) {
    SCOPED_TRACE(::testing::Message() << "k=" << factor);
    ExpectReduceParity(factor, Framed(lattice, 2, points, 50));
  }
  // The same, while the row is still open: cell (0, 0) completes at
  // input (k-1, k-1), long before the rest of its output row does.
  const std::vector<InputPoint> rows = RowMajorPoints(lattice, 22);
  for (int factor : {2, 3}) {
    SCOPED_TRACE(::testing::Message() << "open row, k=" << factor);
    std::vector<InputPoint> interleaved;
    for (const InputPoint& p : rows) {
      interleaved.push_back(p);
      if (p.col == factor - 1 && p.row == factor - 1) {
        interleaved.push_back({0, 0, p.t + 1, -p.value});
        interleaved.push_back({1, 1, p.t + 2, p.value * 0.5});
      }
    }
    ExpectReduceParity(factor, Framed(lattice, 2, interleaved, 50));
  }
}

TEST(ReduceParityTest, ConsecutiveFramesStartFromEmptySlabs) {
  const GridLattice a = LatLonLattice(37, 23);
  const GridLattice b = LatLonLattice(20, 30);
  std::vector<InputPoint> partial = RowMajorPoints(a, 1);
  partial.resize(partial.size() / 3);
  std::vector<StreamEvent> input = Framed(a, 1, partial, 40);
  input.pop_back();  // frame 1 never ends: the next FrameBegin drops it
  const std::vector<StreamEvent> second =
      Framed(b, 2, Shuffled(RowMajorPoints(b, 2), 5), 40);
  input.insert(input.end(), second.begin(), second.end());
  const std::vector<StreamEvent> third =
      Framed(a, 3, RowMajorPoints(a, 3), 37);
  input.insert(input.end(), third.begin(), third.end());
  ExpectReduceParity(4, input);
}

TEST(ReduceParityTest, TileOrderedInputBuffersAboutOneOutputRow) {
  // 256 x 64 cells in 16 x 16 tiles, k = 4: a tile completes each of
  // its output cells before it moves on, so one output row's slab is
  // open at a time, whichever point a batch ends at.
  const GridLattice lattice = LatLonLattice(256, 64);
  ReduceOp op("r", 4);
  RunReduce(&op, Framed(lattice, 1, TileOrder(RowMajorPoints(lattice, 6), 16),
                        100));
  const uint64_t slab = 64 * 24;  // 64 output cells of 24 bytes
  EXPECT_GT(op.metrics().buffered_bytes_high_water, 0u);
  EXPECT_LE(op.metrics().buffered_bytes_high_water, slab);
  EXPECT_EQ(op.metrics().buffered_bytes, 0u);
}

TEST(ReduceParityTest, StoreTilesReuseOneSlabAndReportIt) {
  // 128 x 128 cells in the store's 64 x 64 tiles, one batch per tile,
  // k = 2: every tile completes all its output cells, so no slab is
  // open between batches. The completed rows' storage is kept for the
  // next row instead of being freed and re-allocated, and the op
  // reports it: above zero, never more than two output rows.
  const GridLattice lattice = LatLonLattice(128, 128);
  const std::vector<StreamEvent> input =
      Framed(lattice, 1, TileOrder(RowMajorPoints(lattice, 8), 64), 64 * 64);
  ReduceOp op("r", 2);
  RunReduce(&op, input);
  const uint64_t row = 64 * 24;  // 64 output cells of 24 bytes
  EXPECT_GT(op.metrics().buffered_bytes_high_water, 0u);
  EXPECT_LE(op.metrics().buffered_bytes_high_water, 2 * row);
  EXPECT_EQ(op.metrics().buffered_bytes, 0u);
  ExpectReduceParity(2, input);
}

TEST(ReduceParityTest, ThreeWideCellsStraddleStoreTiles) {
  // The store emits 64 x 64 tiles, row-major inside. With k = 3 the
  // cells at columns 63-65 and rows 63-65 take points from two or four
  // tiles, so they stay open across tile batches.
  const GridLattice lattice = LatLonLattice(160, 70);
  const std::vector<InputPoint> tiles =
      TileOrder(RowMajorPoints(lattice, 41), 64);
  for (size_t batch : {size_t{64 * 64}, size_t{100}, size_t{64}}) {
    SCOPED_TRACE(::testing::Message() << "batch=" << batch);
    ExpectReduceParity(3, Framed(lattice, 4, tiles, batch));
  }
}

TEST(ReduceParityTest, ResentPointsInsideARun) {
  // Points sent twice in a row, or out of column order inside their
  // cell, land in one run. Each counts as a contribution, so a cell
  // can complete mid-run; the run must stop there and the rest of it
  // reopens the cell.
  const GridLattice lattice = LatLonLattice(37, 23);
  const std::vector<InputPoint> rows = RowMajorPoints(lattice, 51);
  std::vector<InputPoint> doubled;
  for (size_t i = 0; i < rows.size(); ++i) {
    const InputPoint& p = rows[i];
    doubled.push_back(p);
    if (i % 5 == 0) doubled.push_back({p.col, p.row, p.t + 1, -p.value});
  }
  std::vector<InputPoint> swapped = rows;
  for (size_t i = 0; i + 1 < swapped.size(); i += 3) {
    std::swap(swapped[i], swapped[i + 1]);
  }
  for (int factor : {2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << "k=" << factor);
    ExpectReduceParity(factor, Framed(lattice, 6, doubled, 37));
    ExpectReduceParity(factor, Framed(lattice, 6, doubled, 1000));
    ExpectReduceParity(factor, Framed(lattice, 6, swapped, 37));
  }
}

TEST(ReduceParityTest, PointsOutsideTheLatticeAreRefused) {
  const GridLattice lattice = LatLonLattice(8, 8);
  for (const auto& [col, row] :
       {std::pair<int32_t, int32_t>{8, 0}, {0, 8}, {-1, 0}, {0, -3}}) {
    ReduceOp op("r", 2);
    CollectingSink sink;
    op.BindOutput(&sink);
    FrameInfo info;
    info.frame_id = 1;
    info.lattice = lattice;
    GS_ASSERT_OK(op.input(0)->Consume(StreamEvent::FrameBegin(info)));
    auto batch = std::make_shared<PointBatch>();
    batch->Append1(col, row, 1, 1.0);
    const Status st = op.input(0)->Consume(StreamEvent::Batch(batch));
    EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  }
}

}  // namespace
}  // namespace geostreams
