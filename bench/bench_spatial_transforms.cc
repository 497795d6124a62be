// Experiment E3 (Sec. 3.2, Fig. 2): spatial transforms.
//
// Claims reproduced:
//   * magnification needs no neighbouring points -> zero buffering,
//     k^2 output points per input point;
//   * resolution decrease by 1/k needs a k x k neighbourhood per
//     output point -> bounded buffering (about one output row for
//     row-by-row streams), sweep k in {2, 3, 4, 8};
//   * re-projection (Fig. 2b) buffers the scan sector and pays
//     projection math per target point; nearest vs bilinear kernels;
//     geostationary -> lat/lon and lat/lon -> UTM legs.

#include "bench_util.h"
#include "geo/crs_registry.h"
#include "ops/reproject_op.h"
#include "ops/spatial_transform_op.h"

namespace geostreams {
namespace {

using bench_util::BenchLattice;
using bench_util::PrebuiltFrame;
using bench_util::PushBenchFrame;
using bench_util::ReportPoints;
using bench_util::ValueOrDie;

void BM_Magnify(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int64_t w = 256, h = 128;
  GridLattice lattice = BenchLattice(w, h);
  MagnifyOp op("m", k);
  NullSink sink;
  op.BindOutput(&sink);
  for (auto _ : state) {
    PushBenchFrame(op.input(0), lattice, 0);
  }
  ReportPoints(state, w * h);
  state.counters["k"] = k;
  state.counters["points_out_per_in"] =
      static_cast<double>(op.metrics().points_out) /
      static_cast<double>(op.metrics().points_in);
  state.counters["buffered_bytes"] = static_cast<double>(
      op.metrics().buffered_bytes_high_water);
}
BENCHMARK(BM_Magnify)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

void BM_Reduce(benchmark::State& state) {
  // Args: k, then the input order: 0 row-by-row batches, or the tile
  // edge of the store's tile-ordered emit (one batch per tile).
  const int k = static_cast<int>(state.range(0));
  const int64_t tile = state.range(1);
  const int64_t w = 1024, h = 256;
  const PrebuiltFrame frame(BenchLattice(w, h), 0, 1, tile);
  ReduceOp op("r", k);
  NullSink sink;
  op.BindOutput(&sink);
  for (auto _ : state) {
    frame.Replay(op.input(0));
  }
  ReportPoints(state, frame.num_points());
  state.counters["k"] = k;
  state.counters["tile"] = static_cast<double>(tile);
  state.counters["buffered_bytes"] = static_cast<double>(
      op.metrics().buffered_bytes_high_water);
  // Compare with the whole reduced frame: the row-by-row stream must
  // buffer far less.
  state.counters["frame_cells_after_reduce"] =
      static_cast<double>((w / k) * (h / k));
}
BENCHMARK(BM_Reduce)
    ->ArgsProduct({{2, 3, 4, 8}, {0, 64}})
    ->ArgNames({"k", "tile"});

void BM_Affine_Rotation(benchmark::State& state) {
  const int64_t n = 256;
  GridLattice lattice = BenchLattice(n, n);
  AffineOp op("a", AffineMap::RotationAboutCenter(30.0, n, n), lattice,
              state.range(0) == 0 ? ResampleKernel::kNearest
                                  : ResampleKernel::kBilinear);
  NullSink sink;
  op.BindOutput(&sink);
  for (auto _ : state) {
    PushBenchFrame(op.input(0), lattice, 0);
  }
  ReportPoints(state, n * n);
  state.SetLabel(state.range(0) == 0 ? "nearest" : "bilinear");
  state.counters["buffered_bytes"] = static_cast<double>(
      op.metrics().buffered_bytes_high_water);
}
BENCHMARK(BM_Affine_Rotation)->Arg(0)->Arg(1);

void BM_Reproject_GeosToLatLon(benchmark::State& state) {
  // The prototype's first hop: satellite scan angles -> lat/lon.
  auto geos = ValueOrDie(ResolveCrs("geos:-75"), "geos");
  double x0, y0, x1, y1;
  bench_util::CheckOk(geos->FromGeographic(-124.0, 30.0, &x0, &y0), "sw");
  bench_util::CheckOk(geos->FromGeographic(-100.0, 48.0, &x1, &y1), "ne");
  const int64_t w = 256, h = 192;
  const double dx = (x1 - x0) / w;
  const double dy = (y1 - y0) / h;
  GridLattice lattice(geos, x0 + dx / 2.0, y1 - dy / 2.0, dx, -dy, w, h);
  ReprojectOp op("p", GeographicCrs::Instance(),
                 state.range(0) == 0 ? ResampleKernel::kNearest
                                     : ResampleKernel::kBilinear);
  NullSink sink;
  op.BindOutput(&sink);
  for (auto _ : state) {
    PushBenchFrame(op.input(0), lattice, 0);
  }
  ReportPoints(state, w * h);
  state.SetLabel(state.range(0) == 0 ? "nearest" : "bilinear");
  state.counters["buffered_bytes"] = static_cast<double>(
      op.metrics().buffered_bytes_high_water);
}
BENCHMARK(BM_Reproject_GeosToLatLon)->Arg(0)->Arg(1);

void BM_Reproject_LatLonToUtm(benchmark::State& state) {
  // The Sec. 3.4 target CRS. Transverse Mercator series per point.
  const int64_t w = 256, h = 128;
  GridLattice lattice = BenchLattice(w, h);
  auto utm = ValueOrDie(ResolveCrs("utm:10n"), "utm");
  ReprojectOp op("p", utm, ResampleKernel::kBilinear);
  NullSink sink;
  op.BindOutput(&sink);
  for (auto _ : state) {
    PushBenchFrame(op.input(0), lattice, 0);
  }
  ReportPoints(state, w * h);
  state.counters["buffered_bytes"] = static_cast<double>(
      op.metrics().buffered_bytes_high_water);
}
BENCHMARK(BM_Reproject_LatLonToUtm);

void BM_Reproject_FrameSizeBuffering(benchmark::State& state) {
  // Fig. 2b cost: re-projection buffers the scan sector.
  const int64_t n = state.range(0);
  const int64_t w = 512;
  const int64_t h = n / w;
  GridLattice lattice = BenchLattice(w, h);
  auto merc = ValueOrDie(ResolveCrs("mercator"), "mercator");
  ReprojectOp op("p", merc, ResampleKernel::kNearest);
  NullSink sink;
  op.BindOutput(&sink);
  for (auto _ : state) {
    PushBenchFrame(op.input(0), lattice, 0);
  }
  ReportPoints(state, n);
  state.counters["frame_points"] = static_cast<double>(n);
  state.counters["buffered_bytes"] = static_cast<double>(
      op.metrics().buffered_bytes_high_water);
}
BENCHMARK(BM_Reproject_FrameSizeBuffering)
    ->Arg(64 << 10)
    ->Arg(256 << 10)
    ->Arg(1 << 20);

}  // namespace
}  // namespace geostreams
