// Experiment E7 (Sec. 4): the dynamic cascade tree serves many
// registered queries as one shared spatial-restriction operator.
//
// Workload: N concurrent rectangular regions of interest (mixed
// sizes), a row-by-row stream stabbing every point against the index.
// Baselines: naive per-query filter bank (O(N) per point) and a
// uniform grid index.
//
// Series reported per (structure, N in 1..4096):
//   * stab throughput (points/s) — the cascade tree should stay flat
//     while the filter bank degrades linearly in N;
//   * registration (insert+remove) cost;
//   * structure size diagnostics.

#include <memory>

#include "bench_util.h"
#include "common/math_util.h"
#include "mqo/cascade_tree.h"
#include "mqo/filter_bank.h"
#include "mqo/grid_index.h"
#include "mqo/shared_restriction.h"

namespace geostreams {
namespace {

using bench_util::BenchLattice;
using bench_util::CheckOk;
using bench_util::PushBenchFrame;
using bench_util::ReportPoints;

const int64_t kWidth = 512, kHeight = 256;

/// Mixed workload: 70% city-sized boxes, 25% state-sized, 5% huge.
BoundingBox RandomRegion(const BoundingBox& extent, uint64_t seed, int i) {
  const double fx = HashToUnit(seed + static_cast<uint64_t>(i) * 4 + 0);
  const double fy = HashToUnit(seed + static_cast<uint64_t>(i) * 4 + 1);
  const double fs = HashToUnit(seed + static_cast<uint64_t>(i) * 4 + 2);
  double frac;
  const double cls = HashToUnit(seed + static_cast<uint64_t>(i) * 4 + 3);
  if (cls < 0.70) {
    frac = 0.005 + 0.01 * fs;
  } else if (cls < 0.95) {
    frac = 0.05 + 0.1 * fs;
  } else {
    frac = 0.3 + 0.4 * fs;
  }
  const double w = extent.width() * frac;
  const double h = extent.height() * frac;
  const double x0 = extent.min_x + fx * (extent.width() - w);
  const double y0 = extent.min_y + fy * (extent.height() - h);
  return BoundingBox(x0, y0, x0 + w, y0 + h);
}

/// The cascade tree is built as the server builds it: at the
/// lattice's depth (CascadeTree::DepthFor, 7 for 512 x 256).
std::unique_ptr<RegionIndex> MakeIndex(int kind, const GridLattice& lattice) {
  switch (kind) {
    case 0:
      return std::make_unique<FilterBank>();
    case 1:
      return std::make_unique<GridIndex>(lattice.Extent(), 64, 64);
    default:
      return std::make_unique<CascadeTree>(lattice);
  }
}

const char* IndexName(int kind) {
  return kind == 0 ? "filter-bank" : kind == 1 ? "grid-index" : "cascade-tree";
}

void RunStab(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  GridLattice lattice = BenchLattice(kWidth, kHeight);
  const BoundingBox extent = lattice.Extent();
  auto index = MakeIndex(kind, lattice);
  for (int i = 0; i < n; ++i) {
    CheckOk(index->Insert(i, RandomRegion(extent, 12345, i)), "insert");
  }
  std::vector<QueryId> hits;
  uint64_t total_hits = 0;
  for (auto _ : state) {
    // Stab every lattice point once (one frame's worth of routing).
    for (int64_t r = 0; r < kHeight; ++r) {
      const double y = lattice.CellY(r);
      for (int64_t c = 0; c < kWidth; ++c) {
        hits.clear();
        index->Stab(lattice.CellX(c), y, &hits);
        total_hits += hits.size();
      }
    }
  }
  ReportPoints(state, kWidth * kHeight);
  state.SetLabel(IndexName(kind));
  state.counters["queries"] = n;
  state.counters["avg_hits_per_point"] =
      static_cast<double>(total_hits) /
      static_cast<double>(static_cast<int64_t>(state.iterations()) * kWidth *
                          kHeight);
}

void BM_Stab(benchmark::State& state) { RunStab(state); }
BENCHMARK(BM_Stab)
    ->ArgsProduct({{0, 1, 2}, {1, 16, 64, 256, 1024, 4096}});

void BM_RegisterUnregister(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  GridLattice lattice = BenchLattice(kWidth, kHeight);
  const BoundingBox extent = lattice.Extent();
  auto index = MakeIndex(kind, lattice);
  // Pre-populate with n resident queries.
  for (int i = 0; i < n; ++i) {
    CheckOk(index->Insert(i, RandomRegion(extent, 999, i)), "insert");
  }
  int next = n;
  for (auto _ : state) {
    // Dynamic churn: one client joins, one leaves.
    CheckOk(index->Insert(next, RandomRegion(extent, 999, next)), "insert");
    CheckOk(index->Remove(next - n), "remove");
    ++next;
  }
  state.SetLabel(IndexName(kind));
  state.counters["resident_queries"] = n;
}
BENCHMARK(BM_RegisterUnregister)
    ->ArgsProduct({{0, 1, 2}, {64, 1024, 4096}});

void BM_SharedRestriction_EndToEnd(benchmark::State& state) {
  // Full shared-restriction operator: stab + exact test + per-query
  // output batch assembly, N subscribers on one stream.
  const int kind = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  GridLattice lattice = BenchLattice(kWidth, kHeight);
  const BoundingBox extent = lattice.Extent();
  SharedRestrictionOp op(MakeIndex(kind, lattice));
  std::vector<std::unique_ptr<NullSink>> sinks;
  for (int i = 0; i < n; ++i) {
    sinks.push_back(std::make_unique<NullSink>());
    auto region = std::make_shared<BBoxRegion>(
        RandomRegion(extent, 777, i));
    CheckOk(op.RegisterQuery(i, region, sinks.back().get()), "register");
  }
  for (auto _ : state) {
    PushBenchFrame(&op, lattice, 0);
  }
  ReportPoints(state, kWidth * kHeight);
  state.SetLabel(IndexName(kind));
  state.counters["queries"] = n;
}
BENCHMARK(BM_SharedRestriction_EndToEnd)
    ->ArgsProduct({{0, 2}, {16, 256, 1024}});

}  // namespace
}  // namespace geostreams
