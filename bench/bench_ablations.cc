// Ablation experiments for the design choices DESIGN.md calls out.
//
//  A1 batch size      — events carry batches of points rather than
//                       single points; sweeping points-per-batch shows
//                       why (per-event overhead amortization).
//  A2 cascade depth   — the cascade tree's max subdivision depth
//                       trades stab cost (deeper = longer walks) for
//                       partial-list sizes (shallower = more exact
//                       tests at the leaves).
//  A3 load shedding   — throughput recovered and product error
//                       introduced by the three shedding policies at
//                       different keep fractions.
//  A4 frame pruning   — disable the restriction's frame-level extent
//                       check by straddling the region across the
//                       sector edge vs a fully disjoint region.
//  A5 scheduling      — round-robin vs longest-queue-first dispatch
//                       over skewed per-query backlogs (the intro's
//                       "operator scheduling" technique).

#include <memory>

#include "bench_util.h"
#include "common/math_util.h"
#include "mqo/cascade_tree.h"
#include "ops/aggregate_op.h"
#include "ops/restriction_ops.h"
#include "ops/shedding_op.h"
#include "stream/scheduler.h"

namespace geostreams {
namespace {

using bench_util::BenchLattice;
using bench_util::CheckOk;
using bench_util::PushBenchFrame;
using bench_util::ReportPoints;

// --- A1: batch size -------------------------------------------------------------

void BM_Ablation_BatchSize(benchmark::State& state) {
  const int64_t batch_points = state.range(0);
  const int64_t total = 256 << 10;
  GridLattice lattice = BenchLattice(512, total / 512);
  SpatialRestrictionOp op("r", AllRegion::Instance());
  NullSink sink;
  op.BindOutput(&sink);

  // Pre-build the frame's batches at the requested granularity.
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = lattice;
  std::vector<PointBatchPtr> batches;
  auto batch = std::make_shared<PointBatch>();
  batch->band_count = 1;
  for (int64_t row = 0; row < lattice.height(); ++row) {
    for (int64_t col = 0; col < lattice.width(); ++col) {
      batch->Append1(static_cast<int32_t>(col), static_cast<int32_t>(row),
                     0, 0.5);
      if (batch->size() >= static_cast<size_t>(batch_points)) {
        batches.push_back(std::move(batch));
        batch = std::make_shared<PointBatch>();
        batch->band_count = 1;
      }
    }
  }
  if (!batch->empty()) batches.push_back(std::move(batch));

  for (auto _ : state) {
    CheckOk(op.input(0)->Consume(StreamEvent::FrameBegin(info)), "begin");
    for (const PointBatchPtr& b : batches) {
      CheckOk(op.input(0)->Consume(StreamEvent::Batch(b)), "batch");
    }
    CheckOk(op.input(0)->Consume(StreamEvent::FrameEnd(info)), "end");
  }
  ReportPoints(state, total);
  state.counters["points_per_batch"] = static_cast<double>(batch_points);
}
BENCHMARK(BM_Ablation_BatchSize)
    ->Arg(1)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(64 << 10);

// --- A2: cascade tree depth -------------------------------------------------------

void BM_Ablation_CascadeDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const int queries = 1024;
  GridLattice lattice = BenchLattice(512, 256);
  const BoundingBox extent = lattice.Extent();
  CascadeTree tree(extent, depth);
  for (int i = 0; i < queries; ++i) {
    const double fx = HashToUnit(static_cast<uint64_t>(i) * 3 + 1);
    const double fy = HashToUnit(static_cast<uint64_t>(i) * 3 + 2);
    const double frac =
        0.005 + 0.05 * HashToUnit(static_cast<uint64_t>(i) * 3 + 3);
    const double w = extent.width() * frac;
    const double h = extent.height() * frac;
    const double x0 = extent.min_x + fx * (extent.width() - w);
    const double y0 = extent.min_y + fy * (extent.height() - h);
    CheckOk(tree.Insert(i, BoundingBox(x0, y0, x0 + w, y0 + h)), "insert");
  }
  std::vector<QueryId> hits;
  for (auto _ : state) {
    for (int64_t r = 0; r < lattice.height(); ++r) {
      const double y = lattice.CellY(r);
      for (int64_t c = 0; c < lattice.width(); ++c) {
        hits.clear();
        tree.Stab(lattice.CellX(c), y, &hits);
        benchmark::DoNotOptimize(hits.data());
      }
    }
  }
  ReportPoints(state, lattice.num_cells());
  state.counters["max_depth"] = depth;
  state.counters["nodes"] = static_cast<double>(tree.node_count());
}
// 7 is the server's rule for this 512 x 256 lattice
// (CascadeTree::DepthFor); 10 is the extent constructor's default.
BENCHMARK(BM_Ablation_CascadeDepth)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Arg(7)
    ->Arg(8)
    ->Arg(10)
    ->Arg(12);

// --- A3: load shedding -------------------------------------------------------------

void BM_Ablation_Shedding(benchmark::State& state) {
  const auto mode = static_cast<SheddingMode>(state.range(0));
  const double keep = static_cast<double>(state.range(1)) / 100.0;
  GridLattice lattice = BenchLattice(512, 256);
  LoadSheddingOp shed("shed", mode, keep);
  auto region = MakeBBoxRegion(-120.0, 28.0, -90.0, 46.0);
  AggregateOp agg("agg", AggregateFn::kAvg, {region}, 1);
  NullSink sink;
  shed.BindOutput(agg.input(0));
  agg.BindOutput(&sink);
  int64_t frame = 0;
  for (auto _ : state) {
    PushBenchFrame(shed.input(0), lattice, frame++);
  }
  ReportPoints(state, lattice.num_cells());
  state.SetLabel(SheddingModeName(mode));
  state.counters["keep_pct"] = static_cast<double>(state.range(1));
  // Product error: shed vs exact average over the SAME frames (the
  // timed loop's frame ids vary, so measure separately on frames
  // 0..7 — drop-frames needs several frames for a meaningful figure).
  double shed_sum = 0.0, exact_sum = 0.0;
  int shed_windows = 0, exact_windows = 0;
  {
    LoadSheddingOp shed2("s2", mode, keep);
    AggregateOp agg2("a2", AggregateFn::kAvg, {region}, 1);
    NullSink s2;
    shed2.BindOutput(agg2.input(0));
    agg2.BindOutput(&s2);
    AggregateOp exact_agg("e", AggregateFn::kAvg, {region}, 1);
    NullSink s3;
    exact_agg.BindOutput(&s3);
    for (int64_t f = 0; f < 8; ++f) {
      PushBenchFrame(shed2.input(0), lattice, f);
      PushBenchFrame(exact_agg.input(0), lattice, f);
    }
    for (const AggregateResult& r : agg2.results()) {
      if (r.count > 0) {
        shed_sum += r.value;
        ++shed_windows;
      }
    }
    for (const AggregateResult& r : exact_agg.results()) {
      exact_sum += r.value;
      ++exact_windows;
    }
  }
  const double exact =
      exact_windows ? exact_sum / exact_windows : 0.0;
  const double shed_avg = shed_windows ? shed_sum / shed_windows : exact;
  state.counters["avg_abs_error_pct"] =
      exact == 0.0 ? 0.0
                   : 100.0 * std::fabs(shed_avg - exact) / std::fabs(exact);
}
BENCHMARK(BM_Ablation_Shedding)
    ->ArgsProduct({{0, 1, 2}, {10, 25, 50, 100}});

// --- A4: frame-level pruning --------------------------------------------------------

void BM_Ablation_FramePruning(benchmark::State& state) {
  // Disjoint region: one bbox test per frame. Straddling region with
  // near-zero selectivity: per-point tests for the whole frame. The
  // gap is the value of the frame-extent check.
  GridLattice lattice = BenchLattice(1024, 256);
  const BoundingBox ext = lattice.Extent();
  RegionPtr region;
  if (state.range(0) == 0) {
    region = MakeBBoxRegion(ext.max_x + 1.0, ext.max_y + 1.0,
                            ext.max_x + 2.0, ext.max_y + 2.0);  // disjoint
  } else {
    // Overlaps one corner cell: prune impossible, selectivity ~0.
    region = MakeBBoxRegion(ext.min_x - 1.0, ext.min_y - 1.0,
                            ext.min_x + 1e-6, ext.min_y + 1e-6);
  }
  SpatialRestrictionOp op("r", region);
  NullSink sink;
  op.BindOutput(&sink);
  for (auto _ : state) {
    PushBenchFrame(op.input(0), lattice, 0);
  }
  ReportPoints(state, lattice.num_cells());
  state.SetLabel(state.range(0) == 0 ? "disjoint(pruned)"
                                     : "corner(per-point)");
}
BENCHMARK(BM_Ablation_FramePruning)->Arg(0)->Arg(1);


// --- A5: scheduling policy ---------------------------------------------------------

void BM_Ablation_SchedulingPolicy(benchmark::State& state) {
  const auto policy = static_cast<SchedulingPolicy>(state.range(0));
  // Eight queries with skewed load: query 0 gets 8x the traffic.
  constexpr int kQueries = 8;
  GridLattice lattice = BenchLattice(256, 64);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<NullSink>> sinks;
    QueryScheduler scheduler(policy, /*queue_capacity=*/1 << 16);
    std::vector<EventSink*> inputs;
    for (int q = 0; q < kQueries; ++q) {
      sinks.push_back(std::make_unique<NullSink>());
      inputs.push_back(scheduler.AddPipeline("q" + std::to_string(q),
                                             sinks.back().get()));
    }
    CheckOk(scheduler.Start(), "start");
    state.ResumeTiming();
    for (int round = 0; round < 8; ++round) {
      PushBenchFrame(inputs[0], lattice, round);
      if (round == 0) {
        for (int q = 1; q < kQueries; ++q) {
          PushBenchFrame(inputs[q], lattice, round);
        }
      }
    }
    CheckOk(scheduler.Stop(), "stop");
  }
  ReportPoints(state, 15 * lattice.num_cells());
  state.SetLabel(SchedulingPolicyName(policy));
}
BENCHMARK(BM_Ablation_SchedulingPolicy)->Arg(0)->Arg(1);

}  // namespace
}  // namespace geostreams
