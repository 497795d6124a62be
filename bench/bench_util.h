// Shared helpers for the GeoStreams experiment harness.
//
// Each bench binary regenerates one experiment from DESIGN.md's
// index (E1-E9, F1): it builds the workload the paper's claim is
// about, runs the operators, and reports both wall-clock rates and
// the structural quantities (buffered bytes, points routed) the
// paper's cost analysis predicts.

#ifndef GEOSTREAMS_BENCH_BENCH_UTIL_H_
#define GEOSTREAMS_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "core/stream_event.h"
#include "geo/geographic_crs.h"
#include "geo/lattice.h"
#include "server/stream_generator.h"
#include "stream/operator.h"

namespace geostreams {
namespace bench_util {

/// Aborts the benchmark binary on error (benchmarks have no Status
/// plumbing; a failed setup is a bug).
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
inline T ValueOrDie(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// w x h lat/lon lattice over a CONUS-like window.
inline GridLattice BenchLattice(int64_t w, int64_t h) {
  const double step_x = 59.0 / static_cast<double>(w);
  const double step_y = 26.0 / static_cast<double>(h);
  return GridLattice(GeographicCrs::Instance(), -125.0 + step_x / 2.0,
                     50.0 - step_y / 2.0, step_x, -step_y, w, h);
}

/// Pushes one frame of w x h deterministic points, one batch per row.
inline void PushBenchFrame(EventSink* sink, const GridLattice& lattice,
                           int64_t frame_id) {
  FrameInfo info;
  info.frame_id = frame_id;
  info.lattice = lattice;
  info.expected_points = lattice.num_cells();
  CheckOk(sink->Consume(StreamEvent::FrameBegin(info)), "FrameBegin");
  for (int64_t row = 0; row < lattice.height(); ++row) {
    auto batch = std::make_shared<PointBatch>();
    batch->frame_id = frame_id;
    batch->band_count = 1;
    batch->Reserve(static_cast<size_t>(lattice.width()));
    for (int64_t col = 0; col < lattice.width(); ++col) {
      const double v =
          0.001 * static_cast<double>(col) +
          0.0001 * static_cast<double>(row) +
          0.01 * static_cast<double>(frame_id % 10);
      batch->Append1(static_cast<int32_t>(col), static_cast<int32_t>(row),
                     frame_id, v);
    }
    CheckOk(sink->Consume(StreamEvent::Batch(std::move(batch))), "Batch");
  }
  CheckOk(sink->Consume(StreamEvent::FrameEnd(info)), "FrameEnd");
}

/// One frame's worth of events (FrameBegin, one batch per row,
/// FrameEnd) built once and replayed by const reference every
/// iteration. Operators never mutate input batches, so the replay
/// measures operator cost instead of harness-side batch construction
/// — which dominates once the operators themselves are vectorized.
/// With `tile` > 0 the points come in the tile store's emit order
/// instead: one batch per tile x tile block, blocks row-major, cells
/// row-major inside each block.
class PrebuiltFrame {
 public:
  PrebuiltFrame(const GridLattice& lattice, int64_t frame_id,
                int bands = 1, int64_t tile = 0) {
    FrameInfo info;
    info.frame_id = frame_id;
    info.lattice = lattice;
    info.expected_points = lattice.num_cells();
    events_.push_back(StreamEvent::FrameBegin(info));
    const int64_t block_w = tile > 0 ? tile : lattice.width();
    const int64_t block_h = tile > 0 ? tile : 1;
    for (int64_t r0 = 0; r0 < lattice.height(); r0 += block_h) {
      for (int64_t c0 = 0; c0 < lattice.width(); c0 += block_w) {
        auto batch = std::make_shared<PointBatch>();
        batch->frame_id = frame_id;
        batch->band_count = bands;
        batch->Reserve(static_cast<size_t>(block_w * block_h));
        const int64_t r1 = std::min(r0 + block_h, lattice.height());
        const int64_t c1 = std::min(c0 + block_w, lattice.width());
        for (int64_t row = r0; row < r1; ++row) {
          for (int64_t col = c0; col < c1; ++col) {
            double v[8];
            for (int b = 0; b < bands; ++b) {
              v[b] = 0.001 * static_cast<double>(col) +
                     0.0001 * static_cast<double>(row) +
                     0.01 * static_cast<double>((frame_id + b) % 10);
            }
            batch->Append(static_cast<int32_t>(col),
                          static_cast<int32_t>(row), frame_id, v);
          }
        }
        num_points_ += static_cast<int64_t>(batch->size());
        events_.push_back(StreamEvent::Batch(std::move(batch)));
      }
    }
    events_.push_back(StreamEvent::FrameEnd(info));
  }

  void Replay(EventSink* sink) const {
    for (const StreamEvent& event : events_) {
      CheckOk(sink->Consume(event), "replay");
    }
  }

  int64_t num_points() const { return num_points_; }

 private:
  std::vector<StreamEvent> events_;
  int64_t num_points_ = 0;
};

/// One schedule cycle of generator scans (12 scans: full disk, northern
/// hemisphere and CONUS sectors), recorded with the bands interleaved
/// as the generator emits them. Replay feeds the same events by const
/// reference (operators never mutate input batches). Frame ids repeat
/// once per cycle; `frames_per_scan` shows every query still delivers
/// every scan.
class RecordedScans {
 public:
  static constexpr int64_t kCycle = 12;

  explicit RecordedScans(StreamGenerator* gen) {
    Recorder band0(this, 0);
    Recorder band1(this, 1);
    const std::vector<EventSink*> sinks = {&band0, &band1};
    for (int64_t scan = 0; scan < kCycle; ++scan) {
      scans_.emplace_back();
      CheckOk(gen->GenerateScans(scan, 1, sinks), "record scan");
    }
  }

  /// Replays scan `scan % kCycle`; returns the points it carried.
  int64_t Replay(int64_t scan, const std::vector<EventSink*>& sinks) const {
    int64_t points = 0;
    for (const auto& [band, event] : scans_[scan % kCycle]) {
      CheckOk(sinks[band]->Consume(event), "replay scan");
      if (event.batch) points += static_cast<int64_t>(event.batch->size());
    }
    return points;
  }

 private:
  class Recorder : public EventSink {
   public:
    Recorder(RecordedScans* owner, size_t band) : owner_(owner), band_(band) {}
    Status Consume(const StreamEvent& event) override {
      owner_->scans_.back().emplace_back(band_, event);
      return Status::OK();
    }

   private:
    RecordedScans* owner_;
    size_t band_;
  };

  std::vector<std::vector<std::pair<size_t, StreamEvent>>> scans_;
};

/// Standard throughput counters.
inline void ReportPoints(benchmark::State& state, int64_t points_per_iter) {
  state.SetItemsProcessed(state.iterations() * points_per_iter);
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * points_per_iter),
      benchmark::Counter::kIsRate);
}

}  // namespace bench_util
}  // namespace geostreams

#endif  // GEOSTREAMS_BENCH_BENCH_UTIL_H_
