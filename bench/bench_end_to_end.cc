// Experiment E8 (Secs. 1 and 4, Fig. 3): end-to-end DSMS throughput.
//
// GOES-class instruments downlink 20-60 GB/day (~0.25-0.7 MB/s
// sustained). This bench drives the whole Fig. 3 pipeline — stream
// generator -> ingest -> shared restriction -> per-query plans
// (restriction / NDVI / reprojection) -> delivery — and reports the
// sustained ingest rate, which must exceed the GOES requirement by a
// wide margin on one core.
//
// The generator's scans are recorded once, before the timed loop, and
// replayed from memory (the PrebuiltFrame pattern of bench_util.h), so
// the rates time the server, not the synthetic-Earth generator.
//
// Series reported:
//   * ingest MB/s (counting 4 bytes/point, the instrument's sample
//     width) for 1 / 8 / 64 concurrent queries;
//   * per-scan latency;
//   * delivered frames per scan.

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "server/dsms_server.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"

namespace geostreams {
namespace {

using bench_util::CheckOk;
using bench_util::RecordedScans;
using bench_util::ValueOrDie;

constexpr int64_t kCells = 64 << 10;

InstrumentConfig MakeConfig() {
  InstrumentConfig config;
  config.crs_name = "latlon";
  config.cells_per_sector = kCells;
  config.bands = {SpectralBand::kNearInfrared, SpectralBand::kVisible};
  config.name_prefix = "goes";
  return config;
}

/// Queries clients would register: regional raw-band subscriptions,
/// NDVI products, and a re-projected product.
std::string QueryForClient(int i) {
  switch (i % 4) {
    case 0: {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "region(goes.band1, bbox(%d, %d, %d, %d))",
                    -125 + (i % 7) * 5, 25 + (i % 5) * 3,
                    -115 + (i % 7) * 5, 33 + (i % 5) * 3);
      return buf;
    }
    case 1:
      return "region(ndvi(goes.band2, goes.band1), "
             "bbox(-120, 28, -95, 45))";
    case 2:
      return "vrange(goes.band2, 0, 0.3, 1.0)";
    default:
      return "region(reproject(ndvi(goes.band2, goes.band1), "
             "\"mercator\"), bbox(-13000000, 3000000, -10000000, 5500000))";
  }
}

void BM_DsmsEndToEnd(benchmark::State& state) {
  const int num_queries = static_cast<int>(state.range(0));
  DsmsOptions options;
  options.shared_restriction = true;
  DsmsServer server(options);
  StreamGenerator gen(MakeConfig(), ScanSchedule::GoesRoutine());
  CheckOk(gen.Init(), "init");
  for (size_t b = 0; b < 2; ++b) {
    CheckOk(server.RegisterStream(ValueOrDie(gen.Descriptor(b), "desc")),
            "register stream");
  }
  uint64_t frames_delivered = 0;
  for (int i = 0; i < num_queries; ++i) {
    auto id = server.RegisterQuery(
        QueryForClient(i),
        [&frames_delivered](int64_t, const Raster&,
                            const std::vector<uint8_t>&) {
          ++frames_delivered;
        });
    CheckOk(id.status(), "register query");
  }
  const RecordedScans scans(&gen);
  std::vector<EventSink*> sinks = {server.ingest("goes.band2"),
                                   server.ingest("goes.band1")};
  int64_t scan = 0;
  int64_t replayed_points = 0;
  for (auto _ : state) {
    replayed_points += scans.Replay(scan++, sinks);
  }
  const double points = static_cast<double>(replayed_points);
  state.SetItemsProcessed(replayed_points);
  // The physical GOES sample is 4 bytes (f32 radiance).
  state.counters["ingest_MBps"] = benchmark::Counter(
      points * 4.0 / 1.0e6, benchmark::Counter::kIsRate);
  state.counters["goes_requirement_MBps"] = 0.7;
  state.counters["queries"] = num_queries;
  state.counters["frames_per_scan"] =
      static_cast<double>(frames_delivered) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DsmsEndToEnd)->Arg(1)->Arg(8)->Arg(64);

void BM_DsmsEndToEnd_PngDelivery(benchmark::State& state) {
  // Same pipeline with PNG encoding turned on for every frame.
  DsmsOptions options;
  options.encode_png = true;
  DsmsServer server(options);
  StreamGenerator gen(MakeConfig(), ScanSchedule::GoesRoutine());
  CheckOk(gen.Init(), "init");
  for (size_t b = 0; b < 2; ++b) {
    CheckOk(server.RegisterStream(ValueOrDie(gen.Descriptor(b), "desc")),
            "register stream");
  }
  uint64_t png_bytes = 0;
  auto id = server.RegisterQuery(
      "region(goes.band1, bbox(-120, 28, -100, 45))",
      [&png_bytes](int64_t, const Raster&, const std::vector<uint8_t>& png) {
        png_bytes += png.size();
      });
  CheckOk(id.status(), "register query");
  const RecordedScans scans(&gen);
  std::vector<EventSink*> sinks = {server.ingest("goes.band2"),
                                   server.ingest("goes.band1")};
  int64_t scan = 0;
  int64_t replayed_points = 0;
  for (auto _ : state) {
    replayed_points += scans.Replay(scan++, sinks);
  }
  state.SetItemsProcessed(replayed_points);
  state.counters["png_bytes_per_scan"] =
      static_cast<double>(png_bytes) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DsmsEndToEnd_PngDelivery);

void BM_DsmsEndToEnd_WorkerPool(benchmark::State& state) {
  // Worker-pool scaling: 16 per-query plans (restriction / NDVI /
  // vrange / reproject mix) executed by a pool of 1/2/4/8 workers.
  // Shared restriction is off so each query's full plan is real work
  // for its pipeline, and the ingest thread only enqueues. On a
  // multi-core host the series demonstrates near-linear scaling until
  // workers exceed cores; `workers=0` rows in BM_DsmsEndToEnd are the
  // caller-runs baseline (plans run on the ingest thread).
  const size_t workers = static_cast<size_t>(state.range(0));
  constexpr int kQueries = 16;
  DsmsOptions options;
  options.shared_restriction = false;
  options.workers = workers;
  options.worker_queue_capacity = 1 << 16;  // measure throughput, not shedding
  DsmsServer server(options);
  StreamGenerator gen(MakeConfig(), ScanSchedule::GoesRoutine());
  CheckOk(gen.Init(), "init");
  for (size_t b = 0; b < 2; ++b) {
    CheckOk(server.RegisterStream(ValueOrDie(gen.Descriptor(b), "desc")),
            "register stream");
  }
  // Callbacks fire concurrently across queries on pool workers.
  std::atomic<uint64_t> frames_delivered{0};
  for (int i = 0; i < kQueries; ++i) {
    auto id = server.RegisterQuery(
        QueryForClient(i),
        [&frames_delivered](int64_t, const Raster&,
                            const std::vector<uint8_t>&) {
          frames_delivered.fetch_add(1, std::memory_order_relaxed);
        });
    CheckOk(id.status(), "register query");
  }
  const RecordedScans scans(&gen);
  std::vector<EventSink*> sinks = {server.ingest("goes.band2"),
                                   server.ingest("goes.band1")};
  int64_t scan = 0;
  int64_t replayed_points = 0;
  for (auto _ : state) {
    replayed_points += scans.Replay(scan++, sinks);
    // Each iteration measures fully processed scans: enqueue + drain.
    CheckOk(server.Flush(), "flush");
  }
  const double points = static_cast<double>(replayed_points);
  state.SetItemsProcessed(replayed_points);
  state.counters["ingest_MBps"] = benchmark::Counter(
      points * 4.0 / 1.0e6, benchmark::Counter::kIsRate);
  state.counters["workers"] = static_cast<double>(server.num_workers());
  state.counters["frames_per_scan"] =
      static_cast<double>(frames_delivered.load()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DsmsEndToEnd_WorkerPool)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace geostreams
