// Record & replay: persist a live product stream, then run a new
// continuous query over the recorded history.
//
// The paper motivates stream processing against the prevailing
// file-based batch workflows; the tiled historical store bridges both
// worlds — the DSMS computes a product stream once as a continuous
// view, the store keeps every frame of it losslessly, and any later
// query treats the recording as just another GeoStream.
//
//   ./record_replay [store_dir]

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ops/aggregate_op.h"
#include "server/dsms_server.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"

using namespace geostreams;

namespace {

int Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "error (%s): %s\n", what, status.ToString().c_str());
  return 1;
}

constexpr char kProduct[] = "products.ndvi";

}  // namespace

int main(int argc, char** argv) {
  DsmsOptions options;
  options.store_dir = argc > 1 ? argv[1] : "./ndvi_store";

  // --- Phase 1: record. A live 2-band instrument feeds an NDVI
  // --- continuous view; the server tees every view frame into the
  // --- tile store.
  InstrumentConfig config;
  config.crs_name = "latlon";
  config.cells_per_sector = 96 * 64;
  config.bands = {SpectralBand::kNearInfrared, SpectralBand::kVisible};
  config.name_prefix = "goes";
  StreamGenerator generator(config, ScanSchedule::GoesRoutine());
  if (Status st = generator.Init(); !st.ok()) return Fail(st, "generator");

  {
    DsmsServer server(options);
    if (server.store() == nullptr) {
      std::fprintf(stderr, "cannot open the store in %s\n",
                   options.store_dir.c_str());
      return 1;
    }
    for (size_t band = 0; band < 2; ++band) {
      auto desc = generator.Descriptor(band);
      if (!desc.ok()) return Fail(desc.status(), "descriptor");
      if (Status st = server.RegisterStream(*desc); !st.ok()) {
        return Fail(st, "register stream");
      }
    }
    auto id =
        server.RegisterDerivedStream(kProduct, "ndvi(goes.band2, goes.band1)");
    if (!id.ok()) return Fail(id.status(), "register view");
    std::vector<EventSink*> sinks = {server.ingest("goes.band2"),
                                     server.ingest("goes.band1")};
    if (Status st = generator.GenerateScans(0, 6, sinks); !st.ok()) {
      return Fail(st, "generate");
    }
    std::printf("recorded %zu NDVI frames into %s\n",
                server.store()
                    ->FrameIds(kProduct, INT64_MIN, INT64_MAX)
                    .size(),
                options.store_dir.c_str());
  }

  // --- Phase 2: replay. Reopen the store and run a spatio-temporal
  // --- aggregate over the recorded product as if it were live.
  DsmsServer server(options);
  if (server.store() == nullptr) {
    std::fprintf(stderr, "cannot reopen the store in %s\n",
                 options.store_dir.c_str());
    return 1;
  }
  std::printf("store holds %zu frames\n",
              server.store()->FrameIds(kProduct, INT64_MIN, INT64_MAX).size());

  AggregateOp agg("historical_mean", AggregateFn::kAvg,
                  {MakeBBoxRegion(-125.0, 24.0, -66.0, 50.0)},
                  /*window=*/3, /*slide=*/1);
  NullSink sink;
  agg.BindOutput(&sink);
  if (Status st = server.store()->Scan(kProduct, StoreScan{}, agg.input(0));
      !st.ok()) {
    return Fail(st, "replay");
  }
  // Store scans leave stream lifecycle to the caller.
  if (Status st = agg.input(0)->Consume(StreamEvent::StreamEnd());
      !st.ok()) {
    return Fail(st, "end of replay");
  }
  for (const AggregateResult& r : agg.results()) {
    std::printf("window [%lld, %lld]: mean NDVI %.4f over %llu pixels\n",
                static_cast<long long>(r.window_start_frame),
                static_cast<long long>(r.window_end_frame), r.value,
                static_cast<unsigned long long>(r.count));
  }
  return agg.results().empty() ? 1 : 0;
}
