// geoquery: command-line continuous-query runner.
//
// Registers an ad-hoc query against a simulated GOES-East instrument
// (5 spectral bands: goes.band1..goes.band5), streams scans through
// the DSMS, and writes every delivered frame as PNG. The closest thing
// to the paper's web front end in a terminal.
//
//   ./geoquery "<query>" [scans] [output_dir]
//
// Examples:
//   ./geoquery "ndvi(goes.band2, goes.band1)" 4 /tmp
//   ./geoquery "region(reproject(goes.band4, \"lcc\"),
//               bbox(-2000000, -1500000, 2000000, 1500000))" 2 /tmp
//   ./geoquery "aggregate(goes.band4, \"avg\", 4, 1,
//               bbox(-124, 32, -114, 42))" 8 /tmp

#include <cstdio>
#include <cstdlib>
#include <string>

#include "raster/png_encoder.h"
#include "server/dsms_server.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"

using namespace geostreams;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: geoquery \"<query>\" [scans] [output_dir]\n"
               "streams: goes.band1 (vis), goes.band2 (nir), goes.band3 "
               "(wv), goes.band4 (ir), goes.band5 (split window)\n");
  return 2;
}

int Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "error (%s): %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string query_text = argv[1];
  const int scans = argc > 2 ? std::atoi(argv[2]) : 3;
  const std::string out_dir = argc > 3 ? argv[3] : ".";
  if (scans < 1) return Usage();

  InstrumentConfig config;
  config.crs_name = "latlon";
  config.cells_per_sector = 128 * 96;
  config.bands = {SpectralBand::kVisible, SpectralBand::kNearInfrared,
                  SpectralBand::kWaterVapor, SpectralBand::kInfrared,
                  SpectralBand::kSplitWindow};
  config.name_prefix = "goes";
  StreamGenerator generator(config, ScanSchedule::GoesRoutine());
  if (Status st = generator.Init(); !st.ok()) return Fail(st, "generator");

  DsmsServer server;
  for (size_t band = 0; band < config.bands.size(); ++band) {
    auto desc = generator.Descriptor(band);
    if (!desc.ok()) return Fail(desc.status(), "descriptor");
    if (Status st = server.RegisterStream(*desc); !st.ok()) {
      return Fail(st, "register stream");
    }
  }

  int delivered = 0;
  auto id = server.RegisterQuery(
      query_text,
      [&](int64_t frame_id, const Raster& raster,
          const std::vector<uint8_t>&) {
        const std::string path =
            out_dir + "/frame" + std::to_string(frame_id) + ".png";
        Status st = WriteRasterPng(raster, path);
        if (st.ok()) {
          double lo = 0.0, hi = 0.0;
          raster.MinMax(0, &lo, &hi);
          std::printf(
              "scan %-4lld  %4lld x %-4lld x%d  values [%.4g, %.4g]  -> %s\n",
              static_cast<long long>(frame_id),
              static_cast<long long>(raster.width()),
              static_cast<long long>(raster.height()), raster.bands(), lo,
              hi, path.c_str());
          ++delivered;
        } else {
          std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
        }
      });
  if (!id.ok()) return Fail(id.status(), "register query");

  auto plan = server.Explain(*id);
  if (plan.ok()) std::printf("plan:\n%s\n", plan->c_str());

  std::vector<EventSink*> sinks;
  sinks.reserve(config.bands.size());
  for (int b = 1; b <= 5; ++b) {
    sinks.push_back(server.ingest("goes.band" + std::to_string(b)));
  }
  if (Status st = generator.GenerateScans(0, scans, sinks); !st.ok()) {
    return Fail(st, "generate");
  }
  if (Status st = server.EndAllStreams(); !st.ok()) return Fail(st, "end");

  std::printf("%d frame(s) delivered\n", delivered);
  return delivered > 0 ? 0 : 1;
}
