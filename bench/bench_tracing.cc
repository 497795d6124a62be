// Observability overhead: the disabled-tracing path must be free.
//
// `trace_sample_every=0` leaves every event untraced; operators then
// pay one thread-local load and a branch per Consume. The series
//
//   BM_Tracing_EndToEnd/0   (tracing compiled in, sampling off)
//   BM_Tracing_EndToEnd/64  (1-in-64 batches traced)
//   BM_Tracing_EndToEnd/1   (every batch traced, the worst case)
//
// runs the same ingest -> restriction/NDVI -> delivery pipeline as
// bench_end_to_end.cc; the /0 row must sit within run-to-run noise of
// pre-observability baselines, and the spread /0 -> /1 bounds the
// full cost of span timing + histogram observation. The micro rows
// price the primitives themselves.

#include <atomic>
#include <string>

#include "bench_util.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
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

void BM_Tracing_EndToEnd(benchmark::State& state) {
  DsmsOptions options;
  options.trace_sample_every = static_cast<size_t>(state.range(0));
  DsmsServer server(options);
  StreamGenerator gen(MakeConfig(), ScanSchedule::GoesRoutine());
  CheckOk(gen.Init(), "init");
  for (size_t b = 0; b < 2; ++b) {
    CheckOk(server.RegisterStream(ValueOrDie(gen.Descriptor(b), "desc")),
            "register stream");
  }
  uint64_t frames = 0;
  for (const char* q :
       {"region(goes.band1, bbox(-120, 28, -95, 45))",
        "ndvi(goes.band2, goes.band1)"}) {
    auto id = server.RegisterQuery(
        q, [&frames](int64_t, const Raster&, const std::vector<uint8_t>&) {
          ++frames;
        });
    CheckOk(id.status(), "register query");
  }
  // Scans are recorded before the timed loop, so the rows compare
  // tracing cost rather than generator time.
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
  state.counters["ingest_MBps"] = benchmark::Counter(
      points * 4.0 / 1.0e6, benchmark::Counter::kIsRate);
  state.counters["sample_every"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Tracing_EndToEnd)->Arg(0)->Arg(64)->Arg(1);

void BM_Tracing_UntracedBranch(benchmark::State& state) {
  // The per-operator cost with no active trace: one thread-local load
  // plus a null check. This is what every operator pays per event
  // when sampling is off.
  uint64_t sink = 0;
  for (auto _ : state) {
    if (ActiveTrace() != nullptr) ++sink;
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_Tracing_UntracedBranch);

void BM_Tracing_SpanTimer(benchmark::State& state) {
  // One traced batch's fixed cost: context construction, one span
  // (two clock reads + a vector push), one histogram observe.
  MetricsRegistry registry;
  MetricHistogram* hist = registry.GetHistogram(
      "geostreams_bench_span_us", "bench");
  const std::string name = "op1.bench";
  uint64_t id = 0;
  for (auto _ : state) {
    TraceContext trace(++id, "bench");
    SpanTimer timer(&trace, name, hist);
    benchmark::DoNotOptimize(trace);
  }
  state.counters["observed"] = static_cast<double>(hist->Count());
}
BENCHMARK(BM_Tracing_SpanTimer);

void BM_Tracing_HistogramObserve(benchmark::State& state) {
  MetricHistogram hist(MetricHistogram::LatencyBucketsUs());
  uint64_t v = 0;
  for (auto _ : state) {
    hist.Observe(v++ % 5000);
  }
  benchmark::DoNotOptimize(hist.Count());
}
BENCHMARK(BM_Tracing_HistogramObserve);

void BM_Tracing_HistogramObserveExemplar(benchmark::State& state) {
  // The exemplar-linked observe: the plain observe plus one try-lock
  // protected bucket-slot overwrite (ordinal + pipeline string). The
  // delta over BM_Tracing_HistogramObserve prices what every traced
  // stage observation adds on top of the base histogram.
  MetricHistogram hist(MetricHistogram::LatencyBucketsUs());
  const std::string pipeline = "q1";
  uint64_t v = 0;
  for (auto _ : state) {
    hist.ObserveWithExemplar(v % 5000, v, pipeline);
    ++v;
  }
  benchmark::DoNotOptimize(hist.Count());
}
BENCHMARK(BM_Tracing_HistogramObserveExemplar);

void BM_Tracing_EventLogAppend(benchmark::State& state) {
  // One flight-recorder append: a mutex, a deque push (with eviction
  // once the ring is full), and the detail string copy. Flight events
  // are rare (quarantines, disconnects, retention passes), so this is
  // never on the per-event hot path — the number here bounds the cost
  // of being generous about what gets recorded.
  EventLog log(256);
  const std::string detail = "source=goes.band1 idle_ms=1500 timeout_ms=1000";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        log.Append(EventSeverity::kWarn, "bench", "tick", detail));
  }
  state.counters["total"] = static_cast<double>(log.total());
}
BENCHMARK(BM_Tracing_EventLogAppend);

}  // namespace
}  // namespace geostreams
