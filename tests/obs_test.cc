// Observability tests: metric primitives (counter atomicity, histogram
// bucket boundaries, percentile interpolation), registry semantics
// (get-or-create, kind conflicts, Prometheus rendering, collectors),
// trace mechanics (span nesting, ring eviction), and loopback
// end-to-end runs exercising METRICS and TRACE over the TCP control
// plane against a live traced query.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"

#include "net/geostreams_client.h"
#include "net/ingest_session.h"
#include "net/net_server.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "server/dsms_server.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::LatLonLattice;
using testing_util::PushFrame;

// ---------------------------------------------------------------------------
// Counter / Gauge

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(CounterTest, IncrementByDeltaAndSet) {
  Counter counter;
  counter.Increment(41);
  counter.Increment();
  EXPECT_EQ(counter.Value(), 42u);
  counter.Set(7);  // collector mirror path
  EXPECT_EQ(counter.Value(), 7u);
  Gauge gauge;
  gauge.Set(123);
  EXPECT_EQ(gauge.Value(), 123u);
}

// ---------------------------------------------------------------------------
// MetricHistogram

TEST(MetricHistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  // Prometheus `le` semantics: bucket i counts samples <= bounds[i],
  // the extra final bucket is +Inf.
  MetricHistogram hist({10, 100, 1000});
  for (uint64_t v : {0u, 10u, 11u, 100u, 1000u, 1001u}) hist.Observe(v);
  const MetricHistogram::Snapshot snap = hist.TakeSnapshot();
  ASSERT_EQ(snap.bounds, (std::vector<uint64_t>{10, 100, 1000}));
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);  // 0, 10
  EXPECT_EQ(snap.counts[1], 2u);  // 11, 100
  EXPECT_EQ(snap.counts[2], 1u);  // 1000
  EXPECT_EQ(snap.counts[3], 1u);  // 1001 -> +Inf
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum, 0u + 10 + 11 + 100 + 1000 + 1001);
}

TEST(MetricHistogramTest, CannedBucketLayoutsAreStrictlyAscending) {
  for (const std::vector<uint64_t>& bounds :
       {MetricHistogram::LatencyBucketsUs(),
        MetricHistogram::DepthBuckets(),
        MetricHistogram::ExponentialBuckets(1, 4.0, 13)}) {
    ASSERT_FALSE(bounds.empty());
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]) << "at index " << i;
    }
  }
  EXPECT_EQ(MetricHistogram::DepthBuckets().front(), 1u);
  EXPECT_EQ(MetricHistogram::DepthBuckets().back(), 65536u);
}

TEST(MetricHistogramTest, PercentileInterpolatesWithinBucket) {
  MetricHistogram hist({10, 20});
  for (int i = 0; i < 10; ++i) hist.Observe(5);   // bucket [0, 10]
  for (int i = 0; i < 10; ++i) hist.Observe(15);  // bucket (10, 20]
  // Rank 10 of 20 lands exactly at the first bucket's upper bound.
  EXPECT_DOUBLE_EQ(hist.Percentile(50), 10.0);
  // Rank 15 is halfway through the second bucket: 10 + 0.5 * 10.
  EXPECT_DOUBLE_EQ(hist.Percentile(75), 15.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(100), 20.0);
  // Percentile 0 answers with the first sample's bucket, not 0.
  EXPECT_GT(hist.Percentile(0), 0.0);
}

TEST(MetricHistogramTest, EmptyAndOverflowPercentiles) {
  MetricHistogram hist({10, 20});
  EXPECT_DOUBLE_EQ(hist.Percentile(99), 0.0);  // empty
  hist.Observe(10'000);                        // +Inf bucket
  // The best honest answer for an overflow sample is the largest
  // finite bound.
  EXPECT_DOUBLE_EQ(hist.Percentile(99), 20.0);
}

TEST(MetricHistogramTest, ConcurrentObservesSumExactly) {
  MetricHistogram hist(MetricHistogram::LatencyBucketsUs());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Observe(static_cast<uint64_t>(t * 1000 + i % 17));
      }
    });
  }
  for (auto& t : threads) t.join();
  const MetricHistogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(MetricHistogramTest, MergeFromRequiresMatchingBounds) {
  MetricHistogram a({10, 20});
  MetricHistogram b({10, 20});
  MetricHistogram c({10, 30});
  a.Observe(5);
  b.Observe(15);
  b.Observe(25);
  c.Observe(25);
  a.MergeFrom(b);
  EXPECT_EQ(a.Count(), 3u);
  a.MergeFrom(c);  // mismatched shape: ignored, not corrupted
  EXPECT_EQ(a.Count(), 3u);
  const MetricHistogram::Snapshot snap = a.TakeSnapshot();
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);  // 25 -> +Inf for bounds {10,20}
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, GetOrCreateReturnsStableSeries) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("geostreams_test_total", "help");
  Counter* b = reg.GetCounter("geostreams_test_total", "other help");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);  // same (name, labels) -> same instance
  Counter* labeled =
      reg.GetCounter("geostreams_test_total", "help", {{"source", "x"}});
  ASSERT_NE(labeled, nullptr);
  EXPECT_NE(labeled, a);
  EXPECT_EQ(reg.NumSeries(), 2u);
}

TEST(MetricsRegistryTest, KindConflictReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.GetCounter("geostreams_thing", "help"), nullptr);
  EXPECT_EQ(reg.GetGauge("geostreams_thing", "help"), nullptr);
  EXPECT_EQ(reg.GetHistogram("geostreams_thing", "help"), nullptr);
  // The counter itself stays usable.
  EXPECT_NE(reg.GetCounter("geostreams_thing", "help"), nullptr);
}

TEST(MetricsRegistryTest, RendersPrometheusExposition) {
  MetricsRegistry reg;
  reg.GetCounter("geostreams_events_total", "Events seen",
                 {{"source", "goes.band1"}})
      ->Increment(3);
  reg.GetGauge("geostreams_depth", "Queue depth")->Set(7);
  MetricHistogram* hist =
      reg.GetHistogram("geostreams_wait_us", "Wait", {}, {10, 100});
  hist->Observe(5);
  hist->Observe(50);
  hist->Observe(5000);

  const std::string out = reg.RenderPrometheus();
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  EXPECT_NE(out.find("# HELP geostreams_events_total Events seen\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("# TYPE geostreams_events_total counter\n"),
            std::string::npos);
  EXPECT_NE(
      out.find("geostreams_events_total{source=\"goes.band1\"} 3\n"),
      std::string::npos)
      << out;
  EXPECT_NE(out.find("# TYPE geostreams_depth gauge\n"), std::string::npos);
  EXPECT_NE(out.find("geostreams_depth 7\n"), std::string::npos);
  // Histogram series: cumulative buckets, +Inf, _sum, _count.
  EXPECT_NE(out.find("# TYPE geostreams_wait_us histogram\n"),
            std::string::npos);
  EXPECT_NE(out.find("geostreams_wait_us_bucket{le=\"10\"} 1\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("geostreams_wait_us_bucket{le=\"100\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("geostreams_wait_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("geostreams_wait_us_sum 5055\n"), std::string::npos);
  EXPECT_NE(out.find("geostreams_wait_us_count 3\n"), std::string::npos);
}

TEST(MetricsRegistryTest, EscapesLabelValues) {
  MetricsRegistry reg;
  reg.GetCounter("geostreams_esc_total", "h",
                 {{"name", "a\"b\\c\nd"}})
      ->Increment();
  const std::string out = reg.RenderPrometheus();
  EXPECT_NE(out.find("geostreams_esc_total{name=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos)
      << out;
}

TEST(MetricsRegistryTest, CollectorsRefreshMirrorsAtScrapeTime) {
  MetricsRegistry reg;
  Counter* mirror = reg.GetCounter("geostreams_mirror_total", "h");
  uint64_t source_of_truth = 0;
  MetricsRegistry::CollectorHandle collector =
      reg.AddCollector([&] { mirror->Set(source_of_truth); });
  source_of_truth = 42;
  const std::string out = reg.RenderPrometheus();
  EXPECT_NE(out.find("geostreams_mirror_total 42\n"), std::string::npos)
      << out;
  // Dropping the handle unregisters the collector: the mirror keeps
  // its last value and is never refreshed again.
  collector.Reset();
  source_of_truth = 7;
  EXPECT_NE(reg.RenderPrometheus().find("geostreams_mirror_total 42\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing primitives

TEST(TraceTest, SpanTimerNestingComputesExclusiveTime) {
  TraceContext trace(7, "goes.band1");
  const std::string outer_name = "op1.region";
  const std::string inner_name = "q1.delivery";
  {
    SpanTimer outer(&trace, outer_name, nullptr);
    SpanTimer inner(&trace, inner_name, nullptr);
  }
  const TraceRecord record = trace.Finish();
  EXPECT_EQ(record.trace_id, 7u);
  EXPECT_EQ(record.origin, "goes.band1");
  ASSERT_EQ(record.spans.size(), 2u);
  // Destructors fire innermost-first; Finish flips to delivery order.
  EXPECT_EQ(record.spans[0].name, outer_name);
  EXPECT_EQ(record.spans[1].name, inner_name);
  // The outer span includes the inner subtree.
  EXPECT_GE(record.spans[0].inclusive_us, record.spans[1].inclusive_us);
  EXPECT_LE(record.spans[0].exclusive_us, record.spans[0].inclusive_us);
  const std::string line = record.ToString();
  EXPECT_NE(line.find("trace=7"), std::string::npos) << line;
  EXPECT_NE(line.find("op1.region="), std::string::npos) << line;
}

TEST(TraceTest, SpanTimerObservesExclusiveIntoHistogram) {
  MetricHistogram hist(MetricHistogram::LatencyBucketsUs());
  TraceContext trace(1, "src");
  const std::string name = "op";
  { SpanTimer timer(&trace, name, &hist); }
  EXPECT_EQ(hist.Count(), 1u);
}

TEST(TraceTest, QueueWaitStamps) {
  TraceContext trace(1, "src");
  EXPECT_EQ(trace.MarkDequeued(), 0u);  // never enqueued
  trace.MarkEnqueued();
  const uint64_t wait = trace.MarkDequeued();
  EXPECT_EQ(trace.queue_wait_us(), wait);
  const TraceRecord record = trace.Finish();
  EXPECT_EQ(record.queue_wait_us, wait);
}

TEST(TraceTest, ForkCopiesIdentityNotSpans) {
  TraceContext trace(9, "src");
  const std::string name = "op";
  { SpanTimer timer(&trace, name, nullptr); }
  auto fork = trace.Fork("q1");
  ASSERT_NE(fork, nullptr);
  EXPECT_EQ(fork->trace_id(), 9u);
  EXPECT_EQ(fork->origin(), "src");
  EXPECT_EQ(fork->pipeline(), "q1");
  EXPECT_TRUE(fork->Finish().spans.empty());
  EXPECT_EQ(trace.Finish().spans.size(), 1u);
}

TEST(TraceTest, WallClockAnchorStampedAndForkedAndPrinted) {
  // Steady-clock stamps order events within the process only; the
  // wall anchor lets TRACE output be lined up with external logs.
  const uint64_t before = TraceWallNowUs();
  TraceContext trace(11, "src");
  const uint64_t after = TraceWallNowUs();
  const TraceRecord record = trace.Finish();
  EXPECT_GE(record.born_wall_us, before);
  EXPECT_LE(record.born_wall_us, after);
  // Forks inherit the anchor (same birth instant, different pipeline).
  auto fork = trace.Fork("q1");
  EXPECT_EQ(fork->Finish().born_wall_us, record.born_wall_us);
  const std::string line = record.ToString();
  EXPECT_NE(line.find("wall_us=" + std::to_string(record.born_wall_us)),
            std::string::npos)
      << line;
}

TEST(TraceTest, ScopedActivationNestsAndRestores) {
  EXPECT_EQ(ActiveTrace(), nullptr);
  TraceContext outer(1, "a"), inner(2, "b");
  {
    ScopedTraceActivation activate_outer(&outer);
    EXPECT_EQ(ActiveTrace(), &outer);
    {
      ScopedTraceActivation activate_inner(&inner);
      EXPECT_EQ(ActiveTrace(), &inner);
    }
    EXPECT_EQ(ActiveTrace(), &outer);
  }
  EXPECT_EQ(ActiveTrace(), nullptr);
}

TEST(TraceRingTest, OrdinalsSurviveEviction) {
  TraceRing ring(3);
  for (uint64_t i = 0; i < 10; ++i) {
    TraceRecord record;
    record.trace_id = i;
    ring.Push(std::move(record));
  }
  const TraceRing::Snapshot snap = ring.TakeSnapshot();
  EXPECT_EQ(snap.total, 10u);
  ASSERT_EQ(snap.records.size(), 3u);
  // Oldest kept first; ordinals keep climbing past eviction.
  EXPECT_EQ(snap.records[0].ordinal, 7u);
  EXPECT_EQ(snap.records[1].ordinal, 8u);
  EXPECT_EQ(snap.records[2].ordinal, 9u);
  EXPECT_EQ(snap.records[0].trace_id, 7u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(TraceRing(0).capacity(), 1u);  // clamped
}

// ---------------------------------------------------------------------------
// Ingest session counters feed the registry

class NullSink : public EventSink {
 public:
  Status Consume(const StreamEvent&) override { return Status::OK(); }
};

TEST(ObsIngestTest, SessionCountsAcksReplaysAndShedding) {
  MetricsRegistry reg;
  MemoryTracker pressure;
  NullSink sink;
  IngestSessionOptions options;
  options.metrics = &reg;
  options.memory = &pressure;
  options.admission_max_bytes = 1024;
  options.overload_policy = IngestSessionOptions::OverloadPolicy::kShed;
  IngestSession session("sat.band1", &sink, options);

  auto ingest = [&](uint64_t seq) {
    IngestMessage message;
    message.source = "sat.band1";
    message.seq = seq;
    auto batch = std::make_shared<PointBatch>();
    batch->frame_id = 0;
    batch->band_count = 1;
    batch->Append1(0, 0, 0, 1.0);
    message.event = StreamEvent::Batch(std::move(batch));
    return session.Handle(message);
  };

  ingest(1);        // delivered + acked
  ingest(1);        // duplicate -> replay re-ack
  ingest(5);        // gap -> nack
  pressure.Update("ballast", 1u << 20);
  ingest(2);        // kShed: acked but dropped
  pressure.Update("ballast", 0);

  reg.RenderPrometheus();  // the session's collector fills the series
  auto value = [&](const char* name) {
    return reg.GetCounter(name, "", {{"source", "sat.band1"}})->Value();
  };
  EXPECT_EQ(value("geostreams_ingest_delivered_total"), 1u);
  EXPECT_EQ(value("geostreams_ingest_replays_total"), 1u);
  EXPECT_EQ(value("geostreams_ingest_gaps_total"), 1u);
  EXPECT_EQ(value("geostreams_ingest_nacks_total"), 1u);
  EXPECT_EQ(value("geostreams_ingest_shed_events_total"), 1u);
  EXPECT_EQ(value("geostreams_ingest_shed_points_total"), 1u);
  EXPECT_GT(value("geostreams_ingest_shed_bytes_total"), 0u);
  EXPECT_EQ(value("geostreams_ingest_acks_total"), 3u);
  // The shed figures surface in ISTATS too.
  const std::string line = session.StatsLine();
  EXPECT_NE(line.find("shed_points=1"), std::string::npos) << line;
  EXPECT_NE(line.find("overload_shed=1"), std::string::npos) << line;
}

// ---------------------------------------------------------------------------
// End-to-end over TCP: METRICS and TRACE against a live traced query

/// 2-band GOES-like instrument behind DsmsServer + NetServer on an
/// ephemeral port (the net_test.cc fixture, trimmed).
class ObsFixture {
 public:
  explicit ObsFixture(DsmsOptions options = {})
      : server_(options), net_(&server_, {}), gen_(MakeConfig(),
                                                   ScanSchedule::GoesRoutine()) {
    Status st = gen_.Init();
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (size_t b = 0; b < 2; ++b) {
      auto d = gen_.Descriptor(b);
      EXPECT_TRUE(d.ok());
      st = server_.RegisterStream(*d);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    st = net_.Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  static InstrumentConfig MakeConfig() {
    InstrumentConfig config;
    config.crs_name = "latlon";
    config.cells_per_sector = 24 * 16;
    config.bands = {SpectralBand::kNearInfrared, SpectralBand::kVisible};
    config.name_prefix = "goes";
    return config;
  }

  Status Ingest(int64_t first_scan, int64_t count) {
    std::vector<EventSink*> sinks = {server_.ingest("goes.band2"),
                                     server_.ingest("goes.band1")};
    GEOSTREAMS_RETURN_IF_ERROR(gen_.GenerateScans(first_scan, count, sinks));
    return server_.Flush();
  }

  DsmsServer& server() { return server_; }
  NetServer& net() { return net_; }

 private:
  DsmsServer server_;
  NetServer net_;
  StreamGenerator gen_;
};

int64_t ParseIdFromOk(const std::string& response) {
  return std::stoll(response.substr(response.rfind(' ') + 1));
}

/// Reads `n` payload lines after a multi-line OK header, skipping any
/// result frames still queued ahead of them (delivery and control
/// share the connection).
std::vector<std::string> ReadLines(GeoStreamsClient& client, size_t n) {
  std::vector<std::string> lines;
  while (lines.size() < n) {
    auto unit = client.ReadNext();
    if (!unit.ok()) {
      ADD_FAILURE() << "line " << lines.size() << ": "
                    << unit.status().ToString();
      break;
    }
    if (!unit->line.has_value()) continue;  // an interleaved frame
    lines.push_back(*unit->line);
  }
  return lines;
}

TEST(ObsE2eTest, MetricsCommandRendersValidPrometheusExposition) {
  DsmsOptions options;
  options.workers = 1;
  options.trace_sample_every = 1;  // trace every batch
  ObsFixture fixture(options);

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  auto response = client.Command("QUERY ndvi(goes.band2, goes.band1)");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(StartsWith(*response, "OK QUERY "));

  GS_ASSERT_OK(fixture.Ingest(0, 2));
  for (int i = 0; i < 2; ++i) {
    auto frame = client.ReadFrame(20000);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  }

  auto header = client.Command("METRICS", 20000);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  ASSERT_TRUE(StartsWith(*header, "OK METRICS lines=")) << *header;
  const size_t lines = std::stoull(
      header->substr(std::string("OK METRICS lines=").size()));
  ASSERT_GT(lines, 0u);
  const std::vector<std::string> body = ReadLines(client, lines);
  ASSERT_EQ(body.size(), lines);

  // Structurally valid exposition: every line is a comment or
  // `name[{labels}] value`, and every sample's family was declared
  // with # TYPE before it.
  std::string joined;
  size_t samples = 0;
  for (const std::string& line : body) {
    joined += line;
    joined += '\n';
    if (line.empty() || line[0] == '#') continue;
    ++samples;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    EXPECT_NE(value.find_first_of("0123456789"), std::string::npos) << line;
  }
  EXPECT_GT(samples, 10u);

  // The acceptance surface: scheduler queue histograms, per-operator
  // latency percentiles' raw series, supervision and query gauges.
  for (const char* expect :
       {"# TYPE geostreams_scheduler_queue_wait_us histogram",
        "geostreams_scheduler_queue_wait_us_bucket{le=\"+Inf\"}",
        "geostreams_scheduler_queue_depth_bucket",
        "# TYPE geostreams_operator_latency_us histogram",
        "geostreams_operator_latency_us_bucket{op=\"delivery\"",
        "geostreams_scheduler_enqueued_total",
        "geostreams_scheduler_processed_total",
        "geostreams_scheduler_shed_total",
        "geostreams_pipeline_restarts_total",
        "geostreams_queries 1",
        "geostreams_memory_tracked_bytes"}) {
    EXPECT_NE(joined.find(expect), std::string::npos)
        << "missing: " << expect;
  }

  // The shared registry is reachable programmatically too, and the
  // operator latency histograms actually saw the traced batches.
  MetricHistogram* delivery = fixture.server().metrics_registry()->GetHistogram(
      "geostreams_operator_latency_us", "", {{"op", "delivery"}});
  ASSERT_NE(delivery, nullptr);
  EXPECT_GT(delivery->Count(), 0u);
  EXPECT_GE(delivery->Percentile(99), delivery->Percentile(50));
}

TEST(ObsE2eTest, TraceCommandDumpsSampledSpans) {
  DsmsOptions options;
  options.workers = 1;
  options.trace_sample_every = 1;
  ObsFixture fixture(options);

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  auto response = client.Command("QUERY goes.band1");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const int64_t id = ParseIdFromOk(*response);

  GS_ASSERT_OK(fixture.Ingest(0, 2));
  auto frame = client.ReadFrame(20000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();

  auto header = client.Command(
      StringPrintf("TRACE %lld", static_cast<long long>(id)), 20000);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  ASSERT_TRUE(StartsWith(
      *header, StringPrintf("OK TRACE %lld total=",
                            static_cast<long long>(id))))
      << *header;
  const size_t kept_at = header->find("kept=");
  ASSERT_NE(kept_at, std::string::npos);
  const size_t kept = std::stoull(header->substr(kept_at + 5));
  ASSERT_GT(kept, 0u) << *header;

  const std::vector<std::string> lines = ReadLines(client, kept);
  ASSERT_EQ(lines.size(), kept);
  for (const std::string& line : lines) {
    EXPECT_TRUE(StartsWith(line, "TR ")) << line;
    EXPECT_NE(line.find("trace="), std::string::npos) << line;
    EXPECT_NE(line.find("queue_us="), std::string::npos) << line;
    EXPECT_NE(line.find("total_us="), std::string::npos) << line;
    // Per-operator spans: at least the delivery stage must appear.
    EXPECT_NE(line.find(".delivery="), std::string::npos) << line;
  }

  // Unknown ids keep the DLQ contract.
  auto unknown = client.Command("TRACE 9999");
  ASSERT_TRUE(unknown.ok());
  EXPECT_TRUE(StartsWith(*unknown, "ERR NotFound")) << *unknown;
}

TEST(ObsE2eTest, SamplingDisabledProducesNoTraces) {
  DsmsOptions options;
  options.workers = 1;  // trace_sample_every stays 0
  ObsFixture fixture(options);

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  auto response = client.Command("QUERY goes.band1");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const int64_t id = ParseIdFromOk(*response);

  GS_ASSERT_OK(fixture.Ingest(0, 2));
  auto frame = client.ReadFrame(20000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();

  auto header = client.Command(
      StringPrintf("TRACE %lld", static_cast<long long>(id)), 20000);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(*header, StringPrintf("OK TRACE %lld total=0 kept=0",
                                  static_cast<long long>(id)))
      << *header;
}

TEST(ObsE2eTest, SynchronousServerTracesInline) {
  // workers=0: the query's pipeline runs on the ingest thread, and
  // sampled traces land in the query's own ring, exactly as they do
  // with a worker pool.
  DsmsOptions options;
  options.trace_sample_every = 1;
  ObsFixture fixture(options);

  std::atomic<int> frames{0};
  auto id = fixture.server().RegisterQuery(
      "goes.band1", [&](int64_t, const Raster&, const std::vector<uint8_t>&) {
        ++frames;
      });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  GS_ASSERT_OK(fixture.Ingest(0, 2));
  EXPECT_EQ(frames.load(), 2);

  auto traces = fixture.server().QueryTraces(*id);
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  EXPECT_GT(traces->total, 0u);
  ASSERT_FALSE(traces->records.empty());
  const std::string pipeline =
      StringPrintf("q%lld", static_cast<long long>(*id));
  for (const TraceRecord& record : traces->records) {
    EXPECT_EQ(record.pipeline, pipeline);
    EXPECT_EQ(record.origin, "goes.band1");
    EXPECT_FALSE(record.spans.empty());
  }
}

TEST(ObsE2eTest, SharedRestrictionCarriesTraceToPipelines) {
  // region() queries route through SharedRestrictionOp, which splits
  // one ingested batch into fresh per-query batches. The split must
  // carry event.trace, or worker-pool pipelines never record spans
  // (the regional_server configuration).
  DsmsOptions options;
  options.workers = 1;
  options.shared_restriction = true;
  options.trace_sample_every = 1;
  ObsFixture fixture(options);

  std::atomic<int> frames{0};
  auto id = fixture.server().RegisterQuery(
      "region(goes.band1, bbox(-180, -90, 180, 90))",
      [&](int64_t, const Raster&, const std::vector<uint8_t>&) { ++frames; });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  GS_ASSERT_OK(fixture.Ingest(0, 2));
  EXPECT_GT(frames.load(), 0);

  auto traces = fixture.server().QueryTraces(*id);
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  EXPECT_GT(traces->total, 0u);
  ASSERT_FALSE(traces->records.empty());
  for (const TraceRecord& record : traces->records) {
    EXPECT_FALSE(record.pipeline.empty());
    ASSERT_FALSE(record.spans.empty());
    EXPECT_NE(record.spans.back().name.find(".delivery"),
              std::string::npos)
        << record.ToString();
  }
}

// ---------------------------------------------------------------------------
// Summary line (the --metrics-interval surface)

TEST(ObsSummaryTest, SummaryLineCoversCoreFigures) {
  DsmsOptions options;
  options.workers = 1;
  options.trace_sample_every = 1;
  ObsFixture fixture(options);
  std::atomic<int> frames{0};
  auto id = fixture.server().RegisterQuery(
      "goes.band1", [&](int64_t, const Raster&, const std::vector<uint8_t>&) {
        ++frames;
      });
  ASSERT_TRUE(id.ok());
  GS_ASSERT_OK(fixture.Ingest(0, 2));

  const std::string line = fixture.server().SummaryLine();
  for (const char* key :
       {"queries=1", "enqueued=", "processed=", "shed=", "restarts=",
        "dead_letters=", "mem=", "traces="}) {
    EXPECT_NE(line.find(key), std::string::npos)
        << "missing " << key << " in: " << line;
  }
  // Something was actually enqueued and traced.
  EXPECT_EQ(line.find("enqueued=0 "), std::string::npos) << line;
  EXPECT_EQ(line.find("traces=0"), std::string::npos) << line;
  // The freshness/latency plane reports even when sources went quiet.
  EXPECT_NE(line.find("freshness_us="), std::string::npos) << line;
  EXPECT_NE(line.find("e2e_p95_us="), std::string::npos) << line;
}

// ---------------------------------------------------------------------------
// OpenMetrics exemplars

TEST(MetricsRegistryTest, RendersExemplarsOnBucketLines) {
  MetricsRegistry reg;
  MetricHistogram* hist = reg.GetHistogram("geostreams_exemplar_us", "h",
                                           {{"stage", "send"}}, {10, 100});
  hist->ObserveWithExemplar(50, 7, "q1");
  std::string out = reg.RenderOpenMetrics();
  EXPECT_NE(out.find("geostreams_exemplar_us_bucket{stage=\"send\","
                     "le=\"100\"} 1 # {trace=\"7\",pipeline=\"q1\"} 50\n"),
            std::string::npos)
      << out;
  // Buckets that never saw an exemplared observation stay bare.
  EXPECT_NE(out.find("le=\"10\"} 0\n"), std::string::npos) << out;
  // OpenMetrics expositions are # EOF-terminated.
  EXPECT_NE(out.size(), 0u);
  EXPECT_EQ(out.rfind("# EOF\n"), out.size() - 6) << out;
  // The 0.0.4 exposition stays bare: its parsers read an exemplar
  // tail as a malformed timestamp and fail the whole scrape.
  EXPECT_EQ(reg.RenderPrometheus().find(" # {"), std::string::npos);
  EXPECT_EQ(reg.RenderPrometheus().find("# EOF"), std::string::npos);

  // A later observation into the same bucket takes the slot (one
  // exemplar per bucket, latest wins).
  hist->ObserveWithExemplar(60, 9, "q2");
  out = reg.RenderOpenMetrics();
  EXPECT_NE(out.find("le=\"100\"} 2 # {trace=\"9\",pipeline=\"q2\"} 60\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("trace=\"7\""), std::string::npos) << out;

  // The +Inf bucket carries its own exemplar.
  hist->ObserveWithExemplar(5000, 11, "q1");
  out = reg.RenderOpenMetrics();
  EXPECT_NE(out.find("le=\"+Inf\"} 3 # {trace=\"11\",pipeline=\"q1\"} 5000\n"),
            std::string::npos)
      << out;
}

TEST(MetricsRegistryTest, OpenMetricsCounterMetadataDropsTotalSuffix) {
  MetricsRegistry reg;
  reg.GetCounter("geostreams_things_total", "things")->Increment();
  const std::string om = reg.RenderOpenMetrics();
  // OpenMetrics names the counter family without the _total suffix in
  // metadata; the sample line keeps the full name.
  EXPECT_NE(om.find("# TYPE geostreams_things counter\n"), std::string::npos)
      << om;
  EXPECT_NE(om.find("geostreams_things_total 1\n"), std::string::npos) << om;
  // 0.0.4 keeps the full name in metadata too.
  const std::string prom = reg.RenderPrometheus();
  EXPECT_NE(prom.find("# TYPE geostreams_things_total counter\n"),
            std::string::npos)
      << prom;
}

TEST(MetricsRegistryTest, ExemplarPipelineLabelsAreEscaped) {
  MetricsRegistry reg;
  MetricHistogram* hist =
      reg.GetHistogram("geostreams_exemplar_esc_us", "h", {}, {10});
  hist->ObserveWithExemplar(5, 1, "a\"b\\c");
  const std::string out = reg.RenderOpenMetrics();
  EXPECT_NE(out.find("# {trace=\"1\",pipeline=\"a\\\"b\\\\c\"} 5\n"),
            std::string::npos)
      << out;
}

TEST(ObserveE2eStageTest, SharedFamilyAndExemplarLinkage) {
  MetricsRegistry reg;
  // Per-source and per-query stage series resolve once into shared
  // handles over one family.
  const auto source = SourceStageHistograms::Resolve(&reg, "sat.band1");
  const auto query = QueryStageHistograms::Resolve(&reg, "q1");
  EXPECT_EQ(SourceStageHistograms::Resolve(&reg, "sat.band1")->send,
            source->send);
  // A trace with a reserved ring slot exemplar-links the observation.
  TraceContext linked(1, "sat.band1");
  linked.set_ring_ordinal(5);
  ObserveE2eStage(source->send.get(), 42, linked.ring_ordinal(),
                  linked.pipeline());
  // No ring slot: plain observation.
  TraceContext unlinked(2, "sat.band1");
  ObserveE2eStage(query->queue.get(), 7, unlinked.ring_ordinal(), "q1");
  ObserveE2eStage(query->write.get(), 9, TraceContext::kNoRingOrdinal, "");
  // Null histogram is a no-op, not a crash.
  ObserveE2eStage(nullptr, 1, linked.ring_ordinal(), "");

  const std::string out = reg.RenderOpenMetrics();
  EXPECT_NE(
      out.find("geostreams_e2e_latency_us_count{stage=\"send\","
               "source=\"sat.band1\"} 1\n"),
      std::string::npos)
      << out;
  EXPECT_NE(out.find("# {trace=\"5\",pipeline=\"\"} 42"), std::string::npos)
      << out;
  EXPECT_NE(out.find("geostreams_e2e_latency_us_count{stage=\"queue\","
                     "query=\"q1\"} 1\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("{stage=\"write\",query=\"q1\"}"), std::string::npos)
      << out;
  // Exactly one exemplar across the family: the unlinked observations
  // must not have minted any.
  size_t exemplars = 0;
  for (size_t at = out.find(" # {"); at != std::string::npos;
       at = out.find(" # {", at + 1)) {
    ++exemplars;
  }
  EXPECT_EQ(exemplars, 1u) << out;
}

// ---------------------------------------------------------------------------
// Stage-chain anchors

TEST(TraceTest, IngestAnchorsSeedTheStageChain) {
  TraceContext trace(1, "src");
  EXPECT_EQ(trace.last_anchor_wall_us(), 0u);
  EXPECT_EQ(trace.AdvanceStage(100), 0u);  // no prior anchor

  trace.SetIngestAnchors(100, 150, 180);
  EXPECT_EQ(trace.capture_wall_us(), 100u);
  EXPECT_EQ(trace.admit_wall_us(), 150u);
  EXPECT_EQ(trace.durable_wall_us(), 180u);
  // The chain starts at the last nonzero anchor: durable.
  EXPECT_EQ(trace.last_anchor_wall_us(), 180u);
  // Consecutive stages are disjoint segments summing to end-to-end.
  EXPECT_EQ(trace.AdvanceStage(200), 20u);
  EXPECT_EQ(trace.last_anchor_wall_us(), 200u);
  EXPECT_EQ(trace.AdvanceStage(230), 30u);
  // A clock step backwards yields 0, never an underflowed duration.
  EXPECT_EQ(trace.AdvanceStage(220), 0u);
  EXPECT_EQ(trace.last_anchor_wall_us(), 220u);

  // Without a journal the chain seeds at admission; without any
  // anchors at capture.
  TraceContext unjournaled(2, "src");
  unjournaled.SetIngestAnchors(100, 150, 0);
  EXPECT_EQ(unjournaled.last_anchor_wall_us(), 150u);
  TraceContext bare(3, "src");
  bare.SetIngestAnchors(100, 0, 0);
  EXPECT_EQ(bare.last_anchor_wall_us(), 100u);

  // Forks carry the chain across the scheduler boundary.
  auto fork = unjournaled.Fork("q1");
  EXPECT_EQ(fork->capture_wall_us(), 100u);
  EXPECT_EQ(fork->admit_wall_us(), 150u);
  EXPECT_EQ(fork->last_anchor_wall_us(), 150u);
  // The finished record renders the anchors for TRACE correlation.
  const std::string line = unjournaled.Finish().ToString();
  EXPECT_NE(line.find("capture_us=100 admit_us=150 durable_us=0"),
            std::string::npos)
      << line;
}

TEST(TraceTest, SourceStageOwnershipTransfersToFirstFork) {
  // On an N-pipeline fan-out the source-side stages (send, journal,
  // total) must be observed once per frame, not once per fork: the
  // root hands ownership to its FIRST fork, later forks observe only
  // their own per-pipeline stages.
  TraceContext root(1, "src");
  EXPECT_TRUE(root.observes_source_stages());
  auto first = root.Fork("q1");
  EXPECT_TRUE(first->observes_source_stages());
  EXPECT_FALSE(root.observes_source_stages());
  auto second = root.Fork("q2");
  EXPECT_FALSE(second->observes_source_stages());
  // A grandchild fork keeps passing the baton down the owning chain.
  auto grand = first->Fork("q1.sub");
  EXPECT_TRUE(grand->observes_source_stages());
  EXPECT_FALSE(first->observes_source_stages());

  // `total` is one-shot even on the owner.
  TraceContext inline_root(2, "src");
  EXPECT_TRUE(inline_root.ClaimTotalStage());
  EXPECT_FALSE(inline_root.ClaimTotalStage());
  EXPECT_FALSE(second->ClaimTotalStage());  // non-owner never claims
  EXPECT_TRUE(grand->ClaimTotalStage());
}

TEST(TraceRingTest, ReserveAssignsOrdinalsBeforePush) {
  TraceRing ring(2);
  // Ordinals hand out at reservation so in-flight traces can stamp
  // them onto exemplars before the record lands.
  EXPECT_EQ(ring.Reserve(), 0u);
  EXPECT_EQ(ring.Reserve(), 1u);
  EXPECT_EQ(ring.total(), 2u);
  TraceRecord second;
  second.ordinal = 1;
  ring.PushReserved(std::move(second));
  TraceRecord third;
  third.ordinal = ring.Reserve();
  ring.PushReserved(std::move(third));
  const TraceRing::Snapshot snap = ring.TakeSnapshot();
  // Ordinal 0 was reserved but never pushed (its event was shed):
  // total counts the reservation, the kept records skip the gap.
  EXPECT_EQ(snap.total, 3u);
  ASSERT_EQ(snap.records.size(), 2u);
  EXPECT_EQ(snap.records[0].ordinal, 1u);
  EXPECT_EQ(snap.records[1].ordinal, 2u);
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(EventLogTest, OrdinalsSurviveEvictionAndRenderOneLine) {
  EventLog log(3);
  EXPECT_EQ(log.capacity(), 3u);
  for (int i = 0; i < 10; ++i) {
    const uint64_t ordinal =
        log.Append(i % 2 ? EventSeverity::kWarn : EventSeverity::kInfo,
                   "test", "tick", StringPrintf("i=%d", i));
    EXPECT_EQ(ordinal, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(log.total(), 10u);
  const EventLog::Snapshot snap = log.TakeSnapshot();
  EXPECT_EQ(snap.total, 10u);
  ASSERT_EQ(snap.events.size(), 3u);
  // Oldest kept first; ordinals keep climbing past eviction.
  EXPECT_EQ(snap.events[0].ordinal, 7u);
  EXPECT_EQ(snap.events[2].ordinal, 9u);
  EXPECT_EQ(snap.events[0].detail, "i=7");
  EXPECT_GT(snap.events[0].wall_us, 0u);
  const std::string line = snap.events[0].ToString();
  EXPECT_TRUE(StartsWith(line, "EV 7 wall_us=")) << line;
  EXPECT_NE(line.find(" sev=warn comp=test kind=tick i=7"),
            std::string::npos)
      << line;
  // Zero capacity clamps to one so the newest event always survives.
  EXPECT_EQ(EventLog(0).capacity(), 1u);
}

TEST(EventLogTest, ConcurrentAppendsAssignUniqueOrdinals) {
  EventLog log(1024);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Append(EventSeverity::kInfo, "test", "tick", "");
      }
    });
  }
  for (auto& t : threads) t.join();
  const EventLog::Snapshot snap = log.TakeSnapshot();
  EXPECT_EQ(snap.total, static_cast<uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(snap.events.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_EQ(snap.events[i].ordinal, snap.events[i - 1].ordinal + 1);
  }
}

// ---------------------------------------------------------------------------
// Freshness

TEST(ObsE2eTest, FreshnessGaugeAgesWhileSourceIsIdle) {
  ObsFixture fixture;  // synchronous server: ingest on this thread
  GS_ASSERT_OK(fixture.Ingest(0, 1));

  auto freshness = [&]() -> long long {
    const std::string out = fixture.server().RenderMetrics();
    const std::string key =
        "geostreams_source_freshness_us{source=\"goes.band1\"} ";
    const size_t at = out.find(key);
    if (at == std::string::npos) {
      ADD_FAILURE() << "freshness gauge missing:\n" << out;
      return -1;
    }
    return std::stoll(out.substr(at + key.size()));
  };
  // The gauge is computed at scrape time (now minus the newest
  // delivered frame's stamp), so an idle source visibly ages.
  const long long v1 = freshness();
  ASSERT_GE(v1, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const long long v2 = freshness();
  EXPECT_GT(v2, v1 + 10000) << "gauge did not age across 20ms of idle";
}

}  // namespace
}  // namespace geostreams
