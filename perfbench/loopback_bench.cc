// Loopback benchmark for the GeoStreams DSMS (Sec. 4, Fig. 3 of the
// paper): a producer -> ingest -> shared restriction -> per-query plan
// -> delivery path, driven only over loopback TCP.
//
// One process serves a DsmsServer + NetServer (workers=2) and plays the
// load generator against it: a ProducerClient per band (default
// options, so the benchmark sees what a real producer sees) and up to
// two GeoStreamsClient subscribers. Inputs are recorded once from
// StreamGenerator with the seed argument and replayed; no timed loop
// calls the generator. Every delivered frame is checked against a
// per-(query, frame) digest reference computed by an in-process
// workers=0 server in a forked child (so the reference never counts
// in this process's peak RSS).
//
//   loopback_bench --workload live_fanout|durable_ingest|history_catchup
//                  --seed N --seconds S --trace 0|1 --workdir DIR
//                  [--corrupt-frame]
//
// --trace 0 prints the end-to-end metrics, --trace 1 runs the workload
// untraced and then traced (trace_sample_every=1), scrapes /metrics,
// times each layer's public functions on the same prebuilt inputs and
// prints the per-layer metrics. The last stdout line is the JSON
// result; lines before it are human-readable. METRICS.md maps each
// metric to its definition. --corrupt-frame flips one bit of the
// first delivered frame before checking it, to prove the check fails.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/math_util.h"
#include "geo/region.h"
#include "mqo/cascade_tree.h"
#include "mqo/shared_restriction.h"
#include "net/geostreams_client.h"
#include "net/net_server.h"
#include "net/producer_client.h"
#include "net/socket_util.h"
#include "net/wire_protocol.h"
#include "raster/checksum.h"
#include "raster/frame_assembler.h"
#include "server/dsms_server.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"
#include "storage/journal.h"
#include "store/tile_store.h"

using namespace geostreams;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBands = 2;
const char* const kSources[kBands] = {"goes.band1", "goes.band2"};
constexpr int64_t kCellsPerSector = 64 * 1024;
/// Distinct scans recorded during preparation; replay cycles through
/// them, relabeling frame ids so the stream keeps moving forward.
constexpr int kRecordedScans = 4;
/// Stored frames each catch-up replays.
constexpr int kCatchupFrames = 16;
/// Fan-out rate and the durable-ingest rate ladder, in scans/s.
constexpr double kFanoutRate = 1.0;
constexpr std::array<double, 4> kLadder = {2, 4, 8, 16};
/// A ladder step is sustained when its ack p99 stays within this.
constexpr double kAckLimitMs = 100.0;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// A producer this far behind its schedule has a growing backlog: the
/// step fails and the schedule stops after the scans already started.
constexpr auto kMaxLate = std::chrono::seconds(1);
/// How long stragglers (acks, frames) may take after the schedule ends.
constexpr auto kDrainTimeout = std::chrono::seconds(30);

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "loopback_bench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Take(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double MaxRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Word-at-a-time digest of one result frame's shape and sample bits.
uint64_t FrameDigest(uint64_t width, uint64_t height, uint64_t bands,
                     const double* samples, size_t n) {
  uint64_t d = Mix64(width * 0x9E3779B97F4A7C15ULL ^ (height << 20) ^ bands);
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, &samples[i], sizeof(bits));
    d = Mix64(d ^ bits);
  }
  return d;
}

// ---------------------------------------------------------------------
// Prebuilt, seeded inputs.

class RecordingSink : public EventSink {
 public:
  Status Consume(const StreamEvent& event) override {
    events.push_back(event);
    return Status::OK();
  }
  std::vector<StreamEvent> events;
};

/// Counts points reaching a sink (per-layer microbenchmarks).
class CountingSink : public EventSink {
 public:
  Status Consume(const StreamEvent& event) override {
    if (event.kind == EventKind::kPointBatch) points += event.batch->size();
    return Status::OK();
  }
  uint64_t points = 0;
};

struct Inputs {
  std::vector<GeoStreamDescriptor> descriptors;
  /// scans[k][band]: FrameBegin, one batch per row, FrameEnd.
  std::vector<std::array<std::vector<StreamEvent>, kBands>> scans;
  /// Points of one recorded scan over both bands.
  std::vector<int64_t> scan_points;
};

Inputs RecordInputs(uint64_t seed) {
  InstrumentConfig config;
  config.crs_name = "latlon";
  config.bands = {SpectralBand::kVisible, SpectralBand::kNearInfrared};
  config.cells_per_sector = kCellsPerSector;
  config.organization = PointOrganization::kRowByRow;
  config.name_prefix = "goes";
  config.seed = seed;
  StreamGenerator generator(config, ScanSchedule::GoesRoutine());
  Check(generator.Init(), "generator init");
  Inputs in;
  for (int b = 0; b < kBands; ++b) {
    in.descriptors.push_back(Take(generator.Descriptor(b), "descriptor"));
  }
  for (int k = 0; k < kRecordedScans; ++k) {
    RecordingSink sinks[kBands];
    Check(generator.GenerateScans(k, 1, {&sinks[0], &sinks[1]}), "record");
    std::array<std::vector<StreamEvent>, kBands> scan;
    int64_t points = 0;
    for (int b = 0; b < kBands; ++b) {
      for (const StreamEvent& e : sinks[b].events) {
        if (e.kind == EventKind::kPointBatch) points += e.batch->size();
      }
      scan[b] = std::move(sinks[b].events);
    }
    in.scans.push_back(std::move(scan));
    in.scan_points.push_back(points);
  }
  return in;
}

/// A recorded event replayed as scan `frame_id`.
StreamEvent Relabel(const StreamEvent& event, int64_t frame_id) {
  switch (event.kind) {
    case EventKind::kFrameBegin:
    case EventKind::kFrameEnd: {
      FrameInfo info = event.frame;
      info.frame_id = frame_id;
      return event.kind == EventKind::kFrameBegin ? StreamEvent::FrameBegin(info)
                                                  : StreamEvent::FrameEnd(info);
    }
    case EventKind::kPointBatch: {
      auto batch = std::make_shared<PointBatch>(*event.batch);
      batch->frame_id = frame_id;
      std::fill(batch->timestamps.begin(), batch->timestamps.end(), frame_id);
      return StreamEvent::Batch(std::move(batch));
    }
    case EventKind::kStreamEnd:
      break;
  }
  return event;
}

/// Feeds scan `frame_id` (recorded scan frame_id % kRecordedScans) into
/// per-band sinks, bands interleaved row by row like the instrument.
Status FeedScan(const Inputs& in, int64_t frame_id,
                const std::array<EventSink*, kBands>& sinks) {
  const auto& scan = in.scans[frame_id % kRecordedScans];
  const size_t n = std::max(scan[0].size(), scan[1].size());
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < kBands; ++b) {
      if (i < scan[b].size()) {
        GEOSTREAMS_RETURN_IF_ERROR(
            sinks[b]->Consume(Relabel(scan[b][i], frame_id)));
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Workloads.

enum class Kind { kLiveFanout, kDurableIngest, kHistoryCatchup };

struct Workload {
  Kind kind = Kind::kLiveFanout;
  std::string name;
  /// Query texts and the subscriber connection each is registered on.
  std::vector<std::string> queries;
  std::vector<int> connection;
  int connections = 0;
  /// The fan-out set's bbox regions (shared-restriction microbenchmark
  /// input; empty for the other workloads).
  std::vector<BoundingBox> regions;
  /// Open-loop schedule: (scans/s, scans) per step. Step 0 warms the
  /// deployment up (first-touch allocations, lazy plan state) and is
  /// checked for correctness but left out of every timing.
  std::vector<std::pair<double, int>> steps;
  /// Reference slots: frame id modulo this keys the reference.
  int64_t slot_period = kRecordedScans;
};

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix64(seed ^ 0x6c6f6f706261636bULL)) {}
  double Range(double lo, double hi) {
    state_ += 0x9E3779B97F4A7C15ULL;
    return lo + (hi - lo) * HashToUnit(state_);
  }

 private:
  uint64_t state_;
};

/// A CONUS bbox `w` degrees wide and 0.6 w tall at a seeded position.
/// Sizes are fixed so the seed moves the work around without changing
/// how much there is.
BoundingBox ConusBox(Rng* rng, double w) {
  const double h = 0.6 * w;
  const double x0 = rng->Range(-125.0, -66.0 - w);
  const double y0 = rng->Range(24.0, 50.0 - h);
  return BoundingBox(x0, y0, x0 + w, y0 + h);
}

std::string BoxText(const BoundingBox& b) {
  char text[128];
  std::snprintf(text, sizeof(text), "bbox(%.3f, %.3f, %.3f, %.3f)", b.min_x,
                b.min_y, b.max_x, b.max_y);
  return text;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, double seconds) {
  Workload w;
  w.name = name;
  Rng rng(seed);
  const std::string ndvi = "ndvi(goes.band2, goes.band1)";
  auto add = [&w](std::string text, int conn) {
    w.queries.push_back(std::move(text));
    w.connection.push_back(conn);
  };
  if (name == "live_fanout") {
    w.kind = Kind::kLiveFanout;
    w.connections = 2;
    std::vector<std::string> texts;
    for (int i = 0; i < 224; ++i) {
      w.regions.push_back(ConusBox(&rng, 4.5));
      texts.push_back("region(goes.band1, " + BoxText(w.regions.back()) + ")");
    }
    for (int i = 0; i < 16; ++i) {
      w.regions.push_back(ConusBox(&rng, 4.0));
      texts.push_back("region(" + ndvi + ", " + BoxText(w.regions.back()) +
                      ")");
    }
    for (int i = 0; i < 8; ++i) {
      const double lo = rng.Range(0.05, 0.45);
      char text[96];
      std::snprintf(text, sizeof(text), "vrange(goes.band1, 0, %.3f, %.3f)",
                    lo, lo + 0.25);
      texts.push_back(text);
    }
    for (int i = 0; i < 8; ++i) {
      w.regions.push_back(ConusBox(&rng, 5.5));
      texts.push_back("reproject(region(" + ndvi + ", " +
                      BoxText(w.regions.back()) + "), \"mercator\")");
    }
    for (size_t i = 0; i < texts.size(); ++i) {
      add(texts[i], static_cast<int>(i % 2));
    }
    const int scans = std::max(1, static_cast<int>(seconds * kFanoutRate));
    w.steps = {{kFanoutRate, 2}, {kFanoutRate, scans}};
  } else if (name == "durable_ingest") {
    w.kind = Kind::kDurableIngest;
    w.connections = 2;
    add("goes.band1", 0);
    add("reduce(goes.band1, 4)", 1);
    w.steps = {{kLadder[0], 1}};
    for (double rate : kLadder) {
      const double step_seconds = seconds / static_cast<double>(kLadder.size());
      w.steps.emplace_back(rate,
                           std::max(1, static_cast<int>(rate * step_seconds)));
    }
  } else if (name == "history_catchup") {
    w.kind = Kind::kHistoryCatchup;
    w.connections = 1;
    const BoundingBox bbox = ConusBox(&rng, 8.0);
    const BoundingBox ndvi_box = ConusBox(&rng, 6.0);
    add("region(goes.band1, " + BoxText(bbox) + ")", 0);
    add("reduce(goes.band1, 4)", 0);
    add("region(" + ndvi + ", " + BoxText(ndvi_box) + ")", 0);
    w.slot_period = kCatchupFrames;
  } else {
    Die("unknown workload '" + name + "'");
  }
  return w;
}

// ---------------------------------------------------------------------
// Output check: per-(query, slot) digest reference from an in-process
// workers=0 server over the same scans.

/// (query index, frame id modulo the workload's slot period) -> digest.
using Reference = std::map<std::pair<int, int64_t>, uint64_t>;

struct RefRecord {
  int64_t query = 0;
  int64_t slot = 0;
  uint64_t digest = 0;
};

FrameCallback RecordTo(int fd, int query, int64_t slot_period) {
  return [fd, query, slot_period](int64_t frame_id, const Raster& raster,
                                  const std::vector<uint8_t>&) {
    RefRecord rec;
    rec.query = query;
    rec.slot = frame_id % slot_period;
    rec.digest = FrameDigest(raster.width(), raster.height(), raster.bands(),
                             raster.data().data(), raster.data().size());
    const auto* bytes = reinterpret_cast<const uint8_t*>(&rec);
    for (size_t off = 0; off < sizeof(rec);) {
      const ssize_t n = write(fd, bytes + off, sizeof(rec) - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) std::_Exit(3);
      off += static_cast<size_t>(n);
    }
  };
}

Status ComputeReference(const Inputs& in, const Workload& w,
                        const std::string& dir, int fd) {
  DsmsOptions options;
  if (w.kind == Kind::kHistoryCatchup) options.store_dir = dir;
  DsmsServer server(options);
  for (const auto& desc : in.descriptors) {
    GEOSTREAMS_RETURN_IF_ERROR(server.RegisterStream(desc));
  }
  const std::array<EventSink*, kBands> sinks = {server.ingest(kSources[0]),
                                                server.ingest(kSources[1])};
  if (w.kind == Kind::kHistoryCatchup) {
    for (int64_t r = 0; r < kCatchupFrames; ++r) {
      GEOSTREAMS_RETURN_IF_ERROR(FeedScan(in, r, sinks));
    }
    for (size_t q = 0; q < w.queries.size(); ++q) {
      CatchUpOptions catch_up;
      catch_up.since = 0;
      GEOSTREAMS_ASSIGN_OR_RETURN(
          QueryId id,
          server.RegisterQuery(w.queries[q],
                               RecordTo(fd, static_cast<int>(q),
                                        w.slot_period),
                               catch_up));
      GEOSTREAMS_RETURN_IF_ERROR(server.UnregisterQuery(id));
    }
    return Status::OK();
  }
  for (size_t q = 0; q < w.queries.size(); ++q) {
    GEOSTREAMS_RETURN_IF_ERROR(
        server
            .RegisterQuery(w.queries[q],
                           RecordTo(fd, static_cast<int>(q), w.slot_period))
            .status());
  }
  for (int64_t k = 0; k < kRecordedScans; ++k) {
    GEOSTREAMS_RETURN_IF_ERROR(FeedScan(in, k, sinks));
  }
  return server.EndAllStreams();
}

Reference BuildReference(const Inputs& in, const Workload& w,
                         const std::string& dir) {
  int fds[2];
  if (pipe(fds) != 0) Die("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    close(fds[0]);
    Status st = ComputeReference(in, w, dir, fds[1]);
    if (!st.ok()) {
      std::fprintf(stderr, "reference: %s\n", st.ToString().c_str());
    }
    close(fds[1]);
    std::_Exit(st.ok() ? 0 : 3);
  }
  close(fds[1]);
  Reference ref;
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("reference run failed (wait status " + std::to_string(status) + ")");
  }
  for (size_t off = 0; off + sizeof(RefRecord) <= bytes.size();
       off += sizeof(RefRecord)) {
    RefRecord rec;
    std::memcpy(&rec, bytes.data() + off, sizeof(rec));
    ref[{static_cast<int>(rec.query), rec.slot}] = rec.digest;
  }
  std::filesystem::remove_all(dir);
  return ref;
}

// ---------------------------------------------------------------------
// The loopback deployment.

/// Members are destroyed in reverse order: clients disconnect before the
/// listener stops, and the listener stops before the engine goes.
struct Loopback {
  std::unique_ptr<DsmsServer> dsms;
  std::unique_ptr<NetServer> net;
  std::vector<std::unique_ptr<ProducerClient>> producers;
  std::vector<std::unique_ptr<GeoStreamsClient>> subscribers;
  /// Per subscriber connection: server query id -> query index.
  std::vector<std::map<int64_t, int>> query_index;
  std::vector<double> register_ms;
};

Result<int64_t> ParseQueryOk(const Result<std::string>& response) {
  if (!response.ok()) return response.status();
  long long id = -1;
  if (std::sscanf(response->c_str(), "OK QUERY %lld", &id) != 1) {
    return Status::Internal("QUERY refused: " + *response);
  }
  return static_cast<int64_t>(id);
}

std::unique_ptr<Loopback> SetUp(const Inputs& in, const Workload& w,
                                const std::string& dir, bool traced) {
  auto lb = std::make_unique<Loopback>();
  DsmsOptions options;
  options.workers = 2;
  options.trace_sample_every = traced ? 1 : 0;
  if (w.kind == Kind::kDurableIngest) {
    options.journal_dir = dir + "/journal";
    options.journal.fsync = FsyncPolicy::kGroupCommit;
  }
  if (w.kind != Kind::kLiveFanout) options.store_dir = dir + "/store";
  lb->dsms = std::make_unique<DsmsServer>(options);
  if (!options.journal_dir.empty() && lb->dsms->journal() == nullptr) {
    Die("journal failed to open");
  }
  if (!options.store_dir.empty() && lb->dsms->store() == nullptr) {
    Die("store failed to open");
  }
  for (const auto& desc : in.descriptors) {
    Check(lb->dsms->RegisterStream(desc), "register stream");
  }
  if (w.kind == Kind::kHistoryCatchup) {
    // Preload the store through the server's own ingest boundary: the
    // measured phase reads history only, with no wire or journal.
    const std::array<EventSink*, kBands> sinks = {
        lb->dsms->ingest(kSources[0]), lb->dsms->ingest(kSources[1])};
    for (int64_t r = 0; r < kCatchupFrames; ++r) {
      Check(FeedScan(in, r, sinks), "preload");
    }
    Check(lb->dsms->Flush(), "preload flush");
    for (const char* source : kSources) {
      if (lb->dsms->store()->Watermark(source) != kCatchupFrames - 1) {
        Die("preload was not stored");
      }
    }
  }
  lb->net = std::make_unique<NetServer>(lb->dsms.get(), NetServerOptions{});
  Check(lb->net->Start(), "net start");
  const uint16_t port = lb->net->port();
  for (int b = 0; b < kBands && w.kind != Kind::kHistoryCatchup; ++b) {
    ProducerClientOptions po;
    po.port = port;
    po.source = kSources[b];
    lb->producers.push_back(std::make_unique<ProducerClient>(po));
    Check(lb->producers.back()->Connect(), "producer connect");
  }
  lb->query_index.resize(w.connections);
  for (int c = 0; c < w.connections; ++c) {
    auto client = std::make_unique<GeoStreamsClient>();
    Check(client->Connect("127.0.0.1", port, 2000), "subscriber connect");
    lb->subscribers.push_back(std::move(client));
  }
  if (w.kind != Kind::kHistoryCatchup) {
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const int c = w.connection[q];
      const auto t0 = Clock::now();
      const int64_t id = Take(
          ParseQueryOk(lb->subscribers[c]->Command("QUERY " + w.queries[q],
                                                   10000)),
          "register query");
      lb->register_ms.push_back(Ms(Clock::now() - t0));
      lb->query_index[c][id] = static_cast<int>(q);
    }
  }
  return lb;
}

// ---------------------------------------------------------------------
// Measured phase.

struct Delivered {
  int query = 0;
  int64_t frame_id = 0;
  uint64_t digest = 0;
  uint64_t points = 0;
  Clock::time_point at;
};

struct RunResult {
  std::vector<double> latency_ms;  // frame latency, or catch-up latency
  std::vector<std::vector<double>> ack_ms;  // per step
  std::vector<double> late_ms;
  std::vector<double> publish_us;
  std::vector<double> register_ms;
  uint64_t window_stalls = 0;
  uint64_t retransmits = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t missing = 0;
  uint64_t mismatched = 0;
  uint64_t unacked = 0;
  uint64_t failed_catchups = 0;
  double throughput_mpts_s = 0;
  double sustained_scans_per_s = 0;
  std::vector<double> step_ack_p99_ms;
  int overrun_step = -1;  // step whose backlog grew past kMaxLate
  size_t loadgen_threads = 1;
  size_t loadgen_connections = 0;
};

/// Pacing state shared by the two producer threads.
struct Pacing {
  Pacing(size_t steps, int scans) : step_start(steps), last_row_due(scans) {}
  std::vector<Clock::time_point> step_start;
  /// When each scan's last row was due (written by the band-0 producer).
  std::vector<Clock::time_point> last_row_due;
  size_t next_step = 0;
  /// Set once a producer runs kMaxLate behind its schedule: the step has
  /// a growing backlog. Both producers then finish every scan up to
  /// `last_scan` (the highest either had started) and the schedule stops.
  std::atomic<bool> overrun{false};
  std::atomic<int64_t> last_scan{-1};
  std::atomic<int> overrun_step{-1};
  bool stop = false;  // written only by the step barrier's completion
};

void RaiseTo(std::atomic<int64_t>* value, int64_t floor) {
  int64_t current = value->load();
  while (current < floor && !value->compare_exchange_weak(current, floor)) {
  }
}

struct ProducerOut {
  std::vector<std::vector<double>> ack_ms;  // per step
  std::vector<double> late_ms;
  std::vector<double> publish_us;
  std::vector<uint64_t> unacked;  // per step
  int64_t scans = 0;              // scans published through FrameEnd
};

/// One band's open-loop producer: rows of each scan paced evenly at the
/// step's rate; latencies count from when each event was due.
void ProduceBand(const Inputs& in, const Workload& w, int band,
                 ProducerClient* producer,
                 std::barrier<std::function<void()>>* step_barrier,
                 Pacing* pacing, ProducerOut* out) {
  std::vector<Clock::time_point> due_of;  // by publish ordinal
  size_t acked = 0;
  auto drain = [&](std::vector<double>* acks) {
    const uint64_t upto = producer->stats().acked;
    const auto now = Clock::now();
    while (acked < upto && acked < due_of.size()) {
      acks->push_back(Ms(now - due_of[acked]));
      ++acked;
    }
  };
  bool raised = false;
  int64_t frame_id = 0;
  out->ack_ms.resize(w.steps.size());
  for (size_t s = 0; s < w.steps.size(); ++s) {
    step_barrier->arrive_and_wait();
    if (pacing->stop) break;
    const auto t0 = pacing->step_start[s];
    const double rate = w.steps[s].first;
    for (int i = 0; i < w.steps[s].second; ++i, ++frame_id) {
      if (pacing->overrun.load()) {
        if (!raised) RaiseTo(&pacing->last_scan, frame_id - 1);
        raised = true;
        if (frame_id > pacing->last_scan.load()) break;
      }
      const auto& events = in.scans[frame_id % kRecordedScans][band];
      const double rows = static_cast<double>(events.size() - 2);
      for (size_t e = 0; e < events.size(); ++e) {
        // FrameBegin shares row 0's slot, FrameEnd the last row's.
        const double slot = std::clamp(static_cast<double>(e) - 1.0, 0.0,
                                       rows - 1.0);
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>((i + slot / rows) / rate));
        if (band == 0 && e + 2 == events.size()) {
          pacing->last_row_due[frame_id] = due;
        }
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        const auto start = Clock::now();
        if (!raised && (pacing->overrun.load() || start - due > kMaxLate)) {
          // Raise before flagging, so the other producer never stops
          // short of a scan this one has started.
          RaiseTo(&pacing->last_scan, frame_id);
          raised = true;
          int unset = -1;
          pacing->overrun_step.compare_exchange_strong(unset,
                                                       static_cast<int>(s));
          pacing->overrun.store(true);
        }
        const StreamEvent event = Relabel(events[e], frame_id);
        due_of.push_back(due);
        Status st = producer->Publish(event);
        if (s > 0) {
          out->late_ms.push_back(Ms(start - due));
          out->publish_us.push_back(Ms(Clock::now() - start) * 1000.0);
        }
        if (!st.ok()) Die("publish: " + st.ToString());
        drain(&out->ack_ms[s]);
      }
      out->scans = frame_id + 1;
    }
    const auto deadline = Clock::now() + kDrainTimeout;
    while (acked < due_of.size() && Clock::now() < deadline) {
      Check(producer->Heartbeat(), "heartbeat");
      drain(&out->ack_ms[s]);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    out->unacked.push_back(due_of.size() - acked);
    acked = due_of.size();
  }
  out->unacked.resize(w.steps.size(), 0);
}

/// Reads result frames until `expected` frames with ids below
/// `frame_limit` arrived or the deadline passes. An overrun lowers both
/// (limit first); frames past the limit may still arrive and are kept.
void Subscribe(GeoStreamsClient* client, const std::map<int64_t, int>* index,
               const std::atomic<int64_t>* frame_limit,
               const std::atomic<size_t>* expected,
               const std::atomic<int64_t>* deadline_ns, bool corrupt_first,
               std::vector<Delivered>* got) {
  std::vector<size_t> per_frame;  // frames received, by frame id
  for (;;) {
    const size_t want = expected->load();
    const int64_t limit = frame_limit->load();
    size_t have = 0;
    for (int64_t f = 0; f < limit && f < static_cast<int64_t>(per_frame.size());
         ++f) {
      have += per_frame[f];
    }
    if (have >= want) return;
    if (Clock::now().time_since_epoch().count() > deadline_ns->load()) return;
    Result<GeoStreamsClient::Incoming> in = client->ReadNext(50);
    if (!in.ok()) {
      if (in.status().code() == StatusCode::kUnavailable) continue;
      return;
    }
    if (in->eof) return;
    if (!in->frame) continue;
    FrameMessage& frame = *in->frame;
    if (corrupt_first && got->empty() && !frame.samples.empty()) {
      uint64_t bits = 0;
      std::memcpy(&bits, &frame.samples[0], sizeof(bits));
      bits ^= 1;
      std::memcpy(&frame.samples[0], &bits, sizeof(bits));
    }
    Delivered d;
    auto it = index->find(frame.query_id);
    d.query = it == index->end() ? -1 : it->second;
    d.frame_id = frame.frame_id;
    d.digest = FrameDigest(frame.width, frame.height, frame.bands,
                           frame.samples.data(), frame.samples.size());
    d.points = frame.samples.size();
    d.at = Clock::now();
    got->push_back(d);
    if (d.frame_id >= 0) {
      if (per_frame.size() <= static_cast<size_t>(d.frame_id)) {
        per_frame.resize(d.frame_id + 1, 0);
      }
      ++per_frame[d.frame_id];
    }
  }
}

/// Expected result frames per subscriber connection for scans [0, scans).
std::vector<size_t> ExpectedFrames(const Workload& w, const Reference& ref,
                                   int64_t scans) {
  std::vector<size_t> expected(w.connections, 0);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    for (int64_t f = 0; f < scans; ++f) {
      if (ref.count({static_cast<int>(q), f % w.slot_period})) {
        ++expected[w.connection[q]];
      }
    }
  }
  return expected;
}

RunResult RunOpenLoop(const Inputs& in, const Workload& w, Loopback* lb,
                      const Reference& ref, bool corrupt) {
  RunResult r;
  int total_scans = 0;
  for (const auto& step : w.steps) total_scans += step.second;
  std::vector<int> step_of(total_scans);
  for (int s = 0, f = 0; s < static_cast<int>(w.steps.size()); ++s) {
    for (int i = 0; i < w.steps[s].second; ++i) step_of[f++] = s;
  }
  const std::vector<size_t> planned = ExpectedFrames(w, ref, total_scans);
  std::unique_ptr<std::atomic<size_t>[]> expected(
      new std::atomic<size_t>[w.connections]);
  for (int c = 0; c < w.connections; ++c) expected[c].store(planned[c]);
  std::atomic<int64_t> frame_limit{total_scans};
  Pacing pacing(w.steps.size(), total_scans);
  std::barrier<std::function<void()>> step_barrier(
      kBands, std::function<void()>([&pacing] {
        pacing.stop = pacing.overrun.load();
        if (!pacing.stop) {
          pacing.step_start[pacing.next_step++] =
              Clock::now() + std::chrono::milliseconds(5);
        }
      }));
  std::atomic<int64_t> deadline_ns{std::numeric_limits<int64_t>::max()};
  std::vector<std::vector<Delivered>> got(w.connections);
  std::vector<ProducerOut> outs(kBands);
  std::vector<std::thread> threads;
  for (int c = 0; c < w.connections; ++c) {
    threads.emplace_back(Subscribe, lb->subscribers[c].get(),
                         &lb->query_index[c], &frame_limit, &expected[c],
                         &deadline_ns, corrupt && c == 0, &got[c]);
  }
  threads.emplace_back(ProduceBand, std::cref(in), std::cref(w), 1,
                       lb->producers[1].get(), &step_barrier, &pacing,
                       &outs[1]);
  r.loadgen_threads = 1 + threads.size();
  r.loadgen_connections = lb->producers.size() + lb->subscribers.size();
  ProduceBand(in, w, 0, lb->producers[0].get(), &step_barrier, &pacing,
              &outs[0]);
  threads.back().join();
  threads.pop_back();
  const auto produced = Clock::now();
  // An overrun cut the schedule short: expect the scans both bands
  // published in full. One band may have published a few more; frames
  // of those are checked but not required.
  const int64_t scans = std::min(outs[0].scans, outs[1].scans);
  const int64_t published = std::max(outs[0].scans, outs[1].scans);
  const std::vector<size_t> actual = ExpectedFrames(w, ref, scans);
  frame_limit.store(scans);
  for (int c = 0; c < w.connections; ++c) expected[c].store(actual[c]);
  deadline_ns.store((produced + kDrainTimeout).time_since_epoch().count());
  for (auto& t : threads) t.join();
  r.overrun_step = pacing.overrun_step.load();

  // Acks, lateness and producer-side counters.
  r.ack_ms.resize(w.steps.size());
  std::vector<uint64_t> step_unacked(w.steps.size(), 0);
  for (int b = 0; b < kBands; ++b) {
    for (size_t s = 0; s < w.steps.size(); ++s) {
      r.ack_ms[s].insert(r.ack_ms[s].end(), outs[b].ack_ms[s].begin(),
                         outs[b].ack_ms[s].end());
      step_unacked[s] += outs[b].unacked[s];
    }
    r.late_ms.insert(r.late_ms.end(), outs[b].late_ms.begin(),
                     outs[b].late_ms.end());
    r.publish_us.insert(r.publish_us.end(), outs[b].publish_us.begin(),
                        outs[b].publish_us.end());
    r.window_stalls += lb->producers[b]->stats().window_stalls;
    r.retransmits += lb->producers[b]->stats().retransmits;
    r.attempted += lb->producers[b]->stats().published;
  }
  for (uint64_t u : step_unacked) r.unacked += u;

  // Frames against the reference.
  std::set<std::pair<int, int64_t>> seen;
  std::vector<uint64_t> step_bad(w.steps.size(), 0);
  uint64_t delivered_points = 0;
  Clock::time_point last_frame = produced;
  for (const auto& conn : got) {
    for (const Delivered& d : conn) {
      auto it = ref.find({d.query, d.frame_id % w.slot_period});
      const bool in_range = d.frame_id >= 0 && d.frame_id < published;
      if (it == ref.end() || !in_range || it->second != d.digest ||
          !seen.insert({d.query, d.frame_id}).second) {
        ++r.mismatched;
        if (in_range) ++step_bad[step_of[d.frame_id]];
        continue;
      }
      if (step_of[d.frame_id] == 0) continue;  // warm-up
      r.latency_ms.push_back(Ms(d.at - pacing.last_row_due[d.frame_id]));
      delivered_points += d.points;
      last_frame = std::max(last_frame, d.at);
    }
  }
  for (size_t q = 0; q < w.queries.size(); ++q) {
    for (int64_t f = 0; f < scans; ++f) {
      if (ref.count({static_cast<int>(q), f % w.slot_period}) &&
          !seen.count({static_cast<int>(q), f})) {
        ++r.missing;
        ++step_bad[step_of[f]];
      }
    }
  }
  for (size_t e : actual) r.attempted += e;
  r.failed = r.missing + r.mismatched + r.unacked;

  if (w.kind == Kind::kDurableIngest) {
    for (size_t s = 1; s < w.steps.size(); ++s) {
      const double p99 = Percentile(r.ack_ms[s], 99);
      r.step_ack_p99_ms.push_back(p99);
      if (static_cast<int>(s) < r.overrun_step || r.overrun_step < 0) {
        if (p99 <= kAckLimitMs && step_unacked[s] == 0 && step_bad[s] == 0) {
          r.sustained_scans_per_s = w.steps[s].first;
        }
      }
    }
    double mean_points = 0;
    for (int64_t p : in.scan_points) mean_points += static_cast<double>(p);
    mean_points /= static_cast<double>(in.scan_points.size());
    r.throughput_mpts_s = r.sustained_scans_per_s * mean_points / 1e6;
  } else {
    r.throughput_mpts_s = static_cast<double>(delivered_points) / 1e6 /
                          std::chrono::duration<double>(
                              last_frame - pacing.step_start[1])
                              .count();
  }
  return r;
}

RunResult RunCatchup(const Workload& w, Loopback* lb, const Reference& ref,
                     double seconds, bool corrupt) {
  RunResult r;
  r.loadgen_connections = lb->subscribers.size();
  GeoStreamsClient* client = lb->subscribers[0].get();
  std::vector<size_t> expected(w.queries.size(), 0);
  for (const auto& entry : ref) ++expected[entry.first.first];
  uint64_t points = 0;
  double busy_s = 0;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (size_t i = 0; Clock::now() < end; ++i) {
    const int q = static_cast<int>(i % w.queries.size());
    ++r.attempted;
    const auto t0 = Clock::now();
    Result<int64_t> id = ParseQueryOk(
        client->Command("QUERY " + w.queries[q] + " SINCE 0", 30000));
    r.register_ms.push_back(Ms(Clock::now() - t0));
    if (!id.ok()) Die("catch-up: " + id.status().ToString());
    size_t frames = 0;
    bool bad = false;
    uint64_t call_points = 0;
    while (frames < expected[q]) {
      Result<FrameMessage> frame = client->ReadFrame(10000);
      if (!frame.ok()) break;
      ++frames;
      if (corrupt && i == 0 && frames == 1 && !frame->samples.empty()) {
        frame->samples[0] = std::nextafter(frame->samples[0], 1e300);
      }
      auto it = ref.find({q, frame->frame_id % w.slot_period});
      const uint64_t digest =
          FrameDigest(frame->width, frame->height, frame->bands,
                      frame->samples.data(), frame->samples.size());
      if (frame->query_id != *id || it == ref.end() ||
          it->second != digest) {
        bad = true;
        ++r.mismatched;
      }
      call_points += frame->samples.size();
    }
    const auto t1 = Clock::now();
    if (frames < expected[q]) {
      r.missing += expected[q] - frames;
      bad = true;
    }
    if (bad) {
      ++r.failed_catchups;
    } else {
      r.latency_ms.push_back(Ms(t1 - t0));
      busy_s += std::chrono::duration<double>(t1 - t0).count();
      points += call_points;
    }
    const std::string unregister = "UNREGISTER " + std::to_string(*id);
    Result<std::string> done = client->Command(unregister, 10000);
    if (!done.ok() || done->rfind("OK UNREGISTER", 0) != 0) {
      Die("unregister failed");
    }
  }
  r.failed = r.failed_catchups;
  r.throughput_mpts_s = busy_s > 0 ? static_cast<double>(points) / 1e6 / busy_s
                                   : 0.0;
  return r;
}

RunResult Run(const Inputs& in, const Workload& w, Loopback* lb,
              const Reference& ref, double seconds, bool corrupt) {
  RunResult r = w.kind == Kind::kHistoryCatchup
                    ? RunCatchup(w, lb, ref, seconds, corrupt)
                    : RunOpenLoop(in, w, lb, ref, corrupt);
  if (w.kind != Kind::kHistoryCatchup) r.register_ms = lb->register_ms;
  return r;
}

/// Median/tail latency of the workload's headline latency.
double HeadlineLatency(const Workload& w, const RunResult& r, bool tail) {
  if (w.kind == Kind::kDurableIngest) {
    // Ack latency at the fixed sub-capacity steps (2/4/8 scans/s); the
    // top step probes capacity and reports through throughput_mpts_s.
    std::vector<double> all;
    for (size_t s = 1; s + 1 < r.ack_ms.size(); ++s) {
      all.insert(all.end(), r.ack_ms[s].begin(), r.ack_ms[s].end());
    }
    return Percentile(all, tail ? 99 : 50);
  }
  const double tail_p = w.kind == Kind::kHistoryCatchup ? 90 : 99;
  return Percentile(r.latency_ms, tail ? tail_p : 50);
}

// ---------------------------------------------------------------------
// Traced run: /metrics scrape and per-layer microbenchmarks.

std::string ScrapeMetrics(uint16_t port) {
  const int fd = Take(ConnectTcp("127.0.0.1", port, 2000), "scrape connect");
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  Check(WriteAll(fd, reinterpret_cast<const uint8_t*>(request.data()),
                 request.size()),
        "scrape send");
  std::string response;
  size_t want = std::string::npos;
  uint8_t buf[1 << 16];
  while (response.size() < want) {
    Result<bool> readable = PollReadable(fd, 5000);
    if (!readable.ok() || !*readable) break;
    Result<size_t> n = ReadSome(fd, buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    response.append(reinterpret_cast<const char*>(buf), *n);
    const size_t head = response.find("\r\n\r\n");
    const size_t len = response.find("Content-Length: ");
    if (head != std::string::npos && len != std::string::npos) {
      want = head + 4 + std::strtoull(response.c_str() + len + 16, nullptr, 10);
    }
  }
  CloseFd(fd);
  const size_t head = response.find("\r\n\r\n");
  if (head == std::string::npos) Die("scrape: no HTTP response");
  return response.substr(head + 4);
}

struct Sample {
  std::string name;
  std::string labels;
  double value = 0;
};

std::vector<Sample> ParseExposition(const std::string& body) {
  std::vector<Sample> out;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    Sample s;
    const size_t brace = line.find('{');
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    if (brace != std::string::npos && brace < space) {
      s.name = line.substr(0, brace);
      s.labels = line.substr(brace + 1, line.rfind('}') - brace - 1);
    } else {
      s.name = line.substr(0, space);
    }
    s.value = std::strtod(line.c_str() + space + 1, nullptr);
    out.push_back(std::move(s));
  }
  return out;
}

/// Cumulative buckets (le -> count) merged over every series of
/// `family` whose labels contain `filter`.
std::map<double, double> MergedBuckets(const std::vector<Sample>& samples,
                                       const std::string& family,
                                       const std::string& filter) {
  std::map<double, double> cum;
  const std::string bucket = family + "_bucket";
  for (const Sample& s : samples) {
    if (s.name != bucket || s.labels.find(filter) == std::string::npos) {
      continue;
    }
    const size_t le = s.labels.find("le=\"");
    if (le == std::string::npos) continue;
    const std::string bound = s.labels.substr(le + 4);
    const double upper = bound.rfind("+Inf", 0) == 0
                             ? std::numeric_limits<double>::infinity()
                             : std::strtod(bound.c_str(), nullptr);
    cum[upper] += s.value;
  }
  return cum;
}

/// Percentile by linear interpolation inside the owning bucket, as
/// MetricHistogram::Snapshot::Percentile does; 0 when empty.
double BucketPercentile(const std::map<double, double>& cum, double p) {
  if (cum.empty() || cum.rbegin()->second <= 0) return 0.0;
  const double rank = p / 100.0 * cum.rbegin()->second;
  double prev_bound = 0, prev_count = 0;
  for (const auto& [bound, count] : cum) {
    if (count >= rank && count > prev_count) {
      if (std::isinf(bound)) return prev_bound;
      return prev_bound +
             (bound - prev_bound) * (rank - prev_count) / (count - prev_count);
    }
    prev_bound = std::isinf(bound) ? prev_bound : bound;
    prev_count = count;
  }
  return prev_bound;
}

/// Highest finite bucket bound that received samples.
double BucketMax(const std::map<double, double>& cum) {
  double prev_count = 0, prev_bound = 0, top = 0;
  for (const auto& [bound, count] : cum) {
    if (count > prev_count) top = std::isinf(bound) ? prev_bound : bound;
    prev_count = count;
    if (!std::isinf(bound)) prev_bound = bound;
  }
  return top;
}

double CounterSum(const std::vector<Sample>& samples, const std::string& name) {
  double sum = 0;
  for (const Sample& s : samples) {
    if (s.name == name) sum += s.value;
  }
  return sum;
}

/// Operator kinds that appear in geostreams_operator_latency_us.
const std::vector<std::string> kOpKinds = {"delivery", "ndvi", "reduce",
                                           "reproject", "vrange"};

/// Runs `body` until at least `min_seconds` have passed; returns
/// (iterations, seconds).
std::pair<uint64_t, double> TimeLoop(double min_seconds,
                                     const std::function<void()>& body) {
  uint64_t iterations = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    body();
    ++iterations;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < min_seconds);
  return {iterations, elapsed};
}

using Metrics = std::vector<std::pair<std::string, double>>;

void LayerMicrobenchmarks(const Inputs& in, const Workload& w,
                          const std::vector<BoundingBox>& regions,
                          const std::string& dir, Metrics* m) {
  constexpr double kMin = 0.25;
  // Wire codec and CRC on one recorded scan's ingest messages.
  std::vector<IngestMessage> messages;
  int64_t scan_points = in.scan_points[0];
  for (int b = 0; b < kBands; ++b) {
    uint64_t seq = 1;
    for (const StreamEvent& e : in.scans[0][b]) {
      IngestMessage msg;
      msg.source = kSources[b];
      msg.seq = seq++;
      msg.capture_wall_us = 1;
      msg.event = e;
      messages.push_back(std::move(msg));
    }
  }
  std::vector<std::vector<uint8_t>> encoded(messages.size());
  size_t encoded_bytes = 0;
  auto [enc_it, enc_s] = TimeLoop(kMin, [&] {
    for (size_t i = 0; i < messages.size(); ++i) {
      encoded[i] = EncodeIngestMessage(messages[i]);
    }
  });
  for (const auto& e : encoded) encoded_bytes += e.size();
  m->emplace_back("net.ingest_encode_mpts_s",
                  static_cast<double>(enc_it * scan_points) / 1e6 / enc_s);
  auto [dec_it, dec_s] = TimeLoop(kMin, [&] {
    for (const auto& bytes : encoded) {
      Check(DecodeIngestMessage(bytes.data(), bytes.size()).status(),
            "decode");
    }
  });
  m->emplace_back("net.ingest_decode_mpts_s",
                  static_cast<double>(dec_it * scan_points) / 1e6 / dec_s);
  // Crc32 lives in another translation unit, so its calls are not elided.
  auto [crc_it, crc_s] = TimeLoop(kMin, [&] {
    for (const auto& bytes : encoded) Crc32(bytes.data(), bytes.size());
  });
  m->emplace_back("raster.crc32_mb_s",
                  static_cast<double>(crc_it * encoded_bytes) / 1e6 / crc_s);

  // Assembled source frames of every recorded scan (band 1).
  std::vector<FrameInfo> infos;
  std::vector<AssembledFrame> frames;
  for (int k = 0; k < kRecordedScans; ++k) {
    FrameAssembler assembler;
    for (const StreamEvent& e : in.scans[k][0]) {
      if (e.kind == EventKind::kFrameBegin) {
        infos.push_back(e.frame);
        Check(assembler.Begin(e.frame, 1), "assemble");
      } else if (e.kind == EventKind::kPointBatch) {
        Check(assembler.Add(*e.batch), "assemble");
      }
    }
    frames.push_back(Take(assembler.Finish(), "assemble"));
  }

  // Result-frame codec.
  std::vector<uint8_t> result_bytes;
  auto [renc_it, renc_s] = TimeLoop(kMin, [&] {
    result_bytes = EncodeResultFrame(1, 0, frames[0].raster, {});
  });
  m->emplace_back("net.result_encode_mb_s",
                  static_cast<double>(renc_it * result_bytes.size()) / 1e6 /
                      renc_s);
  auto [rdec_it, rdec_s] = TimeLoop(kMin, [&] {
    Check(DecodeFrameMessage(result_bytes.data(), result_bytes.size()).status(),
          "decode result");
  });
  m->emplace_back("net.result_decode_mb_s",
                  static_cast<double>(rdec_it * result_bytes.size()) / 1e6 /
                      rdec_s);

  // Journal append (group commit), one recorded scan of band 1.
  {
    JournalOptions jo;
    jo.dir = dir + "/journal-layer";
    jo.fsync = FsyncPolicy::kGroupCommit;
    auto journal = Take(IngestJournal::Open(jo), "journal open");
    SourceJournal* source = Take(journal->SourceFor(kSources[0]), "journal");
    uint64_t seq = 1;
    size_t band_bytes = 0;
    const size_t band_messages = in.scans[0][0].size();
    for (size_t i = 0; i < band_messages; ++i) band_bytes += encoded[i].size();
    auto [j_it, j_s] = TimeLoop(kMin, [&] {
      for (size_t i = 0; i < band_messages; ++i) {
        IngestMessage msg = messages[i];
        msg.seq = seq++;
        Check(source->Append(msg), "journal append");
      }
    });
    m->emplace_back("storage.journal_append_mb_s",
                    static_cast<double>(j_it * band_bytes) / 1e6 / j_s);
  }

  // Store: PutFrame latency, then full / overview scans of what it wrote.
  {
    TileStoreOptions so;
    so.dir = dir + "/store-layer";
    auto store = Take(TileStore::Open(so), "store open");
    std::vector<double> put_ms;
    constexpr int kPuts = 24;
    for (int i = 0; i < kPuts; ++i) {
      FrameInfo info = infos[i % kRecordedScans];
      info.frame_id = i;
      const auto t0 = Clock::now();
      Check(store->PutFrame(kSources[0], info, frames[i % kRecordedScans].raster,
                            frames[i % kRecordedScans].filled),
            "put frame");
      put_ms.push_back(Ms(Clock::now() - t0));
    }
    m->emplace_back("store.put_frame_ms_p50", Percentile(put_ms, 50));
    m->emplace_back("store.put_frame_ms_p99", Percentile(put_ms, 99));
    // Both scan rates count base-resolution cells covered, so the
    // overview read shows its saving against the full one.
    int64_t stored_cells = 0;
    for (int i = 0; i < kPuts; ++i) {
      stored_cells += infos[i % kRecordedScans].lattice.num_cells();
    }
    for (int reduce : {1, 4}) {
      CountingSink sink;
      StoreScan scan;
      scan.reduce = reduce;
      auto [s_it, s_s] = TimeLoop(kMin, [&] {
        Check(store->Scan(kSources[0], scan, &sink), "store scan");
      });
      m->emplace_back(reduce == 1 ? "store.scan_full_mpts_s"
                                  : "store.scan_reduced_mpts_s",
                      static_cast<double>(s_it * stored_cells) / 1e6 / s_s);
    }
    std::vector<double> frame_us;
    for (int rep = 0; rep < 4; ++rep) {
      for (int i = 0; i < kPuts; ++i) {
        CountingSink sink;
        const auto t0 = Clock::now();
        Check(store->ScanFrame(kSources[0], i, StoreScan{}, &sink), "scan");
        frame_us.push_back(Ms(Clock::now() - t0) * 1000.0);
      }
    }
    m->emplace_back("store.scan_frame_us_p50", Percentile(frame_us, 50));
    m->emplace_back("store.tile_read_errors",
                    static_cast<double>(store->TotalStats().tile_read_errors));
  }
  std::filesystem::remove_all(dir + "/journal-layer");
  std::filesystem::remove_all(dir + "/store-layer");

  // Shared restriction over the fan-out set's regions, band 1 of every
  // recorded scan.
  {
    SharedRestrictionOp op(std::make_unique<CascadeTree>(
        in.descriptors[0].reference_lattice().Extent()));
    std::vector<CountingSink> sinks(regions.size());
    for (size_t i = 0; i < regions.size(); ++i) {
      const BoundingBox& b = regions[i];
      Check(op.RegisterQuery(static_cast<QueryId>(i + 1),
                             MakeBBoxRegion(b.min_x, b.min_y, b.max_x, b.max_y),
                             &sinks[i]),
            "register region");
    }
    int64_t band_points = 0;
    for (int k = 0; k < kRecordedScans; ++k) {
      band_points += in.scan_points[k] / kBands;
    }
    auto [sr_it, sr_s] = TimeLoop(kMin, [&] {
      for (int k = 0; k < kRecordedScans; ++k) {
        for (const StreamEvent& e : in.scans[k][0]) {
          Check(op.Consume(e), "shared restriction");
        }
      }
    });
    uint64_t routed = 0;
    for (const auto& s : sinks) routed += s.points;
    m->emplace_back("mqo.shared_restriction_mpts_s",
                    static_cast<double>(sr_it * band_points) / 1e6 / sr_s);
    m->emplace_back("mqo.routed_ratio",
                    op.points_routed() == 0
                        ? 0.0
                        : static_cast<double>(routed) /
                              static_cast<double>(op.points_routed()));
  }

  // The engine alone: same queries and scans through DsmsServer::ingest(),
  // workers=0, no network.
  {
    DsmsOptions options;
    DsmsServer server(options);
    for (const auto& desc : in.descriptors) {
      Check(server.RegisterStream(desc), "register stream");
    }
    for (const std::string& q : w.queries) {
      Check(server
                .RegisterQuery(q, [](int64_t, const Raster&,
                                     const std::vector<uint8_t>&) {})
                .status(),
            "register query");
    }
    const std::array<EventSink*, kBands> sinks = {server.ingest(kSources[0]),
                                                  server.ingest(kSources[1])};
    double busy = 0;
    int64_t points = 0;
    for (int64_t f = 0; busy < 0.5 || f < kRecordedScans; ++f) {
      // Relabel outside the timed section so only the engine is timed.
      std::array<std::vector<StreamEvent>, kBands> scan;
      for (int b = 0; b < kBands; ++b) {
        for (const StreamEvent& e : in.scans[f % kRecordedScans][b]) {
          scan[b].push_back(Relabel(e, f));
        }
      }
      const size_t n = std::max(scan[0].size(), scan[1].size());
      const auto t0 = Clock::now();
      for (size_t i = 0; i < n; ++i) {
        for (int b = 0; b < kBands; ++b) {
          if (i < scan[b].size()) Check(sinks[b]->Consume(scan[b][i]), "ingest");
        }
      }
      busy += std::chrono::duration<double>(Clock::now() - t0).count();
      points += in.scan_points[f % kRecordedScans];
    }
    m->emplace_back("server.engine_mpts_s",
                    static_cast<double>(points) / 1e6 / busy);
  }
}

void ScrapedLayerMetrics(const std::string& body, Metrics* m) {
  const std::vector<Sample> s = ParseExposition(body);
  std::set<std::string> kinds;
  for (const Sample& sample : s) {
    const size_t op = sample.labels.find("op=\"");
    if (sample.name == "geostreams_operator_latency_us_count" &&
        op != std::string::npos && sample.value > 0) {
      kinds.insert(sample.labels.substr(op + 4,
                                        sample.labels.find('"', op + 4) - op - 4));
    }
  }
  std::printf("operator kinds traced:");
  for (const std::string& kind : kinds) std::printf(" %s", kind.c_str());
  std::printf("\n");
  const std::string e2e = "geostreams_e2e_latency_us";
  auto stage = [&](const char* name) {
    return MergedBuckets(s, e2e, std::string("stage=\"") + name + "\"");
  };
  m->emplace_back("net.stage_send_us_p50", BucketPercentile(stage("send"), 50));
  m->emplace_back("net.stage_write_us_p50",
                  BucketPercentile(stage("write"), 50));
  m->emplace_back("net.stage_write_us_p95",
                  BucketPercentile(stage("write"), 95));
  m->emplace_back("net.frames_shed",
                  CounterSum(s, "geostreams_client_frames_shed_total"));
  m->emplace_back("storage.stage_journal_us_p50",
                  BucketPercentile(stage("journal"), 50));
  m->emplace_back("storage.stage_journal_us_p95",
                  BucketPercentile(stage("journal"), 95));
  m->emplace_back("storage.append_errors",
                  CounterSum(s, "geostreams_journal_append_errors_total"));
  const auto wait = MergedBuckets(s, "geostreams_scheduler_queue_wait_us", "");
  m->emplace_back("stream.queue_wait_us_p50", BucketPercentile(wait, 50));
  m->emplace_back("stream.queue_wait_us_p99", BucketPercentile(wait, 99));
  m->emplace_back(
      "stream.queue_depth_max",
      BucketMax(MergedBuckets(s, "geostreams_scheduler_queue_depth", "")));
  m->emplace_back("stream.shed_total",
                  CounterSum(s, "geostreams_scheduler_shed_total"));
  m->emplace_back("ops.stage_operators_us_p50",
                  BucketPercentile(stage("operators"), 50));
  m->emplace_back("ops.stage_operators_us_p95",
                  BucketPercentile(stage("operators"), 95));
  for (const std::string& kind : kOpKinds) {
    m->emplace_back("ops." + kind + "_self_us_p50",
                    BucketPercentile(MergedBuckets(s,
                                                   "geostreams_operator_latency_us",
                                                   "op=\"" + kind + "\""),
                                     50));
  }
  m->emplace_back("server.stage_deliver_us_p50",
                  BucketPercentile(stage("deliver"), 50));
  m->emplace_back("server.stage_total_us_p50",
                  BucketPercentile(stage("total"), 50));
  m->emplace_back("server.stage_total_us_p95",
                  BucketPercentile(stage("total"), 95));
}

// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  bool corrupt = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-frame") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.workdir.empty() ||
      !(a.seconds > 0)) {
    Die("usage: loopback_bench --workload W --seed N --seconds S "
        "--trace 0|1 --workdir DIR [--corrupt-frame]");
  }
  return a;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const Metrics& metrics, const std::map<std::string, std::string>& units) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].second);
    if (i) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + units.at(metrics[i].first) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

std::string LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_mpts_s")) return "Mpts/s";
  if (ends("_mb_s")) return "MB/s";
  if (name.find("_us_p") != std::string::npos) return "us";
  if (name.find("_ms_p") != std::string::npos || ends("_ms")) return "ms";
  if (ends("_ratio") || ends("_frac")) return "ratio";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  SetLogLevel(LogLevel::kWarning);
  std::filesystem::create_directories(args.workdir);
  const Workload w = MakeWorkload(args.workload, args.seed, args.seconds);

  // Harness-only preparation, excluded from setup_s.
  const Inputs in = RecordInputs(args.seed);
  const Reference ref = BuildReference(in, w, args.workdir + "/reference");
  if (ref.empty()) Die("reference produced no frames");

  bool correct = true;
  if (!args.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Loopback> lb;
    for (int i = 0; i < kSetups; ++i) {
      lb.reset();
      std::filesystem::remove_all(args.workdir + "/setup");
      const auto t0 = Clock::now();
      lb = SetUp(in, w, args.workdir + "/setup", /*traced=*/false);
      setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    }
    const RunResult r = Run(in, w, lb.get(), ref, args.seconds, args.corrupt);
    lb.reset();
    std::filesystem::remove_all(args.workdir);
    const double peak_rss_mb = MaxRssMb();
    correct = r.mismatched == 0;

    const double p50 = HeadlineLatency(w, r, false);
    const double tail = HeadlineLatency(w, r, true);
    const double failed_frac =
        r.attempted ? static_cast<double>(r.failed) / r.attempted : 1.0;
    std::printf("workload %s seed %llu: %llu attempted, %llu failed "
                "(%llu missing, %llu mismatched, %llu unacked)\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.missing),
                static_cast<unsigned long long>(r.mismatched),
                static_cast<unsigned long long>(r.unacked));
    std::printf("loadgen threads=%zu connections=%zu\n", r.loadgen_threads,
                r.loadgen_connections);
    auto line = [](const char* name, double value, const char* unit,
                   size_t n) {
      std::printf("metric %s %.6g %s (n=%zu)\n", name, value, unit, n);
    };
    if (w.kind == Kind::kLiveFanout) {
      line("frame_latency_p50_ms", p50, "ms", r.latency_ms.size());
      line("frame_latency_p99_ms", tail, "ms", r.latency_ms.size());
    } else if (w.kind == Kind::kDurableIngest) {
      size_t n = 0;  // acks of the 2/4/8 scans/s steps, as HeadlineLatency
      for (size_t s = 1; s + 1 < r.ack_ms.size(); ++s) n += r.ack_ms[s].size();
      line("ack_latency_p50_ms", p50, "ms", n);
      line("ack_latency_p99_ms", tail, "ms", n);
      for (size_t s = 1; s < w.steps.size(); ++s) {
        std::printf("step %g scans/s: ack p50 %.3f ms, p99 %.3f ms over %zu "
                    "acks%s\n",
                    w.steps[s].first, Percentile(r.ack_ms[s], 50),
                    r.step_ack_p99_ms[s - 1], r.ack_ms[s].size(),
                    static_cast<int>(s) == r.overrun_step
                        ? " (backlog grew: schedule stopped)"
                        : "");
      }
      line("sustained_scans_per_s", r.sustained_scans_per_s, "scans/s",
           w.steps.size() - 1);
    } else {
      line("catchup_latency_p50_ms", p50, "ms", r.latency_ms.size());
      line("catchup_latency_p90_ms", tail, "ms", r.latency_ms.size());
      line("catchup_mpts_s", r.throughput_mpts_s, "Mpts/s",
           r.latency_ms.size());
    }
    line("failed_frac", failed_frac, "ratio", r.attempted);
    if (w.kind != Kind::kHistoryCatchup) {
      line("generator_late_p99_ms", Percentile(r.late_ms, 99), "ms",
           r.late_ms.size());
    }
    line("setup_s", Median(setup_s), "s", setup_s.size());
    line("peak_rss_mb", peak_rss_mb, "MB", 1);

    const Metrics metrics = {
        {"latency_p50_ms", p50},
        {"latency_tail_ms", tail},
        {"throughput_mpts_s", r.throughput_mpts_s},
        {"setup_s", Median(setup_s)},
        {"peak_rss_mb", peak_rss_mb},
    };
    const std::map<std::string, std::string> units = {
        {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
        {"throughput_mpts_s", "Mpts/s"}, {"setup_s", "s"},
        {"peak_rss_mb", "MB"}};
    PrintJson(correct, r.attempted, r.failed, metrics, units);
    return correct ? 0 : 1;
  }

  // Traced mode: untraced and traced runs of the same workload.
  auto lb = SetUp(in, w, args.workdir + "/untraced", /*traced=*/false);
  const RunResult plain = Run(in, w, lb.get(), ref, args.seconds, false);
  lb.reset();
  lb = SetUp(in, w, args.workdir + "/traced", /*traced=*/true);
  const RunResult traced = Run(in, w, lb.get(), ref, args.seconds, args.corrupt);
  // Close the load generator's connections before scraping.
  lb->subscribers.clear();
  lb->producers.clear();
  const std::string body = ScrapeMetrics(lb->net->port());
  lb.reset();
  correct = plain.mismatched == 0 && traced.mismatched == 0;

  Metrics m;
  ScrapedLayerMetrics(body, &m);
  m.emplace_back("net.publish_us_p50", Percentile(traced.publish_us, 50));
  m.emplace_back("net.publish_us_p99", Percentile(traced.publish_us, 99));
  m.emplace_back("net.window_stalls", static_cast<double>(traced.window_stalls));
  m.emplace_back("net.retransmits", static_cast<double>(traced.retransmits));
  m.emplace_back("query.register_ms_p50", Percentile(traced.register_ms, 50));
  m.emplace_back("query.register_ms_p99", Percentile(traced.register_ms, 99));
  m.emplace_back("loadgen.late_p99_ms", Percentile(traced.late_ms, 99));
  const double plain_p50 = HeadlineLatency(w, plain, false);
  m.emplace_back("obs.trace_overhead_frac",
                 plain_p50 > 0 ? HeadlineLatency(w, traced, false) / plain_p50 - 1.0
                               : 0.0);
  // The fan-out regions for this seed, whichever workload ran.
  LayerMicrobenchmarks(in, w,
                       MakeWorkload("live_fanout", args.seed, args.seconds)
                           .regions,
                       args.workdir, &m);
  std::filesystem::remove_all(args.workdir);
  std::map<std::string, std::string> units;
  for (const auto& [name, value] : m) units[name] = LayerUnit(name);
  PrintJson(correct, plain.attempted + traced.attempted,
            plain.failed + traced.failed, m, units);
  return correct ? 0 : 1;
}
