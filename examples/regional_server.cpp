// Multi-user regional subscription server: the Fig. 3 scenario.
//
// Many clients register continuous queries with individual regions of
// interest against one GOES-like stream. The server's dynamic cascade
// tree acts as a single shared spatial-restriction operator (Sec. 4).
//
//   ./regional_server [num_clients] [num_scans] [--workers=N]
//                     [--port=P] [--delay-ms=D] [--ingest-port=P]
//                     [--metrics-interval=MS] [--trace-every=N]
//                     [--journal-dir=DIR] [--fsync=per-record|group-commit|off]
//                     [--ingest-token=T] [--store-dir=DIR]
//                     [--control-token=T] [--journal-max-bytes=N]
//                     [--store-max-bytes=N] [--store-max-frames=N]
//
// With --journal-dir=DIR every acked ingest batch is journaled to DIR
// before the ack goes out (--fsync picks the durability policy), and a
// restart recovers the per-source sequence state from disk — acked
// batches survive kill -9, producers resume from the last ack. With
// --ingest-token=T producers must present the token on ATTACH.
//
// With --store-dir=DIR every assembled frame is also recorded into a
// tiled + pyramided historical store, and clients can register hybrid
// queries: `QUERY <text> SINCE <t>` replays recorded frames >= t
// through the query's plan and then cuts over to the live stream
// exactly once. With --control-token=T, mutating control verbs
// (QUERY / UNREGISTER / RESTART / DLQ) require `AUTH T` first; GET
// /metrics and the read-only verbs stay open.
//
// --journal-max-bytes / --store-max-bytes / --store-max-frames put
// disk budgets on the durable planes: retention retires settled
// journal segments (compacting still-unacked records forward) and
// prunes the oldest stored frames to stay inside them. If the disk
// fills anyway, the storage governor degrades the plane — producers
// are NACKed, PutFrame sheds, HEALTH says storage=DEGRADED — and
// self-heals once space frees; queries keep serving throughout.
//
// With --metrics-interval=MS a background thread prints one summary
// line (DsmsServer::SummaryLine) every MS milliseconds — the
// minute-by-minute operator's view; the full registry is one METRICS
// command away. With --trace-every=N every Nth ingested batch carries
// a trace context (TRACE <query-id> shows the sampled spans).
//
// Every client query is one scheduler pipeline. With --workers=N, N
// threads execute them in parallel, decoupled from ingest through the
// per-query queues; N=0, the default, runs them on the ingest thread
// before each ingest call returns. Supervision (health, dead letters,
// RESTART) and tracing are the same either way.
//
// With --port=P the example turns into a real TCP server: instead of
// simulating clients in-process it listens on 127.0.0.1:P (P=0 picks
// an ephemeral port and prints it), streams num_scans scans with
// --delay-ms between them so remote clients (`nc 127.0.0.1 P`) can
// register queries and watch frames arrive, then exits — it never
// runs forever, so scripted runs cannot hang.
//
// With --ingest-port=P (implies server mode) the instrument moves out
// of this process entirely: a second listener accepts remote
// producers (see ingest_producer.cpp) that stream sequenced GSF1
// ingest batches into `goes.band1`, while clients keep registering
// queries on the main port. The server waits a bounded window
// (num_scans * delay_ms), reports the source's ingest counters, and
// exits.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/math_util.h"
#include "net/net_server.h"
#include "server/dsms_server.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"

using namespace geostreams;

namespace {

int Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "error (%s): %s\n", what, status.ToString().c_str());
  return 1;
}

/// Background one-line-summary printer (--metrics-interval). Wakes on
/// a condition variable so shutdown never waits a full interval.
class SummaryPrinter {
 public:
  SummaryPrinter(DsmsServer* server, int interval_ms)
      : server_(server), interval_ms_(interval_ms) {
    if (interval_ms_ > 0) {
      thread_ = std::thread([this] { Loop(); });
    }
  }
  ~SummaryPrinter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                   [this] { return stop_; });
      if (stop_) return;
      lock.unlock();
      std::printf("[metrics] %s\n", server_->SummaryLine().c_str());
      std::fflush(stdout);
      lock.lock();
    }
  }

  DsmsServer* server_;
  const int interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  int num_clients = 40;
  int num_scans = 6;
  size_t workers = 0;
  bool serve = false;
  uint16_t port = 0;
  int ingest_port = -1;  // -1 = no producer listener
  int delay_ms = 150;
  int metrics_interval_ms = 0;
  int trace_every = 0;
  std::string journal_dir;
  std::string fsync_policy = "per-record";
  std::string ingest_token;
  std::string store_dir;
  std::string control_token;
  uint64_t journal_max_bytes = 0;
  uint64_t store_max_bytes = 0;
  uint64_t store_max_frames = 0;
  int positional = 0;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--workers=", 10) == 0) {
      const int parsed = std::atoi(argv[a] + 10);
      workers = parsed > 0 ? static_cast<size_t>(parsed) : 0;
    } else if (std::strncmp(argv[a], "--port=", 7) == 0) {
      serve = true;
      port = static_cast<uint16_t>(std::atoi(argv[a] + 7));
    } else if (std::strncmp(argv[a], "--ingest-port=", 14) == 0) {
      serve = true;
      ingest_port = std::atoi(argv[a] + 14);
    } else if (std::strncmp(argv[a], "--delay-ms=", 11) == 0) {
      delay_ms = std::atoi(argv[a] + 11);
    } else if (std::strncmp(argv[a], "--metrics-interval=", 19) == 0) {
      metrics_interval_ms = std::atoi(argv[a] + 19);
    } else if (std::strncmp(argv[a], "--trace-every=", 14) == 0) {
      trace_every = std::atoi(argv[a] + 14);
    } else if (std::strncmp(argv[a], "--journal-dir=", 14) == 0) {
      journal_dir = argv[a] + 14;
    } else if (std::strncmp(argv[a], "--fsync=", 8) == 0) {
      fsync_policy = argv[a] + 8;
    } else if (std::strncmp(argv[a], "--ingest-token=", 15) == 0) {
      ingest_token = argv[a] + 15;
    } else if (std::strncmp(argv[a], "--store-dir=", 12) == 0) {
      store_dir = argv[a] + 12;
    } else if (std::strncmp(argv[a], "--control-token=", 16) == 0) {
      control_token = argv[a] + 16;
    } else if (std::strncmp(argv[a], "--journal-max-bytes=", 20) == 0) {
      journal_max_bytes = std::strtoull(argv[a] + 20, nullptr, 10);
    } else if (std::strncmp(argv[a], "--store-max-bytes=", 18) == 0) {
      store_max_bytes = std::strtoull(argv[a] + 18, nullptr, 10);
    } else if (std::strncmp(argv[a], "--store-max-frames=", 19) == 0) {
      store_max_frames = std::strtoull(argv[a] + 19, nullptr, 10);
    } else if (positional == 0) {
      num_clients = std::atoi(argv[a]);
      ++positional;
    } else {
      num_scans = std::atoi(argv[a]);
      ++positional;
    }
  }

  InstrumentConfig config;
  config.crs_name = "latlon";
  config.cells_per_sector = 128 * 96;
  config.bands = {SpectralBand::kVisible};
  config.name_prefix = "goes";
  StreamGenerator generator(config, ScanSchedule::GoesRoutine());
  if (Status st = generator.Init(); !st.ok()) return Fail(st, "generator");

  DsmsOptions options;
  options.shared_restriction = true;
  options.workers = workers;
  if (trace_every > 0) {
    options.trace_sample_every = static_cast<size_t>(trace_every);
  }
  if (!journal_dir.empty()) {
    options.journal_dir = journal_dir;
    if (fsync_policy == "per-record") {
      options.journal.fsync = FsyncPolicy::kPerRecord;
    } else if (fsync_policy == "group-commit") {
      options.journal.fsync = FsyncPolicy::kGroupCommit;
    } else if (fsync_policy == "off") {
      options.journal.fsync = FsyncPolicy::kOff;
    } else {
      std::fprintf(stderr,
                   "unknown --fsync=%s (per-record | group-commit | off)\n",
                   fsync_policy.c_str());
      return 1;
    }
  }
  options.store_dir = store_dir;
  // Disk caps: retention enforces them (settled journal records
  // retire, old store frames prune); real disk pressure beyond them
  // degrades the storage plane instead of crashing the server.
  options.journal.retention_max_bytes = journal_max_bytes;
  options.store.retention_max_bytes = store_max_bytes;
  options.store.retention_max_frames = store_max_frames;
  DsmsServer server(options);
  if (server.store() != nullptr) {
    const TileStoreRecovery& rec = server.store()->recovery();
    std::printf(
        "tile store at %s: %llu frames recovered (%llu tile pages), "
        "%llu torn tails, %llu corrupt regions\n",
        store_dir.c_str(),
        static_cast<unsigned long long>(rec.frames_recovered),
        static_cast<unsigned long long>(rec.tile_pages_recovered),
        static_cast<unsigned long long>(rec.torn_tails),
        static_cast<unsigned long long>(rec.corrupt_regions));
  }
  if (server.journal() != nullptr) {
    const JournalRecovery& rec = server.journal()->recovery();
    std::printf(
        "durable journal at %s (%s fsync): %zu sources recovered, "
        "%llu records replayed, %llu torn tails truncated, "
        "%llu corrupt regions quarantined\n",
        journal_dir.c_str(), FsyncPolicyName(server.journal()->options().fsync),
        rec.sources.size(),
        static_cast<unsigned long long>(rec.records_replayed),
        static_cast<unsigned long long>(rec.torn_tails),
        static_cast<unsigned long long>(rec.corrupt_regions));
    for (const auto& [name, src] : rec.sources) {
      std::printf("  %s: next_seq=%llu (%llu records, %llu dup)\n",
                  name.c_str(),
                  static_cast<unsigned long long>(src.next_seq),
                  static_cast<unsigned long long>(src.records_replayed),
                  static_cast<unsigned long long>(src.duplicate_records));
    }
  }
  if (workers > 0) {
    std::printf("query worker pool: %zu threads\n", server.num_workers());
  }
  if (trace_every > 0) {
    std::printf("tracing every %dth ingested batch (TRACE <id> to dump)\n",
                trace_every);
  }
  SummaryPrinter summaries(&server, metrics_interval_ms);
  auto desc = generator.Descriptor(0);
  if (!desc.ok()) return Fail(desc.status(), "descriptor");
  if (Status st = server.RegisterStream(*desc); !st.ok()) {
    return Fail(st, "register stream");
  }

  if (serve) {
    // Real TCP mode: remote clients register their own queries over
    // the control plane while this thread plays instrument.
    NetServerOptions net_options;
    net_options.port = port;
    net_options.ingest_port = ingest_port;
    net_options.ingest_auth_token = ingest_token;
    net_options.control_auth_token = control_token;
    NetServer net(&server, net_options);
    if (!ingest_token.empty()) {
      std::printf("producers must ATTACH with the shared token\n");
    }
    if (!control_token.empty()) {
      std::printf("mutating control verbs require AUTH <token>\n");
    }
    if (Status st = net.Start(); !st.ok()) return Fail(st, "net start");
    std::printf("listening on 127.0.0.1:%u (%d scans, %d ms apart)\n",
                net.port(), num_scans, delay_ms);
    std::printf("  try:  nc 127.0.0.1 %u\n", net.port());
    std::printf(
        "        QUERY region(goes.band1, bbox(-105, 35, -100, 40))\n");
    std::printf("        METRICS            (Prometheus exposition)\n");
    if (server.store() != nullptr) {
      std::printf(
          "        QUERY goes.band1 SINCE 0   (replay history, then live)\n");
    }
    if (trace_every > 0) {
      std::printf("        TRACE <query-id>   (sampled span records)\n");
    }
    if (ingest_port >= 0) {
      // Remote-fed mode: the instrument lives in a producer process
      // (ingest_producer.cpp). Wait a bounded window for its batches,
      // report the source's ingest counters, and exit — this process
      // keeps stream-end authority, so a producer that merely
      // disconnects can attach again and resume from the last ack.
      std::printf("ingest plane on 127.0.0.1:%u\n", net.ingest_port());
      std::printf("  feed it:  ./ingest_producer --port=%u --scans=%d\n",
                  net.ingest_port(), num_scans);
      for (int scan = 0; scan < num_scans; ++scan) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
      if (auto stats = net.IngestStats("goes.band1"); stats.ok()) {
        std::printf(
            "ingest: delivered=%llu duplicates=%llu gaps=%llu next=%llu\n",
            static_cast<unsigned long long>(stats->delivered),
            static_cast<unsigned long long>(stats->duplicates),
            static_cast<unsigned long long>(stats->gaps),
            static_cast<unsigned long long>(stats->next_expected));
      } else {
        std::printf("ingest: no producer attached\n");
      }
      if (Status st = server.EndAllStreams(); !st.ok()) return Fail(st, "end");
      net.Stop();
      std::printf("ingest window closed after %d x %d ms; exiting\n",
                  num_scans, delay_ms);
      return 0;
    }
    for (int scan = 0; scan < num_scans; ++scan) {
      if (Status st =
              generator.GenerateScans(scan, 1, {server.ingest("goes.band1")});
          !st.ok()) {
        return Fail(st, "generate");
      }
      if (Status st = server.Flush(); !st.ok()) return Fail(st, "flush");
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    if (Status st = server.EndAllStreams(); !st.ok()) return Fail(st, "end");
    net.Stop();
    std::printf("served %d scans to %zu connected clients; exiting\n",
                num_scans, net.num_sessions());
    return 0;
  }

  // Each "client" subscribes to a random city-to-state-sized window
  // over the CONUS footprint.
  struct Client {
    QueryId id = 0;
    uint64_t frames = 0;
    uint64_t pixels = 0;
  };
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < num_clients; ++i) {
    const double lon0 =
        -124.0 + HashToUnit(static_cast<uint64_t>(i) * 3 + 0) * 50.0;
    const double lat0 =
        25.0 + HashToUnit(static_cast<uint64_t>(i) * 3 + 1) * 18.0;
    const double size =
        1.0 + HashToUnit(static_cast<uint64_t>(i) * 3 + 2) * 7.0;
    char query[160];
    std::snprintf(query, sizeof(query),
                  "region(goes.band1, bbox(%.2f, %.2f, %.2f, %.2f))", lon0,
                  lat0, lon0 + size, lat0 + size);
    auto client = std::make_unique<Client>();
    Client* raw = client.get();
    auto id = server.RegisterQuery(
        query, [raw](int64_t, const Raster& raster,
                     const std::vector<uint8_t>&) {
          ++raw->frames;
          raw->pixels +=
              static_cast<uint64_t>(raster.num_pixels());
        });
    if (!id.ok()) return Fail(id.status(), "register client query");
    client->id = *id;
    clients.push_back(std::move(client));
  }
  std::printf("registered %d regional subscriptions\n", num_clients);

  if (Status st = generator.GenerateScans(0, num_scans,
                                         {server.ingest("goes.band1")});
      !st.ok()) {
    return Fail(st, "generate");
  }
  if (Status st = server.EndAllStreams(); !st.ok()) return Fail(st, "end");

  // Per-client report + a sample unsubscribe.
  uint64_t total_pixels = 0;
  for (size_t i = 0; i < clients.size(); ++i) {
    total_pixels += clients[i]->pixels;
    if (i < 5) {
      std::printf("client %zu: %llu frames, %llu pixels delivered\n", i,
                  static_cast<unsigned long long>(clients[i]->frames),
                  static_cast<unsigned long long>(clients[i]->pixels));
    }
  }
  std::printf("... (%zu clients total, %llu pixels delivered overall)\n",
              clients.size(),
              static_cast<unsigned long long>(total_pixels));
  std::printf("operator memory: %llu bytes across %zu owners (peak %llu)\n",
              static_cast<unsigned long long>(server.memory().TotalBytes()),
              server.memory().Snapshot().size(),
              static_cast<unsigned long long>(
                  server.memory().HighWaterBytes()));

  {
    // Supervision summary: per-health query counts plus scheduler-wide
    // fault counters (all zero on a clean run).
    size_t healthy = 0, degraded = 0, quarantined = 0;
    for (const auto& client : clients) {
      auto health = server.QueryHealth(client->id);
      if (!health.ok()) continue;
      switch (*health) {
        case PipelineHealth::kRunning:
          ++healthy;
          break;
        case PipelineHealth::kDegraded:
          ++degraded;
          break;
        case PipelineHealth::kQuarantined:
          ++quarantined;
          std::printf("  quarantined query %lld: %s\n",
                      static_cast<long long>(client->id),
                      server.QueryError(client->id).ToString().c_str());
          break;
      }
    }
    ScheduledQueueStats totals;
    for (const auto& qs : server.SchedulerStats()) totals.MergeFrom(qs);
    std::printf(
        "query health: %zu running, %zu degraded, %zu quarantined "
        "(%llu dead-lettered, %llu restarts, %llu rejected)\n",
        healthy, degraded, quarantined,
        static_cast<unsigned long long>(totals.dead_letters),
        static_cast<unsigned long long>(totals.restarts),
        static_cast<unsigned long long>(totals.rejected));
  }

  if (Status st = server.UnregisterQuery(clients[0]->id); !st.ok()) {
    return Fail(st, "unregister");
  }
  std::printf("client 0 unsubscribed; %zu queries remain\n",
              server.num_queries());
  return server.num_queries() == clients.size() - 1 ? 0 : 1;
}
