// Network boundary tests: wire framing (strict decode), command
// dispatch (no sockets), per-client backpressure, and loopback
// end-to-end runs of the full TCP stack — control plane, streaming
// delivery, slow-consumer shedding, and RESTART recovery. Every
// server binds port 0 (ephemeral), so tests parallelize safely.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"

#include "net/client_session.h"
#include "net/command_dispatch.h"
#include "net/geostreams_client.h"
#include "net/net_server.h"
#include "net/socket_util.h"
#include "net/wire_protocol.h"
#include "obs/event_log.h"
#include "server/dsms_server.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol

FrameMessage SampleMessage() {
  FrameMessage message;
  message.query_id = 42;
  message.frame_id = 7;
  message.width = 3;
  message.height = 2;
  message.bands = 1;
  message.samples = {0.0, 1.5, -2.25, 3.125, 1e300, -0.5};
  return message;
}

TEST(WireProtocolTest, RoundTripSamples) {
  const FrameMessage original = SampleMessage();
  const std::vector<uint8_t> wire = EncodeFrameMessage(original);
  ASSERT_GE(wire.size(), kWireHeaderSize + kFramePreambleSize);
  auto decoded = DecodeFrameMessage(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->query_id, 42);
  EXPECT_EQ(decoded->frame_id, 7);
  EXPECT_EQ(decoded->width, 3u);
  EXPECT_EQ(decoded->height, 2u);
  EXPECT_EQ(decoded->bands, 1u);
  EXPECT_FALSE(decoded->png);
  EXPECT_EQ(decoded->samples, original.samples);
}

TEST(WireProtocolTest, RoundTripPng) {
  FrameMessage message;
  message.query_id = 1;
  message.frame_id = 2;
  message.width = 8;
  message.height = 8;
  message.bands = 1;
  message.png = true;
  message.png_bytes = {0x89, 'P', 'N', 'G', 0x0D, 0x0A, 0x1A, 0x0A, 0x00};
  const std::vector<uint8_t> wire = EncodeFrameMessage(message);
  auto decoded = DecodeFrameMessage(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->png);
  EXPECT_EQ(decoded->png_bytes, message.png_bytes);
}

TEST(WireProtocolTest, RejectsMalformedInputWithoutCrashing) {
  const std::vector<uint8_t> wire = EncodeFrameMessage(SampleMessage());

  // Truncations at every prefix length: never OK, never a crash.
  for (size_t len = 0; len < wire.size(); ++len) {
    auto r = DecodeFrameMessage(wire.data(), len);
    EXPECT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }

  // Bad magic.
  std::vector<uint8_t> bad = wire;
  bad[0] = 'X';
  EXPECT_EQ(DecodeFrameMessage(bad.data(), bad.size()).status().code(),
            StatusCode::kInvalidArgument);

  // Flipped payload byte fails the CRC.
  bad = wire;
  bad[kWireHeaderSize + kFramePreambleSize + 3] ^= 0x40;
  auto r = DecodeFrameMessage(bad.data(), bad.size());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);

  // Length field pointing far beyond the limit.
  bad = wire;
  bad[8] = 0xFF;
  bad[9] = 0xFF;
  bad[10] = 0xFF;
  bad[11] = 0xFF;
  EXPECT_EQ(DecodeFrameMessage(bad.data(), bad.size()).status().code(),
            StatusCode::kInvalidArgument);

  // Pure garbage.
  std::vector<uint8_t> garbage(64, 0xA5);
  EXPECT_EQ(
      DecodeFrameMessage(garbage.data(), garbage.size()).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, DemultiplexesTextAndBinaryAcrossChunks) {
  const std::vector<uint8_t> wire = EncodeFrameMessage(SampleMessage());
  std::vector<uint8_t> stream;
  const std::string line1 = "OK QUERY 42\r\n";
  stream.insert(stream.end(), line1.begin(), line1.end());
  stream.insert(stream.end(), wire.begin(), wire.end());
  const std::string line2 = "OK PONG\n";
  stream.insert(stream.end(), line2.begin(), line2.end());

  FrameDecoder decoder;
  std::vector<FrameDecoder::Unit> units;
  // Dribble the bytes in 5-byte chunks; incomplete input must yield
  // nullopt, never an error or a partial unit.
  for (size_t off = 0; off < stream.size(); off += 5) {
    decoder.Feed(stream.data() + off, std::min<size_t>(5, stream.size() - off));
    for (;;) {
      auto unit = decoder.Next();
      ASSERT_TRUE(unit.ok()) << unit.status().ToString();
      if (!unit->has_value()) break;
      units.push_back(std::move(**unit));
    }
  }
  ASSERT_EQ(units.size(), 3u);
  ASSERT_TRUE(units[0].line.has_value());
  EXPECT_EQ(*units[0].line, "OK QUERY 42");  // \r\n stripped
  ASSERT_TRUE(units[1].frame.has_value());
  EXPECT_EQ(units[1].frame->query_id, 42);
  ASSERT_TRUE(units[2].line.has_value());
  EXPECT_EQ(*units[2].line, "OK PONG");
}

TEST(FrameDecoderTest, GarbageAfterMagicPoisonsTheStream) {
  // Only the FULL 4-byte magic selects the binary path; garbage after
  // it (bad type byte here) is desynchronization and stays fatal.
  FrameDecoder decoder;
  std::vector<uint8_t> junk(kWireHeaderSize, 0x00);
  junk[0] = 'G';
  junk[1] = 'S';
  junk[2] = 'F';
  junk[3] = '1';
  decoder.Feed(junk.data(), junk.size());
  auto first = decoder.Next();
  EXPECT_FALSE(first.ok());
  auto second = decoder.Next();  // the error is sticky
  EXPECT_FALSE(second.ok());
}

TEST(FrameDecoderTest, GLeadingTextStaysOnTheLinePath) {
  // 'G'-leading text ("GET /metrics", future verbs) must not be
  // mistaken for a binary frame even when the first bytes arrive
  // alone — the decoder waits until the 4-byte magic is decided.
  FrameDecoder decoder;
  const std::string request = "GET /metrics HTTP/1.0\r\n";
  decoder.Feed(reinterpret_cast<const uint8_t*>(request.data()), 2);
  auto pending = decoder.Next();
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  EXPECT_FALSE(pending->has_value());  // "GE" could still become magic
  decoder.Feed(reinterpret_cast<const uint8_t*>(request.data()) + 2,
               request.size() - 2);
  auto unit = decoder.Next();
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  ASSERT_TRUE(unit->has_value());
  ASSERT_TRUE((*unit)->line.has_value());
  EXPECT_EQ(*(*unit)->line, "GET /metrics HTTP/1.0");

  // And a real binary frame still decodes right after it.
  const std::vector<uint8_t> wire = EncodeFrameMessage(SampleMessage());
  decoder.Feed(wire.data(), wire.size());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame->has_value());
  EXPECT_TRUE((*frame)->frame.has_value());
}

// ---------------------------------------------------------------------------
// Command dispatch (no sockets)

class FakeHooks : public SessionHooks {
 public:
  /// Answers 7 for a live query and 8 for a SINCE query.
  Result<QueryId> RegisterClientQuery(const std::string& text,
                                      int64_t since) override {
    last_query = text;
    last_since = since;
    if (fail_register) return Status::ParseError("bad query");
    return QueryId{since == INT64_MAX ? 7 : 8};
  }
  Status UnregisterClientQuery(QueryId id) override {
    last_unregistered = id;
    return Status::OK();
  }
  std::string SessionStatsLine() override {
    return "enqueued=1 dropped=0 keep=1.00";
  }

  Status ControlAuth(const std::string& token) override {
    authorized = token == "sesame";
    return authorized ? Status::OK()
                      : Status::FailedPrecondition("control token rejected");
  }
  Status AuthorizeControl() override {
    if (!require_auth || authorized) return Status::OK();
    return Status::FailedPrecondition("control token required (AUTH <token>)");
  }

  std::string last_query;
  int64_t last_since = INT64_MIN;
  QueryId last_unregistered = -1;
  bool fail_register = false;
  bool require_auth = false;
  bool authorized = false;
};

TEST(CommandDispatchTest, CoreVerbs) {
  DsmsServer server;  // empty engine is enough for HEALTH
  FakeHooks hooks;
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "PING"), "OK PONG");
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "  ping  "), "OK PONG");
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "QUERY ndvi(a.b, a.c)"),
            "OK QUERY 7");
  EXPECT_EQ(hooks.last_query, "ndvi(a.b, a.c)");
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "UNREGISTER 7"),
            "OK UNREGISTER 7");
  EXPECT_EQ(hooks.last_unregistered, 7);
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "HEALTH"), "OK HEALTH n=0");
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "STATS"),
            "OK STATS enqueued=1 dropped=0 keep=1.00");
}

TEST(CommandDispatchTest, ErrorsAreErrResponses) {
  DsmsServer server;
  FakeHooks hooks;
  EXPECT_EQ(ExecuteCommand(&server, &hooks, ""),
            "ERR InvalidArgument empty command");
  EXPECT_TRUE(StartsWith(ExecuteCommand(&server, &hooks, "FROBNICATE"),
                         "ERR InvalidArgument unknown command"));
  EXPECT_TRUE(StartsWith(ExecuteCommand(&server, &hooks, "QUERY"),
                         "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(ExecuteCommand(&server, &hooks, "UNREGISTER abc"),
                         "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(ExecuteCommand(&server, &hooks, "RESTART 99"),
                         "ERR NotFound"));
  EXPECT_TRUE(StartsWith(ExecuteCommand(&server, &hooks, "DLQ 99"),
                         "ERR NotFound"));
  hooks.fail_register = true;
  EXPECT_TRUE(StartsWith(ExecuteCommand(&server, &hooks, "QUERY x"),
                         "ERR ParseError"));
}

TEST(CommandDispatchTest, QuerySinceRoutesToTheCatchUpHook) {
  DsmsServer server;
  FakeHooks hooks;
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "QUERY ndvi(a.b, a.c) SINCE 17"),
            "OK QUERY 8");
  EXPECT_EQ(hooks.last_query, "ndvi(a.b, a.c)");
  EXPECT_EQ(hooks.last_since, 17);

  // Case-insensitive, negative watermarks allowed.
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "query a.b since -3"),
            "OK QUERY 8");
  EXPECT_EQ(hooks.last_since, -3);

  // "SINCE" without a numeric tail is part of the query text, not the
  // clause: the whole string registers live (since INT64_MAX).
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "QUERY a.since"), "OK QUERY 7");
  EXPECT_EQ(hooks.last_query, "a.since");
  EXPECT_EQ(hooks.last_since, INT64_MAX);
  // A bare "since N" with no query text in front is not a clause —
  // it reaches the parser as query text and fails there, not here.
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "QUERY since 5"), "OK QUERY 7");
  EXPECT_EQ(hooks.last_query, "since 5");
  EXPECT_EQ(hooks.last_since, INT64_MAX);
}

TEST(CommandDispatchTest, MutatingVerbsRequireAuthWhenConfigured) {
  DsmsServer server;
  FakeHooks hooks;
  hooks.require_auth = true;
  // Read-only verbs stay open.
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "PING"), "OK PONG");
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "HEALTH"), "OK HEALTH n=0");
  // Mutating verbs bounce until AUTH succeeds.
  EXPECT_TRUE(StartsWith(ExecuteCommand(&server, &hooks, "QUERY a.b"),
                         "ERR FailedPrecondition"));
  EXPECT_TRUE(StartsWith(ExecuteCommand(&server, &hooks, "UNREGISTER 7"),
                         "ERR FailedPrecondition"));
  EXPECT_TRUE(StartsWith(ExecuteCommand(&server, &hooks, "RESTART 1"),
                         "ERR FailedPrecondition"));
  EXPECT_TRUE(StartsWith(ExecuteCommand(&server, &hooks, "DLQ 1"),
                         "ERR FailedPrecondition"));
  EXPECT_TRUE(StartsWith(ExecuteCommand(&server, &hooks, "AUTH wrong"),
                         "ERR FailedPrecondition"));
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "AUTH sesame"), "OK AUTH");
  EXPECT_EQ(ExecuteCommand(&server, &hooks, "QUERY a.b"), "OK QUERY 7");
}

TEST(CommandDispatchTest, HttpRequestHandling) {
  EXPECT_TRUE(IsHttpRequestLine("GET /metrics HTTP/1.0"));
  EXPECT_TRUE(IsHttpRequestLine("HEAD /metrics HTTP/1.1"));
  EXPECT_TRUE(IsHttpRequestLine("  GET / HTTP/1.1"));
  EXPECT_FALSE(IsHttpRequestLine("QUERY a.b"));
  EXPECT_FALSE(IsHttpRequestLine("GETX /"));

  DsmsServer server;
  const std::string ok = HandleHttpRequest(&server, "GET /metrics HTTP/1.0");
  EXPECT_TRUE(StartsWith(ok, "HTTP/1.0 200 OK\r\n"));
  EXPECT_NE(ok.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(ok.find("geostreams_"), std::string::npos);
  EXPECT_NE(ok.find("Connection: close"), std::string::npos);

  const std::string head = HandleHttpRequest(&server, "HEAD /metrics HTTP/1.1");
  EXPECT_TRUE(StartsWith(head, "HTTP/1.0 200 OK\r\n"));
  EXPECT_EQ(head.find("geostreams_"), std::string::npos);  // no body

  const std::string missing = HandleHttpRequest(&server, "GET /nope HTTP/1.0");
  EXPECT_TRUE(StartsWith(missing, "HTTP/1.0 404 Not Found\r\n"));
}

TEST(CommandDispatchTest, EventzEndpointDumpsFlightRecorder) {
  DsmsServer server;  // construction records the "server start" event
  const std::string ok = HandleHttpRequest(&server, "GET /eventz HTTP/1.0");
  EXPECT_TRUE(StartsWith(ok, "HTTP/1.0 200 OK\r\n")) << ok;
  EXPECT_NE(ok.find("Content-Type: text/plain"), std::string::npos) << ok;
  const size_t body_at = ok.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = ok.substr(body_at + 4);
  EXPECT_TRUE(StartsWith(body, "total=")) << body;
  EXPECT_NE(body.find("kept="), std::string::npos) << body;
  EXPECT_NE(body.find("\nEV 0 "), std::string::npos) << body;
  EXPECT_NE(body.find("comp=server kind=start"), std::string::npos) << body;
}

// ---------------------------------------------------------------------------
// ClientSession backpressure (raw socket pair)

struct SocketPair {
  int server_fd = -1;
  int client_fd = -1;
  int listen_fd = -1;

  Status Open() {
    GEOSTREAMS_ASSIGN_OR_RETURN(listen_fd, ListenTcp(0));
    GEOSTREAMS_ASSIGN_OR_RETURN(uint16_t port, LocalPort(listen_fd));
    GEOSTREAMS_ASSIGN_OR_RETURN(client_fd, ConnectTcp("127.0.0.1", port));
    GEOSTREAMS_ASSIGN_OR_RETURN(server_fd, AcceptClient(listen_fd));
    return Status::OK();
  }
  ~SocketPair() {
    CloseFd(client_fd);
    CloseFd(listen_fd);
    // server_fd is owned by the ClientSession under test.
  }
};

TEST(ClientSessionTest, SlowConsumerShedsThenDisconnects) {
  SocketPair pair;
  GS_ASSERT_OK(pair.Open());
  ClientSessionOptions options;
  options.max_queue_events = 2;
  options.max_consecutive_drops = 5;
  options.send_buffer_bytes = 4096;
  ClientSession session(pair.server_fd, 1, options);

  // 256 KiB frames against an unread 4 KiB socket buffer: the writer
  // jams on the first frame, the queue caps at two, and every further
  // enqueue sheds until the consecutive-drop limit closes the session.
  auto frame = std::make_shared<const std::vector<uint8_t>>(
      std::vector<uint8_t>(256 * 1024, 0xCD));
  bool disconnected = false;
  for (int i = 0; i < 64 && !disconnected; ++i) {
    Status st = session.EnqueueFrame(frame);
    if (session.closed()) disconnected = true;
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
    }
  }
  EXPECT_TRUE(disconnected);
  const auto stats = session.Stats();
  EXPECT_GE(stats.frames_dropped, options.max_consecutive_drops);
  EXPECT_TRUE(stats.closed);
  // Closed session refuses everything, quietly.
  EXPECT_EQ(session.EnqueueFrame(frame).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ClientSessionTest, SlowConsumerDisconnectIsFlightRecorded) {
  SocketPair pair;
  GS_ASSERT_OK(pair.Open());
  EventLog log(16);
  ClientSessionOptions options;
  options.max_queue_events = 2;
  options.max_consecutive_drops = 5;
  options.send_buffer_bytes = 4096;
  options.event_log = &log;
  ClientSession session(pair.server_fd, 42, options);

  auto frame = std::make_shared<const std::vector<uint8_t>>(
      std::vector<uint8_t>(256 * 1024, 0xCD));
  for (int i = 0; i < 64 && !session.closed(); ++i) {
    Status ignored = session.EnqueueFrame(frame);
    (void)ignored;
  }
  ASSERT_TRUE(session.closed());

  // The operator asking "why did my client drop?" finds the answer in
  // the flight recorder: which session, and how jammed it was.
  const EventLog::Snapshot snap = log.TakeSnapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  const FlightEvent& event = snap.events[0];
  EXPECT_EQ(event.severity, EventSeverity::kError);
  EXPECT_EQ(event.component, "net");
  EXPECT_EQ(event.kind, "slow-consumer-disconnect");
  EXPECT_NE(event.detail.find("session=42"), std::string::npos)
      << event.detail;
  EXPECT_NE(event.detail.find("consecutive_drops=5"), std::string::npos)
      << event.detail;
}

// ---------------------------------------------------------------------------
// Loopback end-to-end

/// A 2-band GOES-like instrument (band2 = near-infrared, band1 =
/// visible) behind a DsmsServer + NetServer on an ephemeral port.
class NetFixture {
 public:
  explicit NetFixture(DsmsOptions options = {},
                      NetServerOptions net_options = {},
                      size_t cells_per_sector = 24 * 16)
      : server_(options),
        net_(&server_, net_options),
        gen_(MakeConfig(cells_per_sector), ScanSchedule::GoesRoutine()) {
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

  static InstrumentConfig MakeConfig(size_t cells_per_sector) {
    InstrumentConfig config;
    config.crs_name = "latlon";
    config.cells_per_sector = cells_per_sector;
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
  StreamGenerator& generator() { return gen_; }

 private:
  DsmsServer server_;
  NetServer net_;
  StreamGenerator gen_;
};

int64_t ParseIdFromOk(const std::string& response) {
  // "OK QUERY <id>"
  const size_t last_space = response.rfind(' ');
  return std::stoll(response.substr(last_space + 1));
}

TEST(NetServerE2eTest, NdviOverTcpDeliversVerifiedFrames) {
  DsmsOptions options;
  options.workers = 1;
  NetFixture fixture(options);

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  auto pong = client.Command("PING");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, "OK PONG");

  auto response = client.Command("QUERY ndvi(goes.band2, goes.band1)");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(StartsWith(*response, "OK QUERY "));
  const int64_t id = ParseIdFromOk(*response);
  EXPECT_EQ(fixture.server().num_queries(), 1u);

  GS_ASSERT_OK(fixture.Ingest(0, 3));

  // Three frames stream in; the decoder CRC-checks each payload.
  for (int64_t expect_frame = 0; expect_frame < 3; ++expect_frame) {
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->query_id, id);
    EXPECT_EQ(frame->frame_id, expect_frame);
    EXPECT_EQ(frame->bands, 1u);
    ASSERT_EQ(frame->samples.size(),
              static_cast<size_t>(frame->width) * frame->height);
    for (double v : frame->samples) {
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);  // NDVI range
    }
  }

  auto unregister = client.Command(StringPrintf("UNREGISTER %lld",
                                                static_cast<long long>(id)));
  ASSERT_TRUE(unregister.ok()) << unregister.status().ToString();
  EXPECT_TRUE(StartsWith(*unregister, "OK UNREGISTER"));
  EXPECT_EQ(fixture.server().num_queries(), 0u);
}

TEST(NetServerE2eTest, WindowedFramesDecodeToTheInProcessRasters) {
  // Region results are mostly nodata, so they travel as fill windows
  // (kFlagWindow). Each frame a client decodes must equal, bit for bit,
  // the raster the same query hands an in-process FrameCallback.
  const std::vector<std::string> queries = {
      "region(goes.band1, bbox(-110, 30, -100, 36))",
      "region(ndvi(goes.band2, goes.band1), bbox(-100, 35, -92, 40))",
      "reproject(region(ndvi(goes.band2, goes.band1), "
      "bbox(-120, 30, -110, 36)), \"mercator\")",
      "region(goes.band1, disk(-95, 38, 4))",
      "region(ndvi(goes.band2, goes.band1), "
      "polygon(-118, 32, -104, 34, -110, 42))",
  };
  for (size_t workers : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(StringPrintf("workers=%zu", workers));
    // Declared before the server, so they outlive its callbacks.
    std::mutex mu;
    std::vector<std::map<int64_t, Raster>> local(queries.size());
    std::map<int64_t, size_t> query_of_id;
    DsmsOptions options;
    options.workers = workers;
    NetFixture fixture(options, {}, 64 * 48);
    GeoStreamsClient client;
    GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));

    std::vector<QueryId> local_ids;
    for (size_t q = 0; q < queries.size(); ++q) {
      auto local_id = fixture.server().RegisterQuery(
          queries[q], [&, q](int64_t frame_id, const Raster& raster,
                             const std::vector<uint8_t>&) {
            std::lock_guard<std::mutex> lock(mu);
            local[q].emplace(frame_id, raster);
          });
      ASSERT_TRUE(local_id.ok()) << local_id.status().ToString();
      local_ids.push_back(*local_id);
      auto response = client.Command("QUERY " + queries[q]);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(StartsWith(*response, "OK QUERY ")) << *response;
      query_of_id[ParseIdFromOk(*response)] = q;
    }
    // Scans 0-3 cover the full-disk, CONUS and northern-hemisphere
    // sectors.
    GS_ASSERT_OK(fixture.Ingest(0, 4));

    size_t expected = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& frames : local) {
        EXPECT_FALSE(frames.empty());
        expected += frames.size();
      }
    }
    std::vector<size_t> windowed(queries.size(), 0);
    for (size_t n = 0; n < expected; ++n) {
      auto frame = client.ReadFrame();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_EQ(query_of_id.count(frame->query_id), 1u);
      const size_t q = query_of_id[frame->query_id];
      std::lock_guard<std::mutex> lock(mu);
      auto it = local[q].find(frame->frame_id);
      ASSERT_NE(it, local[q].end()) << queries[q] << " frame "
                                    << frame->frame_id;
      const Raster& raster = it->second;
      EXPECT_FALSE(frame->png);
      ASSERT_EQ(frame->width, static_cast<uint32_t>(raster.width()));
      ASSERT_EQ(frame->height, static_cast<uint32_t>(raster.height()));
      ASSERT_EQ(frame->bands, static_cast<uint16_t>(raster.bands()));
      ASSERT_EQ(frame->samples.size(), raster.data().size());
      EXPECT_EQ(std::memcmp(frame->samples.data(), raster.data().data(),
                            raster.data().size() * sizeof(double)),
                0)
          << queries[q] << " frame " << frame->frame_id;
      const std::vector<uint8_t> wire =
          EncodeResultFrame(frame->query_id, frame->frame_id, raster, {});
      if ((wire[5] & kFlagWindow) != 0) ++windowed[q];
      local[q].erase(it);
    }
    // The windowed path carried frames of every query, and every frame
    // fit its query's support window.
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_GT(windowed[q], 0u) << queries[q];
      auto explain = fixture.server().ExplainAnalyze(local_ids[q]);
      ASSERT_TRUE(explain.ok()) << explain.status().ToString();
      EXPECT_NE(explain->find(") widened=0\n"), std::string::npos)
          << queries[q] << "\n" << *explain;
    }
  }
}

TEST(NetServerE2eTest, DisconnectUnregistersTheClientsQueries) {
  DsmsOptions options;
  options.workers = 1;
  NetFixture fixture(options);
  {
    GeoStreamsClient client;
    GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
    auto response = client.Command("QUERY goes.band1");
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(StartsWith(*response, "OK QUERY "));
    EXPECT_EQ(fixture.server().num_queries(), 1u);
  }  // client destructs: TCP FIN
  // The reader notices EOF and unregisters; poll until it has.
  for (int i = 0; i < 100 && fixture.server().num_queries() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(fixture.server().num_queries(), 0u);
}

TEST(NetServerE2eTest, SlowConsumerShedsWhileHealthyClientSeesEveryFrame) {
  DsmsOptions options;
  options.workers = 1;
  NetServerOptions net_options;
  net_options.session.max_queue_events = 4;
  net_options.session.max_consecutive_drops = 1u << 20;  // shed, don't drop
  net_options.session.send_buffer_bytes = 4096;
  // Big frames (96x64 cells => ~49 KiB each) so a stalled reader's
  // 4 KiB socket buffer jams after the first frame.
  NetFixture fixture(options, net_options, /*cells_per_sector=*/96 * 64);

  GeoStreamsClient healthy, slow;
  GS_ASSERT_OK(healthy.Connect("127.0.0.1", fixture.net().port()));
  GS_ASSERT_OK(slow.Connect("127.0.0.1", fixture.net().port()));
  auto healthy_resp = healthy.Command("QUERY goes.band1");
  ASSERT_TRUE(healthy_resp.ok());
  const int64_t healthy_id = ParseIdFromOk(*healthy_resp);
  auto slow_resp = slow.Command("QUERY goes.band1");
  ASSERT_TRUE(slow_resp.ok());

  constexpr int kScans = 24;
  // The healthy client drains in lockstep with ingest, so its queue
  // never backs up and it must receive every frame (each payload
  // CRC-verified by the decoder). The slow client reads NOTHING the
  // whole time: its writer jams against the 4 KiB socket buffer, its
  // queue caps at four frames, and the shedding controller takes the
  // rest.
  for (int i = 0; i < kScans; ++i) {
    GS_ASSERT_OK(fixture.Ingest(i, 1));
    auto frame = healthy.ReadFrame(20000);
    ASSERT_TRUE(frame.ok()) << "scan " << i << ": "
                            << frame.status().ToString();
    EXPECT_EQ(frame->query_id, healthy_id);
    EXPECT_EQ(frame->frame_id, i);
  }

  // Now the slow client wakes up and asks for its own damage report.
  // STATS is control-plane: always admitted, never shed. Frames
  // queued ahead of the response arrive first; Command parks them.
  auto stats = slow.Command("STATS", 20000);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(StartsWith(*stats, "OK STATS ")) << *stats;
  const std::string line = *stats;
  const size_t dropped_at = line.find("dropped=");
  ASSERT_NE(dropped_at, std::string::npos);
  const uint64_t dropped =
      std::stoull(line.substr(dropped_at + std::string("dropped=").size()));
  EXPECT_GT(dropped, 0u) << line;
  // Shedding reduced the keep fraction below 1.
  const size_t keep_at = line.find("keep=");
  ASSERT_NE(keep_at, std::string::npos);
  EXPECT_LT(std::stod(line.substr(keep_at + 5)), 1.0) << line;
}

TEST(NetServerE2eTest, RestartRecoversQuarantinedQueryInPlace) {
  DsmsOptions options;
  options.workers = 1;  // supervised execution
  NetFixture fixture(options);
  // Swallow scan 0's FrameEnd on band 2: scan 1's FrameBegin then
  // nests, the chain rejects it (FailedPrecondition = poison), and
  // the default poison_limit=1 quarantines the query.
  CorruptionConfig corruption;
  corruption.target_band = 0;  // kNearInfrared = goes.band2
  corruption.drop_frame_end_scans = {0};
  fixture.generator().SetCorruption(corruption);

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  auto response = client.Command("QUERY goes.band2");
  ASSERT_TRUE(response.ok());
  const int64_t id = ParseIdFromOk(*response);

  GS_ASSERT_OK(fixture.Ingest(0, 2));
  auto health = client.Command("HEALTH");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->find(StringPrintf("%lld=QUARANTINED",
                                      static_cast<long long>(id))),
            std::string::npos)
      << *health;

  // The poison event is inspectable through the dead-letter queue.
  auto dlq = client.Command(StringPrintf("DLQ %lld",
                                         static_cast<long long>(id)));
  ASSERT_TRUE(dlq.ok());
  ASSERT_TRUE(StartsWith(*dlq, "OK DLQ ")) << *dlq;
  EXPECT_NE(dlq->find("kept=1"), std::string::npos) << *dlq;
  auto dl_line = client.ReadNext();
  ASSERT_TRUE(dl_line.ok());
  ASSERT_TRUE(dl_line->line.has_value());
  EXPECT_TRUE(StartsWith(*dl_line->line, "DL ")) << *dl_line->line;

  // RESTART un-quarantines in place: same connection, same query id.
  auto restart = client.Command(StringPrintf("RESTART %lld",
                                             static_cast<long long>(id)));
  ASSERT_TRUE(restart.ok());
  EXPECT_TRUE(StartsWith(*restart, "OK RESTART")) << *restart;
  health = client.Command("HEALTH");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->find(StringPrintf("%lld=RUNNING",
                                      static_cast<long long>(id))),
            std::string::npos)
      << *health;

  // Clean scans flow again, to the same subscription.
  GS_ASSERT_OK(fixture.Ingest(2, 2));
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->query_id, id);
  EXPECT_GE(frame->frame_id, 2);
}

// ---------------------------------------------------------------------------
// Ingest-boundary checksum verification

TEST(IngestChecksumTest, CorruptBatchesAreDeadLetteredAtTheBoundary) {
  DsmsOptions options;
  options.verify_ingest_checksums = true;
  NetFixture fixture(options);
  CorruptionConfig corruption;
  corruption.target_band = 0;  // goes.band2
  corruption.checksum_batches = true;
  corruption.corrupt_value_batches = {1, 4, 7};
  fixture.generator().SetCorruption(corruption);

  // A query over the corrupted band still completes every frame —
  // the poisoned rows are shed at the boundary, not mid-chain.
  std::atomic<int> frames{0};
  auto id = fixture.server().RegisterQuery(
      "goes.band2", [&](int64_t, const Raster&, const std::vector<uint8_t>&) {
        ++frames;
      });
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  GS_ASSERT_OK(fixture.Ingest(0, 3));
  EXPECT_EQ(frames.load(), 3);

  const auto& stats = fixture.generator().corruption_stats();
  EXPECT_EQ(stats.values_corrupted, 3u);
  EXPECT_EQ(fixture.server().IngestChecksumFailures(), 3u);
  auto letters = fixture.server().SourceDeadLetters("goes.band2");
  ASSERT_TRUE(letters.ok()) << letters.status().ToString();
  ASSERT_EQ(letters->size(), 3u);
  for (const DeadLetter& letter : *letters) {
    EXPECT_NE(letter.error.find("checksum mismatch"), std::string::npos);
    EXPECT_EQ(letter.event.kind, EventKind::kPointBatch);
  }
  // The clean band saw no failures.
  auto clean = fixture.server().SourceDeadLetters("goes.band1");
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->empty());
  EXPECT_FALSE(fixture.server().SourceDeadLetters("nope.band1").ok());
}

TEST(IngestChecksumTest, VerificationIsOptIn) {
  // Default server: same corruption, nothing dead-lettered (checksums
  // are not even attached unless the generator is asked to).
  NetFixture fixture;
  CorruptionConfig corruption;
  corruption.target_band = 0;
  corruption.checksum_batches = true;
  corruption.corrupt_value_batches = {1};
  fixture.generator().SetCorruption(corruption);
  GS_ASSERT_OK(fixture.Ingest(0, 2));
  EXPECT_EQ(fixture.server().IngestChecksumFailures(), 0u);
}

// ---------------------------------------------------------------------------
// Server-level dead letters & restart (no sockets)

TEST(ServerDlqTest, RestartQueryGrantsFreshPoisonBudget) {
  DsmsOptions options;
  options.workers = 1;
  NetFixture fixture(options);
  CorruptionConfig corruption;
  corruption.target_band = 0;
  corruption.drop_frame_end_scans = {0};
  fixture.generator().SetCorruption(corruption);

  std::atomic<int> frames{0};
  auto id = fixture.server().RegisterQuery(
      "goes.band2", [&](int64_t, const Raster&, const std::vector<uint8_t>&) {
        ++frames;
      });
  ASSERT_TRUE(id.ok());

  GS_ASSERT_OK(fixture.Ingest(0, 2));
  auto health = fixture.server().QueryHealth(*id);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, PipelineHealth::kQuarantined);
  EXPECT_FALSE(fixture.server().QueryError(*id).ok());
  auto letters = fixture.server().DeadLetters(*id);
  ASSERT_TRUE(letters.ok());
  ASSERT_EQ(letters->size(), 1u);

  GS_ASSERT_OK(fixture.server().RestartQuery(*id));
  health = fixture.server().QueryHealth(*id);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, PipelineHealth::kRunning);
  GS_ASSERT_OK(fixture.server().QueryError(*id));
  // Retained dead letters stay inspectable after the restart.
  letters = fixture.server().DeadLetters(*id);
  ASSERT_TRUE(letters.ok());
  EXPECT_EQ(letters->size(), 1u);

  const int before = frames.load();
  GS_ASSERT_OK(fixture.Ingest(2, 2));
  EXPECT_EQ(frames.load(), before + 2);

  // Restarting a healthy query is a harmless no-op; unknown ids fail.
  GS_ASSERT_OK(fixture.server().RestartQuery(*id));
  EXPECT_FALSE(fixture.server().RestartQuery(9999).ok());
  EXPECT_FALSE(fixture.server().DeadLetters(9999).ok());
}

TEST(ServerDlqTest, SynchronousServerDeadLettersAndRestarts) {
  // workers = 0 runs the same supervised pipelines on the ingest
  // thread: by the time Ingest returns (no Flush), the poison event is
  // dead-lettered and has quarantined the query, and RESTART brings
  // it back.
  NetFixture fixture;  // workers = 0
  CorruptionConfig corruption;
  corruption.target_band = 0;  // goes.band2
  corruption.drop_frame_end_scans = {0};
  fixture.generator().SetCorruption(corruption);
  std::atomic<int> frames{0};
  auto id = fixture.server().RegisterQuery(
      "goes.band2", [&](int64_t, const Raster&, const std::vector<uint8_t>&) {
        ++frames;
      });
  ASSERT_TRUE(id.ok());

  GS_ASSERT_OK(fixture.Ingest(0, 2));
  auto health = fixture.server().QueryHealth(*id);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, PipelineHealth::kQuarantined);
  EXPECT_FALSE(fixture.server().QueryError(*id).ok());
  auto letters = fixture.server().DeadLetters(*id);
  ASSERT_TRUE(letters.ok());
  EXPECT_EQ(letters->size(), 1u);

  GS_ASSERT_OK(fixture.server().RestartQuery(*id));
  health = fixture.server().QueryHealth(*id);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, PipelineHealth::kRunning);
  const int before = frames.load();
  GS_ASSERT_OK(fixture.Ingest(2, 2));
  EXPECT_EQ(frames.load(), before + 2);
}

// ---------------------------------------------------------------------------
// Multi-connection subscription: QUERY <id> attaches to the fan-out

TEST(NetServerE2eTest, SecondClientAttachesToExistingQuery) {
  DsmsOptions options;
  options.workers = 1;
  NetFixture fixture(options);

  GeoStreamsClient first;
  GS_ASSERT_OK(first.Connect("127.0.0.1", fixture.net().port()));
  auto registered = first.Command("QUERY ndvi(goes.band2, goes.band1)");
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  ASSERT_TRUE(StartsWith(*registered, "OK QUERY "));
  const int64_t id = ParseIdFromOk(*registered);

  // A second connection attaches to the SAME query by id — the
  // engine still sees one query; the frame is encoded once and fanned
  // out to both.
  GeoStreamsClient second;
  GS_ASSERT_OK(second.Connect("127.0.0.1", fixture.net().port()));
  auto attached = second.Command(StringPrintf("QUERY %lld",
                                              static_cast<long long>(id)));
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  EXPECT_EQ(*attached, StringPrintf("OK QUERY %lld",
                                    static_cast<long long>(id)));
  EXPECT_EQ(fixture.server().num_queries(), 1u);

  GS_ASSERT_OK(fixture.Ingest(0, 2));
  for (int64_t expect_frame = 0; expect_frame < 2; ++expect_frame) {
    auto from_first = first.ReadFrame(10000);
    ASSERT_TRUE(from_first.ok()) << from_first.status().ToString();
    auto from_second = second.ReadFrame(10000);
    ASSERT_TRUE(from_second.ok()) << from_second.status().ToString();
    EXPECT_EQ(from_first->frame_id, expect_frame);
    EXPECT_EQ(from_second->frame_id, expect_frame);
    EXPECT_EQ(from_first->samples, from_second->samples);
  }

  // One subscriber leaving does not unregister the query...
  second.Close();
  const auto still_there =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fixture.net().num_sessions() > 1 &&
         std::chrono::steady_clock::now() < still_there) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.server().num_queries(), 1u);
  GS_ASSERT_OK(fixture.Ingest(2, 1));
  auto third_frame = first.ReadFrame(10000);
  ASSERT_TRUE(third_frame.ok()) << third_frame.status().ToString();
  EXPECT_EQ(third_frame->frame_id, 2);

  // ... but the LAST subscriber leaving does.
  first.Close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fixture.server().num_queries() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.server().num_queries(), 0u);
}

TEST(NetServerE2eTest, AttachToUnknownOrDuplicateQueryIdIsRefused) {
  NetFixture fixture;
  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  auto unknown = client.Command("QUERY 12345");
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  EXPECT_TRUE(StartsWith(*unknown, "ERR NotFound")) << *unknown;

  // Attaching twice from one connection is a client bug, not a second
  // subscription.
  auto registered = client.Command("QUERY goes.band1");
  ASSERT_TRUE(registered.ok());
  ASSERT_TRUE(StartsWith(*registered, "OK QUERY "));
  const int64_t id = ParseIdFromOk(*registered);
  auto duplicate = client.Command(StringPrintf("QUERY %lld",
                                               static_cast<long long>(id)));
  ASSERT_TRUE(duplicate.ok());
  EXPECT_TRUE(StartsWith(*duplicate, "ERR AlreadyExists")) << *duplicate;
}

// ---------------------------------------------------------------------------
// HTTP pull endpoint, control auth, and hybrid QUERY ... SINCE

TEST(NetServerE2eTest, HttpMetricsEndpointServesPrometheusText) {
  NetFixture fixture;
  GS_ASSERT_OK(fixture.Ingest(0, 2));

  auto fd = ConnectTcp("127.0.0.1", fixture.net().port(), 2000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string request =
      "GET /metrics HTTP/1.0\r\nHost: localhost\r\nUser-Agent: test\r\n\r\n";
  GS_ASSERT_OK(WriteAll(*fd, reinterpret_cast<const uint8_t*>(request.data()),
                        request.size()));

  // HTTP/1.0 with Content-Length: read headers, then exactly the body.
  std::string response;
  size_t body_start = std::string::npos;
  size_t content_length = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    char buf[4096];
    const ssize_t n = ::recv(*fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
    if (body_start == std::string::npos) {
      const size_t end = response.find("\r\n\r\n");
      if (end == std::string::npos) continue;
      body_start = end + 4;
      const size_t cl = response.find("Content-Length: ");
      ASSERT_NE(cl, std::string::npos) << response;
      content_length = std::stoull(response.substr(cl + 16));
    }
    if (response.size() >= body_start + content_length) break;
  }
  CloseFd(*fd);

  ASSERT_TRUE(StartsWith(response, "HTTP/1.0 200 OK\r\n")) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string body = response.substr(body_start);
  EXPECT_EQ(body.size(), content_length);
  // Prometheus text exposition of the same registry METRICS serves.
  EXPECT_NE(body.find("# TYPE geostreams_"), std::string::npos) << body;
  EXPECT_NE(body.find("geostreams_scheduler_enqueued_total"),
            std::string::npos)
      << body;
}

// ---------------------------------------------------------------------------
// Metrics exposition lint
//
// A malformed exposition fails silently: Prometheus drops the whole
// scrape and dashboards just go blank. This lint parses every line of
// a real GET /metrics scrape strictly — names, label escaping, value
// syntax, exemplar syntax, `le` ordering, bucket monotonicity, and
// series uniqueness — so a bad renderer change fails a test here
// instead of a scrape in production.

/// One scraped HTTP body (HTTP/1.0 + Content-Length framing).
/// `extra_headers` are raw header lines ("K: v\r\n") appended to the
/// request; `content_type` (if non-null) receives the response's
/// Content-Type value.
std::string ScrapeHttpBody(uint16_t port, const std::string& path,
                           const std::string& extra_headers = "",
                           std::string* content_type = nullptr) {
  auto fd = ConnectTcp("127.0.0.1", port, 2000);
  if (!fd.ok()) {
    ADD_FAILURE() << fd.status().ToString();
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n" +
                              extra_headers + "\r\n";
  Status sent = WriteAll(*fd, reinterpret_cast<const uint8_t*>(request.data()),
                         request.size());
  if (!sent.ok()) {
    ADD_FAILURE() << sent.ToString();
    CloseFd(*fd);
    return "";
  }
  std::string response;
  size_t body_start = std::string::npos;
  size_t content_length = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    char buf[4096];
    const ssize_t n = ::recv(*fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
    if (body_start == std::string::npos) {
      const size_t end = response.find("\r\n\r\n");
      if (end == std::string::npos) continue;
      body_start = end + 4;
      const size_t cl = response.find("Content-Length: ");
      if (cl == std::string::npos) break;
      content_length = std::stoull(response.substr(cl + 16));
    }
    if (response.size() >= body_start + content_length) break;
  }
  CloseFd(*fd);
  if (body_start == std::string::npos) {
    ADD_FAILURE() << "no header terminator in response:\n" << response;
    return "";
  }
  EXPECT_TRUE(StartsWith(response, "HTTP/1.0 200 OK\r\n")) << response;
  if (content_type != nullptr) {
    content_type->clear();
    const size_t ct = response.find("Content-Type: ");
    if (ct != std::string::npos && ct < body_start) {
      const size_t eol = response.find("\r\n", ct);
      *content_type = response.substr(ct + 14, eol - (ct + 14));
    }
  }
  return response.substr(body_start);
}

bool IsMetricNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

/// Parses `name{k="v",...}` starting at `*pos`; appends the canonical
/// series key (name + labels except `le`) to `*series_key`, stores the
/// `le` label (if any) in `*le`, advances `*pos` past the closing
/// brace (or the bare name). Returns false on any syntax violation.
bool ParseNameAndLabels(const std::string& line, size_t* pos,
                        std::string* series_key, std::string* le) {
  const size_t name_start = *pos;
  while (*pos < line.size() &&
         IsMetricNameChar(line[*pos], *pos == name_start)) {
    ++(*pos);
  }
  if (*pos == name_start) return false;
  series_key->append(line, name_start, *pos - name_start);
  if (*pos >= line.size() || line[*pos] != '{') return true;
  ++(*pos);  // consume '{'
  series_key->push_back('{');
  while (*pos < line.size() && line[*pos] != '}') {
    const size_t key_start = *pos;
    while (*pos < line.size() &&
           IsMetricNameChar(line[*pos], *pos == key_start)) {
      ++(*pos);
    }
    if (*pos == key_start) return false;
    const std::string key = line.substr(key_start, *pos - key_start);
    if (*pos + 1 >= line.size() || line[*pos] != '=' ||
        line[*pos + 1] != '"') {
      return false;
    }
    *pos += 2;
    std::string value;
    for (;; ++(*pos)) {
      if (*pos >= line.size()) return false;  // unterminated value
      const char c = line[*pos];
      if (c == '"') break;
      if (c == '\\') {
        // Only \\, \" and \n are legal escapes in label values.
        if (*pos + 1 >= line.size()) return false;
        const char next = line[*pos + 1];
        if (next != '\\' && next != '"' && next != 'n') return false;
        value.push_back(next);
        ++(*pos);
        continue;
      }
      value.push_back(c);
    }
    ++(*pos);  // consume closing '"'
    if (key == "le" && le != nullptr) {
      *le = value;
    } else {
      series_key->append(key);
      series_key->append("=\"");
      series_key->append(value);
      series_key->append("\",");
    }
    if (*pos < line.size() && line[*pos] == ',') ++(*pos);
  }
  if (*pos >= line.size()) return false;  // no closing '}'
  ++(*pos);                               // consume '}'
  series_key->push_back('}');
  return true;
}

/// Parses an unsigned sample value at `*pos` (all registry samples are
/// integral microseconds/counts; "+Inf" never appears as a value).
bool ParseSampleValue(const std::string& line, size_t* pos, double* value) {
  const size_t start = *pos;
  while (*pos < line.size() &&
         ((line[*pos] >= '0' && line[*pos] <= '9') || line[*pos] == '.' ||
          line[*pos] == 'e' || line[*pos] == '+' || line[*pos] == '-')) {
    ++(*pos);
  }
  if (*pos == start) return false;
  *value = std::stod(line.substr(start, *pos - start));
  return true;
}

/// Strictly lints one scraped exposition body. In OpenMetrics mode
/// exemplar tails are legal on bucket lines and the body must end
/// with `# EOF`; in 0.0.4 mode any exemplar tail (or `# EOF`) is a
/// lint failure — 0.0.4 parsers read the tail as a malformed
/// timestamp and drop the whole scrape. `*exemplars_out` receives the
/// number of well-formed exemplars seen.
void LintExposition(const std::string& body, bool openmetrics,
                    size_t* exemplars_out) {
  std::set<std::string> seen_series;
  // Histogram group (series key minus `le`) -> ordered (le, count).
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
  std::map<std::string, double> counts;  // _count series values
  size_t samples = 0;
  size_t exemplars = 0;
  size_t line_no = 0;
  size_t start = 0;
  bool saw_eof = false;
  while (start < body.size()) {
    size_t eol = body.find('\n', start);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(start, eol - start);
    start = eol + 1;
    ++line_no;
    ASSERT_FALSE(line.empty()) << "blank line " << line_no;
    ASSERT_FALSE(saw_eof) << "content after # EOF at line " << line_no;
    if (line[0] == '#') {
      if (line == "# EOF") {
        ASSERT_TRUE(openmetrics) << "# EOF in a 0.0.4 exposition";
        saw_eof = true;
        continue;
      }
      const bool help = StartsWith(line, "# HELP ");
      const bool type = StartsWith(line, "# TYPE ");
      ASSERT_TRUE(help || type) << "line " << line_no << ": " << line;
      if (type) {
        const size_t kind_at = line.rfind(' ');
        const std::string kind = line.substr(kind_at + 1);
        ASSERT_TRUE(kind == "counter" || kind == "gauge" ||
                    kind == "histogram")
            << "line " << line_no << ": " << line;
      }
      continue;
    }
    size_t pos = 0;
    std::string series;
    std::string le;
    ASSERT_TRUE(ParseNameAndLabels(line, &pos, &series, &le))
        << "line " << line_no << ": " << line;
    ASSERT_TRUE(pos < line.size() && line[pos] == ' ')
        << "line " << line_no << ": " << line;
    ++pos;
    double value = 0;
    ASSERT_TRUE(ParseSampleValue(line, &pos, &value))
        << "line " << line_no << ": " << line;
    ++samples;
    // Exactly one sample per (name, labels) pair across the scrape.
    const std::string unique_key =
        series + (le.empty() ? "" : "~le=" + le);
    ASSERT_TRUE(seen_series.insert(unique_key).second)
        << "duplicate series at line " << line_no << ": " << line;
    if (!le.empty()) {
      const double le_value =
          le == "+Inf" ? std::numeric_limits<double>::infinity()
                       : std::stod(le);
      buckets[series].emplace_back(le_value, value);
    } else if (series.find("_count") != std::string::npos) {
      counts[series] = value;
    }
    if (pos < line.size()) {
      // The only legal tail is an OpenMetrics exemplar, and only on
      // bucket lines of the OpenMetrics exposition.
      ASSERT_TRUE(openmetrics)
          << "exemplar tail on 0.0.4 line " << line_no << ": " << line;
      const std::string tail = line.substr(pos);
      ASSERT_TRUE(StartsWith(tail, " # {"))
          << "line " << line_no << ": " << line;
      ASSERT_FALSE(le.empty()) << "exemplar on non-bucket line " << line_no
                               << ": " << line;
      // Reuse the label parser on `x{...} value` (fake one-char name).
      const std::string synthetic = "x" + tail.substr(3);
      size_t spos = 0;
      std::string dummy;
      ASSERT_TRUE(ParseNameAndLabels(synthetic, &spos, &dummy, nullptr))
          << "line " << line_no << ": " << line;
      ASSERT_TRUE(spos < synthetic.size() && synthetic[spos] == ' ')
          << "line " << line_no << ": " << line;
      ++spos;
      double exemplar_value = 0;
      ASSERT_TRUE(ParseSampleValue(synthetic, &spos, &exemplar_value))
          << "line " << line_no << ": " << line;
      ASSERT_EQ(spos, synthetic.size())
          << "line " << line_no << ": " << line;
      ++exemplars;
    }
  }
  ASSERT_GT(samples, 0u);
  ASSERT_EQ(saw_eof, openmetrics) << "missing # EOF terminator";

  // `le` strictly ascending, cumulative counts monotone, +Inf present
  // and agreeing with the family's _count.
  ASSERT_FALSE(buckets.empty());
  for (const auto& [series, family] : buckets) {
    ASSERT_GE(family.size(), 2u) << series;
    for (size_t i = 1; i < family.size(); ++i) {
      EXPECT_LT(family[i - 1].first, family[i].first)
          << "le out of order in " << series;
      EXPECT_LE(family[i - 1].second, family[i].second)
          << "bucket counts not cumulative in " << series;
    }
    EXPECT_TRUE(std::isinf(family.back().first))
        << "no +Inf bucket in " << series;
    // series is `name_bucket{labels-except-le}`; the count series is
    // `name_count{same labels}`.
    const size_t bucket_at = series.find("_bucket");
    ASSERT_NE(bucket_at, std::string::npos) << series;
    std::string count_series = series;
    count_series.replace(bucket_at, 7, "_count");
    // An unlabeled histogram's bucket series keeps `{}` once `le` is
    // folded out, but its _count renders with no braces at all.
    if (count_series.size() >= 2 &&
        count_series.compare(count_series.size() - 2, 2, "{}") == 0) {
      count_series.resize(count_series.size() - 2);
    }
    const auto count_it = counts.find(count_series);
    ASSERT_NE(count_it, counts.end()) << count_series;
    EXPECT_EQ(family.back().second, count_it->second) << series;
  }
  *exemplars_out = exemplars;
}

TEST(NetServerE2eTest, MetricsExpositionLintPasses) {
  DsmsOptions options;
  options.trace_sample_every = 1;  // inline traces: spans + rings live
  NetFixture fixture(options);
  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  auto response = client.Command("QUERY goes.band1");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  GS_ASSERT_OK(fixture.Ingest(0, 2));
  // Exemplars and gnarly label values must render scrapably too.
  fixture.server()
      .metrics_registry()
      ->GetHistogram("geostreams_lint_probe_us", "lint probe",
                     {{"path", "a\"b\\c\nd"}}, {10, 100})
      ->ObserveWithExemplar(50, 3, "q\"1");

  // A plain GET negotiates nothing and gets the 0.0.4 exposition —
  // exemplar-free, since 0.0.4 parsers fail the whole scrape on an
  // exemplar tail.
  std::string content_type;
  const std::string plain =
      ScrapeHttpBody(fixture.net().port(), "/metrics", "", &content_type);
  ASSERT_FALSE(plain.empty());
  EXPECT_TRUE(StartsWith(content_type, "text/plain; version=0.0.4"))
      << content_type;
  size_t plain_exemplars = 0;
  ASSERT_NO_FATAL_FAILURE(LintExposition(plain, /*openmetrics=*/false,
                                         &plain_exemplars));
  EXPECT_EQ(plain_exemplars, 0u);

  // Accept: application/openmetrics-text negotiates the OpenMetrics
  // exposition, where the lint probe's exemplar must render.
  const std::string om = ScrapeHttpBody(
      fixture.net().port(), "/metrics",
      "Accept: application/openmetrics-text; version=1.0.0\r\n",
      &content_type);
  ASSERT_FALSE(om.empty());
  EXPECT_TRUE(StartsWith(content_type, "application/openmetrics-text"))
      << content_type;
  size_t om_exemplars = 0;
  ASSERT_NO_FATAL_FAILURE(LintExposition(om, /*openmetrics=*/true,
                                         &om_exemplars));
  ASSERT_GE(om_exemplars, 1u) << "the lint probe exemplar did not render";
}

/// Stamps admission anchors on FrameEnd events, as the ingest session
/// does, so every frame is traced through the latency plane's stages.
class AdmitStampingSink : public EventSink {
 public:
  explicit AdmitStampingSink(EventSink* downstream)
      : downstream_(downstream) {}
  Status Consume(const StreamEvent& event) override {
    if (event.kind != EventKind::kFrameEnd) return downstream_->Consume(event);
    StreamEvent stamped = event;
    stamped.anchors.admit_wall_us = TraceWallNowUs();
    return downstream_->Consume(stamped);
  }

 private:
  EventSink* downstream_;
};

TEST(NetServerE2eTest, QueryChurnLeavesTheExpositionFlat) {
  // Each traced query owns four `geostreams_e2e_latency_us{stage=queue|
  // operators|deliver|write,query=q<id>}` series; unregistering the
  // query must take them out of /metrics again, or the exposition
  // grows by one query's worth of lines per subscriber forever.
  DsmsOptions options;
  options.trace_sample_every = 1;
  NetFixture fixture(options);
  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  AdmitStampingSink band1(fixture.server().ingest("goes.band1"));
  AdmitStampingSink band2(fixture.server().ingest("goes.band2"));
  int64_t scan = 0;
  auto cycle = [&](bool expect_series) {
    auto response = client.Command("QUERY goes.band1");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(StartsWith(*response, "OK QUERY ")) << *response;
    const int64_t id = ParseIdFromOk(*response);
    GS_ASSERT_OK(
        fixture.generator().GenerateScans(scan++, 1, {&band2, &band1}));
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (expect_series) {
      // While the query lives its stage series are exported.
      const std::string metrics = fixture.server().RenderMetrics();
      EXPECT_NE(metrics.find(StringPrintf(
                    "geostreams_e2e_latency_us_count{stage=\"queue\","
                    "query=\"q%lld\"} 1\n",
                    static_cast<long long>(id))),
                std::string::npos)
          << metrics;
    }
    auto unregister = client.Command(
        StringPrintf("UNREGISTER %lld", static_cast<long long>(id)));
    ASSERT_TRUE(unregister.ok()) << unregister.status().ToString();
    ASSERT_TRUE(StartsWith(*unregister, "OK UNREGISTER")) << *unregister;
  };
  auto exposition_lines = [&] {
    const std::string body =
        ScrapeHttpBody(fixture.net().port(), "/metrics", "", nullptr);
    return std::count(body.begin(), body.end(), '\n');
  };
  // Warm up: every per-source and per-operator-kind series exists.
  for (int i = 0; i < 10; ++i) ASSERT_NO_FATAL_FAILURE(cycle(i == 0));
  const auto before = exposition_lines();
  for (int i = 0; i < 1000; ++i) ASSERT_NO_FATAL_FAILURE(cycle(false));
  EXPECT_EQ(exposition_lines(), before);
}

TEST(NetServerE2eTest, ControlTokenGatesMutatingVerbs) {
  NetServerOptions net_options;
  net_options.control_auth_token = "hunter2";
  NetFixture fixture({}, net_options);

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  // Read-only verbs stay open without AUTH.
  auto pong = client.Command("PING");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, "OK PONG");
  auto health = client.Command("HEALTH");
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(StartsWith(*health, "OK HEALTH"));

  auto denied = client.Command("QUERY goes.band1");
  ASSERT_TRUE(denied.ok());
  EXPECT_TRUE(StartsWith(*denied, "ERR FailedPrecondition")) << *denied;
  EXPECT_EQ(fixture.server().num_queries(), 0u);

  auto bad = client.Command("AUTH wrong");
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(StartsWith(*bad, "ERR FailedPrecondition")) << *bad;

  auto good = client.Command("AUTH hunter2");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, "OK AUTH");
  auto allowed = client.Command("QUERY goes.band1");
  ASSERT_TRUE(allowed.ok());
  EXPECT_TRUE(StartsWith(*allowed, "OK QUERY ")) << *allowed;

  // Authorization is per connection, not per server.
  GeoStreamsClient second;
  GS_ASSERT_OK(second.Connect("127.0.0.1", fixture.net().port()));
  auto still_denied = second.Command("QUERY goes.band1");
  ASSERT_TRUE(still_denied.ok());
  EXPECT_TRUE(StartsWith(*still_denied, "ERR FailedPrecondition"));
}

TEST(NetServerE2eTest, QuerySinceReplaysHistoryThenStreamsLive) {
  DsmsOptions options;
  options.store_dir = ::testing::TempDir() + "gsnet-query-since-store";
  std::filesystem::remove_all(options.store_dir);
  NetFixture fixture(options);
  // Recorded history the subscriber missed.
  GS_ASSERT_OK(fixture.Ingest(0, 4));

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  auto response = client.Command("QUERY goes.band1 SINCE 0");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(StartsWith(*response, "OK QUERY ")) << *response;
  const int64_t id = ParseIdFromOk(*response);
  GS_ASSERT_OK(fixture.Ingest(4, 3));

  // The exactly-once audit over the wire: stored 0..3, live 4..6,
  // strictly ascending, no gap and no duplicate across the seam.
  for (int64_t expect_frame = 0; expect_frame < 7; ++expect_frame) {
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->query_id, id);
    EXPECT_EQ(frame->frame_id, expect_frame);
  }

  auto unregister = client.Command(StringPrintf(
      "UNREGISTER %lld", static_cast<long long>(id)));
  ASSERT_TRUE(unregister.ok());
  EXPECT_TRUE(StartsWith(*unregister, "OK UNREGISTER"));
}

TEST(NetServerE2eTest, EveryFrameCarriesTheIdOfItsOkQueryLine) {
  // One client registers while goes.band1 is mid-frame, a second while
  // a producer keeps ingesting. Every frame either receives carries the
  // id of its OK QUERY line — the id is bound before any of the
  // query's gates opens — and the mid-frame registration starts at the
  // next whole frame instead of failing on the torn one.
  for (size_t workers : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(StringPrintf("workers=%zu", workers));
    DsmsOptions options;
    options.workers = workers;
    NetFixture fixture(options);
    auto desc = fixture.server().catalog().Lookup("goes.band1");
    ASSERT_TRUE(desc.ok());
    const GridLattice lattice = desc->reference_lattice();
    EventSink* ingest = fixture.server().ingest("goes.band1");
    FrameInfo info;
    info.frame_id = 0;
    info.lattice = lattice;
    info.expected_points = lattice.num_cells();
    auto push_row = [&](int64_t row) {
      auto batch = std::make_shared<PointBatch>();
      batch->frame_id = 0;
      batch->band_count = 1;
      for (int64_t col = 0; col < lattice.width(); ++col) {
        batch->Append1(static_cast<int32_t>(col), static_cast<int32_t>(row),
                       0, testing_util::TestValue(0, col, row));
      }
      return ingest->Consume(StreamEvent::Batch(std::move(batch)));
    };
    GS_ASSERT_OK(ingest->Consume(StreamEvent::FrameBegin(info)));
    GS_ASSERT_OK(push_row(0));

    GeoStreamsClient first;
    GS_ASSERT_OK(first.Connect("127.0.0.1", fixture.net().port()));
    auto response = first.Command("QUERY goes.band1");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(StartsWith(*response, "OK QUERY ")) << *response;
    const int64_t first_id = ParseIdFromOk(*response);

    constexpr int64_t kFrames = 6;
    Status produced = Status::OK();
    std::thread producer([&] {
      for (int64_t row = 1; row < lattice.height() && produced.ok(); ++row) {
        produced = push_row(row);
      }
      if (produced.ok()) produced = ingest->Consume(StreamEvent::FrameEnd(info));
      for (int64_t f = 1; f < kFrames && produced.ok(); ++f) {
        produced = testing_util::PushFrame(ingest, lattice, f);
      }
    });
    GeoStreamsClient second;
    GS_ASSERT_OK(second.Connect("127.0.0.1", fixture.net().port()));
    response = second.Command("QUERY goes.band1");
    producer.join();
    GS_ASSERT_OK(produced);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(StartsWith(*response, "OK QUERY ")) << *response;
    const int64_t second_id = ParseIdFromOk(*response);
    // A frame after both registrations, so the second client has one.
    GS_ASSERT_OK(testing_util::PushFrame(ingest, lattice, kFrames));
    GS_ASSERT_OK(fixture.server().Flush());

    for (int64_t expect = 1; expect <= kFrames; ++expect) {
      auto frame = first.ReadFrame();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      EXPECT_EQ(frame->query_id, first_id);
      EXPECT_EQ(frame->frame_id, expect);
    }
    int64_t next = -1;
    while (next <= kFrames) {
      auto frame = second.ReadFrame();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      EXPECT_EQ(frame->query_id, second_id);
      if (next >= 0) {
        EXPECT_EQ(frame->frame_id, next);
      }
      next = frame->frame_id + 1;
    }
  }
}

TEST(NetServerE2eTest, CatchUpCutoverIsObservable) {
  DsmsOptions options;
  options.store_dir = ::testing::TempDir() + "gsnet-catchup-obs-store";
  std::filesystem::remove_all(options.store_dir);
  NetFixture fixture(options);
  GS_ASSERT_OK(fixture.Ingest(0, 4));

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  auto response = client.Command("QUERY goes.band1 SINCE 0");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(StartsWith(*response, "OK QUERY ")) << *response;
  const int64_t id = ParseIdFromOk(*response);
  for (int64_t expect_frame = 0; expect_frame < 4; ++expect_frame) {
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  }

  // The cut-over fires on the catch-up task right after the last
  // replay enqueue, which can trail the client's last read by a
  // moment — poll briefly for it.
  bool cutover = false;
  EventLog::Snapshot snap;
  for (int attempt = 0; attempt < 500 && !cutover; ++attempt) {
    snap = fixture.server().Events();
    for (const FlightEvent& event : snap.events) {
      if (event.kind == "catchup-cutover") cutover = true;
    }
    if (!cutover) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The cut-over landed in the flight recorder with its wall anchor,
  // so "when did this query go live?" is answerable after the fact.
  ASSERT_TRUE(cutover) << "no catchup-cutover event recorded";
  for (const FlightEvent& event : snap.events) {
    if (event.kind != "catchup-cutover") continue;
    EXPECT_EQ(event.component, "server");
    EXPECT_NE(event.detail.find(StringPrintf(
                  "query=%lld replayed=4", static_cast<long long>(id))),
              std::string::npos)
        << event.detail;
    EXPECT_NE(event.detail.find("wall_us="), std::string::npos)
        << event.detail;
  }

  // After the replay drained, the catch-up lag gauge reads zero. One
  // unlabeled series summed over registrations — a per-query-id label
  // would leak a frozen series per finished query.
  const std::string metrics = fixture.server().RenderMetrics();
  EXPECT_NE(metrics.find("geostreams_catchup_lag_frames 0\n"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(metrics.find("geostreams_catchup_lag_frames{"), std::string::npos)
      << metrics;
}

// ---------------------------------------------------------------------------
// Client deadline discipline and ConnectTcp resolution

TEST(GeoStreamsClientTest, TrickledLinesDoNotExtendReadFrameDeadline) {
  // A peer that sends a noise line every 30 ms would reset a
  // per-read-deadline forever; ReadFrame must give up on ONE overall
  // deadline regardless.
  auto listener = ListenTcp(0);
  GS_ASSERT_OK(listener.status());
  auto port = LocalPort(*listener);
  GS_ASSERT_OK(port.status());

  std::atomic<bool> stop{false};
  std::thread noisy([listen_fd = *listener, &stop] {
    auto accepted = AcceptClient(listen_fd);
    if (!accepted.ok()) return;
    const std::string noise = "OK NOISE\n";
    while (!stop.load()) {
      Status sent = WriteAll(
          *accepted, reinterpret_cast<const uint8_t*>(noise.data()),
          noise.size());
      if (!sent.ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    CloseFd(*accepted);
  });

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", *port, 2000));
  const auto start = std::chrono::steady_clock::now();
  auto frame = client.ReadFrame(300);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
  // Generous upper bound (sanitizer builds are slow), but far below
  // the forever that per-line deadline extension would allow.
  EXPECT_LT(elapsed_ms, 5000);
  EXPECT_GE(elapsed_ms, 250);

  stop.store(true);
  client.Close();
  noisy.join();
  CloseFd(*listener);
}

/// Serves one connection on `listener`: waits for a command line and
/// answers it with `reply` (frames and text, in one write).
std::thread ServeOneCommand(int listener, std::vector<uint8_t> reply) {
  return std::thread([listener, reply = std::move(reply)] {
    auto accepted = AcceptClient(listener);
    if (!accepted.ok()) return;
    uint8_t byte = 0;
    const auto read_one = [&] {
      Result<size_t> n = ReadSome(*accepted, &byte, 1);
      return n.ok() && *n == 1;
    };
    while (read_one() && byte != '\n') {
    }
    if (WriteAll(*accepted, reply.data(), reply.size()).ok()) {
      while (read_one()) {  // hold the connection until the client hangs up
      }
    }
    CloseFd(*accepted);
  });
}

void AppendBytes(std::vector<uint8_t>& out, const std::vector<uint8_t>& in) {
  out.insert(out.end(), in.begin(), in.end());
}

void AppendText(std::vector<uint8_t>& out, const std::string& text) {
  out.insert(out.end(), text.begin(), text.end());
}

/// Result frames of every body kind: raw, windowed (one and three
/// bands, NaN fill), all-fill and PNG.
std::vector<std::vector<uint8_t>> MixedResultFrames() {
  std::vector<std::vector<uint8_t>> frames;
  Raster raw(5, 4, 1);
  for (int64_t i = 0; i < 20; ++i) raw.Set(i % 5, i / 5, 0.25 * i - 1.0);
  frames.push_back(EncodeResultFrame(9, 0, raw, {}));
  Raster window(64, 48, 1, std::numeric_limits<double>::quiet_NaN());
  for (int64_t r = 10; r < 20; ++r) {
    for (int64_t c = 30; c < 41; ++c) window.Set(c, r, 0.5 * r * c);
  }
  frames.push_back(EncodeResultFrame(9, 1, window, {}));
  Raster bands(32, 16, 3, -9999.0);
  for (int b = 0; b < 3; ++b) bands.Set(7, 3, b, 1e300 * (b - 1));
  frames.push_back(EncodeResultFrame(9, 2, bands, {}));
  frames.push_back(EncodeResultFrame(9, 3, Raster(16, 16, 1, 2.5), {}));
  frames.push_back(EncodeResultFrame(9, 4, raw, {0x89, 'P', 'N', 'G'}));
  return frames;
}

void ExpectSameFrame(const FrameMessage& got, const FrameMessage& want) {
  EXPECT_EQ(got.query_id, want.query_id);
  EXPECT_EQ(got.frame_id, want.frame_id);
  EXPECT_EQ(got.width, want.width);
  EXPECT_EQ(got.height, want.height);
  EXPECT_EQ(got.bands, want.bands);
  EXPECT_EQ(got.png, want.png);
  EXPECT_EQ(got.png_bytes, want.png_bytes);
  ASSERT_EQ(got.samples.size(), want.samples.size());
  EXPECT_EQ(std::memcmp(got.samples.data(), want.samples.data(),
                        got.samples.size() * sizeof(double)),
            0)
      << "frame " << want.frame_id;
}

TEST(GeoStreamsClientTest, ParkedFramesDecodeLikeEagerOnes) {
  // Frames that arrive ahead of the response are parked as their wire
  // bytes and expanded when handed out; each must equal the eager
  // decode of its bytes, bit for bit, in arrival order. The frame
  // after the response is read fresh.
  const std::vector<std::vector<uint8_t>> frames = MixedResultFrames();
  std::vector<uint8_t> reply;
  for (const auto& f : frames) AppendBytes(reply, f);
  AppendText(reply, "OK QUERY 9\n");
  AppendBytes(reply, frames[1]);

  auto listener = ListenTcp(0);
  GS_ASSERT_OK(listener.status());
  auto port = LocalPort(*listener);
  GS_ASSERT_OK(port.status());
  std::thread server = ServeOneCommand(*listener, reply);

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", *port, 2000));
  auto response = client.Command("QUERY x", 5000);
  GS_ASSERT_OK(response.status());
  EXPECT_EQ(*response, "OK QUERY 9");
  EXPECT_EQ(client.pending_frames(), frames.size());
  for (size_t i = 0; i <= frames.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "frame " << i);
    const std::vector<uint8_t>& wire =
        i < frames.size() ? frames[i] : frames[1];
    auto eager = DecodeFrameMessage(wire.data(), wire.size());
    GS_ASSERT_OK(eager.status());
    // ReadFrame and ReadNext both hand parked frames out first.
    std::optional<FrameMessage> got;
    if (i % 2 == 0) {
      auto frame = client.ReadFrame(1000);
      GS_ASSERT_OK(frame.status());
      got = std::move(*frame);
    } else {
      auto incoming = client.ReadNext(1000);
      GS_ASSERT_OK(incoming.status());
      ASSERT_TRUE(incoming->frame.has_value());
      got = std::move(incoming->frame);
    }
    ExpectSameFrame(*got, *eager);
    EXPECT_EQ(client.pending_frames(),
              frames.size() - std::min(i + 1, frames.size()));
  }

  client.Close();
  server.join();
  CloseFd(*listener);
}

TEST(GeoStreamsClientTest, CorruptParkedFrameFailsTheCommand) {
  // A frame whose payload fails its CRC, arriving ahead of the
  // response, fails Command() and poisons the connection, as an eager
  // decode did. The good frame ahead of it stays parked.
  const std::vector<std::vector<uint8_t>> frames = MixedResultFrames();
  std::vector<uint8_t> bad = frames[1];
  bad[kWireHeaderSize + kFramePreambleSize + 5] ^= 0x10;
  std::vector<uint8_t> reply = frames[0];
  AppendBytes(reply, bad);
  AppendText(reply, "OK QUERY 9\n");

  auto listener = ListenTcp(0);
  GS_ASSERT_OK(listener.status());
  auto port = LocalPort(*listener);
  GS_ASSERT_OK(port.status());
  std::thread server = ServeOneCommand(*listener, reply);

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", *port, 2000));
  auto response = client.Command("QUERY x", 5000);
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument)
      << response.status().ToString();
  EXPECT_EQ(client.pending_frames(), 1u);
  auto first = client.ReadFrame(1000);
  GS_ASSERT_OK(first.status());
  EXPECT_EQ(first->frame_id, 0);
  auto next = client.ReadFrame(1000);
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);

  client.Close();
  server.join();
  CloseFd(*listener);
}

TEST(SocketUtilTest, ConnectsByHostname) {
  NetFixture fixture;
  auto fd = ConnectTcp("localhost", fixture.net().port(), 2000);
  if (!fd.ok()) {
    GTEST_SKIP() << "localhost does not resolve here: "
                 << fd.status().ToString();
  }
  CloseFd(*fd);
}

TEST(SocketUtilTest, ListensAndConnectsOverIpv6Loopback) {
  auto listener = ListenTcp(0, 16, /*ipv6=*/true);
  if (!listener.ok()) {
    GTEST_SKIP() << "IPv6 unavailable: " << listener.status().ToString();
  }
  auto port = LocalPort(*listener);
  GS_ASSERT_OK(port.status());
  auto fd = ConnectTcp("::1", *port, 2000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  auto readable = PollReadable(*listener, 1000);
  ASSERT_TRUE(readable.ok());
  ASSERT_TRUE(*readable);
  auto accepted = AcceptClient(*listener);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  CloseFd(*accepted);
  CloseFd(*fd);
  CloseFd(*listener);
}

TEST(SocketUtilTest, ConnectTimeoutIsBounded) {
  // RFC 5737 TEST-NET-1 is guaranteed non-routable: the connect can
  // only time out (or fail fast where the sandbox rejects the route).
  // Either way it must not block anywhere near the OS default.
  const auto start = std::chrono::steady_clock::now();
  auto fd = ConnectTcp("192.0.2.1", 9, 200);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  if (fd.ok()) {
    CloseFd(*fd);
    GTEST_SKIP() << "sandbox intercepted the blackhole address";
  }
  EXPECT_LT(elapsed_ms, 5000);
  if (elapsed_ms >= 200) {
    // The timeout (not a fast kernel error) is what fired.
    EXPECT_NE(fd.status().message().find("timed out"), std::string::npos)
        << fd.status().ToString();
  }
}

}  // namespace
}  // namespace geostreams
