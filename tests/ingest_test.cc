// Ingest plane tests: kIngest wire round-trips (strict decode),
// IngestSession sequencing/admission/liveness, FlakySocket
// determinism, and loopback end-to-end runs of ProducerClient against
// a NetServer — clean, under injected faults (the chaos audit), under
// memory overload, and through quarantine + admin RESTART. Every
// server binds port 0 (ephemeral), so tests parallelize safely.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"

#include <filesystem>

#include "net/flaky_socket.h"
#include "net/geostreams_client.h"
#include "net/ingest_session.h"
#include "net/net_server.h"
#include "net/producer_client.h"
#include "net/socket_util.h"
#include "net/wire_protocol.h"
#include "server/dsms_server.h"
#include "storage/faulty_file.h"
#include "storage/journal.h"
#include "stream/memory_tracker.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::LatLonLattice;
using testing_util::TestDescriptor;
using testing_util::TestValue;

// ---------------------------------------------------------------------------
// Helpers

FrameInfo SectorInfo(int64_t frame_id, int64_t w = 16, int64_t h = 12) {
  FrameInfo info;
  info.frame_id = frame_id;
  info.lattice = LatLonLattice(w, h);
  info.expected_points = w * h;
  return info;
}

/// A batch whose identity is recoverable on the far side: every
/// timestamp carries `ordinal`, so an audit sink can detect gaps,
/// duplicates, and reordering by sequence alone.
StreamEvent BatchEvent(int64_t ordinal, size_t n = 16) {
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = ordinal / 14;
  batch->band_count = 1;
  for (size_t i = 0; i < n; ++i) {
    batch->Append1(static_cast<int32_t>(i),
                   static_cast<int32_t>(ordinal % 12), ordinal,
                   TestValue(batch->frame_id, static_cast<int64_t>(i),
                             ordinal % 12));
  }
  batch->checksum = batch->ComputeChecksum();
  return StreamEvent::Batch(std::move(batch));
}

IngestMessage MakeIngest(const std::string& source, uint64_t seq,
                         StreamEvent event) {
  IngestMessage message;
  message.source = source;
  message.seq = seq;
  message.event = std::move(event);
  return message;
}

/// Thread-safe sink recording batch identity (the ordinal stamped
/// into timestamps) — the chaos tests' exactly-once audit trail.
class AuditSink : public EventSink {
 public:
  Status Consume(const StreamEvent& event) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++events_;
    if (event.kind == EventKind::kPointBatch && event.batch &&
        !event.batch->timestamps.empty()) {
      batch_ids_.push_back(event.batch->timestamps[0]);
      points_ += event.batch->size();
    }
    return Status::OK();
  }

  std::vector<int64_t> batch_ids() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_ids_;
  }
  uint64_t points() const {
    std::lock_guard<std::mutex> lock(mu_);
    return points_;
  }
  uint64_t events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<int64_t> batch_ids_;
  uint64_t points_ = 0;
  uint64_t events_ = 0;
};

// ---------------------------------------------------------------------------
// Wire protocol: kIngest round-trips and strict decode

TEST(IngestWireTest, RoundTripAllEventKinds) {
  // FrameBegin carries the full sector geometry (CRS by name).
  {
    const auto wire = EncodeIngestMessage(
        MakeIngest("sat.band1", 7, StreamEvent::FrameBegin(SectorInfo(3))));
    auto decoded = DecodeIngestMessage(wire.data(), wire.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->source, "sat.band1");
    EXPECT_EQ(decoded->seq, 7u);
    EXPECT_EQ(decoded->event.kind, EventKind::kFrameBegin);
    EXPECT_EQ(decoded->event.frame.frame_id, 3);
    EXPECT_EQ(decoded->event.frame.expected_points, 16 * 12);
    const GridLattice& lattice = decoded->event.frame.lattice;
    const GridLattice original = LatLonLattice(16, 12);
    EXPECT_EQ(lattice.width(), original.width());
    EXPECT_EQ(lattice.height(), original.height());
    EXPECT_DOUBLE_EQ(lattice.origin_x(), original.origin_x());
    EXPECT_DOUBLE_EQ(lattice.origin_y(), original.origin_y());
    EXPECT_DOUBLE_EQ(lattice.dx(), original.dx());
    EXPECT_DOUBLE_EQ(lattice.dy(), original.dy());
    EXPECT_TRUE(lattice.AlignedWith(original));
  }
  // PointBatch carries points and the FNV checksum.
  {
    const StreamEvent event = BatchEvent(5, 9);
    const auto wire = EncodeIngestMessage(MakeIngest("sat.band1", 8, event));
    auto decoded = DecodeIngestMessage(wire.data(), wire.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->event.kind, EventKind::kPointBatch);
    ASSERT_TRUE(decoded->event.batch);
    const PointBatch& batch = *decoded->event.batch;
    EXPECT_EQ(batch.size(), 9u);
    EXPECT_EQ(batch.frame_id, event.batch->frame_id);
    EXPECT_EQ(batch.cols, event.batch->cols);
    EXPECT_EQ(batch.rows, event.batch->rows);
    EXPECT_EQ(batch.timestamps, event.batch->timestamps);
    EXPECT_EQ(batch.values, event.batch->values);
    EXPECT_EQ(batch.checksum, event.batch->checksum);
    EXPECT_TRUE(batch.ChecksumValid());
  }
  // FrameEnd and StreamEnd.
  {
    const auto wire = EncodeIngestMessage(
        MakeIngest("sat.band1", 9, StreamEvent::FrameEnd(SectorInfo(3))));
    auto decoded = DecodeIngestMessage(wire.data(), wire.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->event.kind, EventKind::kFrameEnd);
  }
  {
    const auto wire = EncodeIngestMessage(
        MakeIngest("sat.band1", 10, StreamEvent::StreamEnd()));
    auto decoded = DecodeIngestMessage(wire.data(), wire.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->event.kind, EventKind::kStreamEnd);
    EXPECT_EQ(decoded->seq, 10u);
  }
}

TEST(IngestWireTest, StrictDecodeRejectsMalformedInput) {
  const auto wire =
      EncodeIngestMessage(MakeIngest("sat.band1", 3, BatchEvent(0, 4)));

  // Truncations at every prefix length: never OK, never a crash.
  for (size_t len = 0; len < wire.size(); ++len) {
    auto r = DecodeIngestMessage(wire.data(), len);
    EXPECT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix";
  }

  // Flipped payload byte fails the CRC.
  std::vector<uint8_t> bad = wire;
  bad[kWireHeaderSize + 5] ^= 0x10;
  auto r = DecodeIngestMessage(bad.data(), bad.size());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);

  // Trailing garbage after a complete message.
  bad = wire;
  bad.push_back(0xEE);
  EXPECT_FALSE(DecodeIngestMessage(bad.data(), bad.size()).ok());

  // A source name beyond the wire limit is refused on decode.
  const auto oversized = EncodeIngestMessage(MakeIngest(
      std::string(kMaxIngestSourceLen + 1, 'x'), 1, StreamEvent::StreamEnd()));
  auto refused = DecodeIngestMessage(oversized.data(), oversized.size());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  // An empty source name is meaningless (no session to route to).
  const auto anonymous =
      EncodeIngestMessage(MakeIngest("", 1, StreamEvent::StreamEnd()));
  EXPECT_FALSE(DecodeIngestMessage(anonymous.data(), anonymous.size()).ok());
}

TEST(IngestWireTest, DecoderDemultiplexesIngestAmongLinesAndFrames) {
  FrameMessage frame;
  frame.query_id = 4;
  frame.frame_id = 1;
  frame.width = 2;
  frame.height = 1;
  frame.bands = 1;
  frame.samples = {0.25, -1.0};

  std::vector<uint8_t> stream;
  const std::string ack = "ACK sat.band1 5\n";
  stream.insert(stream.end(), ack.begin(), ack.end());
  const auto ingest =
      EncodeIngestMessage(MakeIngest("sat.band1", 6, BatchEvent(2, 3)));
  stream.insert(stream.end(), ingest.begin(), ingest.end());
  const auto result = EncodeFrameMessage(frame);
  stream.insert(stream.end(), result.begin(), result.end());
  const std::string pong = "OK PONG\n";
  stream.insert(stream.end(), pong.begin(), pong.end());

  // Dribble in 7-byte chunks: units come out whole and in order.
  FrameDecoder decoder;
  std::vector<FrameDecoder::Unit> units;
  for (size_t off = 0; off < stream.size(); off += 7) {
    decoder.Feed(stream.data() + off,
                 std::min<size_t>(7, stream.size() - off));
    for (;;) {
      auto unit = decoder.Next();
      ASSERT_TRUE(unit.ok()) << unit.status().ToString();
      if (!unit->has_value()) break;
      units.push_back(std::move(**unit));
    }
  }
  ASSERT_EQ(units.size(), 4u);
  ASSERT_TRUE(units[0].line.has_value());
  EXPECT_EQ(*units[0].line, "ACK sat.band1 5");
  ASSERT_TRUE(units[1].ingest.has_value());
  EXPECT_EQ(units[1].ingest->seq, 6u);
  EXPECT_EQ(units[1].ingest->source, "sat.band1");
  ASSERT_TRUE(units[2].frame.has_value());
  EXPECT_EQ(units[2].frame->query_id, 4);
  ASSERT_TRUE(units[3].line.has_value());
  EXPECT_EQ(*units[3].line, "OK PONG");
}

// ---------------------------------------------------------------------------
// IngestSession: sequencing, admission, liveness

TEST(IngestSessionTest, InOrderDeliveryAcksCumulatively) {
  CollectingSink sink;
  IngestSession session("sat.band1", &sink, {});
  EXPECT_EQ(session.Attach(), 1u);

  EXPECT_EQ(session.Handle(MakeIngest(
                "sat.band1", 1, StreamEvent::FrameBegin(SectorInfo(0)))),
            "ACK sat.band1 1");
  EXPECT_EQ(session.Handle(MakeIngest("sat.band1", 2, BatchEvent(0))),
            "ACK sat.band1 2");
  EXPECT_EQ(session.Handle(MakeIngest(
                "sat.band1", 3, StreamEvent::FrameEnd(SectorInfo(0)))),
            "ACK sat.band1 3");

  EXPECT_EQ(sink.events().size(), 3u);
  const IngestSessionStats stats = session.Stats();
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_EQ(stats.next_expected, 4u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.gaps, 0u);
  // A reconnecting producer resumes from exactly here.
  EXPECT_EQ(session.Attach(), 4u);
}

TEST(IngestSessionTest, DuplicateIsReAckedNotRedelivered) {
  CollectingSink sink;
  IngestSession session("sat.band1", &sink, {});
  const IngestMessage first = MakeIngest("sat.band1", 1, BatchEvent(0));
  EXPECT_EQ(session.Handle(first), "ACK sat.band1 1");
  // The replayed copy (producer lost our ack) is acked again but the
  // chain sees it once: at-least-once transport, exactly-once delivery.
  EXPECT_EQ(session.Handle(first), "ACK sat.band1 1");
  EXPECT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(session.Stats().duplicates, 1u);
  EXPECT_EQ(session.Stats().delivered, 1u);
}

TEST(IngestSessionTest, GapIsNackedWithExpectedSequence) {
  CollectingSink sink;
  IngestSession session("sat.band1", &sink, {});
  const std::string response =
      session.Handle(MakeIngest("sat.band1", 5, BatchEvent(0)));
  EXPECT_TRUE(StartsWith(response, "NACK sat.band1 5 OutOfRange"))
      << response;
  EXPECT_NE(response.find("expected=1"), std::string::npos) << response;
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(session.Stats().gaps, 1u);
  EXPECT_EQ(session.Stats().next_expected, 1u);
}

TEST(IngestSessionTest, AdmissionControlNacksBatchesUnderPressure) {
  MemoryTracker tracker;
  tracker.Update("test.ballast", 1u << 20);

  CollectingSink sink;
  IngestSessionOptions options;
  options.memory = &tracker;
  options.admission_max_bytes = 1024;
  IngestSession session("sat.band1", &sink, options);

  // Control events are always admitted: downstream buffering operators
  // keep seeing well-formed frames even while batches are refused.
  EXPECT_EQ(session.Handle(MakeIngest(
                "sat.band1", 1, StreamEvent::FrameBegin(SectorInfo(0)))),
            "ACK sat.band1 1");
  const std::string refused =
      session.Handle(MakeIngest("sat.band1", 2, BatchEvent(0)));
  EXPECT_TRUE(StartsWith(refused, "NACK sat.band1 2 ResourceExhausted"))
      << refused;
  EXPECT_EQ(session.Stats().overload_nacks, 1u);
  EXPECT_EQ(session.Stats().next_expected, 2u);  // seq not consumed

  // Pressure drops; the producer's retry of the same sequence lands.
  tracker.Update("test.ballast", 0);
  EXPECT_EQ(session.Handle(MakeIngest("sat.band1", 2, BatchEvent(0))),
            "ACK sat.band1 2");
  EXPECT_EQ(sink.events().size(), 2u);
}

TEST(IngestSessionTest, ShedPolicyAcksAndDropsUnderPressure) {
  MemoryTracker tracker;
  tracker.Update("test.ballast", 1u << 20);

  CollectingSink sink;
  IngestSessionOptions options;
  options.memory = &tracker;
  options.admission_max_bytes = 1024;
  options.overload_policy = IngestSessionOptions::OverloadPolicy::kShed;
  IngestSession session("sat.band1", &sink, options);

  // kShed takes responsibility (ack) but drops the batch, so the
  // producer's replay buffer cannot amplify the overload.
  EXPECT_EQ(session.Handle(MakeIngest("sat.band1", 1, BatchEvent(0))),
            "ACK sat.band1 1");
  EXPECT_TRUE(sink.events().empty());
  const IngestSessionStats stats = session.Stats();
  EXPECT_EQ(stats.overload_shed, 1u);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.next_expected, 2u);
}

TEST(IngestSessionTest, IdleTimeoutQuarantinesOnceUntilRestart) {
  CollectingSink sink;
  IngestSessionOptions options;
  options.idle_timeout_ms = 1;
  IngestSession session("sat.band1", &sink, options);
  session.Attach();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const Status verdict = session.CheckLiveness();
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.code(), StatusCode::kUnavailable);
  EXPECT_NE(verdict.message().find("silent"), std::string::npos);
  // Quarantine is recorded once, not on every sweep tick.
  GS_EXPECT_OK(session.CheckLiveness());
  EXPECT_TRUE(session.Stats().quarantined);

  const std::string refused =
      session.Handle(MakeIngest("sat.band1", 1, BatchEvent(0)));
  EXPECT_TRUE(StartsWith(refused, "NACK sat.band1 1 FailedPrecondition"))
      << refused;
  EXPECT_TRUE(sink.events().empty());

  session.Unquarantine();
  EXPECT_FALSE(session.Stats().quarantined);
  EXPECT_EQ(session.Handle(MakeIngest("sat.band1", 1, BatchEvent(0))),
            "ACK sat.band1 1");
  EXPECT_EQ(sink.events().size(), 1u);
}

TEST(IngestSessionTest, LivenessIsDisarmedByStreamEndAndBeforeAttach) {
  CollectingSink sink;
  IngestSessionOptions options;
  options.idle_timeout_ms = 1;

  // Never attached: a source nobody produces to is not "silent".
  IngestSession idle("sat.band1", &sink, options);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  GS_EXPECT_OK(idle.CheckLiveness());

  // A delivered StreamEnd is an orderly goodbye, not a death.
  IngestSession ended("sat.band2", &sink, options);
  ended.Attach();
  EXPECT_EQ(ended.Handle(MakeIngest("sat.band2", 1, StreamEvent::StreamEnd())),
            "ACK sat.band2 1");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  GS_EXPECT_OK(ended.CheckLiveness());
  EXPECT_TRUE(ended.Stats().ended);
}

// ---------------------------------------------------------------------------
// FlakySocket: deterministic fault schedule

/// Writes `rounds` buffers through a FlakySocket over a local
/// socketpair, draining the peer, and returns the stats.
FlakySocketStats RunFlakySchedule(const FlakySocketOptions& options,
                                  int rounds) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FlakySocket socket(fds[0], options);
  uint8_t payload[48];
  uint8_t drain[4096];
  for (int i = 0; i < rounds; ++i) {
    for (size_t j = 0; j < sizeof(payload); ++j) {
      payload[j] = static_cast<uint8_t>(i + static_cast<int>(j));
    }
    Status written = socket.Write(payload, sizeof(payload));
    if (!written.ok()) break;  // injected reset: schedule ends here
    // Drain so the kernel buffer never backpressures the writer.
    const ssize_t n = ::recv(fds[1], drain, sizeof(drain), MSG_DONTWAIT);
    (void)n;
  }
  const FlakySocketStats stats = socket.stats();
  ::close(fds[1]);
  return stats;
}

TEST(FlakySocketTest, DefaultOptionsArePassthrough) {
  const FlakySocketStats stats = RunFlakySchedule({}, 32);
  EXPECT_EQ(stats.writes, 32u);
  EXPECT_EQ(stats.partial_writes, 0u);
  EXPECT_EQ(stats.corrupted_writes, 0u);
  EXPECT_EQ(stats.resets, 0u);
  EXPECT_EQ(stats.dropped_reads, 0u);
}

TEST(FlakySocketTest, FaultScheduleIsDeterministicPerSeed) {
  // No resets here: a reset ends the schedule, and this test wants
  // the full 256-write walk (resets get their own test below).
  FlakySocketOptions options;
  options.seed = 7;
  options.partial_write_p = 0.3;
  options.corrupt_write_p = 0.2;

  const FlakySocketStats first = RunFlakySchedule(options, 256);
  const FlakySocketStats second = RunFlakySchedule(options, 256);
  EXPECT_EQ(first.writes, 256u);
  EXPECT_EQ(first.writes, second.writes);
  EXPECT_EQ(first.partial_writes, second.partial_writes);
  EXPECT_EQ(first.corrupted_writes, second.corrupted_writes);
  // The schedule provably fired each configured fault.
  EXPECT_GT(first.partial_writes, 0u);
  EXPECT_GT(first.corrupted_writes, 0u);

  // A different seed walks a different schedule.
  options.seed = 8;
  const FlakySocketStats other = RunFlakySchedule(options, 256);
  EXPECT_TRUE(other.partial_writes != first.partial_writes ||
              other.corrupted_writes != first.corrupted_writes);
}

TEST(FlakySocketTest, InjectedResetBreaksTheSocketForGood) {
  FlakySocketOptions options;
  options.seed = 11;
  options.reset_write_p = 0.2;
  const FlakySocketStats stats = RunFlakySchedule(options, 256);
  // The schedule ran until the first reset, which ended it.
  EXPECT_EQ(stats.resets, 1u);
  EXPECT_LT(stats.writes, 256u);

  // After a reset every further Write is refused: connection dead.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FlakySocketOptions always;
  always.seed = 11;
  always.reset_write_p = 1.0;
  FlakySocket socket(fds[0], always);
  const uint8_t byte[4] = {1, 2, 3, 4};
  EXPECT_EQ(socket.Write(byte, sizeof(byte)).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(socket.broken());
  EXPECT_EQ(socket.Write(byte, sizeof(byte)).code(),
            StatusCode::kUnavailable);
  ::close(fds[1]);
}

TEST(FlakySocketTest, DeterministicReadDropsSurfaceAsUnavailable) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FlakySocketOptions options;
  options.seed = 3;
  options.drop_read_p = 1.0;  // every chunk is swallowed
  FlakySocket socket(fds[0], options);

  const uint8_t chunk[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_EQ(::send(fds[1], chunk, sizeof(chunk), 0),
            static_cast<ssize_t>(sizeof(chunk)));
  uint8_t buf[64];
  auto r = socket.Read(buf, sizeof(buf));
  // The chunk is gone and nothing else is pending: the caller's poll
  // loop supplies the waiting (a dropped ack batch, not an EOF).
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(socket.stats().dropped_reads, 1u);

  // EOF is never injected away.
  ::close(fds[1]);
  auto eof = socket.Read(buf, sizeof(buf));
  ASSERT_TRUE(eof.ok()) << eof.status().ToString();
  EXPECT_EQ(*eof, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: ProducerClient against a live NetServer

class IngestFixture {
 public:
  explicit IngestFixture(NetServerOptions net_options = {},
                         DsmsOptions options = {})
      : server_(options), net_(&server_, std::move(net_options)) {
    GS_EXPECT_OK(server_.RegisterStream(TestDescriptor("sat.band1")));
    GS_EXPECT_OK(server_.RegisterStream(TestDescriptor("sat.band2")));
    GS_EXPECT_OK(net_.Start());
  }

  ProducerClientOptions ProducerOptions(const std::string& source) const {
    ProducerClientOptions options;
    options.port = net_.ingest_port() != 0 ? net_.ingest_port() : net_.port();
    options.source = source;
    options.backoff_initial_ms = 1;
    options.backoff_max_ms = 20;
    options.backoff_jitter_ms = 2;
    options.max_reconnect_attempts = 16;
    return options;
  }

  DsmsServer& server() { return server_; }
  NetServer& net() { return net_; }

 private:
  DsmsServer server_;
  NetServer net_;
};

TEST(ProducerE2eTest, CleanStreamFeedsQueryChainOverTcp) {
  DsmsOptions options;
  options.workers = 1;
  options.verify_ingest_checksums = true;
  NetServerOptions net_options;
  net_options.ingest_port = 0;  // dedicated producer listener
  IngestFixture fixture(std::move(net_options), options);
  EXPECT_NE(fixture.net().ingest_port(), 0u);
  EXPECT_NE(fixture.net().ingest_port(), fixture.net().port());

  // A client subscribes to the raw band over the client port.
  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  auto response = client.Command("QUERY sat.band1");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(StartsWith(*response, "OK QUERY "));

  // A remote producer streams three frames over the ingest port.
  ProducerClient producer(fixture.ProducerOptions("sat.band1"));
  GS_ASSERT_OK(producer.Connect());
  const GridLattice lattice = LatLonLattice(16, 12);
  for (int64_t frame = 0; frame < 3; ++frame) {
    GS_ASSERT_OK(testing_util::PushFrame(&producer, lattice, frame));
  }
  GS_ASSERT_OK(producer.Flush(10000));
  EXPECT_EQ(producer.unacked(), 0u);
  EXPECT_EQ(producer.stats().published, producer.stats().acked);

  // The frames come out of the query chain bit-exact.
  for (int64_t expect_frame = 0; expect_frame < 3; ++expect_frame) {
    auto frame = client.ReadFrame(10000);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->frame_id, expect_frame);
    ASSERT_EQ(frame->samples.size(), static_cast<size_t>(16 * 12));
    for (int64_t row = 0; row < 12; ++row) {
      for (int64_t col = 0; col < 16; ++col) {
        EXPECT_DOUBLE_EQ(frame->samples[row * 16 + col],
                         TestValue(expect_frame, col, row));
      }
    }
  }

  auto stats = fixture.net().IngestStats("sat.band1");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->delivered, 3u * (1 + 12 + 1));
  EXPECT_EQ(stats->gaps, 0u);
  EXPECT_EQ(stats->duplicates, 0u);
  EXPECT_EQ(fixture.server().IngestChecksumFailures(), 0u);
}

TEST(ProducerE2eTest, AttachToUnknownSourceIsRefused) {
  IngestFixture fixture;
  ProducerClient producer(fixture.ProducerOptions("no.such.stream"));
  const Status refused = producer.Connect();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kNotFound);
}

TEST(ProducerE2eTest, IngestBeforeAttachIsNacked) {
  IngestFixture fixture;
  // A hand-rolled producer that skips the ATTACH handshake.
  auto fd = ConnectTcp("127.0.0.1", fixture.net().port(), 2000);
  GS_ASSERT_OK(fd.status());
  FlakySocket socket(*fd);
  const auto wire =
      EncodeIngestMessage(MakeIngest("sat.band1", 1, BatchEvent(0)));
  GS_ASSERT_OK(socket.Write(wire.data(), wire.size()));

  FrameDecoder decoder;
  uint8_t buf[4096];
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (line.empty() && std::chrono::steady_clock::now() < deadline) {
    auto readable = socket.PollReadable(100);
    GS_ASSERT_OK(readable.status());
    if (!*readable) continue;
    auto n = socket.Read(buf, sizeof(buf));
    GS_ASSERT_OK(n.status());
    ASSERT_GT(*n, 0u);
    decoder.Feed(buf, *n);
    auto unit = decoder.Next();
    GS_ASSERT_OK(unit.status());
    if (unit->has_value() && (*unit)->line) line = *(*unit)->line;
  }
  EXPECT_TRUE(StartsWith(line, "NACK sat.band1 1 FailedPrecondition"))
      << line;
}

/// Publishes `batches` audit-stamped batches (grouped into frames of
/// 14 with begin/end markers) through `producer`, tolerating the
/// transient errors fault injection provokes: a ResourceExhausted
/// publish did not consume the event (retry it), anything else left
/// the event safely in the replay buffer.
void PublishAuditedBatches(ProducerClient* producer, int batches) {
  int64_t ordinal = 0;
  while (ordinal < batches) {
    if (ordinal % 14 == 0) {
      Status begin = producer->Publish(
          StreamEvent::FrameBegin(SectorInfo(ordinal / 14)));
      (void)begin;  // buffered (or refused pre-seq); replay covers it
    }
    for (int attempt = 0; attempt < 200; ++attempt) {
      Status published = producer->Publish(BatchEvent(ordinal));
      if (published.code() != StatusCode::kResourceExhausted) break;
      // Replay buffer full: give the server room to ack, then retry
      // the SAME batch (its sequence number was not consumed).
      Status drained = producer->Flush(50);
      (void)drained;
    }
    ++ordinal;
    if (ordinal % 14 == 0) {
      Status end = producer->Publish(
          StreamEvent::FrameEnd(SectorInfo(ordinal / 14 - 1)));
      (void)end;
    }
  }
}

/// Flushes with caller-level retries: fault injection can corrupt
/// even the ATTACH handshake line, which surfaces as a non-transient
/// status that a fresh attempt clears.
Status FlushHard(ProducerClient* producer, int rounds) {
  Status flushed = Status::OK();
  for (int i = 0; i < rounds; ++i) {
    flushed = producer->Flush(2000);
    if (flushed.ok()) return flushed;
  }
  return flushed;
}

/// The chaos audit: every batch id 0..batches-1 exactly once, in
/// order — at-least-once transport plus server dedup, proven end to
/// end.
void ExpectExactlyOnceInOrder(const AuditSink& audit, int batches) {
  const std::vector<int64_t> ids = audit.batch_ids();
  ASSERT_EQ(ids.size(), static_cast<size_t>(batches));
  for (int64_t i = 0; i < batches; ++i) {
    ASSERT_EQ(ids[static_cast<size_t>(i)], i)
        << "batch " << i << " lost, duplicated, or reordered";
  }
}

TEST(ProducerE2eTest, ChaosFaultsPreserveExactlyOnceDelivery) {
  // ~11k points: 700 batches x 16 points, through a socket injecting
  // partial writes, mid-frame resets, dropped acks, and delayed acks.
  constexpr int kBatches = 700;
  AuditSink audit;
  NetServerOptions net_options;
  net_options.ingest_resolver = [&audit](const std::string&) -> EventSink* {
    return &audit;
  };
  IngestFixture fixture(std::move(net_options));

  ProducerClientOptions options = fixture.ProducerOptions("chaos.src");
  options.flaky.seed = 20260806;
  options.flaky.partial_write_p = 0.05;
  options.flaky.reset_write_p = 0.01;
  options.flaky.drop_read_p = 0.2;
  options.flaky.delay_read_p = 0.1;
  options.resend_timeout_ms = 50;
  ProducerClient producer(options);

  PublishAuditedBatches(&producer, kBatches);
  GS_ASSERT_OK(FlushHard(&producer, 20));
  EXPECT_EQ(producer.unacked(), 0u);

  ExpectExactlyOnceInOrder(audit, kBatches);
  EXPECT_GE(audit.points(), 10000u);

  // A passing run must provably have exercised the write-side faults.
  // (Read-side counters depend on how the kernel coalesces ack bytes,
  // so drops/delays get their own deterministic tests below.)
  const FlakySocketStats faults = producer.TotalSocketStats();
  EXPECT_GT(faults.partial_writes, 0u);
  EXPECT_GT(faults.resets, 0u);
  EXPECT_GT(producer.stats().reconnects, 0u);

  // And the server saw the replays for what they were: duplicates.
  auto stats = fixture.net().IngestStats("chaos.src");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->delivered, audit.events());
  EXPECT_EQ(stats->quarantined, false);
}

TEST(ProducerE2eTest, CorruptedBytesPoisonDecoderAndHealByReplay) {
  // Corruption fails the server's CRC, poisoning its decoder; the
  // server hangs up, the producer reconnects, re-attaches, and
  // replays. Delivery stays exactly-once.
  constexpr int kBatches = 120;
  AuditSink audit;
  NetServerOptions net_options;
  net_options.ingest_resolver = [&audit](const std::string&) -> EventSink* {
    return &audit;
  };
  IngestFixture fixture(std::move(net_options));

  ProducerClientOptions options = fixture.ProducerOptions("corrupt.src");
  options.flaky.seed = 42;
  options.flaky.corrupt_write_p = 0.03;
  options.resend_timeout_ms = 50;
  ProducerClient producer(options);

  PublishAuditedBatches(&producer, kBatches);
  GS_ASSERT_OK(FlushHard(&producer, 20));

  ExpectExactlyOnceInOrder(audit, kBatches);
  EXPECT_GT(producer.TotalSocketStats().corrupted_writes, 0u);
  EXPECT_GT(producer.stats().reconnects, 0u);
}

TEST(ProducerE2eTest, DroppedAckChunksHealWithExactlyOnceDelivery) {
  // Flushing after every publish forces at least one ack read per
  // batch, so the 50% drop schedule provably fires; every dropped
  // chunk costs a reconnect + idempotent resume, never a duplicate
  // delivery.
  constexpr int kBatches = 100;
  IngestFixture fixture;
  ProducerClientOptions options = fixture.ProducerOptions("sat.band1");
  options.flaky.seed = 97;
  options.flaky.drop_read_p = 0.5;
  options.resend_timeout_ms = 30;
  ProducerClient producer(options);

  for (int64_t ordinal = 0; ordinal < kBatches; ++ordinal) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      Status published = producer.Publish(BatchEvent(ordinal));
      if (published.code() != StatusCode::kResourceExhausted) break;
    }
    GS_ASSERT_OK(FlushHard(&producer, 20));
  }

  EXPECT_GT(producer.TotalSocketStats().dropped_reads, 0u);
  auto stats = fixture.net().IngestStats("sat.band1");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->delivered, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats->next_expected, static_cast<uint64_t>(kBatches) + 1);
}

TEST(ProducerE2eTest, DelayedAcksReorderButStillDrain) {
  // delay_read_p = 1 rolls on every single read, so the counter is
  // deterministic; reordered ack arrival must not confuse the
  // cumulative-ack bookkeeping.
  constexpr int kBatches = 50;
  IngestFixture fixture;
  ProducerClientOptions options = fixture.ProducerOptions("sat.band2");
  options.flaky.seed = 13;
  options.flaky.delay_read_p = 1.0;
  options.resend_timeout_ms = 30;
  ProducerClient producer(options);

  PublishAuditedBatches(&producer, kBatches);
  GS_ASSERT_OK(FlushHard(&producer, 20));
  EXPECT_EQ(producer.unacked(), 0u);
  EXPECT_GT(producer.TotalSocketStats().delayed_reads, 0u);
  auto stats = fixture.net().IngestStats("sat.band2");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->gaps, 0u);
  EXPECT_FALSE(stats->quarantined);
}

TEST(ProducerE2eTest, OverloadNacksAtBoundaryWithoutQuarantine) {
  // A memory figure over budget: batches are refused at the front
  // door. The overloaded source is NOT quarantined, and a healthy
  // pipeline on another stream keeps running untouched.
  MemoryTracker pressure;
  pressure.Update("test.ballast", 1u << 20);

  DsmsOptions options;
  options.workers = 1;
  NetServerOptions net_options;
  net_options.ingest.memory = &pressure;
  net_options.ingest.admission_max_bytes = 1024;
  IngestFixture fixture(std::move(net_options), options);

  std::atomic<uint64_t> healthy_frames{0};
  auto query = fixture.server().RegisterQuery(
      "sat.band2",
      [&healthy_frames](int64_t, const Raster&, const std::vector<uint8_t>&) {
        healthy_frames.fetch_add(1, std::memory_order_relaxed);
      });
  GS_ASSERT_OK(query.status());

  ProducerClientOptions producer_options =
      fixture.ProducerOptions("sat.band1");
  producer_options.resend_timeout_ms = 30;
  ProducerClient producer(producer_options);
  GS_ASSERT_OK(producer.Connect());
  GS_ASSERT_OK(
      producer.Publish(StreamEvent::FrameBegin(SectorInfo(0))));
  Status published = producer.Publish(BatchEvent(0));
  if (published.ok()) published = producer.Flush(500);
  ASSERT_FALSE(published.ok());
  EXPECT_EQ(published.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(producer.stats().overload_nacks, 0u);
  EXPECT_EQ(producer.unacked(), 1u);  // the batch waits for admission

  // The refusal stayed at the boundary: no quarantine anywhere.
  auto ingest_stats = fixture.net().IngestStats("sat.band1");
  ASSERT_TRUE(ingest_stats.ok()) << ingest_stats.status().ToString();
  EXPECT_GT(ingest_stats->overload_nacks, 0u);
  EXPECT_FALSE(ingest_stats->quarantined);
  GS_EXPECT_OK(fixture.server().SourceError("sat.band1"));

  // The healthy pipeline on the other band is oblivious.
  auto health = fixture.server().QueryHealth(*query);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, PipelineHealth::kRunning);
  GS_ASSERT_OK(testing_util::PushFrame(
      fixture.server().ingest("sat.band2"), LatLonLattice(16, 12), 0));
  GS_ASSERT_OK(fixture.server().Flush());
  EXPECT_EQ(healthy_frames.load(), 1u);

  // Pressure lifts; the producer's standing replay drains.
  pressure.Update("test.ballast", 0);
  GS_ASSERT_OK(producer.Flush(10000));
  EXPECT_EQ(producer.unacked(), 0u);
  ingest_stats = fixture.net().IngestStats("sat.band1");
  ASSERT_TRUE(ingest_stats.ok());
  EXPECT_EQ(ingest_stats->delivered, 2u);
}

TEST(ProducerE2eTest, SilentProducerIsQuarantinedUntilAdminRestart) {
  DsmsOptions options;
  NetServerOptions net_options;
  net_options.poll_interval_ms = 10;
  net_options.ingest.idle_timeout_ms = 300;
  IngestFixture fixture(std::move(net_options), options);

  ProducerClient producer(fixture.ProducerOptions("sat.band1"));
  GS_ASSERT_OK(producer.Connect());
  GS_ASSERT_OK(producer.Publish(StreamEvent::FrameBegin(SectorInfo(0))));
  GS_ASSERT_OK(producer.Flush(5000));

  // ... then silence. The liveness sweep quarantines the source.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool quarantined = false;
  while (!quarantined && std::chrono::steady_clock::now() < deadline) {
    auto stats = fixture.net().IngestStats("sat.band1");
    ASSERT_TRUE(stats.ok());
    quarantined = stats->quarantined;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(quarantined);

  // The silence is on the record: source error + boundary dead letter.
  const Status source_error = fixture.server().SourceError("sat.band1");
  ASSERT_FALSE(source_error.ok());
  EXPECT_EQ(source_error.code(), StatusCode::kUnavailable);
  auto letters = fixture.server().SourceDeadLetters("sat.band1");
  ASSERT_TRUE(letters.ok());
  EXPECT_FALSE(letters->empty());

  // The returning producer is turned away until an admin acts.
  Status verdict = producer.Publish(BatchEvent(0));
  if (verdict.ok()) verdict = producer.Flush(1000);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.code(), StatusCode::kFailedPrecondition);

  // Admin RESTART over the control plane un-quarantines both layers.
  GeoStreamsClient admin;
  GS_ASSERT_OK(admin.Connect("127.0.0.1", fixture.net().port()));
  auto restarted = admin.Command("RESTART sat.band1");
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ(*restarted, "OK RESTART sat.band1");

  GS_ASSERT_OK(producer.Flush(10000));
  EXPECT_EQ(producer.unacked(), 0u);
  auto stats = fixture.net().IngestStats("sat.band1");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->quarantined);
  EXPECT_GE(stats->delivered, 2u);
  GS_EXPECT_OK(fixture.server().SourceError("sat.band1"));
}

TEST(ProducerE2eTest, HeartbeatsKeepAnIdleProducerAlive) {
  NetServerOptions net_options;
  net_options.poll_interval_ms = 10;
  net_options.ingest.idle_timeout_ms = 300;
  IngestFixture fixture(std::move(net_options));

  ProducerClient producer(fixture.ProducerOptions("sat.band2"));
  GS_ASSERT_OK(producer.Connect());
  // Idle for 3x the timeout, but heartbeating: never quarantined.
  for (int i = 0; i < 30; ++i) {
    GS_ASSERT_OK(producer.Heartbeat());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  auto stats = fixture.net().IngestStats("sat.band2");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->quarantined);
  // And the session still works.
  GS_ASSERT_OK(producer.Publish(BatchEvent(0)));
  GS_ASSERT_OK(producer.Flush(5000));
}

TEST(ProducerE2eTest, IstatsCommandReportsSessionCounters) {
  IngestFixture fixture;
  ProducerClient producer(fixture.ProducerOptions("sat.band1"));
  GS_ASSERT_OK(producer.Connect());
  GS_ASSERT_OK(producer.Publish(BatchEvent(0)));
  GS_ASSERT_OK(producer.Flush(5000));

  GeoStreamsClient admin;
  GS_ASSERT_OK(admin.Connect("127.0.0.1", fixture.net().port()));
  auto istats = admin.Command("ISTATS sat.band1");
  ASSERT_TRUE(istats.ok()) << istats.status().ToString();
  EXPECT_TRUE(StartsWith(*istats, "OK ISTATS source=sat.band1")) << *istats;
  EXPECT_NE(istats->find("delivered=1"), std::string::npos) << *istats;
  EXPECT_NE(istats->find("next=2"), std::string::npos) << *istats;

  auto unknown = admin.Command("ISTATS never.attached");
  ASSERT_TRUE(unknown.ok());
  EXPECT_TRUE(StartsWith(*unknown, "ERR ")) << *unknown;
}

TEST(ProducerE2eTest, LostAcksHealByResendWithoutReconnect) {
  // A hand-rolled server that swallows its first ack: the producer's
  // Flush sees no progress inside the resend window, re-sends the
  // unacked message, and the server re-acks the duplicate — the
  // dropped-ack heal, with no reconnect involved.
  auto listener = ListenTcp(0);
  GS_ASSERT_OK(listener.status());
  auto port = LocalPort(*listener);
  GS_ASSERT_OK(port.status());

  std::atomic<uint64_t> receipts{0};
  std::thread fake_server([listen_fd = *listener, &receipts] {
    auto accepted = AcceptClient(listen_fd);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    const int fd = *accepted;
    FrameDecoder decoder;
    uint8_t buf[4096];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool done = false;
    while (!done && std::chrono::steady_clock::now() < deadline) {
      auto readable = PollReadable(fd, 100);
      if (!readable.ok() || !*readable) continue;
      auto n = ReadSome(fd, buf, sizeof(buf));
      if (!n.ok() || *n == 0) break;
      decoder.Feed(buf, *n);
      for (;;) {
        auto unit = decoder.Next();
        ASSERT_TRUE(unit.ok()) << unit.status().ToString();
        if (!unit->has_value()) break;
        std::string reply;
        if ((*unit)->line) {
          // The ATTACH handshake; always answered.
          reply = "OK ATTACH stall.src next=1\n";
        } else if ((*unit)->ingest) {
          // Swallow the first ack; answer every receipt after it.
          if (++receipts > 1) {
            reply = StringPrintf(
                "ACK stall.src %llu\n",
                static_cast<unsigned long long>((*unit)->ingest->seq));
            done = true;
          }
        }
        if (!reply.empty()) {
          Status sent = WriteAll(
              fd, reinterpret_cast<const uint8_t*>(reply.data()),
              reply.size());
          ASSERT_TRUE(sent.ok()) << sent.ToString();
        }
      }
    }
    // Hold the socket open until the producer drains the ack.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    CloseFd(fd);
  });

  ProducerClientOptions options;
  options.port = *port;
  options.source = "stall.src";
  options.resend_timeout_ms = 50;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 10;
  ProducerClient producer(options);
  GS_ASSERT_OK(producer.Connect());
  GS_ASSERT_OK(producer.Publish(BatchEvent(0)));
  GS_ASSERT_OK(producer.Flush(8000));
  fake_server.join();
  CloseFd(*listener);

  EXPECT_EQ(producer.unacked(), 0u);
  EXPECT_GE(producer.stats().retransmits, 1u);  // the stall re-send
  EXPECT_EQ(producer.stats().reconnects, 0u);   // healed in place
  EXPECT_EQ(receipts.load(), 2u);               // original + replay
}

TEST(ProducerE2eTest, ReconnectResumesFromServerAck) {
  // An orderly close (not a fault) between publishes: the second
  // connection ATTACHes, learns next=, and does not re-deliver.
  IngestFixture fixture;
  ProducerClient producer(fixture.ProducerOptions("sat.band1"));
  GS_ASSERT_OK(producer.Connect());
  GS_ASSERT_OK(producer.Publish(BatchEvent(0)));
  GS_ASSERT_OK(producer.Flush(5000));
  producer.Close();

  GS_ASSERT_OK(producer.Connect());
  EXPECT_EQ(producer.stats().reconnects, 1u);
  GS_ASSERT_OK(producer.Publish(BatchEvent(1)));
  GS_ASSERT_OK(producer.Flush(5000));

  auto stats = fixture.net().IngestStats("sat.band1");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->delivered, 2u);
  EXPECT_EQ(stats->duplicates, 0u);
  EXPECT_EQ(stats->next_expected, 3u);
}

// ---------------------------------------------------------------------------
// Per-source admission budgets (token bucket, injectable clock)

/// A fresh directory under the test temp root, unique per test.
std::string FreshJournalDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "gsingest-" +
                    info->test_suite_name() + "-" + info->name() + "-" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(IngestSessionTest, PerSourceBudgetNacksOverRateAndRefills) {
  AuditSink sink;
  const StreamEvent sample = BatchEvent(0);
  const uint64_t batch_bytes = sample.batch->ApproxBytes();

  uint64_t now = 1000;
  IngestSessionOptions options;
  options.source_rate_bytes_per_sec = batch_bytes;  // one batch/second
  options.source_burst_bytes = batch_bytes;         // bucket: one batch
  options.now_ms = [&now] { return now; };
  IngestSession session("budget.src", &sink, options);
  session.Attach();

  // The burst admits the first batch and drains the bucket.
  EXPECT_EQ(session.Handle(MakeIngest("budget.src", 1, BatchEvent(0))),
            "ACK budget.src 1");
  // Same instant: no tokens — refused, sequence NOT consumed.
  const std::string refused =
      session.Handle(MakeIngest("budget.src", 2, BatchEvent(1)));
  EXPECT_TRUE(StartsWith(refused, "NACK budget.src 2 ResourceExhausted"))
      << refused;
  EXPECT_NE(refused.find("per-source budget"), std::string::npos);
  // Control events are never budgeted.
  EXPECT_EQ(session.Handle(MakeIngest("budget.src", 2,
                                      StreamEvent::FrameBegin(SectorInfo(0)))),
            "ACK budget.src 2");
  // One second later the bucket refilled: the retry is admitted.
  now += 1000;
  EXPECT_EQ(session.Handle(MakeIngest("budget.src", 3, BatchEvent(1))),
            "ACK budget.src 3");

  const IngestSessionStats stats = session.Stats();
  EXPECT_EQ(stats.budget_nacks, 1u);
  EXPECT_EQ(stats.budget_shed, 0u);
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_NE(session.StatsLine().find("budget_nacks=1"), std::string::npos)
      << session.StatsLine();
}

TEST(IngestSessionTest, PerSourceBudgetShedAcksDropsAndStaysDurable) {
  const std::string dir = FreshJournalDir("shed");
  JournalOptions jopts;
  jopts.dir = dir;
  jopts.fsync = FsyncPolicy::kOff;
  auto journal = IngestJournal::Open(jopts);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  auto sj = (*journal)->SourceFor("shed.src");
  ASSERT_TRUE(sj.ok()) << sj.status().ToString();

  AuditSink sink;
  const uint64_t batch_bytes = BatchEvent(0).batch->ApproxBytes();
  uint64_t now = 1000;
  IngestSessionOptions options;
  options.source_rate_bytes_per_sec = batch_bytes;
  options.source_burst_bytes = batch_bytes;
  options.overload_policy = IngestSessionOptions::OverloadPolicy::kShed;
  options.now_ms = [&now] { return now; };
  options.journal = *sj;
  IngestSession session("shed.src", &sink, options);
  session.Attach();

  EXPECT_EQ(session.Handle(MakeIngest("shed.src", 1, BatchEvent(0))),
            "ACK shed.src 1");
  // Over budget under kShed: ACKed (producer progresses) but dropped
  // before the chain — and still journaled, because the ack is a
  // durable promise regardless of delivery.
  EXPECT_EQ(session.Handle(MakeIngest("shed.src", 2, BatchEvent(1))),
            "ACK shed.src 2");
  const IngestSessionStats stats = session.Stats();
  EXPECT_EQ(stats.budget_shed, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.journaled, 2u);
  EXPECT_TRUE(stats.durable);
  EXPECT_EQ(sink.events(), 1u);
  EXPECT_NE(session.StatsLine().find("budget_shed=1"), std::string::npos);
  EXPECT_NE(session.StatsLine().find("durable=1"), std::string::npos);
  // The shed batch's sequence is settled forever: a restart recovers
  // next_seq past it.
  EXPECT_EQ((*sj)->next_seq(), 3u);
}

TEST(IngestSessionTest, OverloadShedUnderAJournalSettlesTheRetainFloor) {
  const std::string dir = FreshJournalDir("overload-shed");
  JournalOptions jopts;
  jopts.dir = dir;
  jopts.fsync = FsyncPolicy::kOff;
  auto journal = IngestJournal::Open(jopts);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  auto sj = (*journal)->SourceFor("ovl.src");
  ASSERT_TRUE(sj.ok()) << sj.status().ToString();

  MemoryTracker tracker;
  tracker.Update("test.ballast", 1u << 20);
  AuditSink sink;
  IngestSessionOptions options;
  options.memory = &tracker;
  options.admission_max_bytes = 1024;
  options.overload_policy = IngestSessionOptions::OverloadPolicy::kShed;
  options.journal = *sj;
  IngestSession session("ovl.src", &sink, options);
  session.Attach();

  // Memory-admission kShed: journaled, acked, dropped — and settled,
  // so retention may retire the record instead of compacting it
  // forward as if it were still awaiting a retry.
  EXPECT_EQ(session.Handle(MakeIngest("ovl.src", 1, BatchEvent(0))),
            "ACK ovl.src 1");
  EXPECT_EQ(session.Stats().overload_shed, 1u);
  EXPECT_EQ(session.Stats().acks, 1u);
  EXPECT_EQ(sink.events(), 0u);
  EXPECT_EQ((*sj)->stats().retain_floor, 2u);
}

// ---------------------------------------------------------------------------
// Durable sessions: journal-gated acks

TEST(IngestSessionTest, JournalGatesAcksAndSeedsExpectedAcrossRestart) {
  const std::string dir = FreshJournalDir("durable");
  JournalOptions jopts;
  jopts.dir = dir;
  {
    auto journal = IngestJournal::Open(jopts);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    auto sj = (*journal)->SourceFor("d.src");
    ASSERT_TRUE(sj.ok()) << sj.status().ToString();
    AuditSink sink;
    IngestSessionOptions options;
    options.journal = *sj;
    IngestSession session("d.src", &sink, options);
    EXPECT_EQ(session.Attach(), 1u);
    EXPECT_EQ(session.Handle(MakeIngest("d.src", 1, BatchEvent(0))),
              "ACK d.src 1");
    EXPECT_EQ(session.Handle(MakeIngest("d.src", 2, BatchEvent(1))),
              "ACK d.src 2");
    const IngestSessionStats stats = session.Stats();
    EXPECT_TRUE(stats.durable);
    EXPECT_EQ(stats.journaled, 2u);
    EXPECT_EQ(stats.journal_errors, 0u);
    EXPECT_EQ((*sj)->stats().appends, 2u);
    EXPECT_EQ((*sj)->stats().fsyncs, 2u);  // kPerRecord gates each ack
    EXPECT_NE(session.StatsLine().find("durable=1"), std::string::npos);
    EXPECT_NE(session.StatsLine().find("journaled=2"), std::string::npos);
  }

  // "Crash" + restart: a fresh journal recovers the high-water mark
  // and the fresh session expects exactly the next sequence — the
  // producer's replay of acked batches dedups, new batches deliver.
  auto journal = IngestJournal::Open(jopts);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  auto sj = (*journal)->SourceFor("d.src");
  ASSERT_TRUE(sj.ok()) << sj.status().ToString();
  AuditSink sink;
  IngestSessionOptions options;
  options.journal = *sj;
  IngestSession session("d.src", &sink, options);
  EXPECT_EQ(session.Attach(), 3u);
  EXPECT_EQ(session.Handle(MakeIngest("d.src", 2, BatchEvent(1))),
            "ACK d.src 2");  // replayed duplicate: re-acked, not redelivered
  EXPECT_EQ(session.Handle(MakeIngest("d.src", 3, BatchEvent(2))),
            "ACK d.src 3");
  EXPECT_EQ(session.Stats().duplicates, 1u);
  EXPECT_EQ(sink.events(), 1u);
}

TEST(IngestSessionTest, JournalAppendFailureNacksUnavailable) {
  const std::string dir = FreshJournalDir("failure");
  FaultyFileOptions fopts;
  fopts.short_write_p = 1.0;
  FaultyFileInjector injector(fopts);
  JournalOptions jopts;
  jopts.dir = dir;
  jopts.file_factory = injector.Factory();
  auto journal = IngestJournal::Open(jopts);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  auto sj = (*journal)->SourceFor("jf.src");
  ASSERT_TRUE(sj.ok()) << sj.status().ToString();

  AuditSink sink;
  IngestSessionOptions options;
  options.journal = *sj;
  IngestSession session("jf.src", &sink, options);
  session.Attach();

  // The append fails, so the ack would be a lie: NACK Unavailable —
  // transient, the producer retries the same sequence.
  const std::string refused =
      session.Handle(MakeIngest("jf.src", 1, BatchEvent(0)));
  EXPECT_TRUE(StartsWith(refused, "NACK jf.src 1 Unavailable")) << refused;
  EXPECT_NE(refused.find("journal append failed"), std::string::npos)
      << refused;
  EXPECT_EQ(sink.events(), 0u);  // never delivered either
  IngestSessionStats stats = session.Stats();
  EXPECT_EQ(stats.journal_errors, 1u);
  EXPECT_EQ(stats.next_expected, 1u);
  EXPECT_NE(session.StatsLine().find("journal_errors=1"),
            std::string::npos);

  injector.Disarm();
  EXPECT_EQ(session.Handle(MakeIngest("jf.src", 1, BatchEvent(0))),
            "ACK jf.src 1");
  EXPECT_EQ(sink.events(), 1u);
}

// ---------------------------------------------------------------------------
// Producer auth: ATTACH <source> <token>

TEST(ProducerAuthTest, TokenGatesAttach) {
  NetServerOptions net_options;
  net_options.ingest_auth_token = "open-sesame";
  IngestFixture fixture(std::move(net_options));

  // A bare ATTACH against a token-protected server: refused with a
  // non-transient status (no retry storm from misconfigured fleets).
  {
    ProducerClient producer(fixture.ProducerOptions("sat.band1"));
    const Status refused = producer.Connect();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(refused.message().find("token required"), std::string::npos)
        << refused.ToString();
  }
  // The wrong token is a different message (operators can tell a
  // missing credential from a stale one) but the same clean refusal.
  {
    ProducerClientOptions options = fixture.ProducerOptions("sat.band1");
    options.auth_token = "stale-credential";
    ProducerClient producer(options);
    const Status refused = producer.Connect();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(refused.message().find("token rejected"), std::string::npos)
        << refused.ToString();
  }
  // The right token attaches and streams end to end.
  ProducerClientOptions options = fixture.ProducerOptions("sat.band1");
  options.auth_token = "open-sesame";
  ProducerClient producer(options);
  GS_ASSERT_OK(producer.Connect());
  GS_ASSERT_OK(producer.Publish(BatchEvent(0)));
  GS_ASSERT_OK(producer.Flush(5000));
  auto stats = fixture.net().IngestStats("sat.band1");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->delivered, 1u);
}

// ---------------------------------------------------------------------------
// Sliding ack window

TEST(ProducerE2eTest, SlidingWindowKeepsExactlyOnceUnderStalls) {
  // A one-deep window degrades to stop-and-wait: nearly every publish
  // blocks on the previous ack, so window_stalls must fire — and the
  // stream still arrives exactly once, in order.
  constexpr int kBatches = 60;
  AuditSink audit;
  NetServerOptions net_options;
  net_options.ingest_resolver = [&audit](const std::string&) -> EventSink* {
    return &audit;
  };
  IngestFixture fixture(std::move(net_options));

  ProducerClientOptions options = fixture.ProducerOptions("window.src");
  options.window_messages = 1;
  options.resend_timeout_ms = 50;
  ProducerClient producer(options);
  PublishAuditedBatches(&producer, kBatches);
  GS_ASSERT_OK(FlushHard(&producer, 20));
  EXPECT_EQ(producer.unacked(), 0u);

  ExpectExactlyOnceInOrder(audit, kBatches);
  EXPECT_GT(producer.stats().window_stalls, 0u);
}

TEST(ProducerE2eTest, FullWindowWaitsForTheNextAckNotTheResendTimeout) {
  // A full window blocks Publish until an ack makes room. With a
  // prompt server that is the next ack's round trip, so even the
  // stalled publishes stay far below the resend timeout — which only
  // bounds a wait that sees no ack at all. The server holds its first
  // ack until the window is full, so the stall is certain rather than
  // a race against a quick ack.
  constexpr int kBatches = 12;
  class HeldSink : public EventSink {
   public:
    explicit HeldSink(AuditSink* audit) : audit_(audit) {}
    Status Consume(const StreamEvent& event) override {
      if (!held_.exchange(true)) {
        // Bounded, so a test that fails before Release() still ends.
        released_.wait_for(std::chrono::seconds(10));
      }
      return audit_->Consume(event);
    }
    void Release() { release_.set_value(); }

   private:
    AuditSink* audit_;
    std::atomic<bool> held_{false};
    std::promise<void> release_;
    std::shared_future<void> released_ = release_.get_future().share();
  };
  AuditSink audit;
  HeldSink held(&audit);
  NetServerOptions net_options;
  net_options.ingest_resolver = [&held](const std::string&) -> EventSink* {
    return &held;
  };
  IngestFixture fixture(std::move(net_options));

  ProducerClientOptions options = fixture.ProducerOptions("window.src");
  options.window_messages = 2;
  options.resend_timeout_ms = 1000;
  ProducerClient producer(options);
  GS_ASSERT_OK(producer.Connect());
  std::vector<double> publish_ms;
  for (int i = 0; i < kBatches; ++i) {
    if (i == static_cast<int>(options.window_messages)) {
      // Both in-flight batches wait behind the held first ack. Release
      // it: this publish must now wait for that ack to arrive.
      ASSERT_EQ(producer.unacked(), options.window_messages);
      held.Release();
    }
    const auto start = std::chrono::steady_clock::now();
    GS_ASSERT_OK(producer.Publish(BatchEvent(i)));
    publish_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  }
  GS_ASSERT_OK(producer.Flush(10000));
  EXPECT_GT(producer.stats().window_stalls, 0u);
  ExpectExactlyOnceInOrder(audit, kBatches);
  std::sort(publish_ms.begin(), publish_ms.end());
  // p99 of 12 samples is the slowest publish.
  EXPECT_LT(publish_ms.back(), options.resend_timeout_ms / 4.0)
      << "a full window waited out the resend timeout";
}

TEST(ProducerE2eTest, FullWindowWithDeadServerIsResourceExhausted) {
  // A fake server that answers ATTACH and then never acks: the window
  // fills, AwaitWindow burns its stall budget (resending each round),
  // and Publish surfaces ResourceExhausted instead of hanging.
  auto listener = ListenTcp(0);
  GS_ASSERT_OK(listener.status());
  auto port = LocalPort(*listener);
  GS_ASSERT_OK(port.status());

  std::thread fake_server([listen_fd = *listener] {
    auto accepted = AcceptClient(listen_fd);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    const int fd = *accepted;
    FrameDecoder decoder;
    uint8_t buf[4096];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool attached = false;
    while (std::chrono::steady_clock::now() < deadline) {
      auto readable = PollReadable(fd, 50);
      if (!readable.ok() || !*readable) continue;
      auto n = ReadSome(fd, buf, sizeof(buf));
      if (!n.ok() || *n == 0) break;
      decoder.Feed(buf, *n);
      for (;;) {
        auto unit = decoder.Next();
        if (!unit.ok() || !unit->has_value()) break;
        if ((*unit)->line && !attached) {
          attached = true;
          const std::string reply = "OK ATTACH mute.src next=1\n";
          Status sent = WriteAll(
              fd, reinterpret_cast<const uint8_t*>(reply.data()),
              reply.size());
          ASSERT_TRUE(sent.ok()) << sent.ToString();
        }
        // Ingest messages are swallowed: no acks, ever.
      }
    }
    CloseFd(fd);
  });

  ProducerClientOptions options;
  options.port = *port;
  options.source = "mute.src";
  options.window_messages = 1;
  options.resend_timeout_ms = 20;
  options.max_reconnect_attempts = 2;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 5;
  ProducerClient producer(options);
  GS_ASSERT_OK(producer.Connect());
  GS_ASSERT_OK(producer.Publish(BatchEvent(0)));  // fills the window
  const Status blocked = producer.Publish(BatchEvent(1));
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(blocked.message().find("ack window full"), std::string::npos)
      << blocked.ToString();
  EXPECT_GE(producer.stats().window_stalls, 1u);
  EXPECT_EQ(producer.unacked(), 1u);  // batch 0 still held for replay
  producer.Close();
  fake_server.join();
  CloseFd(*listener);
}

// ---------------------------------------------------------------------------
// Latency plane

/// Reads `n` payload lines after a multi-line OK header, skipping any
/// result frames interleaved on the shared connection.
std::vector<std::string> ReadPayloadLines(GeoStreamsClient& client,
                                          size_t n) {
  std::vector<std::string> lines;
  while (lines.size() < n) {
    auto unit = client.ReadNext();
    if (!unit.ok()) {
      ADD_FAILURE() << "line " << lines.size() << ": "
                    << unit.status().ToString();
      break;
    }
    if (!unit->line.has_value()) continue;
    lines.push_back(*unit->line);
  }
  return lines;
}

/// `kept=<n>` from a multi-line OK header, or 0.
size_t ParseKept(const std::string& header) {
  const size_t at = header.find("kept=");
  return at == std::string::npos ? 0 : std::stoull(header.substr(at + 5));
}

/// Value of the first sample matching
/// `geostreams_e2e_latency_us_<suffix>{stage="<stage>"...}`, or -1.
long long StageSeriesValue(const std::string& metrics,
                           const std::string& suffix,
                           const std::string& stage) {
  const std::string prefix =
      "geostreams_e2e_latency_us_" + suffix + "{stage=\"" + stage + "\"";
  for (size_t at = metrics.find(prefix); at != std::string::npos;
       at = metrics.find(prefix, at + 1)) {
    const size_t close = metrics.find("} ", at);
    const size_t eol = metrics.find('\n', at);
    if (close == std::string::npos || eol == std::string::npos ||
        close > eol) {
      continue;
    }
    return std::stoll(metrics.substr(close + 2));
  }
  return -1;
}

TEST(LatencyPlaneE2eTest, StageHistogramsPartitionEndToEndLatency) {
  std::string journal_dir = ::testing::TempDir() + "gslatency-" +
                            std::to_string(::getpid());
  std::filesystem::remove_all(journal_dir);

  DsmsOptions options;
  options.workers = 1;
  options.trace_sample_every = 1;
  options.journal_dir = journal_dir;  // enables the `journal` stage
  IngestFixture fixture({}, options);

  GeoStreamsClient client;
  GS_ASSERT_OK(client.Connect("127.0.0.1", fixture.net().port()));
  auto response = client.Command("QUERY sat.band1");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(StartsWith(*response, "OK QUERY "));

  // The producer stamps capture time by default, so every lifecycle
  // stage from `send` onward has real anchors.
  ProducerClient producer(fixture.ProducerOptions("sat.band1"));
  GS_ASSERT_OK(producer.Connect());
  const GridLattice lattice = LatLonLattice(16, 12);
  for (int64_t frame = 0; frame < 3; ++frame) {
    GS_ASSERT_OK(testing_util::PushFrame(&producer, lattice, frame));
  }
  GS_ASSERT_OK(producer.Flush(10000));
  for (int64_t frame = 0; frame < 3; ++frame) {
    auto got = client.ReadFrame(10000);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }

  // Every stage of the frame lifecycle exported a non-empty
  // histogram. The `write` stage is observed on the writer thread
  // after the socket write, so give it a moment to land.
  const char* kStages[] = {"send",    "journal", "queue", "operators",
                           "deliver", "write",   "total"};
  // OpenMetrics rendering: exemplars only appear on the negotiated
  // exposition (the 0.0.4 one stays bare for strict parsers).
  std::string metrics;
  for (int attempt = 0; attempt < 100; ++attempt) {
    metrics = fixture.server().RenderMetrics(/*openmetrics=*/true);
    if (StageSeriesValue(metrics, "count", "write") >= 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (const char* stage : kStages) {
    // >= 1, not == 3: a stage whose boundary anchors land in the same
    // microsecond is skipped for that frame (a zero-length segment).
    EXPECT_GE(StageSeriesValue(metrics, "count", stage), 1)
        << "stage " << stage << " missing or empty:\n"
        << metrics;
  }

  // The per-query stages of one query join on one `query` label: its
  // pipeline name, q<id>, the same value the exemplars carry.
  const int64_t query_id =
      std::stoll(response->substr(response->rfind(' ') + 1));
  for (const char* stage : {"queue", "operators", "deliver", "write"}) {
    const std::string prefix =
        StringPrintf("geostreams_e2e_latency_us_count{stage=\"%s\",query=\"",
                     stage);
    std::set<std::string> labels;
    for (size_t at = metrics.find(prefix); at != std::string::npos;
         at = metrics.find(prefix, at + 1)) {
      const size_t from = at + prefix.size();
      labels.insert(metrics.substr(from, metrics.find('"', from) - from));
    }
    EXPECT_EQ(labels, std::set<std::string>{StringPrintf(
                          "q%lld", static_cast<long long>(query_id))})
        << "stage " << stage << ":\n"
        << metrics;
  }

  // The stage segments are disjoint slices of the frame's wall
  // timeline: their sums reassemble the end-to-end total. (`write`
  // overlaps `deliver`/`total` by design and is excluded.)
  long long partition = 0;
  for (const char* stage : {"send", "journal", "queue", "operators",
                            "deliver"}) {
    const long long sum = StageSeriesValue(metrics, "sum", stage);
    ASSERT_GE(sum, 0) << stage;
    partition += sum;
  }
  const long long total = StageSeriesValue(metrics, "sum", "total");
  ASSERT_GT(total, 0);
  // Anchors are stamped a few instructions apart from the stage
  // boundaries they model, so allow scheduling slop on top of a
  // relative tolerance.
  const long long slop =
      std::max<long long>(total / 10, 15000);
  EXPECT_NEAR(static_cast<double>(partition), static_cast<double>(total),
              static_cast<double>(slop))
      << metrics;

  // A bucket exemplar on the per-source `total` series resolves to a
  // retrievable TRACE record: metrics point at the exact frame.
  const std::string bucket_prefix =
      "geostreams_e2e_latency_us_bucket{stage=\"total\"";
  uint64_t exemplar_ordinal = ~0ull;
  for (size_t at = metrics.find(bucket_prefix); at != std::string::npos;
       at = metrics.find(bucket_prefix, at + 1)) {
    const size_t eol = metrics.find('\n', at);
    const std::string line = metrics.substr(at, eol - at);
    const size_t ex = line.find(" # {trace=\"");
    if (ex == std::string::npos) continue;
    // Keep the newest exemplar across the buckets: with
    // trace_sample_every=1 every batch occupies a ring slot, so old
    // frames' ordinals may already have been evicted — the newest
    // cannot have been.
    const uint64_t ordinal = std::stoull(line.substr(ex + 11));
    if (exemplar_ordinal == ~0ull || ordinal > exemplar_ordinal) {
      exemplar_ordinal = ordinal;
    }
  }
  ASSERT_NE(exemplar_ordinal, ~0ull)
      << "no exemplar on any stage=\"total\" bucket:\n"
      << metrics;
  auto trace_header =
      client.Command(StringPrintf("TRACE %lld", (long long)query_id));
  ASSERT_TRUE(trace_header.ok()) << trace_header.status().ToString();
  ASSERT_TRUE(StartsWith(*trace_header, "OK TRACE ")) << *trace_header;
  const std::vector<std::string> trace_lines =
      ReadPayloadLines(client, ParseKept(*trace_header));
  const std::string want =
      StringPrintf("TR %llu ", (unsigned long long)exemplar_ordinal);
  bool resolved = false;
  for (const std::string& line : trace_lines) {
    if (StartsWith(line, want)) resolved = true;
  }
  EXPECT_TRUE(resolved) << "exemplar trace=" << exemplar_ordinal
                        << " not in ring dump (" << trace_lines.size()
                        << " records kept)";

  // The flight recorder is reachable over the same control socket.
  auto events = client.Command("EVENTS");
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_TRUE(StartsWith(*events, "OK EVENTS total=")) << *events;
  const std::vector<std::string> event_lines =
      ReadPayloadLines(client, ParseKept(*events));
  ASSERT_FALSE(event_lines.empty()) << *events;
  for (const std::string& line : event_lines) {
    EXPECT_TRUE(StartsWith(line, "EV ")) << line;
  }

  // ISTATS surfaces the same plane as one-line operator answers.
  auto istats = client.Command("ISTATS sat.band1");
  ASSERT_TRUE(istats.ok()) << istats.status().ToString();
  EXPECT_NE(istats->find("freshness_us="), std::string::npos) << *istats;
  EXPECT_NE(istats->find("e2e_p95_us="), std::string::npos) << *istats;

  client.Close();
  producer.Close();
  std::filesystem::remove_all(journal_dir);
}

TEST(LatencyPlaneE2eTest, SourceStagesObservedOncePerFrameUnderFanOut) {
  std::string journal_dir = ::testing::TempDir() + "gsfanout-" +
                            std::to_string(::getpid());
  std::filesystem::remove_all(journal_dir);

  DsmsOptions options;
  options.workers = 1;
  options.trace_sample_every = 1;
  options.journal_dir = journal_dir;  // enables the `journal` stage
  IngestFixture fixture({}, options);

  // Two independent subscribers on the same source: each frame fans
  // out to two pipelines, but the per-source stages (send, journal,
  // total) must land once per frame, not once per pipeline.
  GeoStreamsClient a, b;
  GS_ASSERT_OK(a.Connect("127.0.0.1", fixture.net().port()));
  GS_ASSERT_OK(b.Connect("127.0.0.1", fixture.net().port()));
  auto ra = a.Command("QUERY sat.band1");
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  auto rb = b.Command("QUERY sat.band1");
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();

  ProducerClient producer(fixture.ProducerOptions("sat.band1"));
  GS_ASSERT_OK(producer.Connect());
  const GridLattice lattice = LatLonLattice(16, 12);
  for (int64_t frame = 0; frame < 3; ++frame) {
    GS_ASSERT_OK(testing_util::PushFrame(&producer, lattice, frame));
  }
  GS_ASSERT_OK(producer.Flush(10000));
  for (int64_t frame = 0; frame < 3; ++frame) {
    auto ga = a.ReadFrame(10000);
    ASSERT_TRUE(ga.ok()) << ga.status().ToString();
    auto gb = b.ReadFrame(10000);
    ASSERT_TRUE(gb.ok()) << gb.status().ToString();
  }

  // Wall clocks tick in microseconds, so the capture→fan-out `total`
  // segment is never empty: exactly one observation per frame. The
  // settle sleep gives a straggling (inflated) observation time to
  // land before the equality check.
  std::string metrics;
  for (int attempt = 0; attempt < 100; ++attempt) {
    metrics = fixture.server().RenderMetrics();
    if (StageSeriesValue(metrics, "count", "total") >= 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  metrics = fixture.server().RenderMetrics();
  EXPECT_EQ(StageSeriesValue(metrics, "count", "total"), 3) << metrics;
  // Boundary anchors landing in the same microsecond skip that
  // frame's segment, so send/journal may undershoot — never
  // overshoot the frame count.
  EXPECT_LE(StageSeriesValue(metrics, "count", "send"), 3) << metrics;
  EXPECT_LE(StageSeriesValue(metrics, "count", "journal"), 3) << metrics;

  a.Close();
  b.Close();
  producer.Close();
  std::filesystem::remove_all(journal_dir);
}

}  // namespace
}  // namespace geostreams
