// Server-side state of one ingest source: the resilient half of the
// binary ingest plane (the producer half is ProducerClient).
//
// A producer attaches to a source with `ATTACH <source>` and then
// streams GSF1 kIngest messages, each carrying one StreamEvent under
// a per-source monotonic sequence number (1-based). The session is
// the paper's "stream generator -> server" arrow made fault
// tolerant:
//
//   * ordering   — exactly the next expected sequence number is
//     delivered into the query chain; anything already acked is a
//     duplicate (re-acked, dropped — replay after a reconnect is
//     idempotent) and anything beyond the expectation is a gap
//     (NACKed with the expected number so the producer rewinds);
//   * acks       — cumulative: `ACK <source> <n>` promises every
//     sequence number <= n was delivered (or deliberately shed), so
//     the producer can trim its replay buffer;
//   * admission  — before a point batch enters the chain the session
//     consults the server's MemoryTracker; past the configured byte
//     budget the batch is refused at the front door with
//     `NACK ... ResourceExhausted` (producer backs off and replays —
//     graceful degradation) or, under the kShed policy, acked-but-
//     dropped like the scheduler's own load shedding. Control events
//     (frame boundaries, stream end) are always admitted so
//     downstream buffering operators keep seeing well-formed frames;
//   * liveness   — a source that stops sending (no ingest message or
//     heartbeat for `idle_timeout_ms`) is quarantined: the owner
//     (NetServer) dead-letters the silence into the source's DLQ and
//     later ingest is NACKed until an admin `RESTART <source>`
//     un-quarantines it.
//
// Sessions outlive connections on purpose: sequence state is keyed by
// source, so a producer that reconnects resumes from the server's
// last ack instead of re-delivering (or skipping) history.
//
// Thread-safe: the connection reader delivering messages, the
// liveness sweeper, and admin commands from other connections all
// take the internal mutex. Delivery into the chain happens with the
// mutex held, serializing one source's events — the same guarantee an
// in-process producer has.

#ifndef GEOSTREAMS_NET_INGEST_SESSION_H_
#define GEOSTREAMS_NET_INGEST_SESSION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/status.h"
#include "net/wire_protocol.h"
#include "obs/metrics_registry.h"
#include "stream/memory_tracker.h"
#include "stream/operator.h"

namespace geostreams {

class EventLog;
class SourceJournal;
class StorageGovernor;

struct IngestSessionOptions {
  /// Quarantine the source after this long without an ingest message
  /// or heartbeat (0 = liveness not enforced). Measured from the
  /// producer's first attach; a delivered StreamEnd disarms it.
  uint64_t idle_timeout_ms = 0;
  /// Memory figure consulted for admission control (not owned; null =
  /// no admission control).
  const MemoryTracker* memory = nullptr;
  /// Admission budget in tracked bytes (0 = unlimited): point batches
  /// arriving while MemoryTracker::TotalBytes() exceeds this are
  /// refused at the boundary instead of growing queues.
  uint64_t admission_max_bytes = 0;
  /// What "refused" means: kNack preserves at-least-once (producer
  /// retries after backoff); kShed acknowledges and drops, trading
  /// completeness for producer progress like shedding_op does for
  /// query output.
  enum class OverloadPolicy : uint8_t { kNack, kShed };
  OverloadPolicy overload_policy = OverloadPolicy::kNack;
  /// Optional registry: a scrape-time collector mirrors Stats() into
  /// the per-source `geostreams_ingest_*_total{source=...}` counters
  /// (acks, nacks, replays, gaps, delivered events, shed
  /// events/points/bytes). Not owned; may be null; must outlive the
  /// session.
  MetricsRegistry* metrics = nullptr;
  /// Durable write-ahead journal for this source (not owned; null =
  /// no durability). When set, every event that advances the expected
  /// sequence — delivered OR deliberately shed — is appended (and
  /// fsynced, per the journal's policy) BEFORE the ACK goes out; an
  /// append failure NACKs Unavailable so the producer retries and the
  /// ack keeps meaning "safe across a crash". The session also seeds
  /// its expected sequence from the journal's recovered high-water
  /// mark at construction.
  SourceJournal* journal = nullptr;
  /// Optional disk-pressure governor (not owned; the journal consults
  /// it for admission on its own). The session only surfaces its
  /// state: ISTATS reports storage_degraded=1 while the storage plane
  /// is refusing writes, so operators can tell a full disk from a
  /// slow producer.
  const StorageGovernor* governor = nullptr;
  /// Per-source admission budget: a token bucket refilled at
  /// `source_rate_bytes_per_sec` with capacity `source_burst_bytes`
  /// (0 capacity = one second of rate). 0 rate disables the budget.
  /// Applies to point batches only (control events always pass) and
  /// is checked before the server-wide MemoryTracker gate, with the
  /// same OverloadPolicy treatment.
  uint64_t source_rate_bytes_per_sec = 0;
  uint64_t source_burst_bytes = 0;
  /// Injectable millisecond clock for the token bucket (tests pin
  /// time); null = steady_clock.
  std::function<uint64_t()> now_ms;
  /// Optional flight recorder (not owned): the session records
  /// liveness quarantines and NACK bursts (`nack_burst_events`
  /// consecutive refusals) into it.
  EventLog* event_log = nullptr;
  /// Consecutive NACKs that count as a burst worth one flight-recorder
  /// event (re-armed by the next ACK).
  uint64_t nack_burst_events = 8;
};

struct IngestSessionStats {
  uint64_t received = 0;         // ingest messages handled
  uint64_t acks = 0;             // ACK lines sent (re-acks included)
  uint64_t nacks = 0;            // NACK lines sent
  uint64_t delivered = 0;        // events delivered into the chain
  uint64_t duplicates = 0;       // seq already acked; re-acked
  uint64_t gaps = 0;             // seq ahead of expectation; NACKed
  uint64_t overload_nacks = 0;   // admission refusals (kNack)
  uint64_t overload_shed = 0;    // admission drops (kShed), in events
  uint64_t overload_shed_points = 0;  // points inside shed batches
  uint64_t overload_shed_bytes = 0;   // approx bytes inside shed batches
  uint64_t delivery_errors = 0;  // chain refused the event; NACKed
  uint64_t budget_nacks = 0;     // per-source budget refusals (kNack)
  uint64_t budget_shed = 0;      // per-source budget drops (kShed)
  uint64_t journaled = 0;        // records appended to the journal
  uint64_t journal_errors = 0;   // appends that failed; NACKed
  uint64_t next_expected = 1;    // next in-order sequence number
  /// Age of the newest delivered frame (now minus its capture — or,
  /// unstamped, admission — wall clock); 0 until a frame completes.
  uint64_t freshness_us = 0;
  /// p95 of the per-source end-to-end latency histogram
  /// (`geostreams_e2e_latency_us{stage="total",source=...}`), which
  /// the server's delivery plane owns: NetServer fills it in;
  /// IngestSession::Stats() leaves it 0.
  uint64_t e2e_p95_us = 0;
  bool durable = false;          // a journal gates the acks
  bool quarantined = false;
  bool ended = false;            // StreamEnd delivered
  bool storage_degraded = false; // governor refusing writes (disk pressure)
};

class IngestSession {
 public:
  /// `target` (the server's ingest sink for `source`) is not owned
  /// and must outlive the session.
  IngestSession(std::string source, EventSink* target,
                IngestSessionOptions options);

  const std::string& source() const { return source_; }

  /// A producer attached (or re-attached after reconnect). Returns
  /// the next expected sequence number, from which the producer must
  /// (re)send.
  uint64_t Attach();

  /// Handles one sequenced message and returns the response line to
  /// send back ("ACK <source> <n>" or "NACK <source> <seq> <Code>
  /// <detail>").
  std::string Handle(const IngestMessage& message);

  /// Records liveness without data (the producer's PING).
  void Touch();

  /// Liveness check, run periodically by the owner. When the idle
  /// timeout has newly expired this quarantines the session and
  /// returns the error to record (e.g. into the source's dead-letter
  /// queue); returns OK otherwise.
  Status CheckLiveness();

  /// Admin un-quarantine (`RESTART <source>`): clears the error and
  /// re-arms the idle clock.
  void Unquarantine();

  IngestSessionStats Stats() const;
  /// The ISTATS command's value part, reporting `e2e_p95_us` as the
  /// source's end-to-end p95.
  std::string StatsLine(uint64_t e2e_p95_us = 0) const;

 private:
  using Clock = std::chrono::steady_clock;

  /// The one ack path: settles every sequence number <= `seq`
  /// (advances the expectation and the journal's retain floor),
  /// re-arms NACK-burst tracking, counts the ack, and returns the
  /// `ACK <source> <seq>` line. A re-ack passes expected_ - 1.
  std::string AckLocked(uint64_t seq);
  /// The one nack path: counts the nack, tracks bursts (a run of
  /// `nack_burst_events` consecutive refusals records one
  /// flight-recorder event), and returns the `NACK` line.
  std::string NackTrackedLocked(uint64_t seq, const Status& status);

  /// Appends `message` to the journal (no-op without one). Must
  /// succeed before any path advances expected_ / acks.
  Status JournalLocked(const IngestMessage& message);
  /// Token-bucket admission for a batch of `bytes`; true = admitted.
  bool ConsumeBudgetLocked(uint64_t bytes);
  uint64_t NowMsLocked() const;

  const std::string source_;
  EventSink* target_;
  const IngestSessionOptions options_;

  mutable std::mutex mu_;
  uint64_t expected_ = 1;
  bool attached_ever_ = false;
  bool ended_ = false;
  bool quarantined_ = false;
  Status quarantine_error_ = Status::OK();
  Clock::time_point last_activity_ = Clock::now();
  IngestSessionStats stats_;
  uint64_t budget_tokens_ = 0;       // bytes currently admissible
  uint64_t budget_refilled_ms_ = 0;  // last refill timestamp
  /// Wall clock (epoch us) anchoring the newest delivered FrameEnd
  /// (its capture stamp when the producer sent one, else admission).
  uint64_t last_frame_wall_us_ = 0;
  uint64_t consecutive_nacks_ = 0;

  /// Last member: unregistered first on destruction.
  MetricsRegistry::CollectorHandle collector_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_NET_INGEST_SESSION_H_
