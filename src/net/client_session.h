// One connected client's outbound half: a bounded queue drained by a
// dedicated writer thread, with per-client load shedding.
//
// The delivery fan-out (DeliveryOp callbacks running on scheduler
// workers or the ingest thread) must NEVER block on a slow socket, or
// one stalled client would stall every query sharing the worker pool.
// Enqueue is therefore non-blocking: control responses are always
// admitted (the protocol dies without them), while result frames are
// subject to two pressure valves:
//
//  1. adaptive shedding — an AIMD controller (stream/adaptive_shedding)
//     observes this client's queue depth and lowers the keep fraction
//     as the backlog grows; frames are dropped probabilistically (a
//     deterministic keep-carry accumulator, no RNG) long before the
//     queue is full, trading frame rate for liveness per client;
//  2. a hard bound — at the queue's entry or byte cap the frame is
//     dropped outright.
//
// A client that keeps not reading eventually accumulates
// `max_consecutive_drops` back-to-back dropped frames and is
// disconnected: it is cheaper for the client to reconnect than for
// the server to buffer an unbounded past. Every decision is visible
// in Stats() (the STATS command's numbers).

#ifndef GEOSTREAMS_NET_CLIENT_SESSION_H_
#define GEOSTREAMS_NET_CLIENT_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics_registry.h"
#include "stream/adaptive_shedding.h"

namespace geostreams {

class EventLog;

struct ClientSessionOptions {
  /// Hard caps on the outbound queue.
  size_t max_queue_events = 256;
  size_t max_queue_bytes = 64u << 20;
  /// Back-to-back dropped frames before the client is disconnected.
  size_t max_consecutive_drops = 64;
  /// AIMD shedding watermarks in queue entries; 0 = derive from
  /// max_queue_events (high at 1/2, low at 1/8 of the cap).
  size_t shed_high_watermark = 0;
  size_t shed_low_watermark = 0;
  /// SO_SNDBUF for the connection (0 = kernel default). Backpressure
  /// is only as honest as the kernel buffer is small: a huge send
  /// buffer hides a stalled reader from the shedding controller.
  int send_buffer_bytes = 0;
  /// Optional registry: sessions share the unlabeled
  /// `geostreams_client_{frames_enqueued,frames_shed,bytes_written}_total`
  /// counters (aggregated — per-session figures stay in STATS, where
  /// cardinality is naturally bounded). Not owned; may be null.
  MetricsRegistry* metrics = nullptr;
  /// Optional flight recorder (not owned): slow-consumer disconnects
  /// (max_consecutive_drops exceeded) are recorded as structured
  /// events.
  EventLog* event_log = nullptr;
};

/// Latency-plane stamp riding one outbound frame: when `write_stage`
/// is set the writer thread observes the `write` stage (fan-out to
/// socket-written) into it after WriteAll — the query's
/// `geostreams_e2e_latency_us{stage="write",query=<query>}` handle
/// (see QueryStageHistograms), exemplar-linked when `trace_ordinal`
/// carries a reserved trace-ring slot.
struct FrameStamp {
  std::shared_ptr<MetricHistogram> write_stage;  // null = no observation
  uint64_t delivered_wall_us = 0;
  uint64_t trace_ordinal = MetricHistogram::kNoExemplar;
  std::string pipeline;             // exemplar pipeline
};

class ClientSession {
 public:
  /// Takes ownership of `fd`. The writer thread starts immediately.
  ClientSession(int fd, uint64_t id, ClientSessionOptions options = {});
  /// Closes and joins the writer.
  ~ClientSession();

  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  uint64_t id() const { return id_; }
  /// The connection's descriptor, for the read side (the session
  /// owns its lifetime: shut down on Close, closed at destruction).
  int fd() const { return fd_; }

  /// Queues a control-plane response line ('\n' appended on the
  /// wire). Never shed; fails only once the session is closed.
  Status EnqueueControl(std::string line);

  /// Queues one encoded result frame (a shared buffer — the same
  /// encode is fanned out to every subscriber). Non-blocking: under
  /// pressure the frame is dropped and counted; ResourceExhausted
  /// reports the drop, FailedPrecondition a closed session.
  Status EnqueueFrame(std::shared_ptr<const std::vector<uint8_t>> frame,
                      FrameStamp stamp = FrameStamp());

  /// Shuts the socket down and wakes the writer; safe to call from
  /// any thread, including the writer itself (hence: no join here —
  /// the destructor joins).
  void Close();

  bool closed() const;

  struct StatsSnapshot {
    uint64_t frames_enqueued = 0;
    uint64_t frames_dropped = 0;
    uint64_t bytes_written = 0;
    uint64_t consecutive_drops = 0;
    size_t queue_depth = 0;
    double keep = 1.0;
    bool closed = false;
  };
  StatsSnapshot Stats() const;
  /// The STATS command's value part, e.g.
  /// "enqueued=12 dropped=3 written_bytes=48000 keep=0.50 queue=7".
  std::string StatsLine() const;

 private:
  struct Outbound {
    std::string control;  // non-empty for control lines
    std::shared_ptr<const std::vector<uint8_t>> frame;
    FrameStamp stamp;     // write-stage anchor (frames only)
    size_t bytes() const {
      return frame ? frame->size() : control.size() + 1;
    }
  };

  void WriterLoop();
  void CloseLocked();

  const uint64_t id_;
  const ClientSessionOptions options_;
  int fd_;

  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<Outbound> queue_;
  size_t queue_bytes_ = 0;
  bool closed_ = false;
  AdaptiveShedController shedding_;
  /// Keep-fraction carry: admit when the accumulated keep crosses 1.
  double keep_carry_ = 0.0;
  uint64_t frames_enqueued_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t consecutive_drops_ = 0;
  uint64_t bytes_written_ = 0;

  /// Shared registry counters (null without a registry).
  Counter* m_frames_enqueued_ = nullptr;
  Counter* m_frames_shed_ = nullptr;
  Counter* m_bytes_written_ = nullptr;

  std::thread writer_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_NET_CLIENT_SESSION_H_
