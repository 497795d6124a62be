// TCP front door for a DsmsServer: the control plane of
// command_dispatch.h plus streaming result delivery over the same
// connection, one ClientSession (bounded queue + writer thread) per
// client.
//
// Threading model, per connection:
//   reader thread (owned here)  — reads command lines, dispatches,
//                                 queues responses;
//   writer thread (ClientSession) — drains the outbound queue;
//   delivery callbacks          — run on whichever thread the
//                                 engine's scheduler delivers on (a
//                                 worker, or the ingest thread with
//                                 zero workers), encode
//                                 each frame ONCE, and fan the shared
//                                 buffer out to every subscribed
//                                 session with a non-blocking
//                                 enqueue. A slow client sheds frames
//                                 (its problem); it never stalls a
//                                 worker (everyone's problem).
//
// The subscriber list is in place before the query registers with the
// engine, so no frame can slip out unobserved between registration
// and subscription. One query may have several subscribers (`QUERY
// <id>` attaches to an existing fan-out); the engine unregisters the
// query when the last one detaches.
//
// The same connections also form the INGEST plane (ingest_session.h):
// after an `ATTACH <source>` handshake a producer streams sequenced
// binary events that the reader demultiplexes from command lines,
// answering each with an ACK/NACK control line. Ingest sessions are
// keyed by source and outlive connections, so a reconnecting producer
// resumes exactly where the server's acks left off; a liveness sweep
// on the accept loop quarantines sources that go silent. A dedicated
// `ingest_port` listener can separate producer traffic from client
// traffic; both speak the full protocol.

#ifndef GEOSTREAMS_NET_NET_SERVER_H_
#define GEOSTREAMS_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client_session.h"
#include "net/command_dispatch.h"
#include "net/ingest_session.h"
#include "raster/frame_assembler.h"

namespace geostreams {

class Raster;

struct NetServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;
  /// Outbound queue / shedding policy applied to every session.
  ClientSessionOptions session;
  /// Connections beyond this are accepted and immediately closed.
  size_t max_clients = 64;
  /// Poll granularity of the accept/reader loops (bounds Stop latency
  /// and the ingest liveness sweep cadence).
  int poll_interval_ms = 50;
  /// Per-source ingest behavior (liveness, admission control). The
  /// `memory` field may stay null: the server's own MemoryTracker is
  /// filled in when sessions are created, as is the `journal` hook
  /// when the engine runs with a durable journal.
  IngestSessionOptions ingest;
  /// Shared producer credential: when non-empty, `ATTACH <source>
  /// <token>` must present exactly this token (FailedPrecondition
  /// otherwise — non-transient, so a misconfigured producer stops
  /// instead of retrying forever). Client-plane verbs are unaffected.
  std::string ingest_auth_token;
  /// Control-plane credential: when non-empty, the mutating verbs
  /// (QUERY, UNREGISTER, RESTART, DLQ) require the session to have
  /// presented exactly this token via `AUTH <token>` first. Read-only
  /// verbs (HEALTH, STATS, METRICS, TRACE, PING) stay open, as does
  /// the HTTP /metrics pull endpoint.
  std::string control_auth_token;
  /// Second listener dedicated to producers (-1 = none; 0 = ephemeral,
  /// see ingest_port()). Connections accepted there speak the same
  /// protocol — the split only separates producer traffic from client
  /// traffic operationally.
  int ingest_port = -1;
  /// Where ingested events go: source name -> sink. Null uses the
  /// engine's own ingest boundary (DsmsServer::ingest); tests
  /// interpose audit sinks here. Must return sinks that outlive the
  /// server and are safe to drive from reader threads.
  std::function<EventSink*(const std::string&)> ingest_resolver;
};

class NetServer {
 public:
  /// `dsms` is not owned and must outlive this object.
  NetServer(DsmsServer* dsms, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the accept loop.
  Status Start();
  /// Disconnects every client (unregistering their queries) and joins
  /// all threads. Idempotent.
  void Stop();

  /// The bound port (the ephemeral choice when options.port was 0).
  uint16_t port() const { return port_; }
  /// The bound producer port (0 when options.ingest_port was -1).
  uint16_t ingest_port() const { return ingest_port_; }
  /// Currently connected clients.
  size_t num_sessions() const;
  /// Counters of the source's ingest session. NotFound before any
  /// producer has attached to the source.
  Result<IngestSessionStats> IngestStats(const std::string& source) const;

 private:
  /// One query's fan-out target set. The delivery callback holds a
  /// shared_ptr to this (never to the NetServer), so an in-flight
  /// callback stays safe across disconnects and even server teardown.
  struct Subscription {
    std::mutex mu;
    std::vector<std::shared_ptr<ClientSession>> sessions;
    /// Bound by CatchUpOptions::on_registered, before any of the
    /// query's gates opens, so every frame carries the real id.
    std::atomic<int64_t> query_id{-1};
  };

  class Connection;

  /// Shared body of the delivery callbacks: encode the frame once,
  /// straight from its window, fan the buffer out to every subscriber
  /// session, and — when the frame is
  /// traced — observe the `operators`, `deliver` and `total` stages of
  /// the end-to-end latency plane (the `write` stage rides the frame
  /// into each session's writer thread via a FrameStamp).
  static void FanOutFrame(Subscription* sub, int64_t frame_id,
                          const AssembledFrame& frame,
                          const std::vector<uint8_t>& png);

  void AcceptLoop();
  /// Accepts (or rejects at max_clients) one pending connection.
  void AcceptOne(int listen_fd);
  /// Adds `session` to an existing query's fan-out. NotFound when the
  /// query has no active subscription.
  Status AttachQuery(QueryId id, const std::shared_ptr<ClientSession>& session);
  /// Removes `session` from the query's fan-out; when it was the last
  /// subscriber the subscription is dropped and the query unregisters
  /// with the engine. The engine call runs with no lock held:
  /// unregistration waits out in-flight delivery callbacks, which
  /// take Subscription::mu themselves.
  Status DetachQuery(QueryId id, const std::shared_ptr<ClientSession>& session);
  /// The per-source ingest session, created on first attach. Sessions
  /// are never dropped: their sequence state is exactly what lets a
  /// producer resume after reconnecting.
  Result<std::shared_ptr<IngestSession>> IngestSessionFor(
      const std::string& source);
  /// `RESTART <name>`: un-quarantines the engine source and the
  /// ingest session.
  Status RestartIngestSource(const std::string& name);
  /// Quarantines sources whose producers have gone silent (runs on
  /// the accept loop every poll tick).
  void SweepIngestLiveness();

  DsmsServer* dsms_;
  NetServerOptions options_;
  int listen_fd_ = -1;
  int ingest_listen_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t ingest_port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread acceptor_;
  uint64_t next_session_id_ = 1;

  mutable std::mutex net_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<QueryId, std::shared_ptr<Subscription>> subscriptions_;
  std::map<std::string, std::shared_ptr<IngestSession>> ingest_sessions_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_NET_NET_SERVER_H_
