// Text control plane: one command line in, one response out.
//
//   QUERY <text>       register a continuous query; its result frames
//                      start streaming to this connection
//                      -> "OK QUERY <id>"
//   QUERY <id>         attach to an already-registered query's result
//                      stream (a bare decimal argument is an id, never
//                      query text): several connections can watch one
//                      continuous query, each with its own shedding
//                      -> "OK QUERY <id>"
//   QUERY <text> SINCE <t>
//                      hybrid past+live query: recorded frames with id
//                      >= t replay from the tile store through the
//                      plan, then the live stream takes over at the
//                      watermark, exactly once -> "OK QUERY <id>"
//   UNREGISTER <id>    detach this connection from the query; the
//                      engine unregisters it when the last subscriber
//                      leaves -> "OK UNREGISTER <id>"
//   HEALTH             supervision health of every registered query
//                      -> "OK HEALTH n=<N> <id>=<STATE>..."
//   STATS              this connection's delivery stats (shedding!)
//                      -> "OK STATS enqueued=... dropped=... keep=..."
//   RESTART <id>       un-quarantine a failed query in place
//                      -> "OK RESTART <id>"
//   RESTART <name>     un-quarantine an ingest source (a non-numeric
//                      argument names a source stream): ingest flows
//                      again after a liveness quarantine
//                      -> "OK RESTART <name>"
//   ATTACH <source>    attach this connection as a producer for the
//                      source stream; sequenced binary INGEST
//                      messages may follow
//                      -> "OK ATTACH <source> next=<seq>"
//   ISTATS <source>    the source's ingest-session counters
//                      -> "OK ISTATS source=... next=... ..."
//   DLQ <id>           the query's retained dead-lettered events
//                      -> "OK DLQ <id> total=<t> kept=<k>" followed by
//                         k lines "DL <ordinal> <error>"
//   METRICS            the server's metrics registry in Prometheus
//                      text exposition 0.0.4 format; "METRICS
//                      openmetrics" renders OpenMetrics 1.0.0
//                      (exemplars on bucket lines, "# EOF") instead
//                      -> "OK METRICS lines=<n>" followed by n lines
//                         of "# HELP ...", "# TYPE ..." and samples
//   TRACE <id>         sampled per-batch trace records for the query
//                      (queue wait plus per-operator timings)
//                      -> "OK TRACE <id> total=<t> kept=<k>" followed
//                         by k lines "TR <ordinal> trace=... ..."
//   AUTH <token>       presents the control-plane credential; on a
//                      server configured with a control token, the
//                      mutating verbs (QUERY, UNREGISTER, RESTART,
//                      DLQ) answer ERR FailedPrecondition until the
//                      session has authenticated -> "OK AUTH"
//   PING               liveness -> "OK PONG"
//
// The control port also answers plain HTTP: "GET /metrics" returns
// the same Prometheus exposition as METRICS with proper HTTP framing
// (upgrading to OpenMetrics when the request carries "Accept:
// application/openmetrics-text"), so an unmodified Prometheus
// scraper can pull the registry in either format.
//
// Failures respond "ERR <CodeName> <message>". Dispatch is a free
// function over two narrow interfaces — the engine (DsmsServer) and
// the per-connection hooks — so the whole command surface unit-tests
// without a socket in sight.

#ifndef GEOSTREAMS_NET_COMMAND_DISPATCH_H_
#define GEOSTREAMS_NET_COMMAND_DISPATCH_H_

#include <string>

#include "mqo/region_index.h"
#include "common/status.h"

namespace geostreams {

class DsmsServer;

/// What a command needs from the connection it arrived on. The
/// NetServer session implements this; tests use fakes.
class SessionHooks {
 public:
  virtual ~SessionHooks() = default;
  /// Registers `text` as a continuous query whose frames stream back
  /// over this connection, replaying stored frames with id >= `since`
  /// first (`QUERY <text> SINCE <t>`); a plain `QUERY <text>` passes
  /// INT64_MAX, which replays nothing.
  virtual Result<QueryId> RegisterClientQuery(const std::string& text,
                                              int64_t since) = 0;
  /// Detaches and unregisters a query this connection registered.
  virtual Status UnregisterClientQuery(QueryId id) = 0;
  /// The connection's delivery statistics (ClientSession::StatsLine).
  virtual std::string SessionStatsLine() = 0;

  // Ingest-plane hooks (net_server.h). Defaults answer Unimplemented
  // so command surfaces without an ingest plane — unit-test fakes,
  // embedded dispatchers — keep compiling unchanged.

  /// Attaches this connection to an existing query's result stream
  /// (`QUERY <id>` with a bare decimal argument).
  virtual Result<QueryId> AttachClientQuery(QueryId id) {
    (void)id;
    return Status::Unimplemented("query attach not supported here");
  }
  /// Attaches this connection as a producer for `source`; returns the
  /// next expected sequence number (the producer resumes from it).
  /// `token` is the shared producer credential from the ATTACH line
  /// (empty when the producer sent none); a server configured with a
  /// token rejects mismatches with FailedPrecondition.
  virtual Result<uint64_t> AttachIngestSource(const std::string& source,
                                              const std::string& token) {
    (void)source;
    (void)token;
    return Status::Unimplemented("ingest not supported here");
  }
  /// Un-quarantines an ingest source (`RESTART <name>`).
  virtual Status RestartIngestSource(const std::string& name) {
    (void)name;
    return Status::Unimplemented("ingest not supported here");
  }
  /// The source's IngestSession counters (`ISTATS <source>`).
  virtual Result<std::string> IngestStatsLine(const std::string& source) {
    (void)source;
    return Status::Unimplemented("ingest not supported here");
  }

  // Control-plane auth hooks. Defaults leave the session permanently
  // authorized, so embedded dispatchers and fakes are unaffected.

  /// `AUTH <token>`: presents the control credential for this session.
  virtual Status ControlAuth(const std::string& token) {
    (void)token;
    return Status::OK();
  }
  /// Gate consulted by the mutating verbs (QUERY, UNREGISTER,
  /// RESTART, DLQ). FailedPrecondition blocks the command.
  virtual Status AuthorizeControl() { return Status::OK(); }
};

/// True when `line` opens an HTTP request ("GET " / "HEAD ").
bool IsHttpRequestLine(const std::string& line);

/// Answers one HTTP request line with a complete HTTP/1.0 response
/// (headers + body, Connection: close). "GET /metrics" serves the
/// Prometheus 0.0.4 text exposition — or, when the scraper's Accept
/// header negotiated it (`accept_openmetrics`), the OpenMetrics
/// exposition with bucket exemplars and the `# EOF` terminator.
/// Other paths answer 404.
std::string HandleHttpRequest(DsmsServer* server,
                              const std::string& request_line,
                              bool accept_openmetrics = false);

/// Executes one control line and returns the complete response —
/// possibly multi-line ('\n'-separated, no trailing newline).
std::string ExecuteCommand(DsmsServer* server, SessionHooks* hooks,
                           const std::string& line);

}  // namespace geostreams

#endif  // GEOSTREAMS_NET_COMMAND_DISPATCH_H_
