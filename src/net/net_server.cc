#include "net/net_server.h"

#include <cerrno>
#include <cstring>
#include <poll.h>

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "net/socket_util.h"
#include "net/wire_protocol.h"
#include "obs/trace.h"
#include "server/dsms_server.h"
#include "storage/journal.h"

namespace geostreams {

/// One connected client: the reader thread (command lines in), the
/// ClientSession (responses and frames out), and the queries this
/// connection registered. Implements the dispatch hooks.
class NetServer::Connection : public SessionHooks {
 public:
  Connection(NetServer* server, int fd, uint64_t id)
      : server_(server),
        session_(std::make_shared<ClientSession>(fd, id,
                                                 server->options_.session)) {}

  ~Connection() override { Shutdown(); }

  void Start() {
    reader_ = std::thread([this] { ReaderLoop(); });
  }

  /// Wakes the reader (socket shutdown) and joins it. The reader
  /// unregisters this connection's queries on the way out.
  void Shutdown() {
    session_->Close();
    if (reader_.joinable()) reader_.join();
  }

  bool done() const { return done_.load(); }
  const std::shared_ptr<ClientSession>& session() const { return session_; }

  Result<QueryId> RegisterClientQuery(const std::string& text,
                                      int64_t since) override {
    // Subscribe-then-register: the delivery callback sees this
    // session from its very first frame.
    auto sub = std::make_shared<Subscription>();
    sub->sessions.push_back(session_);
    auto callback = [sub](int64_t frame_id, const AssembledFrame& frame,
                          const std::vector<uint8_t>& png) {
      // Encode once; every subscriber shares the buffer. Enqueue is
      // non-blocking by construction — a slow or closed session sheds
      // and its status is ignored here (visible in its STATS).
      FanOutFrame(sub.get(), frame_id, frame, png);
    };
    CatchUpOptions catch_up;
    catch_up.since = since;
    // Frames (replayed ones first) can flow before RegisterQuery
    // returns, so the id is bound the moment the engine assigns it,
    // before any gate opens.
    catch_up.on_registered = [sub](QueryId id) { sub->query_id.store(id); };
    Result<QueryId> id =
        server_->dsms_->RegisterQuery(text, std::move(callback), catch_up);
    if (!id.ok()) return id;
    {
      // Published for ATTACH once registered: no other connection can
      // name the id before this one's OK QUERY line.
      std::lock_guard<std::mutex> lock(server_->net_mu_);
      server_->subscriptions_.emplace(*id, sub);
    }
    owned_.push_back(*id);
    return id;
  }

  Status UnregisterClientQuery(QueryId id) override {
    auto it = std::find(owned_.begin(), owned_.end(), id);
    if (it == owned_.end()) {
      return Status::NotFound(StringPrintf(
          "query %lld was not registered by this connection",
          static_cast<long long>(id)));
    }
    GEOSTREAMS_RETURN_IF_ERROR(server_->DetachQuery(id, session_));
    owned_.erase(it);
    return Status::OK();
  }

  Result<QueryId> AttachClientQuery(QueryId id) override {
    if (std::find(owned_.begin(), owned_.end(), id) != owned_.end()) {
      return Status::AlreadyExists(StringPrintf(
          "query %lld already streams to this connection",
          static_cast<long long>(id)));
    }
    GEOSTREAMS_RETURN_IF_ERROR(server_->AttachQuery(id, session_));
    owned_.push_back(id);
    return id;
  }

  Result<uint64_t> AttachIngestSource(const std::string& source,
                                      const std::string& token) override {
    const std::string& required = server_->options_.ingest_auth_token;
    if (!required.empty() && token != required) {
      return Status::FailedPrecondition(
          token.empty() ? "producer token required"
                        : "producer token rejected");
    }
    GEOSTREAMS_ASSIGN_OR_RETURN(std::shared_ptr<IngestSession> session,
                                server_->IngestSessionFor(source));
    const uint64_t next = session->Attach();
    attached_[source] = std::move(session);
    return next;
  }

  Status RestartIngestSource(const std::string& name) override {
    return server_->RestartIngestSource(name);
  }

  Status ControlAuth(const std::string& token) override {
    const std::string& required = server_->options_.control_auth_token;
    if (!required.empty() && token != required) {
      return Status::FailedPrecondition("control token rejected");
    }
    control_authorized_ = true;
    return Status::OK();
  }

  Status AuthorizeControl() override {
    if (server_->options_.control_auth_token.empty()) return Status::OK();
    if (control_authorized_) return Status::OK();
    return Status::FailedPrecondition(
        "control token required (AUTH <token>)");
  }

  Result<std::string> IngestStatsLine(const std::string& source) override {
    auto it = attached_.find(source);
    const uint64_t e2e_p95_us = server_->dsms_->SourceE2eP95Us(source);
    if (it != attached_.end()) return it->second->StatsLine(e2e_p95_us);
    GEOSTREAMS_ASSIGN_OR_RETURN(std::shared_ptr<IngestSession> session,
                                server_->IngestSessionFor(source));
    return session->StatsLine(e2e_p95_us);
  }

  std::string SessionStatsLine() override { return session_->StatsLine(); }

 private:
  void ReaderLoop() {
    const int fd = session_->fd();
    FrameDecoder decoder;
    uint8_t buf[4096];
    bool protocol_error = false;
    while (!protocol_error && !server_->stopping_.load() &&
           !session_->closed()) {
      Result<bool> readable =
          PollReadable(fd, server_->options_.poll_interval_ms);
      if (!readable.ok()) break;
      if (!*readable) continue;
      Result<size_t> n = ReadSome(fd, buf, sizeof(buf));
      if (!n.ok() || *n == 0) break;  // error or orderly EOF
      decoder.Feed(buf, *n);
      // Any inbound traffic proves the producer behind this
      // connection is alive.
      for (const auto& [source, ingest] : attached_) ingest->Touch();
      for (;;) {
        Result<std::optional<FrameDecoder::Unit>> unit = decoder.Next();
        if (!unit.ok()) {
          // Malformed binary input: framing is lost for good (the
          // decoder stays poisoned). Tell the peer why and hang up;
          // a resilient producer reconnects and replays.
          Status ignored = session_->EnqueueControl(
              StringPrintf("ERR %s %s",
                           StatusCodeName(unit.status().code()),
                           unit.status().message().c_str()));
          (void)ignored;
          protocol_error = true;
          break;
        }
        if (!unit->has_value()) break;
        if (!HandleUnit(**unit)) {
          protocol_error = true;
          break;
        }
      }
    }
    // The client is gone (or the server is stopping): its queries go
    // with it — continuous delivery to nobody is pure waste. Ingest
    // sessions stay behind in the server so the producer can resume.
    session_->Close();
    for (QueryId id : owned_) {
      Status st = server_->DetachQuery(id, session_);
      if (!st.ok()) {
        GEOSTREAMS_LOG(kWarning)
            << "session " << session_->id() << ": dropping query " << id
            << " on disconnect failed: " << st.ToString();
      }
    }
    owned_.clear();
    done_.store(true);
  }

  /// Dispatches one demultiplexed unit. False ends the connection.
  bool HandleUnit(const FrameDecoder::Unit& unit) {
    if (unit.line) {
      const std::string& line = *unit.line;
      // HTTP pull endpoint: the request line plus headers arrive as
      // ordinary text lines; the blank line that ends the header block
      // triggers the response. The response carries its own framing
      // (Content-Length + Connection: close), so it goes out as a raw
      // byte buffer and the peer hangs up when it has read the body.
      if (http_request_.empty() && IsHttpRequestLine(line)) {
        if (line.find(" HTTP/") == std::string::npos) {
          // HTTP/0.9-style simple request: no headers follow.
          return EnqueueHttpResponse(line, /*openmetrics=*/false);
        }
        http_request_ = line;
        http_openmetrics_ = false;
        return true;
      }
      if (!http_request_.empty()) {
        const std::string_view header = StripWhitespace(line);
        if (!header.empty()) {
          // Content negotiation: an Accept header naming the
          // OpenMetrics media type switches /metrics to the
          // exemplar-bearing exposition.
          const std::string lower = ToLower(std::string(header));
          if (lower.compare(0, 7, "accept:") == 0 &&
              lower.find("application/openmetrics-text") !=
                  std::string::npos) {
            http_openmetrics_ = true;
          }
          return true;  // header line
        }
        const std::string request = std::move(http_request_);
        http_request_.clear();
        return EnqueueHttpResponse(request, http_openmetrics_);
      }
      const std::string response =
          ExecuteCommand(server_->dsms_, this, line);
      return session_->EnqueueControl(response).ok();
    }
    if (unit.ingest) {
      auto it = attached_.find(unit.ingest->source);
      std::string response;
      if (it == attached_.end()) {
        // The handshake is mandatory: it is what tells the producer
        // where to resume, and it pins the session before data races
        // the liveness sweep.
        response = StringPrintf(
            "NACK %s %llu FailedPrecondition ATTACH before INGEST",
            unit.ingest->source.c_str(),
            static_cast<unsigned long long>(unit.ingest->seq));
      } else {
        response = it->second->Handle(*unit.ingest);
      }
      return session_->EnqueueControl(response).ok();
    }
    // A result frame from a client is backwards.
    Status ignored = session_->EnqueueControl(
        "ERR InvalidArgument result frames flow server to client");
    (void)ignored;
    return false;
  }

  bool EnqueueHttpResponse(const std::string& request_line,
                           bool openmetrics) {
    const std::string response =
        HandleHttpRequest(server_->dsms_, request_line, openmetrics);
    auto buffer = std::make_shared<const std::vector<uint8_t>>(
        response.begin(), response.end());
    return session_->EnqueueFrame(std::move(buffer)).ok();
  }

  NetServer* server_;
  std::shared_ptr<ClientSession> session_;
  /// Queries streaming to this connection. Reader-thread-only.
  std::vector<QueryId> owned_;
  /// Buffered HTTP request line while its headers drain, and whether
  /// those headers negotiated the OpenMetrics exposition.
  /// Reader-thread-only.
  std::string http_request_;
  bool http_openmetrics_ = false;
  /// AUTH succeeded on this session (control-plane credential).
  /// Reader-thread-only.
  bool control_authorized_ = false;
  /// Ingest sessions this connection attached to. Reader-thread-only.
  std::map<std::string, std::shared_ptr<IngestSession>> attached_;
  std::thread reader_;
  std::atomic<bool> done_{false};
};

NetServer::NetServer(DsmsServer* dsms, NetServerOptions options)
    : dsms_(dsms), options_(options) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  // Sessions report into the engine's registry unless the caller
  // supplied their own.
  if (options_.session.metrics == nullptr) {
    options_.session.metrics = dsms_->metrics_registry();
  }
  if (options_.session.event_log == nullptr) {
    options_.session.event_log = dsms_->event_log();
  }
  GEOSTREAMS_ASSIGN_OR_RETURN(listen_fd_, ListenTcp(options_.port));
  GEOSTREAMS_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_));
  if (options_.ingest_port >= 0) {
    Result<int> ingest_fd =
        ListenTcp(static_cast<uint16_t>(options_.ingest_port));
    if (!ingest_fd.ok()) {
      CloseFd(listen_fd_);
      listen_fd_ = -1;
      return ingest_fd.status();
    }
    ingest_listen_fd_ = *ingest_fd;
    Result<uint16_t> bound = LocalPort(ingest_listen_fd_);
    if (!bound.ok()) {
      CloseFd(listen_fd_);
      CloseFd(ingest_listen_fd_);
      listen_fd_ = ingest_listen_fd_ = -1;
      return bound.status();
    }
    ingest_port_ = *bound;
  }
  started_ = true;
  stopping_.store(false);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  GEOSTREAMS_LOG(kInfo) << "network server listening on 127.0.0.1:"
                        << port_;
  if (ingest_listen_fd_ >= 0) {
    GEOSTREAMS_LOG(kInfo) << "ingest listener on 127.0.0.1:"
                          << ingest_port_;
  }
  return Status::OK();
}

void NetServer::Stop() {
  if (!started_) return;
  stopping_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  CloseFd(listen_fd_);
  CloseFd(ingest_listen_fd_);
  listen_fd_ = ingest_listen_fd_ = -1;
  // Connections shut down one at a time outside net_mu_ (their reader
  // threads call DropQuery, which takes it).
  for (;;) {
    std::unique_ptr<Connection> victim;
    {
      std::lock_guard<std::mutex> lock(net_mu_);
      if (connections_.empty()) break;
      victim = std::move(connections_.back());
      connections_.pop_back();
    }
    victim->Shutdown();
  }
  started_ = false;
}

size_t NetServer::num_sessions() const {
  std::lock_guard<std::mutex> lock(net_mu_);
  size_t live = 0;
  for (const auto& connection : connections_) {
    if (!connection->done()) ++live;
  }
  return live;
}

Result<IngestSessionStats> NetServer::IngestStats(
    const std::string& source) const {
  std::shared_ptr<IngestSession> session;
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    auto it = ingest_sessions_.find(source);
    if (it == ingest_sessions_.end()) {
      return Status::NotFound("no producer has attached to " + source);
    }
    session = it->second;
  }
  IngestSessionStats stats = session->Stats();
  stats.e2e_p95_us = dsms_->SourceE2eP95Us(source);
  return stats;
}

Status NetServer::AttachQuery(QueryId id,
                              const std::shared_ptr<ClientSession>& session) {
  std::lock_guard<std::mutex> lock(net_mu_);
  auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld has no active subscription",
        static_cast<long long>(id)));
  }
  std::lock_guard<std::mutex> sub_lock(it->second->mu);
  it->second->sessions.push_back(session);
  return Status::OK();
}

void NetServer::FanOutFrame(Subscription* sub, int64_t frame_id,
                            const AssembledFrame& frame,
                            const std::vector<uint8_t>& png) {
  // The delivery callback runs inside the operator chain, so the
  // frame's trace (when sampled) is active on this thread. Entry here
  // closes the `operators` stage (scheduler claim to chain exit);
  // encode + enqueue is the `deliver` stage. Both land in the
  // pipeline's stage series the scheduler attached to the trace, next
  // to its `queue` stage. `total` spans capture (else admission) to
  // fan-out done, into the per-source series the trace carries (ISTATS
  // reports its p95) — observed once per frame (ClaimTotalStage), not
  // once per subscribed query.
  TraceContext* trace = ActiveTrace();
  const QueryStageHistograms* stages =
      trace != nullptr && trace->last_anchor_wall_us() != 0
          ? trace->stages().get()
          : nullptr;
  if (stages != nullptr) {
    ObserveE2eStage(stages->operators.get(),
                    trace->AdvanceStage(TraceWallNowUs()),
                    trace->ring_ordinal(), trace->pipeline());
  }
  auto buffer = std::make_shared<const std::vector<uint8_t>>(
      EncodeResultFrame(sub->query_id.load(), frame_id, frame, png));
  FrameStamp stamp;
  if (stages != nullptr) {
    // The `write` stage rides the frame into each session's writer
    // thread; its anchor is the moment the shared buffer is ready.
    stamp.write_stage = stages->write;
    stamp.delivered_wall_us = TraceWallNowUs();
    stamp.trace_ordinal = trace->ring_ordinal();
    stamp.pipeline = trace->pipeline();
  }
  {
    std::lock_guard<std::mutex> lock(sub->mu);
    for (const auto& session : sub->sessions) {
      Status ignored = session->EnqueueFrame(buffer, stamp);
      (void)ignored;
    }
  }
  if (stages != nullptr) {
    const uint64_t now = TraceWallNowUs();
    ObserveE2eStage(stages->deliver.get(), trace->AdvanceStage(now),
                    trace->ring_ordinal(), trace->pipeline());
    const uint64_t birth = trace->capture_wall_us() != 0
                               ? trace->capture_wall_us()
                               : trace->admit_wall_us();
    const SourceStageHistograms* source = trace->source_stages().get();
    if (source != nullptr && birth != 0 && now > birth &&
        trace->ClaimTotalStage()) {
      ObserveE2eStage(source->total.get(), now - birth,
                      trace->ring_ordinal(), trace->pipeline());
    }
  }
}

Status NetServer::DetachQuery(QueryId id,
                              const std::shared_ptr<ClientSession>& session) {
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    auto it = subscriptions_.find(id);
    if (it == subscriptions_.end()) {
      return Status::NotFound(StringPrintf(
          "query %lld has no active subscription",
          static_cast<long long>(id)));
    }
    // net_mu_ serializes the last-subscriber decision against
    // concurrent attaches, so exactly one detacher unregisters.
    std::lock_guard<std::mutex> sub_lock(it->second->mu);
    auto& sessions = it->second->sessions;
    sessions.erase(std::remove(sessions.begin(), sessions.end(), session),
                   sessions.end());
    last = sessions.empty();
    if (last) subscriptions_.erase(it);
  }
  if (!last) return Status::OK();
  // The engine call runs with no lock held: unregistration waits out
  // in-flight delivery callbacks, which take Subscription::mu.
  return dsms_->UnregisterQuery(id);
}

Result<std::shared_ptr<IngestSession>> NetServer::IngestSessionFor(
    const std::string& source) {
  std::lock_guard<std::mutex> lock(net_mu_);
  auto it = ingest_sessions_.find(source);
  if (it != ingest_sessions_.end()) return it->second;
  EventSink* sink = options_.ingest_resolver ? options_.ingest_resolver(source)
                                             : dsms_->ingest(source);
  if (sink == nullptr) {
    return Status::NotFound("stream not registered: " + source);
  }
  IngestSessionOptions opts = options_.ingest;
  if (opts.memory == nullptr) opts.memory = &dsms_->memory();
  if (opts.metrics == nullptr) opts.metrics = dsms_->metrics_registry();
  if (opts.journal == nullptr && dsms_->journal() != nullptr) {
    // No journal appender, no durable acks: refuse the attach rather
    // than silently run this source without the contract.
    GEOSTREAMS_ASSIGN_OR_RETURN(opts.journal,
                                dsms_->journal()->SourceFor(source));
  }
  if (opts.governor == nullptr) opts.governor = dsms_->governor();
  if (opts.event_log == nullptr) opts.event_log = dsms_->event_log();
  auto session = std::make_shared<IngestSession>(source, sink, opts);
  ingest_sessions_.emplace(source, session);
  return session;
}

Status NetServer::RestartIngestSource(const std::string& name) {
  std::shared_ptr<IngestSession> session;
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    auto it = ingest_sessions_.find(name);
    if (it != ingest_sessions_.end()) session = it->second;
  }
  if (session == nullptr) {
    return Status::NotFound("no producer has attached to " + name);
  }
  // Engine first (its guard must admit events again), then the
  // session (so its very next ACK is honest about delivery).
  GEOSTREAMS_RETURN_IF_ERROR(dsms_->RestartSource(name));
  session->Unquarantine();
  return Status::OK();
}

void NetServer::SweepIngestLiveness() {
  std::vector<std::shared_ptr<IngestSession>> sessions;
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    sessions.reserve(ingest_sessions_.size());
    for (const auto& [source, session] : ingest_sessions_) {
      sessions.push_back(session);
    }
  }
  for (const auto& session : sessions) {
    const Status verdict = session->CheckLiveness();
    if (verdict.ok()) continue;  // alive (or already quarantined)
    Status st = dsms_->QuarantineSource(session->source(), verdict);
    if (!st.ok()) {
      GEOSTREAMS_LOG(kWarning)
          << "quarantining source '" << session->source()
          << "' failed: " << st.ToString();
    }
  }
}

void NetServer::AcceptOne(int listen_fd) {
  Result<int> client = AcceptClient(listen_fd);
  if (!client.ok()) {
    if (!stopping_.load()) {
      GEOSTREAMS_LOG(kWarning) << "accept failed: "
                               << client.status().ToString();
    }
    return;
  }
  std::lock_guard<std::mutex> lock(net_mu_);
  if (connections_.size() >= options_.max_clients) {
    GEOSTREAMS_LOG(kWarning) << "rejecting client: at max_clients="
                             << options_.max_clients;
    CloseFd(*client);
    return;
  }
  auto connection =
      std::make_unique<Connection>(this, *client, next_session_id_++);
  connection->Start();
  connections_.push_back(std::move(connection));
}

void NetServer::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd pfds[2];
    nfds_t nfds = 0;
    pfds[nfds].fd = listen_fd_;
    pfds[nfds].events = POLLIN;
    pfds[nfds].revents = 0;
    ++nfds;
    if (ingest_listen_fd_ >= 0) {
      pfds[nfds].fd = ingest_listen_fd_;
      pfds[nfds].events = POLLIN;
      pfds[nfds].revents = 0;
      ++nfds;
    }
    const int rc = ::poll(pfds, nfds, options_.poll_interval_ms);
    if (rc < 0 && errno != EINTR) {
      GEOSTREAMS_LOG(kError) << "accept poll failed: "
                             << std::strerror(errno);
      return;
    }
    // Reap finished connections (their readers already unregistered
    // their queries) so long-lived servers do not accumulate stubs.
    // `finished` outlives the lock scope: destruction joins the
    // reader thread, which must not happen under net_mu_.
    std::vector<std::unique_ptr<Connection>> finished;
    {
      std::lock_guard<std::mutex> lock(net_mu_);
      for (auto& connection : connections_) {
        if (connection->done()) finished.push_back(std::move(connection));
      }
      connections_.erase(
          std::remove(connections_.begin(), connections_.end(), nullptr),
          connections_.end());
    }
    finished.clear();
    // Sources whose producers died (connection or process) never see
    // another Touch; the sweep is what turns that silence into a
    // quarantine + dead letter.
    SweepIngestLiveness();
    if (rc <= 0) continue;
    for (nfds_t i = 0; i < nfds; ++i) {
      if (pfds[i].revents != 0) AcceptOne(pfds[i].fd);
    }
  }
}

}  // namespace geostreams
