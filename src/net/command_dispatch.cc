#include "net/command_dispatch.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/string_util.h"
#include "server/dsms_server.h"

namespace geostreams {

namespace {

std::string ErrResponse(const Status& status) {
  return StringPrintf("ERR %s %s", StatusCodeName(status.code()),
                      status.message().c_str());
}

/// Parses the one-integer argument commands share. `rest` must be a
/// bare decimal id with nothing trailing.
Result<QueryId> ParseQueryId(std::string_view rest) {
  const std::string token(StripWhitespace(rest));
  if (token.empty()) {
    return Status::InvalidArgument("missing query id");
  }
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || value < 0) {
    return Status::InvalidArgument("not a query id: " + token);
  }
  return static_cast<QueryId>(value);
}

/// A bare decimal token (and nothing else)? Then `QUERY 7` is an
/// attach to query 7, and `RESTART goes-east` restarts a source.
bool IsBareNumber(std::string_view rest) {
  const std::string token(StripWhitespace(rest));
  if (token.empty()) return false;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// Splits a trailing "SINCE <t>" clause off query text. Matched
/// case-insensitively against the LAST such clause, and only when the
/// tail is a bare (possibly negative) integer, so parenthesized query
/// grammar never collides with it. No clause means INT64_MAX: a live
/// query replays nothing.
struct SinceClause {
  int64_t since = std::numeric_limits<int64_t>::max();
  std::string text;
};

SinceClause SplitSinceClause(std::string_view text) {
  SinceClause out;
  out.text = std::string(StripWhitespace(text));
  const std::string lower = ToLower(out.text);
  const size_t pos = lower.rfind(" since ");
  if (pos == std::string::npos) return out;
  const std::string tail(
      StripWhitespace(std::string_view(out.text).substr(pos + 7)));
  if (tail.empty()) return out;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(tail.c_str(), &end, 10);
  if (end != tail.c_str() + tail.size() || errno == ERANGE) return out;
  out.since = static_cast<int64_t>(value);
  out.text = std::string(
      StripWhitespace(std::string_view(out.text).substr(0, pos)));
  return out;
}

/// Validates a source-name argument: source names travel inside
/// space-delimited ACK/NACK lines, so they must be single tokens.
Result<std::string> ParseSourceName(std::string_view rest) {
  const std::string token(StripWhitespace(rest));
  if (token.empty()) {
    return Status::InvalidArgument("missing source name");
  }
  if (token.find(' ') != std::string::npos) {
    return Status::InvalidArgument("source name cannot contain spaces");
  }
  return token;
}

std::string HandleHealth(DsmsServer* server) {
  const std::vector<QueryId> ids = server->QueryIds();
  std::string out = StringPrintf("OK HEALTH n=%zu", ids.size());
  // Storage-plane health rides along when a governor exists (servers
  // without journal/store keep the historical line shape).
  if (server->governor() != nullptr) {
    out += StringPrintf(" storage=%s",
                        server->governor()->degraded() ? "DEGRADED" : "OK");
  }
  for (QueryId id : ids) {
    Result<PipelineHealth> health = server->QueryHealth(id);
    out += StringPrintf(
        " %lld=%s", static_cast<long long>(id),
        health.ok() ? PipelineHealthName(*health) : "UNKNOWN");
  }
  return out;
}

std::string HandleDlq(DsmsServer* server, std::string_view rest) {
  Result<QueryId> id = ParseQueryId(rest);
  if (!id.ok()) return ErrResponse(id.status());
  Result<std::vector<DeadLetter>> letters = server->DeadLetters(*id);
  if (!letters.ok()) return ErrResponse(letters.status());
  // `total` counts ever dead-lettered (ordinals keep climbing after
  // ring eviction); `kept` is how many lines follow.
  const uint64_t total =
      letters->empty() ? 0 : letters->back().ordinal + 1;
  std::string out =
      StringPrintf("OK DLQ %lld total=%llu kept=%zu",
                   static_cast<long long>(*id),
                   static_cast<unsigned long long>(total), letters->size());
  for (const DeadLetter& letter : *letters) {
    out += StringPrintf("\nDL %llu %s",
                        static_cast<unsigned long long>(letter.ordinal),
                        letter.error.c_str());
  }
  return out;
}

std::string HandleMetrics(DsmsServer* server, std::string_view rest) {
  // `METRICS` serves the 0.0.4 exposition; `METRICS openmetrics`
  // opts into OpenMetrics (bucket exemplars + `# EOF`) so the
  // metrics -> TRACE loop closes over the control plane too.
  const std::string arg = ToLower(std::string(StripWhitespace(rest)));
  if (!arg.empty() && arg != "openmetrics") {
    return ErrResponse(
        Status::InvalidArgument("METRICS takes: [openmetrics]"));
  }
  const std::string body = server->RenderMetrics(arg == "openmetrics");
  // Count payload lines so the client knows how many ReadNext calls
  // follow the header (the exposition has no terminator of its own).
  size_t lines = 0;
  if (!body.empty()) {
    lines = 1;
    for (char c : body) {
      if (c == '\n') ++lines;
    }
    // RenderPrometheus ends each line with '\n'; the response joins
    // lines without a trailing newline, so drop the final count.
    if (body.back() == '\n') --lines;
  }
  std::string out = StringPrintf("OK METRICS lines=%zu", lines);
  if (lines > 0) {
    out.push_back('\n');
    out.append(body);
    if (out.back() == '\n') out.pop_back();
  }
  return out;
}

std::string HandleTrace(DsmsServer* server, std::string_view rest) {
  Result<QueryId> id = ParseQueryId(rest);
  if (!id.ok()) return ErrResponse(id.status());
  Result<TraceRing::Snapshot> traces = server->QueryTraces(*id);
  if (!traces.ok()) return ErrResponse(traces.status());
  // `total` counts ever recorded (ordinals keep climbing after ring
  // eviction); `kept` is how many lines follow.
  std::string out =
      StringPrintf("OK TRACE %lld total=%llu kept=%zu",
                   static_cast<long long>(*id),
                   static_cast<unsigned long long>(traces->total),
                   traces->records.size());
  for (const TraceRecord& record : traces->records) {
    out.push_back('\n');
    out.append(record.ToString());
  }
  return out;
}

std::string HandleEvents(DsmsServer* server) {
  const EventLog::Snapshot snapshot = server->Events();
  // `total` counts ever recorded (ordinals keep climbing after ring
  // eviction); `kept` is how many lines follow.
  std::string out =
      StringPrintf("OK EVENTS total=%llu kept=%zu",
                   static_cast<unsigned long long>(snapshot.total),
                   snapshot.events.size());
  for (const FlightEvent& event : snapshot.events) {
    out.push_back('\n');
    out.append(event.ToString());
  }
  return out;
}

}  // namespace

std::string ExecuteCommand(DsmsServer* server, SessionHooks* hooks,
                           const std::string& line) {
  const std::string_view stripped = StripWhitespace(line);
  if (stripped.empty()) {
    return ErrResponse(Status::InvalidArgument("empty command"));
  }
  const size_t space = stripped.find(' ');
  const std::string verb =
      ToLower(stripped.substr(0, space));
  const std::string_view rest =
      space == std::string_view::npos ? std::string_view{}
                                      : stripped.substr(space + 1);

  if (verb == "ping") return "OK PONG";
  if (verb == "auth") {
    const std::string token(StripWhitespace(rest));
    if (token.empty() || token.find(' ') != std::string::npos) {
      return ErrResponse(
          Status::InvalidArgument("AUTH takes one token"));
    }
    Status st = hooks->ControlAuth(token);
    if (!st.ok()) return ErrResponse(st);
    return "OK AUTH";
  }
  // The mutating verbs sit behind the control credential (when the
  // server has one); read-only introspection stays open.
  const bool mutating = verb == "query" || verb == "unregister" ||
                        verb == "restart" || verb == "dlq";
  if (mutating) {
    Status authorized = hooks->AuthorizeControl();
    if (!authorized.ok()) return ErrResponse(authorized);
  }
  if (verb == "query") {
    const std::string text(StripWhitespace(rest));
    if (text.empty()) {
      return ErrResponse(Status::InvalidArgument("QUERY needs query text"));
    }
    if (IsBareNumber(text)) {
      // No query text is a bare number, so a bare number is an id:
      // attach to the existing query's fan-out instead of
      // registering a copy of the plan.
      Result<QueryId> parsed = ParseQueryId(text);
      if (!parsed.ok()) return ErrResponse(parsed.status());
      Result<QueryId> attached = hooks->AttachClientQuery(*parsed);
      if (!attached.ok()) return ErrResponse(attached.status());
      return StringPrintf("OK QUERY %lld",
                          static_cast<long long>(*attached));
    }
    const SinceClause since = SplitSinceClause(text);
    Result<QueryId> id = hooks->RegisterClientQuery(since.text, since.since);
    if (!id.ok()) return ErrResponse(id.status());
    return StringPrintf("OK QUERY %lld", static_cast<long long>(*id));
  }
  if (verb == "unregister") {
    Result<QueryId> id = ParseQueryId(rest);
    if (!id.ok()) return ErrResponse(id.status());
    Status st = hooks->UnregisterClientQuery(*id);
    if (!st.ok()) return ErrResponse(st);
    return StringPrintf("OK UNREGISTER %lld", static_cast<long long>(*id));
  }
  if (verb == "health") return HandleHealth(server);
  if (verb == "stats") return "OK STATS " + hooks->SessionStatsLine();
  if (verb == "restart") {
    if (!IsBareNumber(rest)) {
      // Non-numeric argument: an ingest source, not a query id.
      Result<std::string> name = ParseSourceName(rest);
      if (!name.ok()) return ErrResponse(name.status());
      Status st = hooks->RestartIngestSource(*name);
      if (!st.ok()) return ErrResponse(st);
      return "OK RESTART " + *name;
    }
    Result<QueryId> id = ParseQueryId(rest);
    if (!id.ok()) return ErrResponse(id.status());
    Status st = server->RestartQuery(*id);
    if (!st.ok()) return ErrResponse(st);
    return StringPrintf("OK RESTART %lld", static_cast<long long>(*id));
  }
  if (verb == "attach") {
    // ATTACH <source> [token] — the token is a shared producer
    // credential, a single opaque word.
    std::string_view args = StripWhitespace(rest);
    std::string token;
    const size_t space = args.find(' ');
    if (space != std::string_view::npos) {
      token = std::string(StripWhitespace(args.substr(space + 1)));
      args = args.substr(0, space);
      if (token.find(' ') != std::string::npos) {
        return ErrResponse(
            Status::InvalidArgument("ATTACH takes: <source> [token]"));
      }
    }
    Result<std::string> name = ParseSourceName(args);
    if (!name.ok()) return ErrResponse(name.status());
    Result<uint64_t> next = hooks->AttachIngestSource(*name, token);
    if (!next.ok()) return ErrResponse(next.status());
    return StringPrintf("OK ATTACH %s next=%llu", name->c_str(),
                        static_cast<unsigned long long>(*next));
  }
  if (verb == "istats") {
    Result<std::string> name = ParseSourceName(rest);
    if (!name.ok()) return ErrResponse(name.status());
    Result<std::string> stats = hooks->IngestStatsLine(*name);
    if (!stats.ok()) return ErrResponse(stats.status());
    return "OK ISTATS " + *stats;
  }
  if (verb == "dlq") return HandleDlq(server, rest);
  if (verb == "metrics") return HandleMetrics(server, rest);
  if (verb == "trace") return HandleTrace(server, rest);
  if (verb == "events") return HandleEvents(server);
  return ErrResponse(
      Status::InvalidArgument("unknown command: " + verb));
}

bool IsHttpRequestLine(const std::string& line) {
  const std::string_view stripped = StripWhitespace(line);
  return stripped.substr(0, 4) == "GET " ||
         stripped.substr(0, 5) == "HEAD ";
}

std::string HandleHttpRequest(DsmsServer* server,
                              const std::string& request_line,
                              bool accept_openmetrics) {
  const std::string_view stripped = StripWhitespace(request_line);
  const bool head = stripped.substr(0, 5) == "HEAD ";
  std::string_view rest = stripped.substr(head ? 5 : 4);
  // Path ends at the protocol-version token (absent in a bare
  // "GET /metrics" simple request).
  const size_t space = rest.find(' ');
  const std::string path(
      StripWhitespace(space == std::string_view::npos ? rest
                                                      : rest.substr(0, space)));
  std::string status_line;
  std::string content_type;
  std::string body;
  if (path == "/metrics") {
    status_line = "HTTP/1.0 200 OK";
    if (accept_openmetrics) {
      // The scraper negotiated OpenMetrics: exemplars are legal on
      // `_bucket` lines and the body ends with `# EOF`.
      content_type = "application/openmetrics-text; version=1.0.0; "
                     "charset=utf-8";
      body = server->RenderMetrics(/*openmetrics=*/true);
    } else {
      // The stable Prometheus 0.0.4 text format. Its parser treats
      // an exemplar tail as a malformed timestamp, so the rendering
      // carries none.
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      body = server->RenderMetrics();
    }
  } else if (path == "/eventz") {
    // The flight recorder, one event per line, newest last.
    status_line = "HTTP/1.0 200 OK";
    content_type = "text/plain; charset=utf-8";
    const EventLog::Snapshot snapshot = server->Events();
    body = StringPrintf("total=%llu kept=%zu\n",
                        static_cast<unsigned long long>(snapshot.total),
                        snapshot.events.size());
    for (const FlightEvent& event : snapshot.events) {
      body += event.ToString();
      body.push_back('\n');
    }
  } else {
    status_line = "HTTP/1.0 404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found\n";
  }
  std::string response = status_line + "\r\n";
  response += "Content-Type: " + content_type + "\r\n";
  response += StringPrintf("Content-Length: %zu\r\n", body.size());
  response += "Connection: close\r\n\r\n";
  if (!head) response += body;
  return response;
}

}  // namespace geostreams
