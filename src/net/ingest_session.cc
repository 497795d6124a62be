#include "net/ingest_session.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "storage/governor.h"
#include "storage/journal.h"

namespace geostreams {

IngestSession::IngestSession(std::string source, EventSink* target,
                             IngestSessionOptions options)
    : source_(std::move(source)), target_(target), options_(options) {
  if (options_.journal != nullptr) {
    // Resume where the last incarnation's acks left off: a
    // reconnecting producer's ATTACH sees the recovered high-water
    // mark instead of 1, so it replays only what was never committed.
    expected_ = options_.journal->next_seq();
    stats_.durable = true;
    // Everything below the recovered high-water mark was acked, so
    // the journal's retention may settle (and compact away) those
    // records instead of carrying them forever.
    options_.journal->SetRetainFloor(expected_);
  }
  budget_tokens_ = options_.source_burst_bytes > 0
                       ? options_.source_burst_bytes
                       : options_.source_rate_bytes_per_sec;
  budget_refilled_ms_ = NowMsLocked();
  if (options_.metrics == nullptr) return;
  MetricsRegistry& reg = *options_.metrics;
  const MetricLabels labels{{"source", source_}};
  auto counter = [&](const char* name, const char* help) {
    return reg.GetCounter(name, help, labels);
  };
  Counter* acks = counter("geostreams_ingest_acks_total",
                          "Ingest messages acknowledged");
  Counter* nacks =
      counter("geostreams_ingest_nacks_total", "Ingest messages refused");
  Counter* replays =
      counter("geostreams_ingest_replays_total",
              "Duplicate sequence numbers re-acked after producer replay");
  Counter* gaps = counter("geostreams_ingest_gaps_total",
                          "Sequence gaps NACKed with a rewind point");
  Counter* delivered = counter("geostreams_ingest_delivered_total",
                               "Events delivered into the query chain");
  Counter* shed_events =
      counter("geostreams_ingest_shed_events_total",
              "Batches acked-but-dropped by kShed admission control");
  Counter* shed_points = counter("geostreams_ingest_shed_points_total",
                                 "Points inside kShed-dropped batches");
  Counter* shed_bytes =
      counter("geostreams_ingest_shed_bytes_total",
              "Approximate bytes inside kShed-dropped batches");
  collector_ = reg.AddCollector([=, this] {
    const IngestSessionStats s = Stats();
    acks->Set(s.acks);
    nacks->Set(s.nacks);
    replays->Set(s.duplicates);
    gaps->Set(s.gaps);
    delivered->Set(s.delivered);
    shed_events->Set(s.overload_shed + s.budget_shed);
    shed_points->Set(s.overload_shed_points);
    shed_bytes->Set(s.overload_shed_bytes);
  });
}

uint64_t IngestSession::Attach() {
  std::lock_guard<std::mutex> lock(mu_);
  attached_ever_ = true;
  last_activity_ = Clock::now();
  return expected_;
}

std::string IngestSession::AckLocked(uint64_t seq) {
  ++stats_.acks;
  consecutive_nacks_ = 0;
  expected_ = seq + 1;
  if (options_.journal != nullptr) options_.journal->SetRetainFloor(expected_);
  return StringPrintf("ACK %s %llu", source_.c_str(),
                      static_cast<unsigned long long>(seq));
}

std::string IngestSession::NackTrackedLocked(uint64_t seq,
                                             const Status& status) {
  ++stats_.nacks;
  ++consecutive_nacks_;
  if (options_.event_log != nullptr && options_.nack_burst_events > 0 &&
      consecutive_nacks_ == options_.nack_burst_events) {
    // Exactly-at-threshold: one event per burst, re-armed by the next
    // ACK, so a producer stuck in a refusal loop cannot flood the ring.
    options_.event_log->Append(
        EventSeverity::kWarn, "ingest", "nack-burst",
        StringPrintf("source=%s consecutive=%llu last=%s %s", source_.c_str(),
                     static_cast<unsigned long long>(consecutive_nacks_),
                     StatusCodeName(status.code()),
                     status.message().c_str()));
  }
  return StringPrintf("NACK %s %llu %s %s", source_.c_str(),
                      static_cast<unsigned long long>(seq),
                      StatusCodeName(status.code()),
                      status.message().c_str());
}

uint64_t IngestSession::NowMsLocked() const {
  if (options_.now_ms) return options_.now_ms();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::now().time_since_epoch())
          .count());
}

bool IngestSession::ConsumeBudgetLocked(uint64_t bytes) {
  const uint64_t capacity = options_.source_burst_bytes > 0
                                ? options_.source_burst_bytes
                                : options_.source_rate_bytes_per_sec;
  const uint64_t now = NowMsLocked();
  if (now > budget_refilled_ms_) {
    const uint64_t refill =
        (now - budget_refilled_ms_) * options_.source_rate_bytes_per_sec /
        1000;
    if (refill > 0) {
      budget_tokens_ = std::min(capacity, budget_tokens_ + refill);
      budget_refilled_ms_ = now;
    }
  }
  // A batch larger than the whole bucket would starve forever: admit
  // it when the bucket is full and let it run the balance negative to
  // zero instead.
  if (budget_tokens_ >= bytes ||
      (budget_tokens_ == capacity && bytes > capacity)) {
    budget_tokens_ -= std::min(budget_tokens_, bytes);
    return true;
  }
  return false;
}

Status IngestSession::JournalLocked(const IngestMessage& message) {
  if (options_.journal == nullptr) return Status::OK();
  const Status appended = options_.journal->Append(message);
  if (!appended.ok()) {
    ++stats_.journal_errors;
    // Unavailable = transient to the producer: it backs off and
    // replays the same sequence number, and nothing was acked that
    // the journal does not hold.
    return Status::Unavailable(
        StringPrintf("journal append failed: %s",
                     appended.message().c_str()));
  }
  ++stats_.journaled;
  return Status::OK();
}

std::string IngestSession::Handle(const IngestMessage& message) {
  std::lock_guard<std::mutex> lock(mu_);
  last_activity_ = Clock::now();
  attached_ever_ = true;
  ++stats_.received;

  if (message.seq < expected_) {
    // Already delivered (the producer replayed after losing our ack).
    // Re-ack cumulatively, do not re-deliver: this is where
    // at-least-once transport becomes exactly-once delivery.
    ++stats_.duplicates;
    return AckLocked(expected_ - 1);
  }
  if (message.seq > expected_) {
    // A gap: something between was lost (or the producer restarted
    // with fresh state). Tell it where to rewind to.
    ++stats_.gaps;
    return NackTrackedLocked(
        message.seq, Status::OutOfRange(StringPrintf(
                         "sequence gap: expected=%llu",
                         static_cast<unsigned long long>(expected_))));
  }
  if (quarantined_) {
    return NackTrackedLocked(
        message.seq, Status::FailedPrecondition(StringPrintf(
                         "source quarantined: %s",
                         quarantine_error_.message().c_str())));
  }

  const bool is_batch = message.event.kind == EventKind::kPointBatch;
  const uint64_t batch_points =
      is_batch && message.event.batch ? message.event.batch->size() : 0;
  const uint64_t batch_bytes =
      is_batch && message.event.batch ? message.event.batch->ApproxBytes()
                                      : 0;
  if (is_batch && options_.source_rate_bytes_per_sec > 0 &&
      !ConsumeBudgetLocked(batch_bytes)) {
    if (options_.overload_policy ==
        IngestSessionOptions::OverloadPolicy::kNack) {
      ++stats_.budget_nacks;
      return NackTrackedLocked(
          message.seq,
          Status::ResourceExhausted(StringPrintf(
              "per-source budget: %llu bytes exceed rate %llu B/s",
              static_cast<unsigned long long>(batch_bytes),
              static_cast<unsigned long long>(
                  options_.source_rate_bytes_per_sec))));
    }
    // kShed under a durable journal still journals: the ack promises
    // the sequence number is settled forever, so a crash after it
    // must not regress the recovered high-water mark.
    const Status journaled = JournalLocked(message);
    if (!journaled.ok()) return NackTrackedLocked(message.seq, journaled);
    ++stats_.budget_shed;
    stats_.overload_shed_points += batch_points;
    stats_.overload_shed_bytes += batch_bytes;
    return AckLocked(message.seq);
  }
  if (is_batch && options_.memory != nullptr &&
      options_.admission_max_bytes > 0) {
    const uint64_t total = options_.memory->TotalBytes();
    if (total > options_.admission_max_bytes) {
      if (options_.overload_policy ==
          IngestSessionOptions::OverloadPolicy::kNack) {
        ++stats_.overload_nacks;
        return NackTrackedLocked(
            message.seq,
            Status::ResourceExhausted(StringPrintf(
                "ingest admission: %llu tracked bytes exceed "
                "budget %llu",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(
                    options_.admission_max_bytes))));
      }
      // kShed: accept responsibility for the batch and drop it, the
      // boundary equivalent of the scheduler's load shedding. The ack
      // keeps the producer's replay buffer (and the network) from
      // amplifying the overload. Journaled first: the ack is a
      // durable promise even for a shed batch.
      const Status journaled = JournalLocked(message);
      if (!journaled.ok()) return NackTrackedLocked(message.seq, journaled);
      ++stats_.overload_shed;
      stats_.overload_shed_points += batch_points;
      stats_.overload_shed_bytes += batch_bytes;
      return AckLocked(message.seq);
    }
  }

  // Journal-before-deliver: a crash between the two replays the
  // record at recovery (delivery is redone, never lost); delivering
  // first could ack an event no restart can reconstruct. A NACKed
  // delivery below leaves a duplicate sequence in the journal when
  // the producer retries — recovery's dedup cursor drops it.
  // Frame-lifecycle anchors: admission is stamped before the journal
  // write, durable after it succeeds, so the `journal` stage of the
  // e2e latency plane measures exactly the time the ack spent gated
  // on durability.
  StreamEvent event = message.event;
  event.anchors.capture_wall_us = message.capture_wall_us;
  event.anchors.admit_wall_us = TraceWallNowUs();
  const Status journaled = JournalLocked(message);
  if (!journaled.ok()) return NackTrackedLocked(message.seq, journaled);
  if (options_.journal != nullptr) {
    event.anchors.durable_wall_us = TraceWallNowUs();
  }
  const Status delivered = target_->Consume(event);
  if (!delivered.ok()) {
    // Leave `expected_` where it is: the producer may retry the same
    // sequence number once the chain recovers (transient errors) or
    // after an admin RESTART (quarantine/poison).
    ++stats_.delivery_errors;
    return NackTrackedLocked(message.seq, delivered);
  }
  ++stats_.delivered;
  if (event.kind == EventKind::kFrameEnd) {
    last_frame_wall_us_ = event.anchors.capture_wall_us != 0
                              ? event.anchors.capture_wall_us
                              : event.anchors.admit_wall_us;
  }
  if (message.event.kind == EventKind::kStreamEnd) ended_ = true;
  return AckLocked(message.seq);
}

void IngestSession::Touch() {
  std::lock_guard<std::mutex> lock(mu_);
  last_activity_ = Clock::now();
}

Status IngestSession::CheckLiveness() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.idle_timeout_ms == 0 || quarantined_ || ended_ ||
      !attached_ever_) {
    return Status::OK();
  }
  const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                        Clock::now() - last_activity_)
                        .count();
  if (idle < static_cast<int64_t>(options_.idle_timeout_ms)) {
    return Status::OK();
  }
  quarantined_ = true;
  quarantine_error_ = Status::Unavailable(StringPrintf(
      "source '%s' silent for %lld ms (idle timeout %llu ms)",
      source_.c_str(), static_cast<long long>(idle),
      static_cast<unsigned long long>(options_.idle_timeout_ms)));
  if (options_.event_log != nullptr) {
    options_.event_log->Append(
        EventSeverity::kWarn, "ingest", "liveness-quarantine",
        StringPrintf("source=%s idle_ms=%lld timeout_ms=%llu",
                     source_.c_str(), static_cast<long long>(idle),
                     static_cast<unsigned long long>(
                         options_.idle_timeout_ms)));
  }
  return quarantine_error_;
}

void IngestSession::Unquarantine() {
  std::lock_guard<std::mutex> lock(mu_);
  quarantined_ = false;
  quarantine_error_ = Status::OK();
  last_activity_ = Clock::now();
}

IngestSessionStats IngestSession::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IngestSessionStats out = stats_;
  out.next_expected = expected_;
  out.durable = options_.journal != nullptr;
  out.quarantined = quarantined_;
  out.ended = ended_;
  out.storage_degraded =
      options_.governor != nullptr && options_.governor->degraded();
  if (last_frame_wall_us_ != 0) {
    const uint64_t now = TraceWallNowUs();
    out.freshness_us = now > last_frame_wall_us_
                           ? now - last_frame_wall_us_
                           : 0;
  }
  return out;
}

std::string IngestSession::StatsLine(uint64_t e2e_p95_us) const {
  IngestSessionStats s = Stats();
  s.e2e_p95_us = e2e_p95_us;
  return StringPrintf(
      "source=%s next=%llu received=%llu delivered=%llu duplicates=%llu "
      "gaps=%llu overload_nacks=%llu overload_shed=%llu "
      "shed_points=%llu shed_bytes=%llu "
      "delivery_errors=%llu budget_nacks=%llu budget_shed=%llu "
      "durable=%d journaled=%llu journal_errors=%llu "
      "quarantined=%d ended=%d storage_degraded=%d "
      "freshness_us=%llu e2e_p95_us=%llu",
      source_.c_str(), static_cast<unsigned long long>(s.next_expected),
      static_cast<unsigned long long>(s.received),
      static_cast<unsigned long long>(s.delivered),
      static_cast<unsigned long long>(s.duplicates),
      static_cast<unsigned long long>(s.gaps),
      static_cast<unsigned long long>(s.overload_nacks),
      static_cast<unsigned long long>(s.overload_shed),
      static_cast<unsigned long long>(s.overload_shed_points),
      static_cast<unsigned long long>(s.overload_shed_bytes),
      static_cast<unsigned long long>(s.delivery_errors),
      static_cast<unsigned long long>(s.budget_nacks),
      static_cast<unsigned long long>(s.budget_shed),
      s.durable ? 1 : 0, static_cast<unsigned long long>(s.journaled),
      static_cast<unsigned long long>(s.journal_errors),
      s.quarantined ? 1 : 0, s.ended ? 1 : 0, s.storage_degraded ? 1 : 0,
      static_cast<unsigned long long>(s.freshness_us),
      static_cast<unsigned long long>(s.e2e_p95_us));
}

}  // namespace geostreams
