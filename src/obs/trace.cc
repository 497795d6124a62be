#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/metrics_registry.h"

namespace geostreams {

namespace {
thread_local TraceContext* g_active_trace = nullptr;
}  // namespace

uint64_t TraceNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t TraceWallNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string TraceRecord::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "TR %llu trace=%llu pipeline=%s origin=%s wall_us=%llu "
                "queue_us=%llu total_us=%llu",
                static_cast<unsigned long long>(ordinal),
                static_cast<unsigned long long>(trace_id),
                pipeline.empty() ? "-" : pipeline.c_str(),
                origin.empty() ? "-" : origin.c_str(),
                static_cast<unsigned long long>(born_wall_us),
                static_cast<unsigned long long>(queue_wait_us),
                static_cast<unsigned long long>(total_us));
  std::string out = buf;
  if (capture_wall_us != 0 || admit_wall_us != 0 || durable_wall_us != 0) {
    std::snprintf(buf, sizeof(buf),
                  " capture_us=%llu admit_us=%llu durable_us=%llu",
                  static_cast<unsigned long long>(capture_wall_us),
                  static_cast<unsigned long long>(admit_wall_us),
                  static_cast<unsigned long long>(durable_wall_us));
    out += buf;
  }
  for (const TraceSpan& span : spans) {
    std::snprintf(buf, sizeof(buf), " %s=%llu/%llu", span.name.c_str(),
                  static_cast<unsigned long long>(span.exclusive_us),
                  static_cast<unsigned long long>(span.inclusive_us));
    out += buf;
  }
  return out;
}

TraceContext::TraceContext(uint64_t trace_id, std::string origin)
    : trace_id_(trace_id),
      origin_(std::move(origin)),
      born_us_(TraceNowUs()),
      born_wall_us_(TraceWallNowUs()) {}

std::shared_ptr<TraceContext> TraceContext::Fork(std::string pipeline) {
  auto fork = std::make_shared<TraceContext>(trace_id_, origin_);
  fork->pipeline_ = std::move(pipeline);
  fork->born_us_ = born_us_;
  fork->born_wall_us_ = born_wall_us_;
  fork->capture_wall_us_ = capture_wall_us_;
  fork->admit_wall_us_ = admit_wall_us_;
  fork->durable_wall_us_ = durable_wall_us_;
  fork->last_anchor_wall_us_ = last_anchor_wall_us_;
  fork->source_stages_ = source_stages_;
  // Exactly one fork per frame owns the per-source stages: the first
  // takes the root's ownership, later forks (and the root) lose it.
  fork->source_stage_owner_ = source_stage_owner_;
  source_stage_owner_ = false;
  return fork;
}

bool TraceContext::ClaimTotalStage() {
  if (!source_stage_owner_ || total_claimed_) return false;
  total_claimed_ = true;
  return true;
}

uint64_t TraceContext::MarkDequeued() {
  if (enqueued_us_ == 0) return 0;
  uint64_t now = TraceNowUs();
  queue_wait_us_ = now > enqueued_us_ ? now - enqueued_us_ : 0;
  return queue_wait_us_;
}

void TraceContext::SetIngestAnchors(uint64_t capture_wall_us,
                                    uint64_t admit_wall_us,
                                    uint64_t durable_wall_us) {
  capture_wall_us_ = capture_wall_us;
  admit_wall_us_ = admit_wall_us;
  durable_wall_us_ = durable_wall_us;
  if (durable_wall_us != 0) {
    last_anchor_wall_us_ = durable_wall_us;
  } else if (admit_wall_us != 0) {
    last_anchor_wall_us_ = admit_wall_us;
  } else {
    last_anchor_wall_us_ = capture_wall_us;
  }
}

uint64_t TraceContext::AdvanceStage(uint64_t now_wall_us) {
  const uint64_t prev = last_anchor_wall_us_;
  last_anchor_wall_us_ = now_wall_us;
  if (prev == 0 || now_wall_us <= prev) return 0;
  return now_wall_us - prev;
}

TraceRecord TraceContext::Finish() const {
  TraceRecord record;
  record.ordinal = ring_ordinal_ == kNoRingOrdinal ? 0 : ring_ordinal_;
  record.trace_id = trace_id_;
  record.origin = origin_;
  record.pipeline = pipeline_;
  record.queue_wait_us = queue_wait_us_;
  record.born_wall_us = born_wall_us_;
  record.capture_wall_us = capture_wall_us_;
  record.admit_wall_us = admit_wall_us_;
  record.durable_wall_us = durable_wall_us_;
  uint64_t now = TraceNowUs();
  record.total_us = now > born_us_ ? now - born_us_ : 0;
  // SpanTimer destructors fire innermost-first; flip to delivery order.
  record.spans.assign(spans_.rbegin(), spans_.rend());
  return record;
}

SpanTimer::SpanTimer(TraceContext* trace, const std::string& name,
                     MetricHistogram* histogram)
    : trace_(trace),
      name_(name),
      histogram_(histogram),
      start_us_(TraceNowUs()),
      saved_child_us_(trace->child_us_) {
  trace_->child_us_ = 0;
}

SpanTimer::~SpanTimer() {
  uint64_t now = TraceNowUs();
  uint64_t inclusive = now > start_us_ ? now - start_us_ : 0;
  uint64_t children = trace_->child_us_;
  uint64_t exclusive = inclusive > children ? inclusive - children : 0;
  // This span is itself a child of whatever encloses it.
  trace_->child_us_ = saved_child_us_ + inclusive;
  TraceSpan span;
  span.name = name_;
  span.exclusive_us = exclusive;
  span.inclusive_us = inclusive;
  trace_->spans_.push_back(std::move(span));
  if (histogram_ != nullptr) {
    histogram_->ObserveWithExemplar(exclusive, trace_->ring_ordinal_,
                                    trace_->pipeline_);
  }
}

TraceContext* ActiveTrace() { return g_active_trace; }

ScopedTraceActivation::ScopedTraceActivation(TraceContext* trace)
    : previous_(g_active_trace) {
  g_active_trace = trace;
}

ScopedTraceActivation::~ScopedTraceActivation() { g_active_trace = previous_; }

void TraceRing::Push(TraceRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.ordinal = total_++;
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) records_.pop_front();
}

uint64_t TraceRing::Reserve() {
  std::lock_guard<std::mutex> lock(mu_);
  return total_++;
}

void TraceRing::PushReserved(TraceRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) records_.pop_front();
}

TraceRing::Snapshot TraceRing::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.total = total_;
  snap.records.assign(records_.begin(), records_.end());
  return snap;
}

uint64_t TraceRing::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

static_assert(TraceContext::kNoRingOrdinal == MetricHistogram::kNoExemplar);

const char kE2eLatencyFamily[] = "geostreams_e2e_latency_us";
const char kE2eLatencyHelp[] =
    "Frame lifecycle stage latency (wall-clock microseconds between "
    "consecutive stage anchors; stage=total is capture to delivery)";

namespace {

std::shared_ptr<MetricHistogram> StageSeries(MetricsRegistry* metrics,
                                             const char* stage,
                                             const char* key,
                                             const std::string& value) {
  return metrics->GetSharedHistogram(kE2eLatencyFamily, kE2eLatencyHelp,
                                     {{"stage", stage}, {key, value}},
                                     MetricHistogram::LatencyBucketsUs());
}

}  // namespace

std::shared_ptr<const QueryStageHistograms> QueryStageHistograms::Resolve(
    MetricsRegistry* metrics, const std::string& pipeline) {
  auto stage = [&](const char* name) {
    return StageSeries(metrics, name, "query", pipeline);
  };
  return std::make_shared<const QueryStageHistograms>(QueryStageHistograms{
      stage("queue"), stage("operators"), stage("deliver"), stage("write")});
}

std::shared_ptr<const SourceStageHistograms> SourceStageHistograms::Resolve(
    MetricsRegistry* metrics, const std::string& source) {
  auto stage = [&](const char* name) {
    return StageSeries(metrics, name, "source", source);
  };
  return std::make_shared<const SourceStageHistograms>(
      SourceStageHistograms{stage("send"), stage("journal"), stage("total")});
}

void ObserveE2eStage(MetricHistogram* histogram, uint64_t latency_us,
                     uint64_t trace_ordinal, const std::string& pipeline) {
  if (histogram != nullptr) {
    histogram->ObserveWithExemplar(latency_us, trace_ordinal, pipeline);
  }
}

}  // namespace geostreams
