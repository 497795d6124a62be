#include "stream/scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"

namespace geostreams {

namespace {
/// The scheduler whose caller-runs loop is delivering on this thread;
/// a nested caller-runs call on it returns at once.
thread_local const QueryScheduler* tls_caller_runs = nullptr;
}  // namespace

const char* SchedulingPolicyName(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kRoundRobin:
      return "round-robin";
    case SchedulingPolicy::kLongestQueueFirst:
      return "longest-queue-first";
  }
  return "?";
}

struct QueryScheduler::Queue {
  std::string name;
  size_t index = 0;
  std::deque<Item> events;
  ScheduledQueueStats stats;
  /// True while a thread is delivering an event from this queue; the
  /// queue is then invisible to SelectQueueLocked, which is what keeps
  /// per-pipeline order with several delivering threads.
  bool busy = false;
  // --- supervision state (per failure domain) ---
  bool quarantined = false;
  /// The status that quarantined the pipeline; returned by later
  /// Enqueue calls on it.
  Status error;
  /// Consecutive transient redeliveries of the head event; a
  /// successful delivery resets it.
  int attempts = 0;
  /// Head event is waiting out a retry backoff until `retry_at`.
  bool retry_pending = false;
  Clock::time_point retry_at{};
  /// Operator-chain reset hook, run before redelivery (claim held).
  std::function<void()> reset;
  /// Retained poisoned events (bounded ring; see SchedulerOptions).
  std::unique_ptr<DeadLetterQueue> dead_letters;
  /// stats.dead_letters at the last RestartPipeline: poison events
  /// before the restart neither count toward `poison_limit` nor mark
  /// the pipeline DEGRADED.
  uint64_t dead_letters_baseline = 0;
  /// Finished traces for sampled events delivered through this
  /// pipeline (bounded ring; see SchedulerOptions::trace_ring_capacity).
  std::unique_ptr<TraceRing> traces;
  /// The pipeline's e2e stage series, resolved on its first staged
  /// event (null until then, and without a registry).
  std::shared_ptr<const QueryStageHistograms> stages;
};

QueryScheduler::QueryScheduler(SchedulerOptions options)
    : options_(options), supervisor_(options.supervisor) {
  if (options_.metrics != nullptr) {
    queue_wait_hist_ = options_.metrics->GetHistogram(
        "geostreams_scheduler_queue_wait_us",
        "Microseconds a traced event waited in its pipeline queue");
    queue_depth_hist_ = options_.metrics->GetHistogram(
        "geostreams_scheduler_queue_depth",
        "Pipeline queue depth observed after each accepted enqueue", {},
        MetricHistogram::DepthBuckets());
  }
}

QueryScheduler::QueryScheduler(SchedulingPolicy policy, size_t queue_capacity)
    : QueryScheduler(SchedulerOptions{policy, queue_capacity,
                                      /*workers=*/1,
                                      /*report_drops=*/false,
                                      SupervisorOptions{}}) {}

QueryScheduler::~QueryScheduler() {
  Status ignored = Stop();
  (void)ignored;
}

EventSink* QueryScheduler::AddPipeline(std::string name,
                                       EventSink* downstream) {
  const size_t pipeline = AddPipelineGroup(std::move(name));
  return AddPipelineInput(pipeline, downstream);
}

size_t QueryScheduler::AddPipelineGroup(std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto queue = std::make_unique<Queue>();
  queue->name = std::move(name);
  queue->stats.name = queue->name;
  queue->dead_letters = std::make_unique<DeadLetterQueue>(
      options_.dead_letter_capacity, options_.dead_letter_max_bytes);
  queue->dead_letters->BindMemoryTracker(options_.memory,
                                         "dlq." + queue->name);
  queue->traces = std::make_unique<TraceRing>(options_.trace_ring_capacity);
  if (!free_slots_.empty()) {
    const size_t index = free_slots_.back();
    free_slots_.pop_back();
    queue->index = index;
    queues_[index] = std::move(queue);
    return index;
  }
  queue->index = queues_.size();
  queues_.push_back(std::move(queue));
  return queues_.size() - 1;
}

EventSink* QueryScheduler::AddPipelineInput(size_t pipeline,
                                            EventSink* downstream) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.push_back(
      std::make_unique<EntrySink>(this, pipeline, downstream));
  return entries_.back().get();
}

void QueryScheduler::SetPipelineReset(size_t pipeline,
                                      std::function<void()> reset) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pipeline < queues_.size() && queues_[pipeline]) {
    queues_[pipeline]->reset = std::move(reset);
  }
}

Status QueryScheduler::RemovePipeline(size_t pipeline) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (pipeline >= queues_.size() || !queues_[pipeline]) {
    return Status::NotFound("pipeline not registered");
  }
  // Wait out an in-flight delivery so the downstream plan can be
  // destroyed safely after this returns.
  ++claim_waiters_;
  idle_.wait(lock, [&] { return !queues_[pipeline]->busy; });
  --claim_waiters_;
  // Drop the ring's MemoryTracker figure before the owner vanishes.
  queues_[pipeline]->dead_letters->Clear();
  queued_ -= queues_[pipeline]->events.size();
  entries_.erase(
      std::remove_if(entries_.begin(), entries_.end(),
                     [pipeline](const std::unique_ptr<EntrySink>& e) {
                       return e->index() == pipeline;
                     }),
      entries_.end());
  queues_[pipeline].reset();
  free_slots_.push_back(pipeline);
  if (busy_count_ == 0 && queued_ == 0) idle_.notify_all();
  return Status::OK();
}

Status QueryScheduler::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return Status::FailedPrecondition("scheduler running");
  started_ = true;
  stopping_ = false;
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

Status QueryScheduler::Stop() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!started_) return Status::OK();
    stopping_ = true;
    CallerRunsLocked(lock, /*until_idle=*/true);
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  workers_.clear();
  started_ = false;
  idle_.notify_all();
  return Status::OK();
}

Status QueryScheduler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  CallerRunsLocked(lock, /*until_idle=*/true);
  idle_.wait(lock, [this] {
    return !started_ || (busy_count_ == 0 && queued_ == 0);
  });
  return Status::OK();
}

void QueryScheduler::RunPending() {
  if (options_.workers > 0) return;
  std::unique_lock<std::mutex> lock(mutex_);
  CallerRunsLocked(lock, /*until_idle=*/false);
}

void QueryScheduler::CallerRunsLocked(std::unique_lock<std::mutex>& lock,
                                      bool until_idle) {
  if (options_.workers > 0 || tls_caller_runs == this) return;
  const QueryScheduler* outer = tls_caller_runs;
  tls_caller_runs = this;
  while (true) {
    if (DeliverNextLocked(lock)) continue;
    if (!until_idle || (busy_count_ == 0 && queued_ == 0)) break;
    // Nothing claimable now: wake when a backoff expires or another
    // caller releases a claim.
    ++claim_waiters_;
    const auto deadline = EarliestRetryLocked();
    if (deadline.has_value()) {
      idle_.wait_until(lock, *deadline);
    } else {
      idle_.wait(lock);
    }
    --claim_waiters_;
  }
  tls_caller_runs = outer;
}

Status QueryScheduler::Enqueue(size_t index, EventSink* downstream,
                               const StreamEvent& event) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) {
      return Status::FailedPrecondition("scheduler not started");
    }
    if (index >= queues_.size() || !queues_[index]) {
      return Status::NotFound("pipeline removed");
    }
    Queue& queue = *queues_[index];
    if (queue.quarantined) {
      ++queue.stats.rejected;
      return queue.error;
    }
    // Frame metadata and stream control are never shed: downstream
    // buffering operators depend on well-formed frame sequences. They
    // are admitted above capacity, but the overshoot is counted.
    const bool control = event.kind != EventKind::kPointBatch;
    const bool over = queue.events.size() >= options_.queue_capacity;
    if (over) {
      if (!control) {
        ++queue.stats.dropped;
        if (options_.report_drops) {
          return Status::ResourceExhausted("queue full, batch shed: " +
                                           queue.name);
        }
        return Status::OK();
      }
      ++queue.stats.control_overflow;
    }
    ++queue.stats.enqueued;
    ++queued_;
    Item item{downstream, event};
    if (event.trace) {
      // One traced batch fans out to many pipelines on different
      // threads; fork a private context per pipeline so no two
      // threads ever share mutable trace state.
      item.event.trace = event.trace->Fork(queue.name);
      item.event.trace->MarkEnqueued();
    }
    queue.events.push_back(std::move(item));
    queue.stats.queue_high_water = std::max(
        queue.stats.queue_high_water,
        static_cast<uint64_t>(queue.events.size()));
    if (queue_depth_hist_ != nullptr) {
      queue_depth_hist_->Observe(queue.events.size());
    }
  }
  work_available_.notify_one();
  return Status::OK();
}

bool QueryScheduler::ClaimableLocked(const Queue& queue,
                                     Clock::time_point now) const {
  if (queue.busy || queue.quarantined || queue.events.empty()) return false;
  if (queue.retry_pending && now < queue.retry_at) return false;
  return true;
}

int QueryScheduler::SelectQueueLocked(Clock::time_point now) const {
  const size_t n = queues_.size();
  if (n == 0) return -1;
  if (options_.policy == SchedulingPolicy::kLongestQueueFirst) {
    int best = -1;
    size_t best_size = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!queues_[i]) continue;
      const Queue& queue = *queues_[i];
      if (ClaimableLocked(queue, now) && queue.events.size() > best_size) {
        best_size = queue.events.size();
        best = static_cast<int>(i);
      }
    }
    return best;
  }
  // Round robin: next claimable queue at or after the cursor. The
  // cursor is NOT advanced here — selection must stay side-effect
  // free so it can serve as a wait predicate.
  for (size_t step = 0; step < n; ++step) {
    const size_t i = (rr_cursor_ + step) % n;
    if (!queues_[i]) continue;
    if (ClaimableLocked(*queues_[i], now)) return static_cast<int>(i);
  }
  return -1;
}

void QueryScheduler::AdvanceCursorLocked(size_t claimed) {
  rr_cursor_ = (claimed + 1) % queues_.size();
}

std::optional<QueryScheduler::Clock::time_point>
QueryScheduler::EarliestRetryLocked() const {
  std::optional<Clock::time_point> earliest;
  for (const auto& queue : queues_) {
    if (!queue || queue->busy || queue->quarantined) continue;
    if (!queue->retry_pending || queue->events.empty()) continue;
    if (!earliest || queue->retry_at < *earliest) earliest = queue->retry_at;
  }
  return earliest;
}

void QueryScheduler::QuarantineLocked(Queue& queue, const Status& status) {
  queue.quarantined = true;
  queue.error = status;
  if (first_error_.ok()) first_error_ = status;
  queue.stats.discarded += queue.events.size();
  queued_ -= queue.events.size();
  queue.events.clear();
  queue.retry_pending = false;
  GEOSTREAMS_LOG(kError) << "pipeline '" << queue.name
                         << "' quarantined: " << status.ToString();
  if (options_.event_log != nullptr) {
    options_.event_log->Append(
        EventSeverity::kError, "scheduler", "quarantine",
        StringPrintf("pipeline=%s %s", queue.name.c_str(),
                     status.ToString().c_str()));
  }
}

void QueryScheduler::HandleFailureLocked(std::unique_lock<std::mutex>& lock,
                                         Queue& queue, Item item,
                                         const Status& status) {
  const SupervisorDecision decision = supervisor_.Decide(
      status, queue.attempts,
      queue.stats.dead_letters - queue.dead_letters_baseline);
  bool run_reset = false;
  switch (decision.action) {
    case SupervisorDecision::Action::kRetry: {
      const uint32_t backoff =
          supervisor_.BackoffMs(queue.index, queue.attempts);
      ++queue.attempts;
      ++queue.stats.restarts;
      queue.events.push_front(std::move(item));
      ++queued_;
      queue.retry_pending = true;
      queue.retry_at =
          Clock::now() + std::chrono::milliseconds(backoff);
      run_reset = true;
      break;
    }
    case SupervisorDecision::Action::kDeadLetter:
      // The event is poison: drop it, count it, keep it inspectable,
      // keep the pipeline. The chain may hold trashed mid-frame
      // state, so reset it too.
      ++queue.stats.dead_letters;
      queue.dead_letters->Push(item.event, status);
      queue.attempts = 0;
      run_reset = true;
      break;
    case SupervisorDecision::Action::kQuarantine:
      // The triggering event is discarded along with the queue, which
      // keeps `processed + dead_letters + discarded == enqueued`. A
      // poison event that trips the limit is still retained in the
      // ring — with the default poison_limit of 1 it would otherwise
      // never be inspectable.
      if (ClassifyFault(status) == FaultClass::kPoison) {
        queue.dead_letters->Push(item.event, status);
      }
      ++queue.stats.discarded;
      QuarantineLocked(queue, status);
      break;
  }
  if (run_reset && queue.reset) {
    // The claim is still held, so the reset cannot race a delivery;
    // run it outside the lock like any downstream call.
    auto reset = queue.reset;
    lock.unlock();
    reset();
    lock.lock();
  }
}

void QueryScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (DeliverNextLocked(lock)) continue;
    // Nothing claimable. Pipelines in backoff need a timed wake; on
    // stop, busy queues still holding events are finished by the
    // threads that claimed them, so this worker can leave once no
    // retry is pending either.
    const auto deadline = EarliestRetryLocked();
    if (deadline.has_value()) {
      work_available_.wait_until(lock, *deadline);
    } else if (stopping_) {
      return;
    } else {
      work_available_.wait(lock);
    }
  }
}

bool QueryScheduler::DeliverNextLocked(std::unique_lock<std::mutex>& lock) {
  const int index = SelectQueueLocked(Clock::now());
  if (index < 0) return false;
  Queue& queue = *queues_[static_cast<size_t>(index)];
  AdvanceCursorLocked(static_cast<size_t>(index));
  queue.busy = true;
  queue.retry_pending = false;
  ++busy_count_;
  Item item = std::move(queue.events.front());
  queue.events.pop_front();
  --queued_;
  // Only anchored FrameEnd events are staged, so per-stage sums
  // partition the frame's end-to-end latency. A staged event carries
  // the pipeline's stage series down the chain and on to the client
  // writers.
  TraceContext* trace = item.event.trace.get();
  const bool staged = trace != nullptr &&
                      item.event.kind == EventKind::kFrameEnd &&
                      trace->last_anchor_wall_us() != 0 &&
                      options_.metrics != nullptr;
  if (staged) {
    if (!queue.stages) {
      queue.stages = QueryStageHistograms::Resolve(options_.metrics,
                                                   queue.name);
    }
    trace->set_stages(queue.stages);
  }
  lock.unlock();
  // The claim invariant makes this call single-threaded per
  // pipeline; the mutex acquire/release around claim and release
  // orders operator state (incl. OperatorMetrics) across threads.
  Status st;
  if (trace == nullptr) {
    st = item.downstream->Consume(item.event);
  } else {
    uint64_t wait_us = trace->MarkDequeued();
    if (queue_wait_hist_ != nullptr) queue_wait_hist_->Observe(wait_us);
    // Reserve the ring slot before the chain runs so exemplar
    // observations made during delivery (operator spans, e2e
    // stages) can carry the ordinal `TRACE` will answer to (a retried
    // event keeps its first reservation). The claim invariant keeps
    // per-pipeline reservations ordered.
    if (trace->ring_ordinal() == TraceContext::kNoRingOrdinal) {
      trace->set_ring_ordinal(queue.traces->Reserve());
    }
    // Frame-lifecycle stages up to the claim: `send` and `journal`
    // come straight from the ingest anchors, observed once per
    // frame — only the fork that owns the per-source stages (the
    // first of a fan-out) reports them, and only while its chain
    // still sits at the seeded anchor (a retried event has advanced
    // past it). `queue` closes at the claim itself and is
    // per-pipeline.
    if (staged) {
      const uint64_t capture = trace->capture_wall_us();
      const uint64_t admit = trace->admit_wall_us();
      const uint64_t durable = trace->durable_wall_us();
      const uint64_t seeded = durable ? durable : (admit ? admit : capture);
      const SourceStageHistograms* source = trace->source_stages().get();
      if (source != nullptr && trace->observes_source_stages() &&
          trace->last_anchor_wall_us() == seeded) {
        if (capture != 0 && admit > capture) {
          ObserveE2eStage(source->send.get(), admit - capture,
                          trace->ring_ordinal(), trace->pipeline());
        }
        if (admit != 0 && durable > admit) {
          ObserveE2eStage(source->journal.get(), durable - admit,
                          trace->ring_ordinal(), trace->pipeline());
        }
      }
      ObserveE2eStage(trace->stages()->queue.get(),
                      trace->AdvanceStage(TraceWallNowUs()),
                      trace->ring_ordinal(), trace->pipeline());
    }
    // Activate for the chain: operators emit fresh events, so they
    // read the trace from the thread-local, not the event.
    ScopedTraceActivation activate(trace);
    st = item.downstream->Consume(item.event);
  }
  if (st.ok() && trace != nullptr) {
    // Claim still held, so `queue` cannot be removed under us; the
    // ring is internally synchronized. Failed deliveries are not
    // recorded — a retry redelivers under the same reservation, and a
    // dead-lettered event's reserved ordinal stays a gap in the ring.
    queue.traces->PushReserved(trace->Finish());
  }
  lock.lock();
  if (st.ok()) {
    ++queue.stats.processed;
    queue.attempts = 0;
  } else {
    HandleFailureLocked(lock, queue, std::move(item), st);
  }
  queue.busy = false;
  --busy_count_;
  if (!queue.events.empty()) work_available_.notify_one();
  if (claim_waiters_ > 0 || (busy_count_ == 0 && queued_ == 0)) {
    idle_.notify_all();
  }
  return true;
}

PipelineHealth QueryScheduler::HealthLocked(const Queue& queue) const {
  if (queue.quarantined) return PipelineHealth::kQuarantined;
  if (queue.retry_pending || queue.attempts > 0 ||
      queue.stats.dead_letters > queue.dead_letters_baseline) {
    return PipelineHealth::kDegraded;
  }
  return PipelineHealth::kRunning;
}

Status QueryScheduler::RestartPipeline(size_t pipeline) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (pipeline >= queues_.size() || !queues_[pipeline]) {
    return Status::NotFound("pipeline not registered");
  }
  if (HealthLocked(*queues_[pipeline]) == PipelineHealth::kRunning) {
    return Status::OK();  // already healthy
  }
  // Take the pipeline's claim so the reset cannot race an in-flight
  // delivery (quarantine can land while another thread is mid-event).
  ++claim_waiters_;
  idle_.wait(lock, [&] {
    return !queues_[pipeline] || !queues_[pipeline]->busy;
  });
  --claim_waiters_;
  if (!queues_[pipeline]) {
    return Status::NotFound("pipeline removed during restart");
  }
  Queue& queue = *queues_[pipeline];
  queue.quarantined = false;
  queue.error = Status::OK();
  queue.attempts = 0;
  queue.retry_pending = false;
  queue.dead_letters_baseline = queue.stats.dead_letters;
  if (queue.reset) {
    queue.busy = true;
    ++busy_count_;
    auto reset = queue.reset;
    lock.unlock();
    reset();
    lock.lock();
    queue.busy = false;
    --busy_count_;
    idle_.notify_all();
  }
  GEOSTREAMS_LOG(kInfo) << "pipeline '" << queue.name
                        << "' restarted (un-quarantined)";
  if (options_.event_log != nullptr) {
    options_.event_log->Append(EventSeverity::kInfo, "scheduler", "restart",
                               StringPrintf("pipeline=%s", queue.name.c_str()));
  }
  if (!queue.events.empty()) work_available_.notify_one();
  return Status::OK();
}

std::vector<DeadLetter> QueryScheduler::DeadLetters(size_t pipeline) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pipeline >= queues_.size() || !queues_[pipeline]) return {};
  return queues_[pipeline]->dead_letters->Snapshot();
}

TraceRing::Snapshot QueryScheduler::Traces(size_t pipeline) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pipeline >= queues_.size() || !queues_[pipeline]) return {};
  return queues_[pipeline]->traces->TakeSnapshot();
}

PipelineHealth QueryScheduler::Health(size_t pipeline) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pipeline >= queues_.size() || !queues_[pipeline]) {
    // Removed pipelines are no longer serviceable.
    return PipelineHealth::kQuarantined;
  }
  return HealthLocked(*queues_[pipeline]);
}

Status QueryScheduler::PipelineError(size_t pipeline) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pipeline >= queues_.size() || !queues_[pipeline]) {
    return Status::NotFound("pipeline not registered");
  }
  return queues_[pipeline]->error;
}

Status QueryScheduler::FirstPipelineError() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return first_error_;
}

size_t QueryScheduler::num_pipelines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& queue : queues_) {
    if (queue) ++n;
  }
  return n;
}

std::vector<ScheduledQueueStats> QueryScheduler::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ScheduledQueueStats> out;
  out.reserve(queues_.size());
  for (const auto& queue : queues_) {
    if (!queue) continue;
    ScheduledQueueStats stats = queue->stats;
    stats.queued = queue->events.size();
    stats.traces = queue->traces->total();
    stats.health = HealthLocked(*queue);
    stats.error = queue->error.ok() ? "" : queue->error.ToString();
    out.push_back(std::move(stats));
  }
  return out;
}

ScheduledQueueStats QueryScheduler::AggregateStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ScheduledQueueStats total;
  total.name = "total";
  for (const auto& queue : queues_) {
    if (!queue) continue;
    ScheduledQueueStats stats = queue->stats;
    stats.queued = queue->events.size();
    stats.traces = queue->traces->total();
    stats.health = HealthLocked(*queue);
    stats.error = queue->error.ok() ? "" : queue->error.ToString();
    total.MergeFrom(stats);
  }
  return total;
}

}  // namespace geostreams
