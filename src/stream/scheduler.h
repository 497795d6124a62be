// Operator scheduling across continuous queries.
//
// The paper's introduction lists "operator scheduling" among the
// relational-DSMS techniques to adapt. The scheduler owns one bounded
// queue per registered pipeline and a pool of worker threads that
// claim queues and drain them. The central invariant: **at most one
// thread drains a given pipeline's queue at any moment** (a per-queue
// busy flag taken under the scheduler mutex), so per-pipeline event
// order — which `ComposeOp`/`StretchTransformOp` frame buffering
// depends on — is preserved while distinct pipelines run in parallel.
//
// With zero workers the scheduler runs on its callers' threads: no
// thread is started, and RunPending()/WaitIdle()/Stop() run the same
// claim -> deliver -> supervise step a worker runs. Supervision,
// tracing and stats are the same in both modes.
//
// Dispatch order between pipelines decides latency and memory:
// round-robin treats queries fairly, longest-queue-first bounds the
// worst backlog (a Chain-style heuristic at the pipeline granularity).
// Enqueue never blocks: point batches beyond capacity are shed (the
// shedding decision is surfaced through stats and, optionally, a
// ResourceExhausted status); frame/stream control events are always
// admitted so downstream buffering operators see well-formed frame
// sequences, with overshoot counted in `control_overflow`.
//
// Failure domains: each pipeline is its own failure domain. A non-OK
// status from a pipeline's operator chain is handed to the
// PipelineSupervisor, which classifies it (see stream/supervisor.h):
// transient failures are retried after a backoff (with the chain's
// frame-buffer state reset first), poison events are dead-lettered,
// and permanent failures quarantine *that pipeline only* — its error
// is recorded, its queued events discarded, and later Enqueue calls
// on it return its own error. All other pipelines keep running;
// Stop()/WaitIdle() drain the healthy pipelines and return OK.

#ifndef GEOSTREAMS_STREAM_SCHEDULER_H_
#define GEOSTREAMS_STREAM_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "stream/operator.h"
#include "stream/supervisor.h"

namespace geostreams {

class EventLog;
class MetricsRegistry;

enum class SchedulingPolicy : uint8_t {
  kRoundRobin,        // fair rotation over non-empty queues
  kLongestQueueFirst, // drain the biggest backlog first
};

const char* SchedulingPolicyName(SchedulingPolicy policy);

struct SchedulerOptions {
  SchedulingPolicy policy = SchedulingPolicy::kRoundRobin;
  /// Per-pipeline bound; point batches beyond it are shed (and
  /// counted) rather than blocking the ingest thread.
  size_t queue_capacity = 1024;
  /// Worker threads draining the queues. 0 = caller-runs: no thread
  /// is started, and events are delivered by RunPending(), WaitIdle()
  /// and Stop() on the calling thread.
  size_t workers = 1;
  /// When true, Enqueue returns ResourceExhausted for a shed batch so
  /// producers can react; when false (default) shedding is silent and
  /// only visible in Stats().
  bool report_drops = false;
  /// Per-pipeline failure handling (restart/backoff/poison policy).
  SupervisorOptions supervisor;
  /// Dead-letter retention: each pipeline keeps its most recent
  /// poisoned events (including the one that tripped quarantine) in a
  /// bounded ring for inspection via DeadLetters(), capped by entry
  /// count and approximate bytes.
  size_t dead_letter_capacity = 16;
  size_t dead_letter_max_bytes = 1 << 20;
  /// Optional tracker the dead-letter rings report their byte usage
  /// to (owner "dlq.<pipeline name>"). Not owned; may be null.
  MemoryTracker* memory = nullptr;
  /// Optional metrics registry. When set, the scheduler owns two
  /// histograms: `geostreams_scheduler_queue_wait_us` (queue-entry to
  /// claim, observed per *traced* event) and
  /// `geostreams_scheduler_queue_depth` (post-enqueue depth, observed
  /// per accepted event). Not owned; may be null.
  MetricsRegistry* metrics = nullptr;
  /// Finished traces retained per pipeline (TRACE admin command).
  size_t trace_ring_capacity = 32;
  /// Optional flight recorder (not owned): quarantines and admin
  /// restarts are recorded as structured events.
  EventLog* event_log = nullptr;
};

/// Statistics for one scheduled pipeline. `enqueued` counts events
/// accepted into the queue; shed events are counted in `dropped`
/// only, so `enqueued + dropped` is the total offered. After a full
/// drain of a healthy pipeline `processed == enqueued`; in general
/// `processed + dead_letters + discarded == enqueued` once the queue
/// is empty (dead-lettered events were dropped as poison; discarded
/// ones were thrown away when the pipeline quarantined).
struct ScheduledQueueStats {
  std::string name;
  uint64_t enqueued = 0;
  uint64_t processed = 0;
  uint64_t dropped = 0;           // overflow shedding (batches only)
  uint64_t control_overflow = 0;  // control events admitted above capacity
  uint64_t queue_high_water = 0;
  uint64_t queued = 0;            // depth at snapshot time
  uint64_t traces = 0;            // finished trace records (ever)
  // --- supervision ---
  PipelineHealth health = PipelineHealth::kRunning;
  /// ToString() of the pipeline's recorded error; empty while healthy.
  std::string error;
  uint64_t dead_letters = 0; // poison events dropped
  uint64_t restarts = 0;     // transient redelivery attempts
  uint64_t rejected = 0;     // enqueues refused after quarantine
  uint64_t discarded = 0;    // queued events thrown away at quarantine

  /// Accumulates `other` into this entry (used for pool-wide totals).
  void MergeFrom(const ScheduledQueueStats& other) {
    enqueued += other.enqueued;
    processed += other.processed;
    dropped += other.dropped;
    control_overflow += other.control_overflow;
    queued += other.queued;
    traces += other.traces;
    if (other.queue_high_water > queue_high_water) {
      queue_high_water = other.queue_high_water;
    }
    if (other.health > health) health = other.health;
    if (error.empty()) error = other.error;
    dead_letters += other.dead_letters;
    restarts += other.restarts;
    rejected += other.rejected;
    discarded += other.discarded;
  }
};

class QueryScheduler {
 public:
  explicit QueryScheduler(SchedulerOptions options);
  /// Legacy single-worker form: callers that route several queues into
  /// one shared plan (e.g. per-band queues feeding a cross-band
  /// operator) rely on one worker serializing all queues.
  explicit QueryScheduler(SchedulingPolicy policy,
                          size_t queue_capacity = 1024);
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Adds a pipeline with a single input; returns the sink to feed it
  /// through. `downstream` is not owned. May be called before Start()
  /// or while the pool is running.
  EventSink* AddPipeline(std::string name, EventSink* downstream);

  /// Multi-input form for plans that read several sources: all inputs
  /// added to one pipeline share its queue, so one worker at a time
  /// drives the whole plan and cross-input operators stay effectively
  /// single-threaded. Returns the pipeline's id (ids of removed
  /// pipelines are reused).
  size_t AddPipelineGroup(std::string name);
  /// Adds an input to pipeline `pipeline`; events pushed into the
  /// returned sink are delivered, in enqueue order, to `downstream`.
  EventSink* AddPipelineInput(size_t pipeline, EventSink* downstream);

  /// Registers the hook the supervisor runs before redelivering an
  /// event after a transient failure (and after dead-lettering a
  /// poison event mid-frame): typically {Pipeline,ExecutablePlan}::
  /// Reset, dropping buffered frame state so the chain accepts a
  /// fresh sequence. Runs on the delivering thread while the
  /// pipeline's claim is held, so it never races event delivery.
  void SetPipelineReset(size_t pipeline, std::function<void()> reset);

  /// Removes a pipeline: waits for any in-flight event to finish,
  /// discards whatever is still queued, frees the queue and its entry
  /// sinks, and recycles the id. The caller must have detached all
  /// producers first (entry sinks become dangling).
  Status RemovePipeline(size_t pipeline);

  /// Starts the worker pool (no thread with zero workers).
  Status Start();

  /// Drains every healthy queue and joins the workers. Per-pipeline
  /// failures do not fail Stop(); they are visible in Stats() and
  /// FirstPipelineError().
  Status Stop();

  /// Blocks until every healthy queue is empty and no event is
  /// mid-delivery. Pipelines waiting out a retry backoff count as
  /// non-idle until the redelivery resolves. With zero workers the
  /// calling thread does the delivering (and the waiting out).
  Status WaitIdle();

  /// Caller-runs mode: delivers, on the calling thread, every event
  /// that is claimable now, and returns once nothing is — a pipeline
  /// in retry backoff, or claimed by another caller, is left for a
  /// later call. A no-op with worker threads, and when this thread is
  /// already delivering for this scheduler (an event sink that feeds
  /// the scheduler again, e.g. a derived stream): the outer loop picks
  /// that work up.
  void RunPending();

  /// Health / recorded error of one pipeline.
  PipelineHealth Health(size_t pipeline) const;
  Status PipelineError(size_t pipeline) const;
  /// First error that quarantined any pipeline (OK when none has).
  Status FirstPipelineError() const;

  /// Un-quarantines a pipeline (the admin `RESTART` path): clears the
  /// recorded error, runs the reset hook under the pipeline's claim so
  /// the chain starts from clean frame state, and grants a fresh
  /// poison budget (prior dead-letters no longer count toward
  /// `poison_limit`, and no longer mark the pipeline DEGRADED).
  /// Retained dead letters stay inspectable. Idempotent: restarting a
  /// healthy pipeline is a no-op. NotFound for removed pipelines.
  Status RestartPipeline(size_t pipeline);

  /// The pipeline's retained dead-lettered events, oldest first
  /// (empty for unknown/removed pipelines).
  std::vector<DeadLetter> DeadLetters(size_t pipeline) const;

  /// Finished trace records retained for one pipeline (bounded ring,
  /// oldest kept first; Snapshot::total counts all traces ever
  /// finished there). Empty snapshot for unknown/removed pipelines.
  TraceRing::Snapshot Traces(size_t pipeline) const;

  std::vector<ScheduledQueueStats> Stats() const;
  /// Pool-wide totals across all pipelines (thread-safe snapshot).
  ScheduledQueueStats AggregateStats() const;

  size_t num_workers() const { return options_.workers; }
  /// Currently registered (not removed) pipelines.
  size_t num_pipelines() const;

 private:
  struct Queue;
  using Clock = std::chrono::steady_clock;
  /// One queued unit of work: the event plus the plan input it is
  /// destined for (pipelines can have several inputs).
  struct Item {
    EventSink* downstream;
    StreamEvent event;
  };

  /// Entry sinks enqueue into their pipeline's queue.
  class EntrySink : public EventSink {
   public:
    EntrySink(QueryScheduler* scheduler, size_t index, EventSink* downstream)
        : scheduler_(scheduler), index_(index), downstream_(downstream) {}
    Status Consume(const StreamEvent& event) override {
      return scheduler_->Enqueue(index_, downstream_, event);
    }
    size_t index() const { return index_; }

   private:
    QueryScheduler* scheduler_;
    size_t index_;
    EventSink* downstream_;
  };

  Status Enqueue(size_t index, EventSink* downstream,
                 const StreamEvent& event);
  void WorkerLoop();
  /// Claims the next claimable queue, delivers its head event with the
  /// lock released, and settles the outcome (supervision, stats,
  /// wakeups). False when nothing is claimable now.
  bool DeliverNextLocked(std::unique_lock<std::mutex>& lock);
  /// The caller-runs loop behind RunPending() (`until_idle` false) and
  /// WaitIdle()/Stop() (true: also waits out backoffs and other
  /// callers' claims until the scheduler is idle). No-op with workers
  /// or when nested on this thread.
  void CallerRunsLocked(std::unique_lock<std::mutex>& lock, bool until_idle);
  /// Handles a non-OK delivery status for the claimed queue. Called
  /// with the lock held and the claim still taken; may drop the lock
  /// to run the pipeline's reset hook. `item` is the failed delivery.
  void HandleFailureLocked(std::unique_lock<std::mutex>& lock, Queue& queue,
                           Item item, const Status& status);
  /// Quarantines `queue` with `status`: records the error, discards
  /// queued events, and wakes idle waiters. Lock held.
  void QuarantineLocked(Queue& queue, const Status& status);
  /// True when a worker may deliver from `queue` right now.
  bool ClaimableLocked(const Queue& queue, Clock::time_point now) const;
  /// Picks the next claimable queue (non-empty, not busy, not in
  /// backoff, not quarantined); -1 when none. Const: safe as a
  /// condvar wait predicate — it must never mutate scheduler state (a
  /// previous version advanced the round-robin cursor here, so every
  /// spurious wakeup skewed the rotation; see
  /// SchedulerTest.RoundRobinRotationIsExact).
  int SelectQueueLocked(Clock::time_point now) const;
  /// Advances the round-robin cursor past a queue that was actually
  /// claimed. Called only when an event is taken.
  void AdvanceCursorLocked(size_t claimed);
  /// Earliest pending retry deadline, if any pipeline is in backoff.
  std::optional<Clock::time_point> EarliestRetryLocked() const;
  PipelineHealth HealthLocked(const Queue& queue) const;

  SchedulerOptions options_;
  PipelineSupervisor supervisor_;
  /// Resolved once at construction from options_.metrics (null when
  /// no registry was supplied).
  MetricHistogram* queue_wait_hist_ = nullptr;
  MetricHistogram* queue_depth_hist_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  /// Removed pipelines leave a null slot, recycled by free_slots_.
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<size_t> free_slots_;
  std::vector<std::unique_ptr<EntrySink>> entries_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopping_ = false;
  size_t busy_count_ = 0;
  /// Events queued across all pipelines (idle = 0 queued, 0 busy).
  size_t queued_ = 0;
  /// Threads blocked on idle_ until some claim is released:
  /// RemovePipeline, RestartPipeline and caller-runs drains.
  size_t claim_waiters_ = 0;
  size_t rr_cursor_ = 0;
  /// First status that quarantined a pipeline (diagnostics only; the
  /// pool itself never aborts).
  Status first_error_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STREAM_SCHEDULER_H_
