// Per-batch pipeline tracing.
//
// A sampled batch gets a TraceContext at the ingest boundary; the
// scheduler forks it per fan-out pipeline (each fork lives on exactly
// one pipeline, so — by the scheduler's claim invariant — it is only
// ever mutated by one thread at a time), stamps queue entry/exit, and
// activates it around chain delivery so every operator on the chain
// records a span. Operators run as a synchronous push chain: an
// upstream operator's Consume *includes* all downstream work, so spans
// carry both the inclusive wall time and the exclusive time with the
// child subtree subtracted out (SpanTimer does the subtree
// accounting). Finished traces land in a bounded per-pipeline
// TraceRing dumped by `TRACE <query-id>` — same ordinal-survives-
// eviction contract as the DeadLetterQueue.
//
// The untraced hot path costs one thread-local load and a branch per
// operator (see bench/bench_tracing.cc).

#ifndef GEOSTREAMS_OBS_TRACE_H_
#define GEOSTREAMS_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace geostreams {

class MetricHistogram;
class MetricsRegistry;

/// The frame-lifecycle stage family and its help text.
extern const char kE2eLatencyFamily[];  // "geostreams_e2e_latency_us"
extern const char kE2eLatencyHelp[];

/// The delivery-side stage series of one query pipeline,
/// `geostreams_e2e_latency_us{stage=queue|operators|deliver|write,
/// query=<pipeline>}`, resolved once per pipeline and carried by each
/// staged trace fork and FrameStamp. The handles share ownership, so
/// after the query's series are removed a frame still queued in a
/// client writer observes into a live, unexported histogram.
struct QueryStageHistograms {
  std::shared_ptr<MetricHistogram> queue;
  std::shared_ptr<MetricHistogram> operators;
  std::shared_ptr<MetricHistogram> deliver;
  std::shared_ptr<MetricHistogram> write;

  /// Gets or creates the four series of `pipeline`. Removed by
  /// MetricsRegistry::RemoveSeries(kE2eLatencyFamily, "query", ...).
  static std::shared_ptr<const QueryStageHistograms> Resolve(
      MetricsRegistry* metrics, const std::string& pipeline);
};

/// The per-source stage series of one source stream,
/// `geostreams_e2e_latency_us{stage=send|journal|total,source=<name>}`,
/// resolved once when the stream registers. Every trace born at the
/// source's ingest boundary carries them to its forks, so no
/// observation looks a series up.
struct SourceStageHistograms {
  std::shared_ptr<MetricHistogram> send;
  std::shared_ptr<MetricHistogram> journal;
  std::shared_ptr<MetricHistogram> total;

  /// Gets or creates the three series of `source`.
  static std::shared_ptr<const SourceStageHistograms> Resolve(
      MetricsRegistry* metrics, const std::string& source);
};

/// Monotonic (steady-clock) microseconds. The zero point is arbitrary;
/// only differences are meaningful.
uint64_t TraceNowUs();

/// Wall-clock (system-clock) microseconds since the Unix epoch. Only
/// used to anchor traces to external logs; never for durations.
uint64_t TraceWallNowUs();

/// One operator's slice of a traced delivery.
struct TraceSpan {
  std::string name;          // operator instance name, e.g. "op1.region"
  uint64_t exclusive_us = 0; // wall time minus downstream subtree
  uint64_t inclusive_us = 0; // wall time including downstream subtree
};

/// A finished trace, as kept in the ring and dumped over the control
/// plane.
struct TraceRecord {
  uint64_t ordinal = 0;   // assigned by the ring; survives eviction
  uint64_t trace_id = 0;
  std::string origin;     // source stream name
  std::string pipeline;   // scheduler pipeline name, e.g. "q7"
  uint64_t queue_wait_us = 0;
  uint64_t total_us = 0;  // ingest stamp -> Finish()
  /// Wall-clock (Unix epoch) microseconds when the trace was born at
  /// the ingest boundary. Steady-clock stamps only order events within
  /// this process; the wall anchor lets `TRACE <id>` output be
  /// correlated with external logs.
  uint64_t born_wall_us = 0;
  /// Frame-lifecycle wall anchors (Unix epoch microseconds; 0 =
  /// unknown): producer capture, ingest admission, journal-durable.
  /// Stamped by the ingest session onto the event, copied onto the
  /// trace at birth.
  uint64_t capture_wall_us = 0;
  uint64_t admit_wall_us = 0;
  uint64_t durable_wall_us = 0;
  std::vector<TraceSpan> spans;  // delivery order (outermost first)

  /// One line: `TR <ordinal> trace=<id> pipeline=<p> origin=<o>
  /// wall_us=<epoch-us> queue_us=<n> total_us=<n>
  /// [capture_us=<epoch-us> admit_us=<epoch-us> durable_us=<epoch-us>]
  /// <span>=<excl>/<incl>...` (span times in microseconds,
  /// exclusive/inclusive; anchors rendered only when stamped).
  std::string ToString() const;
};

/// Mutable state of one in-flight trace. Not thread-safe: each
/// instance is owned by a single delivery path (fork per pipeline
/// before crossing a queue).
class TraceContext {
 public:
  /// ring_ordinal() when no ring slot was reserved for this trace.
  static constexpr uint64_t kNoRingOrdinal = ~0ull;

  TraceContext(uint64_t trace_id, std::string origin);

  uint64_t trace_id() const { return trace_id_; }
  const std::string& origin() const { return origin_; }
  const std::string& pipeline() const { return pipeline_; }

  /// A fresh context for one fan-out pipeline: same id/origin/birth
  /// stamp, ingest anchors and source stage series, no spans and no
  /// ring ordinal (each fork lands in its own pipeline's ring).
  /// Called by the scheduler before enqueue so concurrent pipelines
  /// never share mutable trace state. Per-source stage ownership (see
  /// observes_source_stages) transfers to the FIRST fork; later forks
  /// of the same frame do not re-observe the per-source stages.
  std::shared_ptr<TraceContext> Fork(std::string pipeline);

  /// Queue boundary stamps. MarkDequeued returns the queue wait in
  /// microseconds (0 if MarkEnqueued was never called).
  void MarkEnqueued() { enqueued_us_ = TraceNowUs(); }
  uint64_t MarkDequeued();
  uint64_t queue_wait_us() const { return queue_wait_us_; }

  /// Copies the frame-lifecycle wall anchors stamped on the ingest
  /// event onto the trace and starts the stage chain at the last
  /// nonzero anchor (durable, else admit, else capture).
  void SetIngestAnchors(uint64_t capture_wall_us, uint64_t admit_wall_us,
                        uint64_t durable_wall_us);
  uint64_t capture_wall_us() const { return capture_wall_us_; }
  uint64_t admit_wall_us() const { return admit_wall_us_; }
  uint64_t durable_wall_us() const { return durable_wall_us_; }

  /// Advances the stage chain to `now_wall_us` and returns the
  /// elapsed microseconds since the previous anchor (0 when no prior
  /// anchor was set or the clock stepped backwards). Consecutive
  /// calls therefore segment the frame's wall timeline into disjoint
  /// stage latencies that sum to end-to-end.
  uint64_t AdvanceStage(uint64_t now_wall_us);
  uint64_t last_anchor_wall_us() const { return last_anchor_wall_us_; }

  /// True on exactly one context per traced source frame: the root at
  /// birth, handed to the first Fork (and cleared everywhere else).
  /// Gates the per-source stage observations (`send`, `journal`,
  /// `total`) so a frame fanning out to N pipelines lands in the
  /// per-source series once, not N times.
  bool observes_source_stages() const { return source_stage_owner_; }

  /// Claims the once-per-frame per-source `total` observation: true
  /// exactly once, and only on the owning context.
  bool ClaimTotalStage();

  /// The pipeline's stage series; attached by the scheduler when it
  /// claims a staged (anchored FrameEnd) event, null otherwise.
  void set_stages(std::shared_ptr<const QueryStageHistograms> stages) {
    stages_ = std::move(stages);
  }
  const std::shared_ptr<const QueryStageHistograms>& stages() const {
    return stages_;
  }

  /// The origin's per-source stage series; attached at birth by the
  /// ingest boundary and copied to every fork.
  void set_source_stages(std::shared_ptr<const SourceStageHistograms> stages) {
    source_stages_ = std::move(stages);
  }
  const std::shared_ptr<const SourceStageHistograms>& source_stages() const {
    return source_stages_;
  }

  /// TraceRing slot reserved for this trace (exemplar linkage), or
  /// kNoRingOrdinal.
  void set_ring_ordinal(uint64_t ordinal) { ring_ordinal_ = ordinal; }
  uint64_t ring_ordinal() const { return ring_ordinal_; }

  /// Snapshot for the ring. total_us covers birth -> now.
  TraceRecord Finish() const;

 private:
  friend class SpanTimer;

  uint64_t trace_id_;
  std::string origin_;
  std::string pipeline_;
  uint64_t born_us_;
  uint64_t born_wall_us_;  // wall-clock anchor, stamped with born_us_
  uint64_t enqueued_us_ = 0;
  uint64_t queue_wait_us_ = 0;
  uint64_t capture_wall_us_ = 0;
  uint64_t admit_wall_us_ = 0;
  uint64_t durable_wall_us_ = 0;
  uint64_t last_anchor_wall_us_ = 0;
  uint64_t ring_ordinal_ = kNoRingOrdinal;
  std::shared_ptr<const QueryStageHistograms> stages_;
  std::shared_ptr<const SourceStageHistograms> source_stages_;
  /// Per-source stage ownership: root holds it until the first Fork
  /// takes it; ClaimTotalStage burns it for the `total` observation.
  bool source_stage_owner_ = true;
  bool total_claimed_ = false;
  /// Inclusive time of already-finished child spans at the current
  /// nesting level; SpanTimer saves/zeroes/restores it around each
  /// span to compute exclusive time.
  uint64_t child_us_ = 0;
  std::vector<TraceSpan> spans_;
};

/// RAII span: construct around an operator's Process call. Records the
/// span into `trace` on destruction and, when `histogram` is non-null,
/// observes the *exclusive* microseconds there. `name` must outlive
/// the timer (operators pass their own name).
class SpanTimer {
 public:
  SpanTimer(TraceContext* trace, const std::string& name,
            MetricHistogram* histogram);
  ~SpanTimer();

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  TraceContext* trace_;
  const std::string& name_;
  MetricHistogram* histogram_;
  uint64_t start_us_;
  uint64_t saved_child_us_;
};

/// The trace active on this thread's current delivery chain, or null.
/// Operators consult this (one thread-local load + branch) instead of
/// the event, because operators emit freshly-built events that do not
/// carry the upstream event's trace pointer.
TraceContext* ActiveTrace();

/// Activates `trace` (may be null = deactivate) for the current scope;
/// restores the previous active trace on destruction.
class ScopedTraceActivation {
 public:
  explicit ScopedTraceActivation(TraceContext* trace);
  ~ScopedTraceActivation();

  ScopedTraceActivation(const ScopedTraceActivation&) = delete;
  ScopedTraceActivation& operator=(const ScopedTraceActivation&) = delete;

 private:
  TraceContext* previous_;
};

/// Bounded ring of finished traces. Thread-safe (TRACE snapshots it
/// while a delivering thread pushes). Ordinals are assigned at push
/// and survive eviction, like DeadLetterQueue.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  void Push(TraceRecord record);

  /// Reserves the next ordinal without pushing a record, so the
  /// ordinal can be attached to exemplars *while* the trace is still
  /// in flight; the finished record lands via PushReserved. A
  /// reserved ordinal that is never pushed (the event was shed after
  /// reservation) leaves a gap — total() counts reservations.
  uint64_t Reserve();
  /// Pushes a record whose ordinal was pre-assigned by Reserve().
  void PushReserved(TraceRecord record);

  struct Snapshot {
    uint64_t total = 0;                // ordinals assigned since creation
    std::vector<TraceRecord> records;  // oldest kept first
  };
  Snapshot TakeSnapshot() const;

  uint64_t total() const;
  size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t total_ = 0;
  std::deque<TraceRecord> records_;
};

/// Records one frame-lifecycle stage segment — the end-to-end
/// latency plane — into a stage series resolved once per source
/// (SourceStageHistograms) or per query (QueryStageHistograms),
/// exemplar-linked to `trace_ordinal` in `pipeline` unless it is
/// TraceContext::kNoRingOrdinal, closing the metrics -> TRACE loop.
/// Null histogram is a no-op.
void ObserveE2eStage(MetricHistogram* histogram, uint64_t latency_us,
                     uint64_t trace_ordinal, const std::string& pipeline);

}  // namespace geostreams

#endif  // GEOSTREAMS_OBS_TRACE_H_
