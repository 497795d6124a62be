#include "server/dsms_server.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "mqo/cascade_tree.h"
#include "query/explain.h"
#include "query/parser.h"
#include "storage/dead_letter_store.h"

namespace geostreams {

namespace {

/// Operator-kind label for the shared latency histogram family: the
/// planner names operators "op<N>.<kind>" (delivery ops
/// "q<N>.delivery"), so the suffix after the first '.' is the kind —
/// labeling by kind instead of instance keeps series cardinality
/// bounded no matter how many queries register.
std::string OpKindLabel(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

/// A live query is a catch-up query from +inf: nothing replays.
const CatchUpOptions kLiveOnly{.since = std::numeric_limits<int64_t>::max(),
                               .on_registered = nullptr};

constexpr char kOperatorLatencyHelp[] =
    "Exclusive microseconds spent in one operator per traced delivery";

/// Collects temporal restrictions that provably apply to each leaf of
/// a plan expression, for pushing down into StoreScan as IO-pruning
/// hints (they never change which frames replay — see StoreScan::times).
/// A TimeSet is carried down only through timestamp-preserving unary
/// operators; anything that could change frame-timestamp semantics
/// (aggregation, composition, band stacking) clears the accumulation —
/// the plan re-applies its own restrictions, so dropping a hint only
/// costs pruning, never correctness. A leaf that appears more than
/// once gets no hints (the paths may disagree and the scans would
/// intersect them).
void CollectTimeHints(const ExprPtr& expr, std::vector<TimeSet> active,
                      std::map<std::string, std::vector<TimeSet>>* hints,
                      std::map<std::string, int>* leaf_count) {
  if (!expr) return;
  switch (expr->kind) {
    case ExprKind::kStreamRef:
      ++(*leaf_count)[expr->stream_name];
      (*hints)[expr->stream_name] = std::move(active);
      return;
    case ExprKind::kTemporalRestrict:
      active.push_back(expr->times);
      CollectTimeHints(expr->child, std::move(active), hints, leaf_count);
      return;
    case ExprKind::kSpatialRestrict:
    case ExprKind::kValueRestrict:
    case ExprKind::kValueTransform:
    case ExprKind::kStretch:
    case ExprKind::kMagnify:
    case ExprKind::kReduce:
    case ExprKind::kReproject:
      CollectTimeHints(expr->child, std::move(active), hints, leaf_count);
      return;
    default:
      CollectTimeHints(expr->child, {}, hints, leaf_count);
      CollectTimeHints(expr->right, {}, hints, leaf_count);
      return;
  }
}

}  // namespace

/// Per-source ingest state: fans events out to unrestricted plan
/// inputs and to the shared restriction index.
struct DsmsServer::SourceState : public EventSink {
  GeoStreamDescriptor desc;
  std::unique_ptr<SharedRestrictionOp> shared;
  /// The shared restriction's index (owned by `shared`), read by the
  /// scrape-time node-count collector under the shared state lock.
  const CascadeTree* index = nullptr;
  /// Historical persistence (null without a store): assembles each
  /// frame and commits it to the TileStore. Consumed FIRST, before
  /// any query fan-out — the catch-up cut-over protocol depends on a
  /// frame being durable before any later event reaches a CatchUpGate
  /// (see store/catch_up_gate.h).
  std::unique_ptr<StoreIngestSink> store_sink;
  std::vector<EventSink*> direct_targets;
  /// True for continuous views: their events arrive from a backing
  /// plan rather than from an ingest call.
  bool derived = false;
  /// Boundary guard handed out by DsmsServer::ingest() (and used as
  /// the backing plan's sink for derived streams): takes the server's
  /// state lock in shared mode and runs the opt-in checksum check.
  std::unique_ptr<GuardedIngestSink> guard;
  /// Corrupt batches rejected at this boundary. `boundary_mu` guards
  /// the dead-letter ring and counter: several producers may ingest
  /// concurrently, each holding the state lock only in shared mode.
  std::mutex boundary_mu;
  std::unique_ptr<DeadLetterQueue> boundary_dead_letters;
  uint64_t checksum_failures = 0;
  bool warned_corrupt = false;
  /// Point batches seen at this boundary, for trace sampling (every
  /// Nth batch per source). Atomic: several producers may ingest one
  /// source concurrently under the shared state lock.
  std::atomic<uint64_t> trace_ticks{0};
  /// Quarantine verdict (also under boundary_mu): a quarantined
  /// source's events are refused at the guard until RestartSource.
  bool quarantined = false;
  Status quarantine_error = Status::OK();
  /// Wall clock (epoch us) of the newest delivered FrameEnd (its
  /// capture anchor when stamped, else admission, else delivery).
  /// Atomic: read by the scrape-time freshness collector while
  /// producers keep ingesting.
  std::atomic<uint64_t> last_frame_fresh_wall_us{0};
  /// Scrape-time freshness gauge and the per-source stage series
  /// (send, journal, total), resolved once at stream registration;
  /// every trace born here carries the stage series.
  Gauge* freshness_gauge = nullptr;
  /// Scrape-time node count of `index` (null without a shared
  /// restriction).
  Gauge* index_nodes_gauge = nullptr;
  std::shared_ptr<const SourceStageHistograms> stages;

  /// One cascade tree at the resolution of the stream's reference
  /// lattice serves every region registered against the stream.
  void BuildSharedRestriction() {
    auto tree = std::make_unique<CascadeTree>(desc.reference_lattice());
    index = tree.get();
    shared = std::make_unique<SharedRestrictionOp>(std::move(tree));
  }

  Status Consume(const StreamEvent& event) override {
    if (store_sink) {
      // Never fails (store errors are counted and logged inside) —
      // the live chain does not stall because the disk is unhappy.
      GEOSTREAMS_RETURN_IF_ERROR(store_sink->Consume(event));
    }
    for (EventSink* t : direct_targets) {
      GEOSTREAMS_RETURN_IF_ERROR(t->Consume(event));
    }
    if (shared && shared->num_queries() > 0) {
      return shared->Consume(event);
    }
    if (shared && event.kind == EventKind::kStreamEnd) {
      return shared->Consume(event);
    }
    return Status::OK();
  }
};

/// Shields ingest fan-out from a failed query: a quarantined
/// pipeline's Enqueue returns that pipeline's own error, which must
/// not abort delivery to the remaining (healthy) queries. The error
/// stays observable through QueryHealth/QueryError and the scheduler's
/// `rejected` counter.
class DsmsServer::IsolatedEntrySink : public EventSink {
 public:
  explicit IsolatedEntrySink(EventSink* entry) : entry_(entry) {}

  Status Consume(const StreamEvent& event) override {
    Status st = entry_->Consume(event);
    if (!st.ok() && !warned_) {
      warned_ = true;
      GEOSTREAMS_LOG(kWarning) << "query pipeline rejects events: "
                            << st.ToString();
    }
    return Status::OK();
  }

 private:
  EventSink* entry_;
  bool warned_ = false;
};

/// The ingest boundary (Fig. 3's arrow from the stream generator into
/// the server). Every event is fanned out into the query pipelines
/// under the server's state lock in shared mode, so producers and the
/// control plane (network sessions registering queries) can run
/// concurrently; the lock is released before the scheduler runs any
/// plan. With verify_ingest_checksums on, a batch whose attached
/// FNV-1a digest does not match its content is dead-lettered here —
/// it never enters any query chain, and the producer keeps streaming.
class DsmsServer::GuardedIngestSink : public EventSink {
 public:
  GuardedIngestSink(DsmsServer* server, SourceState* source)
      : server_(server), source_(source) {}

  /// Enqueues the event into every interested pipeline, then (with
  /// zero workers) runs them on this thread before returning.
  Status Consume(const StreamEvent& event) override {
    const Status st = FanOut(event);
    server_->scheduler_->RunPending();
    return st;
  }

 private:
  Status FanOut(const StreamEvent& event) {
    std::shared_lock<std::shared_mutex> lock(server_->state_mu_);
    {
      std::lock_guard<std::mutex> boundary(source_->boundary_mu);
      if (source_->quarantined) {
        return Status::FailedPrecondition(StringPrintf(
            "source '%s' quarantined: %s", source_->desc.name().c_str(),
            source_->quarantine_error.message().c_str()));
      }
    }
    if (server_->options_.verify_ingest_checksums &&
        event.kind == EventKind::kPointBatch && event.batch &&
        !event.batch->ChecksumValid()) {
      const Status error = Status::FailedPrecondition(StringPrintf(
          "ingest checksum mismatch on %s (frame %lld, %zu points)",
          source_->desc.name().c_str(),
          static_cast<long long>(event.batch->frame_id),
          event.batch->size()));
      std::lock_guard<std::mutex> boundary(source_->boundary_mu);
      ++source_->checksum_failures;
      source_->boundary_dead_letters->Push(event, error);
      if (!source_->warned_corrupt) {
        source_->warned_corrupt = true;
        GEOSTREAMS_LOG(kWarning) << error.ToString()
                                 << " (further corruption logged once)";
      }
      return Status::OK();  // shed at the boundary; downlink continues
    }
    const size_t sample_every = server_->options_.trace_sample_every;
    bool traced = false;
    if (sample_every > 0) {
      if (event.kind == EventKind::kPointBatch) {
        const uint64_t tick =
            source_->trace_ticks.fetch_add(1, std::memory_order_relaxed);
        traced = tick % sample_every == 0;
      } else if (event.kind == EventKind::kFrameEnd &&
                 (event.anchors.capture_wall_us != 0 ||
                  event.anchors.admit_wall_us != 0)) {
        // The latency plane is per-frame: every anchored FrameEnd
        // (one arriving through the ingest session, which stamps
        // admission) is traced so its stage segments land in the
        // `geostreams_e2e_latency_us` histograms. In-process events
        // carry no anchors and keep the pre-existing behavior.
        traced = true;
      }
    }
    const Status st =
        traced ? ConsumeTraced(event) : source_->Consume(event);
    if (st.ok() && event.kind == EventKind::kFrameEnd) {
      const uint64_t stamp =
          event.anchors.capture_wall_us != 0 ? event.anchors.capture_wall_us
          : event.anchors.admit_wall_us != 0 ? event.anchors.admit_wall_us
                                             : TraceWallNowUs();
      source_->last_frame_fresh_wall_us.store(stamp,
                                              std::memory_order_relaxed);
    }
    return st;
  }

  /// Fans out one sampled event with a fresh TraceContext attached.
  /// The context just rides the event: the scheduler forks it per
  /// pipeline at enqueue and does all the timing.
  Status ConsumeTraced(const StreamEvent& event) {
    StreamEvent traced = event;
    traced.trace = std::make_shared<TraceContext>(
        server_->next_trace_id_.fetch_add(1, std::memory_order_relaxed),
        source_->desc.name());
    traced.trace->SetIngestAnchors(event.anchors.capture_wall_us,
                                   event.anchors.admit_wall_us,
                                   event.anchors.durable_wall_us);
    traced.trace->set_source_stages(source_->stages);
    return source_->Consume(traced);
  }

  DsmsServer* server_;
  SourceState* source_;
};

struct DsmsServer::QueryState {
  QueryId id = 0;
  std::string text;
  ExprPtr optimized;
  std::unique_ptr<DeliveryOp> delivery;
  NullSink null_sink;
  std::unique_ptr<ExecutablePlan> plan;
  /// Isolation wrappers around the scheduler entry sinks.
  std::vector<std::unique_ptr<IsolatedEntrySink>> isolated;
  /// The query's scheduler pipeline; all of the plan's inputs share
  /// it, so one thread at a time drives the plan.
  size_t pipeline = 0;

  bool is_derived = false;
  std::string derived_name;
  /// Set (under the exclusive lock) by the UnregisterQuery call that
  /// claimed this query; a concurrent second unregister backs off.
  bool unregistering = false;

  struct Peeled {
    std::string source;
    RegionPtr region;
    std::string input_name;
    QueryId shared_id = 0;
  };
  std::vector<Peeled> peeled;
  /// Direct wirings (source name -> plan input) for unregistration.
  std::vector<std::pair<std::string, EventSink*>> direct;

  /// Cut-over gates, one per input in plan input order, wired
  /// between the sources and the entries.
  std::vector<std::unique_ptr<CatchUpGate>> gates;
  /// True until the replay has armed every gate; blocks
  /// UnregisterQuery racing the replay, which holds raw pointers into
  /// this query and clears the flag without the state lock.
  std::atomic<bool> catching_up{false};
};

DsmsServer::DsmsServer(DsmsOptions options) : options_(options) {
  event_log_ = std::make_unique<EventLog>(options_.event_log_capacity);
  event_log_->Append(EventSeverity::kInfo, "server", "start", "");
  if (!options_.journal_dir.empty() || !options_.store_dir.empty()) {
    // One governor watches the whole storage plane: both subsystems
    // admit writes through it, and either one's ENOSPC/EIO degrades
    // them together (they share the filesystem).
    StorageGovernorOptions gopts = options_.storage_governor;
    if (gopts.probe_dir.empty()) {
      gopts.probe_dir = !options_.journal_dir.empty() ? options_.journal_dir
                                                      : options_.store_dir;
    }
    if (!gopts.file_factory) {
      gopts.file_factory = options_.journal.file_factory
                               ? options_.journal.file_factory
                               : options_.store.file_factory;
    }
    gopts.metrics = &metrics_registry_;
    gopts.event_log = event_log_.get();
    governor_ = std::make_unique<StorageGovernor>(std::move(gopts));
  }
  if (!options_.journal_dir.empty()) {
    JournalOptions jopts = options_.journal;
    jopts.dir = options_.journal_dir;
    jopts.metrics = &metrics_registry_;
    jopts.governor = governor_.get();
    Result<std::unique_ptr<IngestJournal>> journal =
        IngestJournal::Open(std::move(jopts));
    if (!journal.ok()) {
      // A constructor cannot fail; a server without durability beats
      // no server, but say so at kError volume.
      GEOSTREAMS_LOG(kError)
          << "ingest journal disabled: could not open "
          << options_.journal_dir << ": " << journal.status().ToString();
    } else {
      journal_ = std::move(*journal);
      const JournalRecovery& rec = journal_->recovery();
      GEOSTREAMS_LOG(kInfo)
          << "ingest journal at " << options_.journal_dir << " ("
          << FsyncPolicyName(journal_->options().fsync) << " fsync): "
          << rec.sources.size() << " sources, " << rec.records_replayed
          << " records recovered, " << rec.torn_tails
          << " torn tails truncated (" << rec.torn_bytes << " bytes), "
          << rec.corrupt_regions << " corrupt regions quarantined";
    }
  }
  if (!options_.store_dir.empty()) {
    TileStoreOptions sopts = options_.store;
    sopts.dir = options_.store_dir;
    sopts.metrics = &metrics_registry_;
    sopts.governor = governor_.get();
    sopts.event_log = event_log_.get();
    const bool retention_configured =
        sopts.retention_max_bytes > 0 || sopts.retention_max_frames > 0 ||
        sopts.retention_max_age_ms > 0;
    if (sopts.gc_interval_ms == 0 && retention_configured) {
      sopts.gc_interval_ms = 1000;  // keep pruning off the ingest path
    }
    Result<std::unique_ptr<TileStore>> store = TileStore::Open(std::move(sopts));
    if (!store.ok()) {
      // Same contract as the journal: a server without history beats
      // no server, but say so at kError volume.
      GEOSTREAMS_LOG(kError)
          << "tile store disabled: could not open " << options_.store_dir
          << ": " << store.status().ToString();
    } else {
      store_ = std::move(*store);
      const TileStoreRecovery& rec = store_->recovery();
      GEOSTREAMS_LOG(kInfo)
          << "tile store at " << options_.store_dir << ": "
          << rec.frames_recovered << " frames (" << rec.tile_pages_recovered
          << " tile pages) recovered, " << rec.incomplete_frames
          << " uncommitted frames dropped, " << rec.torn_tails
          << " torn tails truncated (" << rec.torn_bytes << " bytes), "
          << rec.corrupt_regions << " corrupt regions skipped";
      m_catchup_frames_ = metrics_registry_.GetCounter(
          "geostreams_store_catchup_frames_total",
          "Stored frames replayed into late-subscriber query plans");
      m_seam_frames_ = metrics_registry_.GetCounter(
          "geostreams_store_seam_frames_total",
          "Frames delivered by cut-over seam replays (stored->live)");
      m_catchup_truncated_ = metrics_registry_.GetCounter(
          "geostreams_store_catchup_truncated_total",
          "Catch-up registrations whose SINCE bound reached below "
          "retained history");
      Gauge* lag = metrics_registry_.GetGauge(
          "geostreams_catchup_lag_frames",
          "Stored frames still to replay before in-flight SINCE queries "
          "cut over to the live stream (summed over registrations)");
      collectors_.push_back(metrics_registry_.AddCollector([this, lag] {
        lag->Set(catchup_backlog_.load(std::memory_order_relaxed));
      }));
    }
  }
  SchedulerOptions sched;
  sched.policy = options_.worker_policy;
  sched.queue_capacity = options_.worker_queue_capacity;
  sched.workers = options_.workers;
  sched.supervisor = options_.worker_supervisor;
  sched.dead_letter_capacity = options_.dead_letter_capacity;
  sched.dead_letter_max_bytes = options_.dead_letter_max_bytes;
  sched.memory = &memory_;
  sched.metrics = &metrics_registry_;
  sched.trace_ring_capacity = options_.trace_ring_capacity;
  sched.event_log = event_log_.get();
  scheduler_ = std::make_unique<QueryScheduler>(sched);
  Status started = scheduler_->Start();  // fails only if already running
  (void)started;
  GEOSTREAMS_LOG(kInfo) << "query scheduler: " << options_.workers
                        << " worker threads (0 = caller runs), "
                        << SchedulingPolicyName(sched.policy);
  RegisterCollectors();
}

void DsmsServer::RegisterSourceObservables(SourceState* source) {
  const std::string& name = source->desc.name();
  source->freshness_gauge = metrics_registry_.GetGauge(
      "geostreams_source_freshness_us",
      "Age of the newest delivered frame per source (now minus its "
      "capture — or, unstamped, delivery — wall clock)",
      {{"source", name}});
  source->stages = SourceStageHistograms::Resolve(&metrics_registry_, name);
  if (source->index != nullptr) {
    source->index_nodes_gauge = metrics_registry_.GetGauge(
        "geostreams_mqo_index_nodes",
        "Nodes of the cascade tree indexing the source's registered "
        "regions",
        {{"source", name}});
  }
}

void DsmsServer::RegisterCollectors() {
  MetricsRegistry& reg = metrics_registry_;
  // Scheduler counters live behind the scheduler mutex; mirror them
  // into the registry at scrape time rather than double-counting in
  // the enqueue/claim paths.
  Counter* enqueued = reg.GetCounter("geostreams_scheduler_enqueued_total",
                                     "Events accepted into pipeline queues");
  Counter* processed = reg.GetCounter(
      "geostreams_scheduler_processed_total",
      "Events delivered through operator chains by the scheduler");
  Counter* shed = reg.GetCounter(
      "geostreams_scheduler_shed_total",
      "Point batches shed because a pipeline queue was full");
  Counter* control_overflow =
      reg.GetCounter("geostreams_scheduler_control_overflow_total",
                     "Control events admitted above queue capacity");
  Counter* rejected =
      reg.GetCounter("geostreams_scheduler_rejected_total",
                     "Enqueues refused by quarantined pipelines");
  Counter* discarded =
      reg.GetCounter("geostreams_scheduler_discarded_total",
                     "Queued events thrown away when a pipeline quarantined");
  Counter* restarts =
      reg.GetCounter("geostreams_pipeline_restarts_total",
                     "Supervised transient redelivery attempts");
  Counter* dead_letters =
      reg.GetCounter("geostreams_pipeline_dead_letters_total",
                     "Poison events dropped by the supervisor");
  Gauge* queued = reg.GetGauge("geostreams_scheduler_queued",
                               "Events currently waiting in pipeline queues");
  Gauge* queries = reg.GetGauge("geostreams_queries",
                                "Registered queries (derived views included)");
  Gauge* degraded = reg.GetGauge("geostreams_queries_degraded",
                                 "Queries currently DEGRADED");
  Gauge* quarantined = reg.GetGauge("geostreams_queries_quarantined",
                                    "Queries currently QUARANTINED");
  Gauge* mem_bytes = reg.GetGauge("geostreams_memory_tracked_bytes",
                                  "Bytes currently tracked across operators");
  Gauge* mem_peak = reg.GetGauge("geostreams_memory_high_water_bytes",
                                 "Largest tracked-byte total ever observed");
  Counter* checksum_failures =
      reg.GetCounter("geostreams_ingest_checksum_failures_total",
                     "Corrupt batches rejected at the ingest boundary");
  collectors_.push_back(reg.AddCollector([=, this] {
    const ScheduledQueueStats total = scheduler_->AggregateStats();
    enqueued->Set(total.enqueued);
    processed->Set(total.processed);
    shed->Set(total.dropped);
    control_overflow->Set(total.control_overflow);
    rejected->Set(total.rejected);
    discarded->Set(total.discarded);
    restarts->Set(total.restarts);
    dead_letters->Set(total.dead_letters);
    queued->Set(total.queued);
    uint64_t n_queries = 0, n_degraded = 0, n_quarantined = 0;
    {
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      n_queries = queries_.size();
      const uint64_t now = TraceWallNowUs();
      for (const auto& [name, source] : sources_) {
        if (source->index_nodes_gauge != nullptr) {
          source->index_nodes_gauge->Set(source->index->node_count());
        }
        if (source->freshness_gauge == nullptr) continue;
        const uint64_t stamp =
            source->last_frame_fresh_wall_us.load(std::memory_order_relaxed);
        source->freshness_gauge->Set(
            stamp != 0 && now > stamp ? now - stamp : 0);
      }
      for (const auto& [id, query] : queries_) {
        switch (scheduler_->Health(query->pipeline)) {
          case PipelineHealth::kDegraded: ++n_degraded; break;
          case PipelineHealth::kQuarantined: ++n_quarantined; break;
          default: break;
        }
      }
    }
    queries->Set(n_queries);
    degraded->Set(n_degraded);
    quarantined->Set(n_quarantined);
    mem_bytes->Set(memory_.TotalBytes());
    mem_peak->Set(memory_.HighWaterBytes());
    checksum_failures->Set(IngestChecksumFailures());
  }));
}

DsmsServer::~DsmsServer() {
  // Stop before queries_ (destroyed first) takes the plans away.
  Status ignored = scheduler_->Stop();
  (void)ignored;
}

Status DsmsServer::RegisterStream(const GeoStreamDescriptor& desc) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  GEOSTREAMS_RETURN_IF_ERROR(catalog_.Register(desc));
  auto source = std::make_unique<SourceState>();
  source->desc = desc;
  if (options_.shared_restriction) source->BuildSharedRestriction();
  source->guard = std::make_unique<GuardedIngestSink>(this, source.get());
  RegisterSourceObservables(source.get());
  if (store_ != nullptr) {
    source->store_sink =
        std::make_unique<StoreIngestSink>(store_.get(), desc.name());
  }
  source->boundary_dead_letters = std::make_unique<DeadLetterQueue>(
      options_.dead_letter_capacity, options_.dead_letter_max_bytes);
  source->boundary_dead_letters->BindMemoryTracker(&memory_,
                                                   "dlq." + desc.name());
  if (journal_ != nullptr) {
    // Durable dead letters: reload what past incarnations quarantined
    // (including corrupt journal regions recovery found) and mirror
    // every future push to disk.
    Result<DeadLetterStore*> store = journal_->DeadLettersFor(desc.name());
    if (!store.ok()) {
      GEOSTREAMS_LOG(kWarning)
          << "dead-letter store unavailable for " << desc.name() << ": "
          << store.status().ToString();
    } else {
      source->boundary_dead_letters->Restore((*store)->recovered());
      DeadLetterStore* dls = *store;
      const std::string name = desc.name();
      source->boundary_dead_letters->SetPersistHook(
          [dls, name](const DeadLetter& letter) {
            Status st = dls->Append(name, letter);
            if (!st.ok()) {
              GEOSTREAMS_LOG(kWarning)
                  << "dead-letter persist failed for " << name << ": "
                  << st.ToString();
            }
          });
    }
  }
  sources_.emplace(desc.name(), std::move(source));
  GEOSTREAMS_LOG(kInfo) << "registered stream " << desc.ToString();
  return Status::OK();
}

ExprPtr DsmsServer::PeelLeafRestrictions(QueryId id, ExprPtr expr,
                                         QueryState* query) {
  if (!expr) return expr;
  if (expr->kind == ExprKind::kSpatialRestrict &&
      expr->child->kind == ExprKind::kStreamRef &&
      sources_.count(expr->child->stream_name) > 0) {
    QueryState::Peeled peeled;
    peeled.source = expr->child->stream_name;
    peeled.region = expr->region;
    peeled.input_name = StringPrintf("q%lld.in%zu", static_cast<long long>(id),
                                     query->peeled.size());
    // Synthetic leaf: carries the original stream's descriptor so the
    // planner can keep building without re-analysis.
    ExprPtr leaf = MakeStreamRef(peeled.input_name);
    leaf->out_desc = expr->child->out_desc;
    leaf->analyzed = true;
    query->peeled.push_back(std::move(peeled));
    return leaf;
  }
  expr->child = PeelLeafRestrictions(id, expr->child, query);
  expr->right = PeelLeafRestrictions(id, expr->right, query);
  return expr;
}

Result<QueryId> DsmsServer::RegisterQuery(const std::string& query_text,
                                          FrameCallback callback) {
  return RegisterQuery(query_text, std::move(callback), kLiveOnly);
}

Result<QueryId> DsmsServer::RegisterQuery(const std::string& query_text,
                                          FrameCallback callback,
                                          const CatchUpOptions& catch_up) {
  return Register(query_text, std::move(callback), "", catch_up);
}

Result<QueryId> DsmsServer::RegisterDerivedStream(
    const std::string& name, const std::string& query_text) {
  if (name.empty()) {
    return Status::InvalidArgument("derived stream needs a name");
  }
  return Register(query_text, nullptr, name, kLiveOnly);
}

Result<QueryId> DsmsServer::Register(const std::string& query_text,
                                     FrameCallback callback,
                                     const std::string& derived_name,
                                     const CatchUpOptions& catch_up) {
  // Register the query with every input wired behind an unarmed
  // CatchUpGate: live events reach the gates but are dropped until
  // this thread has replayed the store and armed them. `catching_up`
  // blocks a racing UnregisterQuery from destroying what the replay
  // holds raw pointers to, so `query` stays valid until it is cleared.
  QueryId id = 0;
  QueryState* query = nullptr;
  // Each input's store watermark, read under the exclusive lock: every
  // frame above it commits after registration, so its events reach
  // the gate and it is delivered whatever `since` says.
  std::vector<int64_t> marks;
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    GEOSTREAMS_ASSIGN_OR_RETURN(
        id, RegisterInternal(query_text, std::move(callback), derived_name));
    query = queries_.at(id).get();
    if (catch_up.on_registered) catch_up.on_registered(id);
    for (const auto& gate : query->gates) {
      marks.push_back(store_ != nullptr
                          ? store_->Watermark(gate->source())
                          : std::numeric_limits<int64_t>::min());
      // Nothing to replay below the mark (a live query): arm now.
      // Ingest is excluded, so Arm cannot fail, and no live event
      // (a StreamEnd among them) falls into an unarmed window.
      if (catch_up.since > marks.back()) gate->Arm(marks.back());
    }
  }
  const std::vector<std::unique_ptr<CatchUpGate>>& gates = query->gates;

  // The replay runs with no lock held, so ingest keeps flowing. With
  // zero workers each frame runs as it is replayed; with a pool, Flush
  // periodically so a deep history cannot overflow the scheduler
  // queues (shed batches would be gaps).
  size_t replayed = 0;
  auto replay_frame = [&](const CatchUpGate& gate, int64_t frame_id) {
    Status st = store_->ScanFrame(gate.source(), frame_id, gate.scan(),
                                  gate.downstream());
    if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
    scheduler_->RunPending();
    if (m_catchup_frames_) m_catchup_frames_->Increment();
    return ++replayed % 64 == 0 ? Flush() : Status::OK();
  };
  // This registration's share of the lag gauge still to retire.
  uint64_t backlog = 0;
  const Status replay = [&]() -> Status {
    // History up to each input's watermark, merged ascending by frame
    // id across inputs so multi-stream plans see their operands in
    // live order. Without a store there is none.
    std::vector<std::pair<int64_t, size_t>> items;  // (frame id, gate)
    for (size_t g = 0; store_ != nullptr && g < gates.size(); ++g) {
      const std::string& source = gates[g]->source();
      // Retention may have pruned history the SINCE bound asks for.
      // FrameIds clamps to what exists; the truncation must not pass
      // silently.
      const StoreHorizon horizon = store_->Horizon(source);
      if (horizon.frames_pruned > 0 && catch_up.since <= horizon.pruned_upto) {
        if (m_catchup_truncated_) m_catchup_truncated_->Increment();
        GEOSTREAMS_LOG(kWarning)
            << "catch-up on '" << source << "' truncated: SINCE "
            << catch_up.since << " reaches below retained history (oldest "
            << "retained frame "
            << (horizon.oldest_frame_id ==
                        std::numeric_limits<int64_t>::max()
                    ? horizon.pruned_upto + 1
                    : horizon.oldest_frame_id)
            << ", " << horizon.frames_pruned << " frames pruned)";
      }
      for (int64_t fid : store_->FrameIds(source, catch_up.since, marks[g])) {
        items.emplace_back(fid, g);
      }
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    backlog = items.size();
    catchup_backlog_.fetch_add(backlog, std::memory_order_relaxed);
    for (const auto& [frame_id, g] : items) {
      GEOSTREAMS_RETURN_IF_ERROR(replay_frame(*gates[g], frame_id));
      --backlog;
      catchup_backlog_.fetch_sub(1, std::memory_order_relaxed);
    }
    // Arm each gate at the watermark its input was replayed up to (a
    // gate armed under the lock stays as it is). A frame that
    // committed meanwhile moved the watermark and Arm refuses: replay
    // the new frames and try again. Neither the state lock nor the
    // gate mutex is held while the store is scanned.
    for (size_t g = 0; g < gates.size(); ++g) {
      while (!gates[g]->Arm(marks[g])) {
        const int64_t lo = marks[g] + 1;
        marks[g] = store_->Watermark(gates[g]->source());
        for (int64_t fid : store_->FrameIds(gates[g]->source(), lo, marks[g])) {
          GEOSTREAMS_RETURN_IF_ERROR(replay_frame(*gates[g], fid));
        }
      }
    }
    return Status::OK();
  }();
  catchup_backlog_.fetch_sub(backlog, std::memory_order_relaxed);
  scheduler_->RunPending();
  // From here on another thread may unregister the query.
  query->catching_up.store(false, std::memory_order_release);
  if (!replay.ok()) {
    Status ignored = UnregisterQuery(id);
    (void)ignored;
    return replay;
  }
  if (replayed > 0) {
    GEOSTREAMS_LOG(kInfo) << "query " << id << " caught up: " << replayed
                          << " stored frames replayed, live at the watermark";
    // Cut-over wall anchor: the moment every gate was armed. Later live
    // frames' e2e latencies are comparable against external logs from
    // this instant on.
    event_log_->Append(
        EventSeverity::kInfo, "server", "catchup-cutover",
        StringPrintf("query=%lld replayed=%zu wall_us=%llu",
                     static_cast<long long>(id), replayed,
                     static_cast<unsigned long long>(TraceWallNowUs())));
  }
  return id;
}

Result<QueryId> DsmsServer::RegisterInternal(const std::string& query_text,
                                             FrameCallback callback,
                                             const std::string& derived_name) {
  if (!derived_name.empty() && sources_.count(derived_name) > 0) {
    return Status::AlreadyExists("stream already registered: " + derived_name);
  }
  GEOSTREAMS_ASSIGN_OR_RETURN(ExprPtr parsed, ParseQuery(query_text));
  GEOSTREAMS_RETURN_IF_ERROR(AnalyzeQuery(catalog_, parsed));
  GEOSTREAMS_ASSIGN_OR_RETURN(
      ExprPtr optimized, OptimizeQuery(catalog_, parsed, options_.optimizer));
  if (derived_name.empty() &&
      optimized->out_desc.organization() == PointOrganization::kPointByPoint) {
    // Delivery assembles whole frames; a point-by-point result never
    // opens one. A continuous view over such a stream stays allowed.
    return Status::InvalidArgument(
        "delivery requires framed input (the query's result is "
        "point-by-point; wrap it in a view or a framed operator)");
  }

  const QueryId id = next_query_id_++;
  auto query = std::make_unique<QueryState>();
  query->id = id;
  query->text = query_text;
  query->optimized = optimized;

  EventSink* plan_sink = nullptr;
  if (derived_name.empty()) {
    DeliveryOptions dopts;
    dopts.encode_png = options_.encode_png;
    query->delivery = std::make_unique<DeliveryOp>(
        StringPrintf("q%lld.delivery", static_cast<long long>(id)),
        std::move(callback), dopts);
    query->delivery->BindOutput(&query->null_sink);
    query->delivery->BindMemoryTracker(&memory_);
    plan_sink = query->delivery->input(0);
  } else {
    // Continuous view: the plan output feeds a brand-new source that
    // later queries subscribe to.
    query->is_derived = true;
    query->derived_name = derived_name;
    const GeoStreamDescriptor view_desc =
        optimized->out_desc.WithName(derived_name);
    GEOSTREAMS_RETURN_IF_ERROR(catalog_.Register(view_desc));
    auto source = std::make_unique<SourceState>();
    source->desc = view_desc;
    source->derived = true;
    if (options_.shared_restriction) source->BuildSharedRestriction();
    source->guard = std::make_unique<GuardedIngestSink>(this, source.get());
    RegisterSourceObservables(source.get());
    if (store_ != nullptr) {
      // Derived streams (continuous views) are history too: late
      // subscribers to e.g. a shared NDVI view catch up the same way.
      source->store_sink =
          std::make_unique<StoreIngestSink>(store_.get(), derived_name);
    }
    source->boundary_dead_letters = std::make_unique<DeadLetterQueue>(
        options_.dead_letter_capacity, options_.dead_letter_max_bytes);
    source->boundary_dead_letters->BindMemoryTracker(&memory_,
                                                     "dlq." + derived_name);
    // Plans never run under the state lock, so the view's fan-out
    // takes it itself, through the guard.
    plan_sink = source->guard.get();
    sources_.emplace(derived_name, std::move(source));
  }

  ExprPtr plan_expr = CloneExpr(optimized);
  if (options_.shared_restriction) {
    plan_expr = PeelLeafRestrictions(id, plan_expr, query.get());
  }
  // Temporal IO-pruning hints for the catch-up replay, keyed by the
  // plan's leaf names (synthetic for peeled inputs).
  std::map<std::string, std::vector<TimeSet>> time_hints;
  std::map<std::string, int> leaf_count;
  CollectTimeHints(plan_expr, {}, &time_hints, &leaf_count);
  for (const auto& [leaf, count] : leaf_count) {
    if (count > 1) time_hints[leaf].clear();
  }
  GEOSTREAMS_ASSIGN_OR_RETURN(query->plan,
                              BuildPlan(plan_expr, plan_sink, &memory_));

  // Every operator on the chain feeds the kind-labeled latency
  // histogram family whenever a traced event passes through it.
  for (const auto& op : query->plan->operators()) {
    op->BindLatencyHistogram(metrics_registry_.GetHistogram(
        "geostreams_operator_latency_us", kOperatorLatencyHelp,
        {{"op", OpKindLabel(op->name())}}));
  }
  if (query->delivery) {
    query->delivery->BindLatencyHistogram(metrics_registry_.GetHistogram(
        "geostreams_operator_latency_us", kOperatorLatencyHelp,
        {{"op", "delivery"}}));
  }

  // Wire plan inputs to sources (peeled leaves via the shared
  // restriction index, the rest directly). Every plan input is wrapped
  // in a scheduler entry for the query's single pipeline: sources
  // enqueue cheaply, and the plan itself runs on whichever thread
  // claims the pipeline. Every input sits behind an unarmed
  // CatchUpGate until the registration's replay arms it, so the plan
  // sees each source from a frame boundary on.
  query->pipeline = scheduler_->AddPipelineGroup(
      StringPrintf("q%lld", static_cast<long long>(id)));
  // The delivery operator sits downstream of the plan (it is the
  // plan's sink, not one of its ops), so its assembler must be reset
  // explicitly or a restart would resume into a frame left open by
  // the fault (null for derived streams).
  ExecutablePlan* plan = query->plan.get();
  DeliveryOp* delivery = query->delivery.get();
  scheduler_->SetPipelineReset(query->pipeline, [plan, delivery] {
    plan->Reset();
    if (delivery) delivery->Reset();
  });
  for (const std::string& input_name : query->plan->input_names()) {
    query->isolated.push_back(std::make_unique<IsolatedEntrySink>(
        scheduler_->AddPipelineInput(query->pipeline,
                                     query->plan->input(input_name))));
    EventSink* entry = query->isolated.back().get();
    auto peeled_it = std::find_if(
        query->peeled.begin(), query->peeled.end(),
        [&](const QueryState::Peeled& p) {
          return p.input_name == input_name;
        });
    const bool peeled = peeled_it != query->peeled.end();
    const std::string& source_name =
        peeled ? peeled_it->source : input_name;
    auto source_it = sources_.find(source_name);
    if (source_it == sources_.end()) {
      return Status::NotFound("query reads unknown stream: " + input_name);
    }
    StoreScan scan;
    if (peeled) scan.region = peeled_it->region;
    scan.times = time_hints[input_name];
    query->gates.push_back(std::make_unique<CatchUpGate>(
        entry, store_.get(), source_name, std::move(scan), m_seam_frames_,
        source_it->second->desc.organization() !=
            PointOrganization::kPointByPoint));
    entry = query->gates.back().get();
    if (peeled) {
      peeled_it->shared_id = id * 1000 +
          static_cast<QueryId>(peeled_it - query->peeled.begin());
      GEOSTREAMS_RETURN_IF_ERROR(source_it->second->shared->RegisterQuery(
          peeled_it->shared_id, peeled_it->region, entry));
    } else {
      source_it->second->direct_targets.push_back(entry);
      query->direct.emplace_back(input_name, entry);
    }
  }
  query->catching_up.store(true, std::memory_order_relaxed);

  GEOSTREAMS_LOG(kInfo) << "registered "
                        << (query->is_derived ? "derived stream " : "query ")
                        << id << ": " << query_text;
  queries_.emplace(id, std::move(query));
  return id;
}

Status DsmsServer::UnregisterQuery(QueryId id) {
  size_t pipeline = 0;
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    auto it = queries_.find(id);
    if (it == queries_.end()) {
      return Status::NotFound(StringPrintf(
          "query %lld not registered", static_cast<long long>(id)));
    }
    QueryState& query = *it->second;
    if (query.is_derived) {
      return Status::FailedPrecondition(
          "derived stream '" + query.derived_name +
          "' cannot be unregistered (other queries may depend on it)");
    }
    if (query.unregistering) {
      return Status::FailedPrecondition(StringPrintf(
          "query %lld is already being unregistered",
          static_cast<long long>(id)));
    }
    if (query.catching_up.load(std::memory_order_acquire)) {
      // The catch-up replay holds raw pointers to this query's entry
      // sinks without any lock; tearing them down now would be a
      // use-after-free. Retryable — the replay window is short.
      return Status::FailedPrecondition(StringPrintf(
          "query %lld is still catching up from the store; retry",
          static_cast<long long>(id)));
    }
    query.unregistering = true;
    for (const auto& peeled : query.peeled) {
      auto source_it = sources_.find(peeled.source);
      if (source_it != sources_.end() && source_it->second->shared) {
        Status st = source_it->second->shared->UnregisterQuery(
            peeled.shared_id);
        if (!st.ok()) return st;
      }
    }
    for (const auto& [source_name, entry] : query.direct) {
      auto source_it = sources_.find(source_name);
      if (source_it == sources_.end()) continue;
      auto& targets = source_it->second->direct_targets;
      targets.erase(std::remove(targets.begin(), targets.end(), entry),
                    targets.end());
    }
    pipeline = query.pipeline;
  }
  // The query is detached from every source; remove its queue and
  // entry sinks before the plan they target is destroyed. Still-queued
  // events are discarded — the client is gone. This waits for any
  // in-flight event, so it must run with the state lock RELEASED: the
  // thread mid-event may be taking the shared lock to feed a derived
  // stream (see state_mu_'s comment). The query is already invisible
  // to new producers (`unregistering` + detached sources), so nothing
  // re-wires it while we wait.
  GEOSTREAMS_RETURN_IF_ERROR(scheduler_->RemovePipeline(pipeline));
  // No event can reach the pipeline any more, so nothing re-creates
  // its stage series; frames still queued in client writers observe
  // into their own shared handles.
  metrics_registry_.RemoveSeries(
      kE2eLatencyFamily, "query",
      StringPrintf("q%lld", static_cast<long long>(id)));
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  queries_.erase(id);
  return Status::OK();
}

Status DsmsServer::RestartQuery(QueryId id) {
  size_t pipeline = 0;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    auto it = queries_.find(id);
    if (it == queries_.end()) {
      return Status::NotFound(StringPrintf(
          "query %lld not registered", static_cast<long long>(id)));
    }
    pipeline = it->second->pipeline;
  }
  // RestartPipeline waits for the pipeline's in-flight event; run it
  // with the state lock released (same reasoning as UnregisterQuery).
  GEOSTREAMS_RETURN_IF_ERROR(scheduler_->RestartPipeline(pipeline));
  // A redelivery that was waiting out a backoff is claimable now.
  scheduler_->RunPending();
  return Status::OK();
}

Result<std::vector<DeadLetter>> DsmsServer::DeadLetters(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  return scheduler_->DeadLetters(it->second->pipeline);
}

Result<std::vector<DeadLetter>> DsmsServer::SourceDeadLetters(
    const std::string& stream) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = sources_.find(stream);
  if (it == sources_.end()) {
    return Status::NotFound("stream not registered: " + stream);
  }
  std::lock_guard<std::mutex> boundary(it->second->boundary_mu);
  return it->second->boundary_dead_letters->Snapshot();
}

Status DsmsServer::QuarantineSource(const std::string& stream,
                                    const Status& error) {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = sources_.find(stream);
  if (it == sources_.end()) {
    return Status::NotFound("stream not registered: " + stream);
  }
  SourceState* source = it->second.get();
  if (source->derived) {
    return Status::InvalidArgument(
        "derived stream '" + stream +
        "' is fed by a query pipeline; restart the query instead");
  }
  std::lock_guard<std::mutex> boundary(source->boundary_mu);
  if (source->quarantined) return Status::OK();  // keep the first verdict
  source->quarantined = true;
  source->quarantine_error =
      error.ok() ? Status::Unavailable("source quarantined") : error;
  // Record the verdict where operators already look for boundary
  // trouble: the source's dead-letter queue (there is no poisoned
  // event for silence, so the entry carries a stream-end marker).
  source->boundary_dead_letters->Push(StreamEvent::StreamEnd(),
                                      source->quarantine_error);
  GEOSTREAMS_LOG(kWarning) << "source '" << stream << "' quarantined: "
                           << source->quarantine_error.ToString();
  return Status::OK();
}

Status DsmsServer::RestartSource(const std::string& stream) {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = sources_.find(stream);
  if (it == sources_.end()) {
    return Status::NotFound("stream not registered: " + stream);
  }
  std::lock_guard<std::mutex> boundary(it->second->boundary_mu);
  it->second->quarantined = false;
  it->second->quarantine_error = Status::OK();
  return Status::OK();
}

Status DsmsServer::SourceError(const std::string& stream) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = sources_.find(stream);
  if (it == sources_.end()) {
    return Status::NotFound("stream not registered: " + stream);
  }
  std::lock_guard<std::mutex> boundary(it->second->boundary_mu);
  return it->second->quarantine_error;
}

uint64_t DsmsServer::IngestChecksumFailures() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  uint64_t total = 0;
  for (const auto& [name, source] : sources_) {
    std::lock_guard<std::mutex> boundary(source->boundary_mu);
    total += source->checksum_failures;
  }
  return total;
}

size_t DsmsServer::num_queries() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return queries_.size();
}

std::vector<QueryId> DsmsServer::QueryIds() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  std::vector<QueryId> ids;
  ids.reserve(queries_.size());
  for (const auto& [id, query] : queries_) ids.push_back(id);
  return ids;
}

Result<PipelineHealth> DsmsServer::QueryHealth(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  return scheduler_->Health(it->second->pipeline);
}

Status DsmsServer::QueryError(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  return scheduler_->PipelineError(it->second->pipeline);
}

Status DsmsServer::Flush() { return scheduler_->WaitIdle(); }

EventSink* DsmsServer::ingest(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = sources_.find(name);
  return it == sources_.end()
             ? nullptr
             : static_cast<EventSink*>(it->second->guard.get());
}

Status DsmsServer::EndAllStreams() {
  // Snapshot the guards first: each Consume takes the state lock in
  // shared mode itself, and a recursive shared acquisition while a
  // writer waits would deadlock. Sources are never removed, so the
  // snapshot cannot dangle.
  std::vector<GuardedIngestSink*> guards;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    for (auto& [name, source] : sources_) {
      // Derived streams receive their StreamEnd through the backing
      // plan when the base streams end.
      if (source->derived) continue;
      guards.push_back(source->guard.get());
    }
  }
  for (GuardedIngestSink* guard : guards) {
    GEOSTREAMS_RETURN_IF_ERROR(guard->Consume(StreamEvent::StreamEnd()));
  }
  return Flush();
}

Result<std::string> DsmsServer::Explain(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  return ExplainQuery(it->second->optimized);
}

Result<std::string> DsmsServer::ExplainAnalyze(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  return ExplainPlanMetrics(*it->second->plan);
}

Result<TraceRing::Snapshot> DsmsServer::QueryTraces(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  // Safe lock order: deliveries never hold the scheduler mutex while
  // taking state_mu_ (it is released around Consume), so querying the
  // scheduler under the shared state lock cannot deadlock.
  return scheduler_->Traces(it->second->pipeline);
}

std::string DsmsServer::SummaryLine() const {
  const ScheduledQueueStats total = scheduler_->AggregateStats();
  size_t n_queries = 0;
  uint64_t worst_freshness_us = 0;  // max frame age across live sources
  uint64_t worst_e2e_p95_us = 0;    // max per-source total-latency p95
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    n_queries = queries_.size();
    const uint64_t now = TraceWallNowUs();
    for (const auto& [name, source] : sources_) {
      const uint64_t stamp =
          source->last_frame_fresh_wall_us.load(std::memory_order_relaxed);
      if (stamp != 0 && now > stamp) {
        worst_freshness_us = std::max(worst_freshness_us, now - stamp);
      }
      worst_e2e_p95_us =
          std::max(worst_e2e_p95_us, E2eP95Us(*source->stages));
    }
  }
  std::string line = StringPrintf(
      "queries=%zu enqueued=%llu processed=%llu queued=%llu shed=%llu "
      "restarts=%llu dead_letters=%llu rejected=%llu mem=%lluB "
      "mem_peak=%lluB checksum_fail=%llu traces=%llu",
      n_queries, static_cast<unsigned long long>(total.enqueued),
      static_cast<unsigned long long>(total.processed),
      static_cast<unsigned long long>(total.queued),
      static_cast<unsigned long long>(total.dropped),
      static_cast<unsigned long long>(total.restarts),
      static_cast<unsigned long long>(total.dead_letters),
      static_cast<unsigned long long>(total.rejected),
      static_cast<unsigned long long>(memory_.TotalBytes()),
      static_cast<unsigned long long>(memory_.HighWaterBytes()),
      static_cast<unsigned long long>(IngestChecksumFailures()),
      static_cast<unsigned long long>(total.traces));
  line += StringPrintf(" freshness_us=%llu e2e_p95_us=%llu",
                       static_cast<unsigned long long>(worst_freshness_us),
                       static_cast<unsigned long long>(worst_e2e_p95_us));
  if (governor_ != nullptr) {
    line += StringPrintf(" storage=%s",
                         governor_->degraded() ? "DEGRADED" : "OK");
  }
  return line;
}

uint64_t DsmsServer::E2eP95Us(const SourceStageHistograms& stages) {
  return static_cast<uint64_t>(stages.total->Percentile(95));
}

uint64_t DsmsServer::SourceE2eP95Us(const std::string& source) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = sources_.find(source);
  return it == sources_.end() ? 0 : E2eP95Us(*it->second->stages);
}

Result<uint64_t> DsmsServer::FramesDelivered(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  if (!it->second->delivery) {
    return Status::FailedPrecondition(
        "derived streams have no delivery operator");
  }
  return it->second->delivery->frames_delivered();
}

}  // namespace geostreams
