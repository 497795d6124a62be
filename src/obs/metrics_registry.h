// System-wide metrics: counters, gauges, and latency histograms with
// Prometheus text exposition.
//
// The paper costs the query model in per-point processing time and
// per-operator buffered state (Secs. 3.1-3.3); the registry turns
// both — plus everything the runtime grew around them (scheduler
// queues, supervision, the ingest/client network planes) — into one
// scrapeable surface. Design constraints, in order:
//
//  1. Update paths are lock-light. Counter/Gauge/MetricHistogram updates
//     are relaxed atomics on pre-resolved pointers; the registry
//     mutex is taken only at registration and, at scrape time, for
//     the snapshot the exposition is formatted from (formatting runs
//     unlocked, so a back-to-back scraper cannot starve registration).
//  2. Series are stable. GetCounter/GetGauge/GetHistogram return the
//     same instance for the same (name, labels) forever; handles
//     never dangle even after the registering component is gone.
//     RemoveSeries drops a gone query's series; their users hold
//     shared handles (GetSharedHistogram), so nothing dangles.
//  3. Mirrored sources stay authoritative: one count per fact. Every
//     component that counts under its own lock — scheduler stats,
//     memory tracker, ingest journal, tile store, storage governor,
//     ingest sessions — counts once, into its own stats, and
//     registers a collector that copies those stats into its
//     counter/gauge families at scrape time. The hot path never
//     double-counts, and the exported series cannot drift from what
//     STATS/ISTATS report. The component drops its collector handle
//     in its destructor, so a registry that outlives it never calls
//     into freed memory. Only distributions stay live handles
//     (histograms are observed in place). The one exception is the
//     client-session aggregates: they sum over sessions that have
//     since disconnected, so they keep direct increments — a
//     collector summing the live sessions would run them backwards.
//
// Naming scheme (see DESIGN.md §11): every family is
// `geostreams_<component>_<what>[_unit][_total]`, latencies are
// microseconds (`_us`), byte figures `_bytes`. Label cardinality is
// bounded by construction: operators are labeled by operator *kind*
// (not instance), ingest by source name, and client sessions are
// aggregated unlabeled.

#ifndef GEOSTREAMS_OBS_METRICS_REGISTRY_H_
#define GEOSTREAMS_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace geostreams {

/// Monotonic counter. Increment from hot paths; Set() exists for
/// collectors mirroring a counter whose source of truth lives behind
/// another component's lock (the mirrored value must itself be
/// monotonic or Prometheus rate() breaks).
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time figure (queue depth, tracked bytes, health counts).
class Gauge {
 public:
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed-bucket histogram over non-negative integer samples
/// (microseconds, queue depths). Buckets are cumulative-upper-bound
/// ("le") like Prometheus: bucket i counts samples <= bounds[i], with
/// an implicit +Inf bucket after the last bound. Observe() is three
/// relaxed atomic adds after a binary search over ~20 bounds; merging
/// and percentile extraction work on snapshots, so a concurrent
/// Observe skews a scrape by at most the in-flight samples.
///
/// Exemplars (OpenMetrics): ObserveWithExemplar additionally records
/// the trace ring ordinal + pipeline of the observation in its
/// bucket's exemplar slot, so a scrape's `# {trace=...}` annotation
/// points straight at a `TRACE <id>` record. The exemplar store is
/// allocated lazily on the first exemplared observation and guarded
/// by its own mutex — the plain Observe() hot path never touches it.
class MetricHistogram {
 public:
  /// `bounds` must be strictly ascending and non-empty.
  explicit MetricHistogram(std::vector<uint64_t> bounds);

  /// start, start*factor, start*factor^2, ... (count bounds, deduped
  /// after rounding — factor must be > 1).
  static std::vector<uint64_t> ExponentialBuckets(uint64_t start,
                                                  double factor,
                                                  size_t count);
  /// Log-spaced microsecond latency bounds: 1us .. ~16s, factor 4.
  static const std::vector<uint64_t>& LatencyBucketsUs();
  /// Log-spaced small-count bounds (queue depths): 1 .. 65536.
  static const std::vector<uint64_t>& DepthBuckets();

  void Observe(uint64_t value);

  /// Observe() plus an exemplar: the owning bucket remembers this
  /// observation's trace ring ordinal and pipeline (latest wins). An
  /// ordinal of kNoExemplar (no ring slot) records no exemplar.
  static constexpr uint64_t kNoExemplar = ~0ull;
  void ObserveWithExemplar(uint64_t value, uint64_t trace_ordinal,
                           const std::string& pipeline);

  /// Latest exemplared observation of one bucket.
  struct Exemplar {
    bool has = false;
    uint64_t value = 0;
    uint64_t trace_ordinal = 0;
    std::string pipeline;
  };

  struct Snapshot {
    std::vector<uint64_t> bounds;
    /// counts.size() == bounds.size() + 1; the last entry is +Inf.
    std::vector<uint64_t> counts;
    /// Empty when no exemplar was ever recorded; otherwise one slot
    /// per bucket (bounds.size() + 1, the last is +Inf).
    std::vector<Exemplar> exemplars;
    uint64_t count = 0;
    uint64_t sum = 0;

    /// Percentile p in [0, 100] by linear interpolation inside the
    /// owning bucket; samples in the +Inf bucket answer with the last
    /// finite bound. 0 when empty.
    double Percentile(double p) const;
  };
  Snapshot TakeSnapshot() const;

  /// Accumulates another histogram's counts (same bounds required;
  /// mismatched shapes are ignored). The OperatorMetrics::MergeFrom
  /// idiom for distributions.
  void MergeFrom(const MetricHistogram& other);

  double Percentile(double p) const { return TakeSnapshot().Percentile(p); }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

  const std::vector<uint64_t>& bounds() const { return bounds_; }

 private:
  size_t BucketIndex(uint64_t value) const;

  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  /// Exemplar slots, one per bucket; null until the first
  /// ObserveWithExemplar. Guarded by exemplar_mu_ (never taken by
  /// Observe()).
  mutable std::mutex exemplar_mu_;
  std::unique_ptr<Exemplar[]> exemplars_;
};

/// Label set, rendered in the given order. Keep values low-cardinality
/// (operator kinds, source names — never per-event data).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration is get-or-create keyed on (name, labels); the help
  /// text of the first registration wins. Returned pointers live as
  /// long as the registry. A name already registered as a different
  /// metric type returns nullptr (callers treat that as "metrics
  /// off") — it is a programming error, logged once.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      MetricLabels labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  MetricLabels labels = {});
  MetricHistogram* GetHistogram(const std::string& name, const std::string& help,
                          MetricLabels labels = {},
                          std::vector<uint64_t> bounds = {});
  /// GetHistogram() sharing ownership, so the handle stays safe to
  /// observe into after RemoveSeries() drops (unexports) the series.
  std::shared_ptr<MetricHistogram> GetSharedHistogram(
      const std::string& name, const std::string& help,
      MetricLabels labels = {}, std::vector<uint64_t> bounds = {});

  /// Drops every series of family `name` labeled `key`="value" (a
  /// gone query's series) and returns how many. Only shared handles
  /// into a dropped series stay valid.
  size_t RemoveSeries(const std::string& name, const std::string& key,
                      const std::string& value);

  /// Owns one registered collector. Destroying (or Reset()ting) the
  /// handle unregisters it, first waiting out a scrape that may be
  /// running it; after that the collector is never called again. The
  /// registry must outlive the handle. Must not be reset from inside
  /// a collector, nor while holding a lock a collector takes.
  class CollectorHandle {
   public:
    CollectorHandle() = default;
    CollectorHandle(CollectorHandle&& other) noexcept;
    CollectorHandle& operator=(CollectorHandle&& other) noexcept;
    ~CollectorHandle() { Reset(); }
    void Reset();

   private:
    friend class MetricsRegistry;
    CollectorHandle(MetricsRegistry* registry, uint64_t id)
        : registry_(registry), id_(id) {}
    MetricsRegistry* registry_ = nullptr;
    uint64_t id_ = 0;
  };

  /// Scrape hook: runs (outside the registry lock, in registration
  /// order) at the start of every render. Components whose counters
  /// live behind their own locks copy them into their families here,
  /// so the hot path never double-counts. Scrapes run collectors one
  /// at a time.
  [[nodiscard]] CollectorHandle AddCollector(std::function<void()> collect);

  /// Prometheus text exposition (version 0.0.4): families sorted by
  /// name with # HELP / # TYPE headers, histogram series expanded
  /// into cumulative `_bucket{le=...}` plus `_sum`/`_count`. Ends
  /// with a newline. Exemplars are NOT rendered here — the 0.0.4
  /// parser treats a `# {...}` tail as a malformed timestamp and
  /// fails the whole scrape.
  std::string RenderPrometheus();

  /// OpenMetrics text exposition (application/openmetrics-text):
  /// same families, plus `# {trace=...}` exemplars on `_bucket`
  /// lines and the mandatory `# EOF` terminator. Counter metadata
  /// drops the `_total` suffix (OpenMetrics names the family
  /// `foo` and its sample `foo_total`). Served when a scraper
  /// negotiates OpenMetrics via the Accept header.
  std::string RenderOpenMetrics();

  /// Number of registered series across all families (tests).
  size_t NumSeries() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  struct Series {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::shared_ptr<MetricHistogram> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    bool kind_conflict_logged = false;
    /// Keyed by the rendered label string so lookup and output order
    /// agree.
    std::map<std::string, Series> series;
  };

  Series* GetSeries(const std::string& name, const std::string& help,
                    Kind kind, MetricLabels labels);

  /// Shared renderer behind RenderPrometheus/RenderOpenMetrics.
  std::string RenderExposition(bool openmetrics);

  void RemoveCollector(uint64_t id);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  /// Held while collectors run and while one is added or removed, so
  /// removal waits out a scrape in progress. Taken before mu_.
  std::mutex collect_mu_;
  std::map<uint64_t, std::function<void()>> collectors_;
  uint64_t next_collector_id_ = 1;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_OBS_METRICS_REGISTRY_H_
