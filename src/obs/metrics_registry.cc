#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace geostreams {

namespace {

// Prometheus label values escape backslash, double-quote, and newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// Renders `{k1="v1",k2="v2"}` (empty string for no labels). Used both
// as the series map key and verbatim in the exposition output.
std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first;
    out += "=\"";
    out += EscapeLabelValue(labels[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

// Same, but with an extra `le` label appended for histogram buckets.
std::string RenderLabelsWithLe(const MetricLabels& labels,
                               const std::string& le) {
  std::string out = "{";
  for (const auto& kv : labels) {
    out += kv.first;
    out += "=\"";
    out += EscapeLabelValue(kv.second);
    out += "\",";
  }
  out += "le=\"" + le + "\"}";
  return out;
}

// OpenMetrics exemplar annotation appended to a `_bucket` line (before
// its newline): ` # {trace="<ordinal>",pipeline="<p>"} <value>`. The
// trace label is the TraceRing ordinal of the exemplared observation,
// so `TRACE <query-id>` output lines (`TR <ordinal> ...`) resolve it.
void AppendExemplar(std::string* out,
                    const std::vector<MetricHistogram::Exemplar>& exemplars,
                    size_t bucket) {
  if (bucket >= exemplars.size()) return;
  const MetricHistogram::Exemplar& ex = exemplars[bucket];
  if (!ex.has) return;
  *out += " # {trace=\"" + std::to_string(ex.trace_ordinal) +
          "\",pipeline=\"" + EscapeLabelValue(ex.pipeline) + "\"} " +
          std::to_string(ex.value);
}

}  // namespace

MetricHistogram::MetricHistogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_.push_back(1);
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<uint64_t> MetricHistogram::ExponentialBuckets(uint64_t start,
                                                    double factor,
                                                    size_t count) {
  std::vector<uint64_t> bounds;
  bounds.reserve(count);
  double bound = static_cast<double>(start);
  for (size_t i = 0; i < count; ++i) {
    uint64_t rounded = static_cast<uint64_t>(std::llround(bound));
    if (bounds.empty() || rounded > bounds.back()) bounds.push_back(rounded);
    bound *= factor;
  }
  return bounds;
}

const std::vector<uint64_t>& MetricHistogram::LatencyBucketsUs() {
  // 1us, 4us, 16us, ..., ~16.8s: 13 bounds cover sub-microsecond
  // operators through multi-second stalls at 4x resolution.
  static const std::vector<uint64_t> kBounds = ExponentialBuckets(1, 4.0, 13);
  return kBounds;
}

const std::vector<uint64_t>& MetricHistogram::DepthBuckets() {
  // 1, 4, 16, ..., 65536: queue depths and batch sizes.
  static const std::vector<uint64_t> kBounds = ExponentialBuckets(1, 4.0, 9);
  return kBounds;
}

size_t MetricHistogram::BucketIndex(uint64_t value) const {
  return static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
}

void MetricHistogram::Observe(uint64_t value) {
  size_t idx = BucketIndex(value);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void MetricHistogram::ObserveWithExemplar(uint64_t value,
                                          uint64_t trace_ordinal,
                                          const std::string& pipeline) {
  Observe(value);
  if (trace_ordinal == kNoExemplar) return;
  const size_t idx = BucketIndex(value);
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  if (!exemplars_) {
    exemplars_ = std::make_unique<Exemplar[]>(bounds_.size() + 1);
  }
  Exemplar& slot = exemplars_[idx];
  slot.has = true;
  slot.value = value;
  slot.trace_ordinal = trace_ordinal;
  slot.pipeline = pipeline;
}

MetricHistogram::Snapshot MetricHistogram::TakeSnapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  // A racing Observe may have bumped count_ before its bucket store
  // was visible (or vice versa); make the snapshot self-consistent.
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  snap.count = bucket_total;
  {
    std::lock_guard<std::mutex> lock(exemplar_mu_);
    if (exemplars_) {
      snap.exemplars.assign(exemplars_.get(),
                            exemplars_.get() + bounds_.size() + 1);
    }
  }
  return snap;
}

double MetricHistogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::min(100.0, std::max(0.0, p));
  // Rank of the target sample, 1-based; percentile 0 answers with the
  // first sample's bucket.
  double target = std::max(1.0, p / 100.0 * static_cast<double>(count));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      if (i >= bounds.size()) {
        // +Inf bucket: the best honest answer is the largest finite bound.
        return static_cast<double>(bounds.back());
      }
      double lower = (i == 0) ? 0.0 : static_cast<double>(bounds[i - 1]);
      double upper = static_cast<double>(bounds[i]);
      double frac = (target - static_cast<double>(cumulative)) /
                    static_cast<double>(in_bucket);
      return lower + (upper - lower) * frac;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(bounds.back());
}

void MetricHistogram::MergeFrom(const MetricHistogram& other) {
  if (other.bounds_ != bounds_) return;
  Snapshot snap = other.TakeSnapshot();
  for (size_t i = 0; i < snap.counts.size(); ++i) {
    buckets_[i].fetch_add(snap.counts[i], std::memory_order_relaxed);
  }
  count_.fetch_add(snap.count, std::memory_order_relaxed);
  sum_.fetch_add(snap.sum, std::memory_order_relaxed);
}

MetricsRegistry::Series* MetricsRegistry::GetSeries(const std::string& name,
                                                    const std::string& help,
                                                    Kind kind,
                                                    MetricLabels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [fit, family_created] = families_.try_emplace(name);
  Family& family = fit->second;
  if (family_created) {
    family.kind = kind;
    family.help = help;
  } else if (family.kind != kind) {
    if (!family.kind_conflict_logged) {
      family.kind_conflict_logged = true;
      std::fprintf(stderr,
                   "[metrics] family '%s' re-registered with a different "
                   "type; ignoring\n",
                   name.c_str());
    }
    return nullptr;
  }
  std::string key = RenderLabels(labels);
  auto [sit, series_created] = family.series.try_emplace(std::move(key));
  Series& series = sit->second;
  if (series_created) series.labels = std::move(labels);
  return &series;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     MetricLabels labels) {
  Series* s = GetSeries(name, help, Kind::kCounter, std::move(labels));
  if (s == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (!s->counter) s->counter = std::make_unique<Counter>();
  return s->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 MetricLabels labels) {
  Series* s = GetSeries(name, help, Kind::kGauge, std::move(labels));
  if (s == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (!s->gauge) s->gauge = std::make_unique<Gauge>();
  return s->gauge.get();
}

MetricHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         MetricLabels labels,
                                         std::vector<uint64_t> bounds) {
  return GetSharedHistogram(name, help, std::move(labels), std::move(bounds))
      .get();
}

std::shared_ptr<MetricHistogram> MetricsRegistry::GetSharedHistogram(
    const std::string& name, const std::string& help, MetricLabels labels,
    std::vector<uint64_t> bounds) {
  Series* s = GetSeries(name, help, Kind::kHistogram, std::move(labels));
  if (s == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (!s->histogram) {
    if (bounds.empty()) bounds = MetricHistogram::LatencyBucketsUs();
    s->histogram = std::make_shared<MetricHistogram>(std::move(bounds));
  }
  return s->histogram;
}

size_t MetricsRegistry::RemoveSeries(const std::string& name,
                                     const std::string& key,
                                     const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto fit = families_.find(name);
  if (fit == families_.end()) return 0;
  const std::pair<std::string, std::string> label(key, value);
  return std::erase_if(fit->second.series, [&](const auto& entry) {
    const MetricLabels& labels = entry.second.labels;
    return std::find(labels.begin(), labels.end(), label) != labels.end();
  });
}

MetricsRegistry::CollectorHandle::CollectorHandle(
    CollectorHandle&& other) noexcept
    : registry_(std::exchange(other.registry_, nullptr)), id_(other.id_) {}

MetricsRegistry::CollectorHandle& MetricsRegistry::CollectorHandle::operator=(
    CollectorHandle&& other) noexcept {
  if (this != &other) {
    Reset();
    registry_ = std::exchange(other.registry_, nullptr);
    id_ = other.id_;
  }
  return *this;
}

void MetricsRegistry::CollectorHandle::Reset() {
  MetricsRegistry* registry = std::exchange(registry_, nullptr);
  if (registry != nullptr) registry->RemoveCollector(id_);
}

MetricsRegistry::CollectorHandle MetricsRegistry::AddCollector(
    std::function<void()> collect) {
  std::lock_guard<std::mutex> lock(collect_mu_);
  const uint64_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(collect));
  return CollectorHandle(this, id);
}

void MetricsRegistry::RemoveCollector(uint64_t id) {
  std::lock_guard<std::mutex> lock(collect_mu_);
  collectors_.erase(id);
}

std::string MetricsRegistry::RenderPrometheus() {
  return RenderExposition(/*openmetrics=*/false);
}

std::string MetricsRegistry::RenderOpenMetrics() {
  return RenderExposition(/*openmetrics=*/true);
}

std::string MetricsRegistry::RenderExposition(bool openmetrics) {
  // Collectors call back into Get* and refresh mirror metrics, so they
  // run under collect_mu_ (which RemoveCollector waits on), not mu_.
  {
    std::lock_guard<std::mutex> lock(collect_mu_);
    for (const auto& [id, collect] : collectors_) collect();
  }

  // Snapshot the families under mu_ and format them without it, so a
  // back-to-back scraper holds off registration only for the copy.
  // Counter and gauge values are read now (RemoveSeries frees their
  // series); histograms are shared handles, read while formatting.
  struct SeriesSnapshot {
    std::string label_str;
    uint64_t value = 0;
    MetricLabels labels;
    std::shared_ptr<MetricHistogram> histogram;
  };
  struct FamilySnapshot {
    std::string name;
    Kind kind;
    std::string help;
    std::vector<SeriesSnapshot> series;
  };
  std::vector<FamilySnapshot> families;
  {
    std::lock_guard<std::mutex> lock(mu_);
    families.reserve(families_.size());
    for (const auto& [name, family] : families_) {
      FamilySnapshot& snap = families.emplace_back(
          FamilySnapshot{name, family.kind, family.help, {}});
      snap.series.reserve(family.series.size());
      for (const auto& [label_str, series] : family.series) {
        SeriesSnapshot one;
        if (family.kind == Kind::kCounter && series.counter) {
          one.value = series.counter->Value();
        } else if (family.kind == Kind::kGauge && series.gauge) {
          one.value = series.gauge->Value();
        } else if (family.kind == Kind::kHistogram && series.histogram) {
          one.labels = series.labels;
          one.histogram = series.histogram;
        } else {
          continue;
        }
        one.label_str = label_str;
        snap.series.push_back(std::move(one));
      }
    }
  }

  char line[160];
  std::string out;
  for (const FamilySnapshot& family : families) {
    const std::string& name = family.name;
    // OpenMetrics names the counter family without its `_total`
    // suffix; the sample line keeps the full name.
    std::string meta_name = name;
    if (openmetrics && family.kind == Kind::kCounter &&
        name.size() > 6 && name.compare(name.size() - 6, 6, "_total") == 0) {
      meta_name.resize(name.size() - 6);
    }
    out += "# HELP " + meta_name + " " + family.help + "\n";
    out += "# TYPE " + meta_name + " ";
    switch (family.kind) {
      case Kind::kCounter: out += "counter\n"; break;
      case Kind::kGauge: out += "gauge\n"; break;
      case Kind::kHistogram: out += "histogram\n"; break;
    }
    for (const SeriesSnapshot& series : family.series) {
      const std::string& label_str = series.label_str;
      if (!series.histogram) {
        std::snprintf(line, sizeof(line), " %llu\n",
                      static_cast<unsigned long long>(series.value));
        out += name + label_str + line;
        continue;
      }
      MetricHistogram::Snapshot snap = series.histogram->TakeSnapshot();
      uint64_t cumulative = 0;
      for (size_t i = 0; i < snap.bounds.size(); ++i) {
        cumulative += snap.counts[i];
        std::snprintf(line, sizeof(line), " %llu",
                      static_cast<unsigned long long>(cumulative));
        out += name + "_bucket" +
               RenderLabelsWithLe(series.labels,
                                  std::to_string(snap.bounds[i])) +
               line;
        if (openmetrics) AppendExemplar(&out, snap.exemplars, i);
        out += "\n";
      }
      cumulative += snap.counts.back();
      std::snprintf(line, sizeof(line), " %llu",
                    static_cast<unsigned long long>(cumulative));
      out += name + "_bucket" + RenderLabelsWithLe(series.labels, "+Inf") +
             line;
      if (openmetrics) {
        AppendExemplar(&out, snap.exemplars, snap.bounds.size());
      }
      out += "\n";
      std::snprintf(line, sizeof(line), " %llu\n",
                    static_cast<unsigned long long>(snap.sum));
      out += name + "_sum" + label_str + line;
      std::snprintf(line, sizeof(line), " %llu\n",
                    static_cast<unsigned long long>(snap.count));
      out += name + "_count" + label_str + line;
    }
  }
  if (openmetrics) out += "# EOF\n";
  return out;
}

size_t MetricsRegistry::NumSeries() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [name, family] : families_) n += family.series.size();
  return n;
}

}  // namespace geostreams
