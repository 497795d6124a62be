#include "storage/governor.h"

#include <sys/statvfs.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/event_log.h"

namespace geostreams {

namespace fs = std::filesystem;

namespace {

constexpr const char* kProbeFile = ".gs-write-probe";

uint64_t SteadyNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Result<uint64_t> StatvfsFreeBytes(const std::string& dir) {
  struct statvfs vfs;
  if (statvfs(dir.c_str(), &vfs) != 0) {
    return Status::IoError(StringPrintf("statvfs(%s): %s", dir.c_str(),
                                        std::strerror(errno)));
  }
  return static_cast<uint64_t>(vfs.f_bavail) *
         static_cast<uint64_t>(vfs.f_frsize);
}

/// An append failure means "the disk refuses bytes" only for the
/// I/O-shaped codes; InvalidArgument etc. are caller bugs, not
/// pressure.
bool IsDiskPressure(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kResourceExhausted ||
         status.code() == StatusCode::kUnavailable;
}

}  // namespace

StorageGovernor::StorageGovernor(StorageGovernorOptions options)
    : options_(std::move(options)) {
  MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  Gauge* degraded = reg->GetGauge(
      "geostreams_storage_degraded",
      "1 while the storage plane is refusing writes (disk pressure)");
  Gauge* free_bytes = reg->GetGauge(
      "geostreams_storage_free_bytes",
      "free bytes on the filesystem holding the storage directories");
  Counter* degraded_entries = reg->GetCounter(
      "geostreams_storage_degraded_entries_total",
      "healthy->degraded transitions of the storage plane");
  Counter* healed = reg->GetCounter(
      "geostreams_storage_healed_total",
      "degraded->healthy transitions (write probe succeeded)");
  Counter* probes = reg->GetCounter("geostreams_storage_probes_total",
                                    "write probes run by the governor");
  Counter* probe_failures = reg->GetCounter(
      "geostreams_storage_probe_failures_total",
      "write probes that failed (plane stays degraded)");
  Counter* refused = reg->GetCounter(
      "geostreams_storage_admissions_refused_total",
      "writes refused at admission while degraded");
  collector_ = reg->AddCollector([=, this] {
    const StorageGovernorStats s = stats();
    degraded->Set(s.degraded ? 1 : 0);
    free_bytes->Set(s.free_bytes);
    degraded_entries->Set(s.degraded_entries);
    healed->Set(s.healed);
    probes->Set(s.probes);
    probe_failures->Set(s.probe_failures);
    refused->Set(s.admissions_refused);
    for (const auto& [subsystem, bytes] : s.bytes) {
      reg->GetGauge("geostreams_storage_bytes",
                    "on-disk bytes accounted per storage subsystem",
                    {{"subsystem", subsystem}})
          ->Set(bytes);
    }
  });
}

void StorageGovernor::SetUsage(const std::string& subsystem, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes[subsystem] = bytes;
}

void StorageGovernor::AddUsage(const std::string& subsystem, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t& bytes = stats_.bytes[subsystem];
  if (delta < 0 && bytes < static_cast<uint64_t>(-delta)) {
    bytes = 0;  // accounting drift clamps at zero, never wraps
  } else {
    bytes += delta;
  }
}

uint64_t StorageGovernor::Usage(const std::string& subsystem) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.bytes.find(subsystem);
  return it == stats_.bytes.end() ? 0 : it->second;
}

uint64_t StorageGovernor::NowMs() const {
  return options_.now_ms ? options_.now_ms() : SteadyNowMs();
}

Result<uint64_t> StorageGovernor::FreeBytes() const {
  if (options_.probe_dir.empty()) {
    return Status::FailedPrecondition("governor has no probe_dir");
  }
  return options_.free_bytes_fn ? options_.free_bytes_fn(options_.probe_dir)
                                : StatvfsFreeBytes(options_.probe_dir);
}

Result<uint64_t> StorageGovernor::MeasureFreeBytes() {
  Result<uint64_t> free = FreeBytes();
  if (free.ok()) free_bytes_.store(*free, std::memory_order_relaxed);
  return free;
}

Status StorageGovernor::RunProbe() {
  // Free-space floor first: a filesystem about to fill should degrade
  // before the first hard ENOSPC tears a record.
  // A failed statvfs is not itself pressure; the write probe decides.
  Result<uint64_t> free = MeasureFreeBytes();
  if (free.ok() && options_.min_free_bytes > 0 &&
      *free < options_.min_free_bytes) {
    return Status::ResourceExhausted(StringPrintf(
        "free space %llu below floor %llu",
        static_cast<unsigned long long>(*free),
        static_cast<unsigned long long>(options_.min_free_bytes)));
  }
  if (options_.probe_dir.empty()) return Status::OK();
  const std::string path =
      (fs::path(options_.probe_dir) / kProbeFile).string();
  auto open = options_.file_factory ? options_.file_factory(path)
                                    : OpenPosixWritable(path);
  if (!open.ok()) return open.status();
  std::unique_ptr<WritableFile> file = std::move(*open);
  static const uint8_t kProbeBytes[] = "gs-probe";
  Status st = file->Append(kProbeBytes, sizeof(kProbeBytes));
  if (st.ok()) st = file->Sync();
  const Status closed = file->Close();
  if (st.ok()) st = closed;
  std::error_code ec;
  fs::remove(path, ec);  // best effort; a stale probe file is harmless
  return st;
}

void StorageGovernor::EnterDegradedLocked(const std::string& why) {
  if (!degraded_.load(std::memory_order_relaxed)) {
    degraded_.store(true, std::memory_order_relaxed);
    ++stats_.degraded_entries;
    GEOSTREAMS_LOG(kError) << "storage plane DEGRADED: " << why
                           << " (writes refused; reads keep serving; "
                              "write probe will self-heal)";
    if (options_.event_log != nullptr) {
      options_.event_log->Append(EventSeverity::kError, "governor",
                                 "degraded", why);
    }
  }
  stats_.last_error = why;
}

void StorageGovernor::ExitDegradedLocked() {
  if (degraded_.load(std::memory_order_relaxed)) {
    degraded_.store(false, std::memory_order_relaxed);
    ++stats_.healed;
    GEOSTREAMS_LOG(kInfo)
        << "storage plane healthy again (write probe succeeded)";
    if (options_.event_log != nullptr) {
      options_.event_log->Append(EventSeverity::kInfo, "governor", "healed",
                                 "write probe succeeded");
    }
  }
}

void StorageGovernor::FinishProbe(const Status& probe,
                                  std::unique_lock<std::mutex>* lock) {
  ++stats_.probes;
  if (probe.ok()) {
    ExitDegradedLocked();
  } else {
    ++stats_.probe_failures;
    EnterDegradedLocked("probe: " + probe.message());
  }
  probe_inflight_ = false;
  (void)lock;
}

bool StorageGovernor::ProbeNow() {
  std::unique_lock<std::mutex> lock(mu_);
  if (probe_inflight_) return !degraded();
  probe_inflight_ = true;
  last_probe_ms_ = NowMs();
  lock.unlock();
  const Status probe = RunProbe();  // file I/O outside the mutex
  lock.lock();
  FinishProbe(probe, &lock);
  return !degraded();
}

Status StorageGovernor::Admit(const std::string& subsystem) {
  if (!degraded_.load(std::memory_order_relaxed)) {
    // Healthy fast path — but keep an eye on the free-space floor at
    // probe cadence so pressure is caught before the first ENOSPC.
    if (options_.min_free_bytes > 0) {
      std::unique_lock<std::mutex> lock(mu_);
      const uint64_t now = NowMs();
      if (!probe_inflight_ &&
          now - last_probe_ms_ >= options_.probe_interval_ms) {
        probe_inflight_ = true;
        last_probe_ms_ = now;
        lock.unlock();
        Result<uint64_t> free = MeasureFreeBytes();
        Status floor = Status::OK();
        if (free.ok() && *free < options_.min_free_bytes) {
          floor = Status::ResourceExhausted(StringPrintf(
              "free space %llu below floor %llu",
              static_cast<unsigned long long>(*free),
              static_cast<unsigned long long>(options_.min_free_bytes)));
        }
        lock.lock();
        probe_inflight_ = false;
        if (!floor.ok()) {
          EnterDegradedLocked(floor.message());
        } else {
          lock.unlock();
          return Status::OK();
        }
      } else {
        return Status::OK();
      }
    } else {
      return Status::OK();
    }
  }
  // Degraded: opportunistically self-heal. NACKed producers retry, so
  // the admission path arrives here at least as often as the probe
  // interval — this IS the periodic write probe.
  {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t now = NowMs();
    if (!probe_inflight_ &&
        now - last_probe_ms_ >= options_.probe_interval_ms) {
      probe_inflight_ = true;
      last_probe_ms_ = now;
      lock.unlock();
      const Status probe = RunProbe();
      lock.lock();
      FinishProbe(probe, &lock);
    }
    if (!degraded_.load(std::memory_order_relaxed)) return Status::OK();
    ++stats_.admissions_refused;
  }
  return Status::Unavailable(StringPrintf(
      "storage degraded (disk pressure), %s write refused",
      subsystem.c_str()));
}

void StorageGovernor::RecordWriteResult(const std::string& subsystem,
                                        const Status& status) {
  if (status.ok()) {
    // A real write landed; if we thought the disk was full, verify
    // with a probe right away instead of waiting out the interval.
    if (degraded_.load(std::memory_order_relaxed)) ProbeNow();
    return;
  }
  if (!IsDiskPressure(status)) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.write_errors;
  EnterDegradedLocked(subsystem + ": " + status.message());
}

StorageGovernorStats StorageGovernor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StorageGovernorStats out = stats_;
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.free_bytes = free_bytes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace geostreams
