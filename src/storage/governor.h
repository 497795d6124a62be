// Disk-pressure governor shared by the durable journal and the tiled
// historical store.
//
// The paper's stream model is explicit that any stored view of an
// unbounded stream must be finite; PR 7/8 gave the server two on-disk
// subsystems that grow without limit and treat ENOSPC as a silent
// per-record error counter. The governor is the single place that
// (a) accounts on-disk bytes per subsystem ("journal", "store") and
// (b) runs the degraded-mode state machine for the whole storage
// plane. Byte and age caps are the subsystems' own retention options
// (JournalOptions / TileStoreOptions::retention_max_*):
//
//   healthy   — writes admitted; retention keeps usage under its caps.
//   degraded  — entered when a subsystem reports an I/O failure
//     (ENOSPC/EIO classified as IoError/ResourceExhausted/Unavailable)
//     or the filesystem's free space drops under `min_free_bytes`.
//     Admit() refuses writes with Unavailable so the journal NACKs
//     producers (never fake durability) and the store sheds PutFrame
//     loudly, while reads — live queries and stored history — keep
//     working untouched.
//
// Self-healing is a write probe: while degraded, Admit() (rate
// limited to one probe per `probe_interval_ms`) and RecordWriteResult
// on a subsystem's own successful write both re-run a small
// create/append/fsync/unlink cycle in `probe_dir` through the same
// WritableFileFactory the subsystems write through — so injected
// ENOSPC faults gate the probe exactly like real ones — and flip the
// plane back to healthy once the probe succeeds and free space is
// back over the floor. Because every NACKed producer retries, the
// admission path itself supplies the probe cadence; no dedicated
// thread is needed.
//
// Thread-safety: degraded() is one relaxed atomic load (hot paths
// branch on it); everything else takes the internal mutex. Probes
// perform file I/O outside the mutex.

#ifndef GEOSTREAMS_STORAGE_GOVERNOR_H_
#define GEOSTREAMS_STORAGE_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"
#include "obs/metrics_registry.h"
#include "storage/record_file.h"  // WritableFileFactory

namespace geostreams {

class EventLog;

struct StorageGovernorOptions {
  /// Directory the write probe uses (usually the journal/store root).
  /// Empty = probes always succeed (state machine still runs on
  /// RecordWriteResult, useful for tests).
  std::string probe_dir;
  /// Degrade when the filesystem holding probe_dir has fewer free
  /// bytes than this, even before a write fails (0 = no floor).
  uint64_t min_free_bytes = 0;
  /// Minimum ms between write probes on the admission path while
  /// degraded (RecordWriteResult successes probe immediately).
  uint64_t probe_interval_ms = 200;
  /// Probe file opener; null = OpenPosixWritable. Tests and the chaos
  /// lane inject FaultyFile so ENOSPC gates probes deterministically.
  WritableFileFactory file_factory;
  /// Free-bytes source for the floor check; null = statvfs. Tests
  /// inject a closure to step pressure deterministically.
  std::function<Result<uint64_t>(const std::string& dir)> free_bytes_fn;
  /// Millisecond clock for probe rate limiting; null = steady_clock.
  std::function<uint64_t()> now_ms;
  /// Optional registry: a scrape-time collector mirrors stats() into
  /// the geostreams_storage_* series. Not owned; must outlive the
  /// governor.
  MetricsRegistry* metrics = nullptr;
  /// Optional flight recorder (not owned): degraded/heal transitions
  /// are recorded as structured events.
  EventLog* event_log = nullptr;
};

struct StorageGovernorStats {
  bool degraded = false;
  uint64_t degraded_entries = 0;   // healthy -> degraded transitions
  uint64_t healed = 0;             // degraded -> healthy transitions
  uint64_t probes = 0;
  uint64_t probe_failures = 0;
  uint64_t admissions_refused = 0; // Admit() calls refused while degraded
  uint64_t write_errors = 0;       // failures fed to RecordWriteResult
  uint64_t free_bytes = 0;         // last measured; 0 until measured
  std::map<std::string, uint64_t> bytes;  // on-disk bytes per subsystem
  std::string last_error;          // what pushed us degraded last
};

class StorageGovernor {
 public:
  explicit StorageGovernor(StorageGovernorOptions options);
  StorageGovernor(const StorageGovernor&) = delete;
  StorageGovernor& operator=(const StorageGovernor&) = delete;

  /// On-disk byte accounting keyed by subsystem name ("journal",
  /// "store"), maintained by the subsystems (set at recovery,
  /// adjusted on append / retention / GC).
  void SetUsage(const std::string& subsystem, uint64_t bytes);
  void AddUsage(const std::string& subsystem, int64_t delta);
  uint64_t Usage(const std::string& subsystem) const;

  /// True while the storage plane is refusing writes.
  bool degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }

  /// Write admission. Healthy: OK (plus a rate-limited free-space
  /// floor check). Degraded: runs the rate-limited self-heal probe,
  /// then returns Unavailable if still degraded — the caller NACKs /
  /// sheds and the next retry re-probes.
  Status Admit(const std::string& subsystem);

  /// Classifies the outcome of a subsystem's own write: an I/O-class
  /// failure (IoError, ResourceExhausted, Unavailable) enters
  /// degraded mode; a success while degraded triggers an immediate
  /// probe (the disk evidently accepts bytes again).
  void RecordWriteResult(const std::string& subsystem, const Status& status);

  /// Forces one write probe now; returns the post-probe health.
  bool ProbeNow();

  /// Free bytes on the filesystem holding probe_dir.
  Result<uint64_t> FreeBytes() const;

  StorageGovernorStats stats() const;

 private:
  uint64_t NowMs() const;
  /// FreeBytes(), remembered for stats() when it succeeds.
  Result<uint64_t> MeasureFreeBytes();
  /// One create/append/fsync/unlink cycle in probe_dir plus the
  /// free-space floor check. Returns OK when the disk takes writes.
  Status RunProbe();
  /// Applies a probe outcome to the state machine.
  void FinishProbe(const Status& probe, std::unique_lock<std::mutex>* lock);
  void EnterDegradedLocked(const std::string& why);
  void ExitDegradedLocked();

  const StorageGovernorOptions options_;

  mutable std::mutex mu_;
  std::atomic<bool> degraded_{false};
  /// Measured outside mu_ (probes do file I/O unlocked).
  std::atomic<uint64_t> free_bytes_{0};
  uint64_t last_probe_ms_ = 0;
  bool probe_inflight_ = false;  // collapse concurrent probes to one
  StorageGovernorStats stats_;  // stats_.bytes is the usage accounting

  /// Last member: unregistered first on destruction.
  MetricsRegistry::CollectorHandle collector_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STORAGE_GOVERNOR_H_
