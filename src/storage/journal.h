// Durable ingest journal: a per-source segmented write-ahead log that
// makes the ingest plane's cumulative ACK mean "safe across a crash",
// not just "delivered while the server lives".
//
// Records are the GSF1 kIngest messages of wire_protocol.h, byte for
// byte, so the session appends exactly the bytes the producer would
// replay. Files, the record header, the per-source directory and the
// damage scan are the shared storage substrate (storage/record_file.h);
// this file adds what is the journal's own.
//
// Layout under JournalOptions::dir:
//
//   <dir>/<source-dir>/name                original source name
//   <dir>/<source-dir>/seg-<start_seq>.gsj closed + active segments
//   <dir>/<source-dir>/dead_letters.gsd    persisted DeadLetterQueue
//
// The appender rotates to a new segment past `segment_max_bytes`
// (the file name carries the first sequence number it will hold, so
// recovery knows the high-water mark even from an empty active
// segment) and retires the oldest closed segments past the byte/age
// retention caps. Retirement compacts instead of dropping: records
// whose sequence number is at or above the source's retain floor
// (advanced by IngestSession to the cumulative ack — everything below
// it is settled) are rewritten into a fresh segment before the old
// file goes away, kill-point safe (write compact.tmp, fsync,
// atomically rename to seg-<first-live-seq>.gsj, then remove the
// original; a crash between the two leaves duplicates that recovery's
// seq dedup already collapses). A segment holding only settled
// records is deleted whole.
//
// Durability is a policy knob: kPerRecord fsyncs before every ACK
// (the strict ack-gated contract the kill-point harness audits),
// kGroupCommit leaves fsync to a background flusher thread that runs
// every `group_commit_interval_ms` — the flusher's fsync runs outside
// the source's append lock, so the append (and hence the ACK) never
// waits on the disk, and the loss window on power failure stays
// bounded by the interval (nothing is lost on a plain process kill
// either way) — and kOff leaves it to the OS.
//
// Startup recovery (IngestJournal::Open) runs the substrate's damage
// scan over every source in seq order. A torn tail was never acked
// (the append did not return), so it is truncated and the producer
// re-sends it. A corrupt region WAS acked once, so its loss is
// recorded loudly: a quarantine entry goes into the source's
// persisted dead-letter store, while every surviving record keeps
// replaying. Duplicate sequence numbers (an append that succeeded but
// whose delivery was NACKed and retried) replay once — the scan keeps
// the dedup cursor the live session keeps. The recovered per-source
// `next_seq` seeds IngestSession, so a reconnecting producer resumes
// exactly where the acks left off.
//
// Thread-safety: SourceJournal serializes appends/stats with its own
// mutex (one IngestSession drives it, but ISTATS reads stats from
// other connections); IngestJournal guards its source map the same
// way. Recovery runs single-threaded inside Open.

#ifndef GEOSTREAMS_STORAGE_JOURNAL_H_
#define GEOSTREAMS_STORAGE_JOURNAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/wire_protocol.h"
#include "obs/metrics_registry.h"
#include "storage/record_file.h"

namespace geostreams {

class DeadLetterStore;
class StorageGovernor;

/// When the journal fsyncs relative to the ACK it gates.
enum class FsyncPolicy : uint8_t {
  kPerRecord,    // fsync before every ack: acked == on stable storage
  kGroupCommit,  // background flusher fsyncs every interval; appends
                 // never wait on the disk
  kOff,          // never fsync; the OS page cache decides
};

const char* FsyncPolicyName(FsyncPolicy policy);

struct JournalOptions {
  /// Root directory (created if missing). Must be non-empty.
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kPerRecord;
  /// kGroupCommit: cadence of the background flusher thread, and hence
  /// the maximum durability lag of an acked record on power failure.
  uint64_t group_commit_interval_ms = 5;
  /// Rotate the active segment once it reaches this many bytes.
  uint64_t segment_max_bytes = 8u << 20;
  /// Retire oldest CLOSED segments while a source's total exceeds
  /// this (0 = keep everything). The active segment never retires.
  /// Retirement drops settled records (seq below the retain floor)
  /// with the file and compacts still-live ones into a fresh segment,
  /// so a byte cap never costs an unacked record.
  uint64_t retention_max_bytes = 0;
  /// Retire closed segments older than this (mtime; 0 = no age cap).
  uint64_t retention_max_age_ms = 0;
  /// File opener; null = OpenPosixWritable. Tests inject FaultyFile.
  WritableFileFactory file_factory;
  /// Optional registry: a scrape-time collector mirrors TotalStats()
  /// and recovery() into the geostreams_journal_* counters; fsyncs
  /// are observed into the fsync-latency histogram. Not owned; may be
  /// null; must outlive the journal.
  MetricsRegistry* metrics = nullptr;
  /// Optional disk-pressure governor (not owned). When set, appends
  /// pass its admission gate first — refused appends surface as NACKs
  /// to producers, never as fake durability — write outcomes feed its
  /// degraded-mode state machine, and the journal keeps the
  /// governor's "journal" byte accounting current.
  StorageGovernor* governor = nullptr;
};

/// What recovery found for one source.
struct SourceRecovery {
  uint64_t next_seq = 1;          // 1 + highest committed sequence
  uint64_t records_replayed = 0;  // committed records scanned
  uint64_t bytes_replayed = 0;
  uint64_t duplicate_records = 0;  // same seq journaled twice; kept once
  bool torn_tail = false;          // last segment ended mid-record
  uint64_t torn_bytes = 0;         // bytes truncated off the tail
  uint64_t corrupt_regions = 0;    // mid-file damage, quarantined
  uint64_t corrupt_bytes = 0;
};

struct JournalRecovery {
  std::map<std::string, SourceRecovery> sources;
  uint64_t records_replayed = 0;
  uint64_t duplicate_records = 0;
  uint64_t torn_tails = 0;
  uint64_t torn_bytes = 0;
  uint64_t corrupt_regions = 0;
};

struct SourceJournalStats {
  uint64_t appends = 0;
  uint64_t append_bytes = 0;
  uint64_t append_errors = 0;
  uint64_t fsyncs = 0;
  uint64_t rotations = 0;
  uint64_t segments_retired = 0;
  uint64_t segments_compacted = 0;  // retired via live-record rewrite
  uint64_t records_compacted = 0;   // live records carried across rewrites
  uint64_t compacted_bytes = 0;     // bytes written into compacted segments
  uint64_t reclaimed_bytes = 0;     // on-disk bytes freed by retirement
  uint64_t active_segment_bytes = 0;
  uint64_t recovered_records = 0;
  uint64_t retain_floor = 1;  // seqs below this are settled (prunable)
  uint64_t next_seq = 1;
};

class IngestJournal;

/// The per-source appender. Append() is the ack gate: it returns only
/// after the encoded record is written (and fsynced, per policy) —
/// IngestSession sends the ACK on OK and NACKs Unavailable otherwise.
class SourceJournal {
 public:
  /// Appends one record. The message's bytes are framed exactly as
  /// EncodeIngestMessage produces them. Handles rotation + retention.
  Status Append(const IngestMessage& message);

  /// Forces an fsync of the active segment now (rotation and shutdown
  /// do this implicitly; kGroupCommit callers may want a final flush).
  /// The fsync runs without the append lock: appends to this source
  /// proceed meanwhile and stay dirty for the next Sync().
  Status Sync();

  /// 1 + the highest sequence number committed (recovered + appended).
  uint64_t next_seq() const;

  /// Advances the settled floor: every sequence number below
  /// `settled_upto` has been delivered and acked, so retention may
  /// drop those records. Records at or above it are still live (a
  /// journaled-but-NACKed delivery awaiting the producer's retry) and
  /// survive segment retirement via compaction. Monotonic; callers
  /// pass the session's next expected sequence after each ack.
  void SetRetainFloor(uint64_t settled_upto);

  SourceJournalStats stats() const;

  const std::string& source() const { return source_; }

 private:
  friend class IngestJournal;
  SourceJournal(IngestJournal* owner, std::string source,
                std::string dir, SourceRecovery recovered);

  Status EnsureOpenLocked();
  Status RotateLocked();
  /// fsyncs the active segment with mu_ held (kPerRecord appends and
  /// rotation, which must not return before their own fsync).
  Status SyncLocked();
  void CountFsyncLocked(uint64_t us);
  void ApplyRetentionLocked();
  /// Retires one closed segment: live records (seq >= retain floor,
  /// deduplicated against `*kept_cursor`) are compacted into a fresh
  /// kill-safe segment, settled ones vanish with the file. Returns
  /// the on-disk bytes reclaimed.
  uint64_t RetireSegmentLocked(const std::string& path, uint64_t file_bytes,
                               uint64_t* kept_cursor);

  IngestJournal* owner_;
  const std::string source_;
  const std::string dir_;  // <root>/<source-dir>

  mutable std::mutex mu_;
  /// Shared so an unlocked Sync() keeps the file open while rotation
  /// or a failed append drops the journal's own reference.
  std::shared_ptr<WritableFile> active_;
  std::string active_path_;
  uint64_t active_bytes_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t retain_floor_ = 1;
  bool dirty_ = false;  // bytes written since the last fsync
  /// Set when an append failed with the segment open: the file may
  /// carry a torn partial record past active_bytes_ (ENOSPC persists
  /// a prefix). The next EnsureOpenLocked truncates back to the last
  /// known-good length before resuming, so a disk that heals within
  /// the same incarnation never buries garbage mid-file.
  bool resume_truncate_ = false;
  SourceJournalStats stats_;
};

/// Owns the journal directory: runs recovery at Open, hands out
/// per-source appenders and persisted dead-letter stores.
class IngestJournal {
 public:
  /// Creates `options.dir` if needed, scans every source directory
  /// (truncating torn tails, quarantining corruption into the
  /// per-source dead-letter stores), and returns the ready journal.
  static Result<std::unique_ptr<IngestJournal>> Open(JournalOptions options);

  ~IngestJournal();

  IngestJournal(const IngestJournal&) = delete;
  IngestJournal& operator=(const IngestJournal&) = delete;

  /// What Open's recovery scan found (stable after Open).
  const JournalRecovery& recovery() const { return recovery_; }
  const JournalOptions& options() const { return options_; }

  /// The appender for `source`, created (with its directory) on first
  /// use. Owned by the journal; valid for its lifetime.
  Result<SourceJournal*> SourceFor(const std::string& source);

  /// The persisted dead-letter store for `source` (loaded from disk on
  /// first use). Owned by the journal; valid for its lifetime.
  Result<DeadLetterStore*> DeadLettersFor(const std::string& source);

  /// Re-scans `source`'s segments from disk and hands every committed
  /// record (seq-deduplicated, in order) to `fn` — the audit path, and
  /// what a historical store will bulk-load from. Damage tolerated
  /// exactly like recovery, but nothing is truncated or quarantined.
  Status Replay(const std::string& source,
                const std::function<void(const IngestMessage&)>& fn) const;

  /// Aggregate append-side stats across every source.
  SourceJournalStats TotalStats() const;

  /// fsyncs every source's active segment (shutdown, tests).
  Status SyncAll();

 private:
  friend class SourceJournal;
  explicit IngestJournal(JournalOptions options);

  Status RecoverAll();
  Status RecoverSource(const SourceDir& dir);
  /// Registers the geostreams_journal_* collector (after recovery).
  void RegisterCollector();
  Result<std::unique_ptr<WritableFile>> OpenFile(const std::string& path);
  /// Group-commit flusher: ticks every group_commit_interval_ms and
  /// fsyncs every dirty source (SyncLocked skips clean ones).
  void FlusherLoop();
  void StopFlusher();

  JournalOptions options_;
  JournalRecovery recovery_;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<SourceJournal>> sources_;
  std::map<std::string, std::unique_ptr<DeadLetterStore>> dead_letters_;

  // Group-commit flusher (running only under FsyncPolicy::kGroupCommit).
  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
  bool flusher_stop_ = false;
  std::thread flusher_;

  /// Null without a registry.
  MetricHistogram* fsync_latency_us_ = nullptr;
  /// Last member: unregistered first on destruction.
  MetricsRegistry::CollectorHandle collector_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STORAGE_JOURNAL_H_
