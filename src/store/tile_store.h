// Tiled historical store: the durable, queryable past of every
// source stream (the TerraServer-style tile pyramid adapted to the
// paper's stream model).
//
// The live chain only serves frames that arrive after a query
// registers. The TileStore persists each assembled frame as a mosaic
// of fixed-grid tiles plus a pyramid of overview levels (factor-2,
// mask-aware box reduction), so that
//   * late subscribers replay recorded history and cut over to the
//     live stream at a frame-id watermark (see the server's catch-up
//     path and CatchUpGate),
//   * temporal restrictions G|T reach into the past, and
//   * reduce/magnify at coarse zoom reads a small overview level
//     instead of every full-resolution tile.
//
// Files, the record header, the per-source directory and the damage
// scan are the storage substrate the ingest journal uses too
// (storage/record_file.h). Layout under TileStoreOptions::dir:
//
//   <dir>/<source-dir>/name            original source name
//   <dir>/<source-dir>/page-<n>.gst    append-only tile-page segments
//
// Records carry the shared 16-byte header with magic "GST1"; its
// flags byte holds the pyramid level. Record types:
//
//   kFrameMeta    frame id, band count, level count, expected points,
//                 and the base lattice (CRS name + geometry)
//   kTilePage     one tile of one level: tile indices, tile extents,
//                 an occupancy bitmap, then the filled cells' samples
//                 (band-interleaved doubles, filled cells only —
//                 lossless and sparse-friendly for restricted
//                 coverage)
//   kFrameCommit  per-level tile counts; a frame exists only once its
//                 commit record is durable (torn mid-frame writes are
//                 invisible after recovery)
//
// All records of one frame are contiguous in one segment (rotation
// happens only between frames). Startup recovery runs the substrate's
// damage scan with the meta/page/commit state machine as its record
// callback: a torn tail is truncated (its frame was never committed),
// a corrupt region is skipped and counted while every committed frame
// around it keeps serving, and a frame whose run the damage
// interrupts is dropped. Tile payload CRCs are re-verified on every
// read, so bit rot in a cold page is detected and skipped rather than
// served.
//
// Retention and garbage collection (disk-pressure resilience): when
// byte/frame/age budgets are configured a background pass (or
// RunRetentionNow()) prunes the oldest committed frames from the
// index, deletes sealed segments whose frames are all pruned, and
// rewrites mostly-dead sealed segments by copying the surviving frame
// runs into a fresh page. A crash mid-rewrite leaves the same frame
// committed in two segments; recovery's duplicate-frame dedup keeps
// one, so no acked frame is ever lost to GC. Catch-up callers use
// Horizon() to detect that a SINCE bound reaches below retained
// history and report the truncation instead of silently serving less.
//
// Thread-safety: PutFrame serializes per source; Scan snapshots the
// frame index under the source mutex and then reads pages via pread
// with no lock held. Retention never moves bytes underneath a reader:
// every StoredFrame owns a reference to its segment file, which keeps
// the segment's read-only fd open, so a snapshotted frame stays
// readable after GC unlinks or rewrites its segment (POSIX keeps an
// unlinked file's data until its last fd closes). StoredFrames are
// immutable once indexed — a rewrite installs fresh StoredFrame
// objects that own the copy, while in-flight snapshots keep the old
// ones and, through them, the old file. The fd budget is one read fd
// per live segment per source, plus the retired segments that
// in-flight scans still hold.

#ifndef GEOSTREAMS_STORE_TILE_STORE_H_
#define GEOSTREAMS_STORE_TILE_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/stream_event.h"
#include "geo/region.h"
#include "obs/metrics_registry.h"
#include "ops/time_set.h"
#include "raster/frame_assembler.h"
#include "storage/record_file.h"
#include "stream/operator.h"

namespace geostreams {

class EventLog;
class StorageGovernor;

struct TileStoreOptions {
  /// Root directory (created if missing). Must be non-empty.
  std::string dir;
  /// Tile extent in cells (tiles are tile_size x tile_size; edge
  /// tiles are clipped).
  int tile_size = 64;
  /// Overview levels generated above the base level, each halving the
  /// resolution, until the whole frame fits one tile (capped here).
  int max_levels = 10;
  /// Rotate the active page segment once it reaches this many bytes
  /// (only between frames — one frame's records never span segments).
  uint64_t segment_max_bytes = 32u << 20;
  /// fsync the active segment after every committed frame. Off by
  /// default: a torn frame is invisible after recovery either way
  /// (no commit record, no frame), fsync only narrows the loss
  /// window on power failure.
  bool fsync_frames = false;
  /// File opener; null = OpenPosixWritable. Tests inject FaultyFile.
  WritableFileFactory file_factory;
  /// Optional registry: a scrape-time collector mirrors TotalStats()
  /// and recovery() into the geostreams_store_* counters; puts and
  /// frame scans are observed into latency histograms. Not owned;
  /// must outlive the store.
  MetricsRegistry* metrics = nullptr;
  /// Optional flight recorder (not owned): retention passes that
  /// pruned frames or reclaimed segments are recorded as structured
  /// events (one per source per pass, never per frame).
  EventLog* event_log = nullptr;
  /// Retention budgets, applied per source by the background pass (or
  /// RunRetentionNow()); 0 = unlimited. The oldest committed frames
  /// are pruned while the source holds more than `retention_max_bytes`
  /// on disk, indexes more than `retention_max_frames` frames, or
  /// holds frames stored longer than `retention_max_age_ms` ago.
  uint64_t retention_max_bytes = 0;
  uint64_t retention_max_frames = 0;
  uint64_t retention_max_age_ms = 0;
  /// The newest frames are never pruned (the catch-up seam needs at
  /// least the watermark frame to exist).
  uint64_t retention_min_frames = 1;
  /// Rewrite a sealed segment once at least this fraction of its
  /// bytes belongs to pruned frames: live runs are copied to a fresh
  /// page, the old file is deleted. <= 0 disables rewrites (dead
  /// bytes then linger until the whole segment dies); fully-dead
  /// segments are always deleted outright.
  double gc_rewrite_dead_fraction = 0.5;
  /// Background retention cadence; 0 = no thread (retention then runs
  /// only via RunRetentionNow()).
  uint64_t gc_interval_ms = 0;
  /// Optional disk-pressure governor (not owned, must outlive the
  /// store): PutFrame admission is gated on it, write results feed
  /// its degraded-mode probe, and on-disk usage is reported back to
  /// it.
  StorageGovernor* governor = nullptr;
  /// Injectable millisecond clock for age-based retention (tests pin
  /// time); null = steady_clock.
  std::function<uint64_t()> now_ms;
};

/// What recovery found across all sources (stable after Open).
struct TileStoreRecovery {
  uint64_t frames_recovered = 0;
  uint64_t tile_pages_recovered = 0;
  uint64_t duplicate_frames = 0;    // frame id committed twice; kept once
  uint64_t incomplete_frames = 0;   // meta/pages without a commit record
  uint64_t torn_tails = 0;          // truncated half-written tails
  uint64_t torn_bytes = 0;
  uint64_t corrupt_regions = 0;     // mid-file damage, skipped
};

/// One region x time x resolution subset read. Defaults read
/// everything at full resolution.
struct StoreScan {
  /// Frame-id (= scan-sector timestamp) bounds, inclusive.
  int64_t min_frame_id = std::numeric_limits<int64_t>::min();
  int64_t max_frame_id = std::numeric_limits<int64_t>::max();
  /// Temporal restrictions pushed down from the query plan: when some
  /// set does not contain a frame's id, its tiles are never read —
  /// but its FrameBegin/FrameEnd are still emitted, because the live
  /// TemporalRestrictionOp forwards frame control events and filters
  /// only points, and a catch-up replay must reproduce the exact live
  /// sequence. Purely an IO-pruning hint; the plan re-applies its own
  /// restrictions.
  std::vector<TimeSet> times;
  /// Spatial subset: tiles whose extent misses region->bounds() are
  /// never read, and points are filtered exactly with Contains().
  RegionPtr region;
  /// Resolution hint: reads the deepest overview level whose scale
  /// 2^level does not exceed this (1 = the full-resolution base).
  /// Coarse-zoom reads thus touch a fraction of the tiles and cells.
  int reduce = 1;
  /// Points per emitted batch.
  size_t max_batch_points = 4096;
};

/// Per-source write-side counters (tests/diagnostics).
struct TileStoreStats {
  uint64_t frames_written = 0;
  uint64_t tiles_written = 0;
  uint64_t bytes_written = 0;
  uint64_t write_errors = 0;
  uint64_t frames_read = 0;
  uint64_t tiles_read = 0;
  uint64_t tile_read_errors = 0;
  uint64_t frames_rejected = 0;     // PutFrame refused while degraded
  uint64_t frames_duplicate = 0;    // PutFrame of a stored id, dropped
  uint64_t sync_errors = 0;         // segment Sync/Close failures
  uint64_t frames_pruned = 0;       // retention evictions
  uint64_t segments_deleted = 0;    // fully-dead segments unlinked
  uint64_t segments_rewritten = 0;  // partially-live segments compacted
  uint64_t bytes_reclaimed = 0;     // on-disk bytes freed by GC
};

/// Where retained history starts for one source (catch-up truncation
/// reporting: a SINCE bound at or below `pruned_upto` cannot be
/// served in full any more).
struct StoreHorizon {
  /// Oldest retained frame id; INT64_MAX when nothing is stored.
  int64_t oldest_frame_id = std::numeric_limits<int64_t>::max();
  /// Highest frame id retention ever pruned; INT64_MIN when none.
  int64_t pruned_upto = std::numeric_limits<int64_t>::min();
  uint64_t frames_pruned = 0;
};

class TileStore {
 public:
  /// Creates `options.dir` if needed and recovers every source
  /// directory found there (truncating torn tails, skipping corrupt
  /// regions, dropping uncommitted frames).
  static Result<std::unique_ptr<TileStore>> Open(TileStoreOptions options);

  ~TileStore();

  TileStore(const TileStore&) = delete;
  TileStore& operator=(const TileStore&) = delete;

  const TileStoreRecovery& recovery() const { return recovery_; }
  const TileStoreOptions& options() const { return options_; }

  /// Persists one assembled frame for `source`: tiles the base
  /// raster, builds the overview pyramid (mask-aware factor-2 box
  /// reduction — nodata cells never fabricate values), and appends
  /// meta + pages + commit as one contiguous record run. Idempotent
  /// on frame id: a frame already committed (a producer replay after
  /// a crash, or a producer that restarted its ids over an old store)
  /// is dropped, counted in frames_duplicate, and warned about once
  /// per source. On a write error the active segment
  /// is abandoned (recovery sees an uncommitted run) and the frame is
  /// not indexed.
  Status PutFrame(const std::string& source, const FrameInfo& info,
                  const Raster& raster, const std::vector<uint8_t>& filled);

  /// Highest committed frame id for `source`; INT64_MIN when the
  /// source has no committed frames. This is the catch-up watermark:
  /// every frame at or below it is served from the store, everything
  /// after it from the live stream.
  int64_t Watermark(const std::string& source) const;

  /// Committed frame ids in [lo, hi], ascending.
  std::vector<int64_t> FrameIds(const std::string& source, int64_t lo,
                                int64_t hi) const;

  /// Retention horizon for `source` (zero-valued for unknown sources).
  StoreHorizon Horizon(const std::string& source) const;

  /// One synchronous retention + GC pass over every source — what the
  /// background thread runs every `gc_interval_ms`. Exposed for
  /// tests, benchmarks, and deterministic admin sweeps; safe to call
  /// concurrently with writes and scans.
  Status RunRetentionNow();

  /// Replays every committed frame matching `scan` (ascending frame
  /// id) into `sink` as the live chain would have delivered it:
  /// FrameBegin (with the level's lattice), point batches of the
  /// filled cells, FrameEnd. Never emits StreamEnd — the caller owns
  /// stream lifecycle. Unknown sources scan zero frames.
  Status Scan(const std::string& source, const StoreScan& scan,
              EventSink* sink);

  /// Scan() for a single frame id. NotFound when the frame is not
  /// committed (or is filtered by the scan bounds).
  Status ScanFrame(const std::string& source, int64_t frame_id,
                   const StoreScan& scan, EventSink* sink);

  /// Aggregate counters across sources.
  TileStoreStats TotalStats() const;

  /// fsyncs every source's active segment (shutdown, tests).
  Status SyncAll();

 private:
  struct TileRef;
  struct StoredLevel;
  struct Segment;
  struct StoredFrame;
  struct SourceStore;

  explicit TileStore(TileStoreOptions options);

  Status RecoverAll();
  Status RecoverSource(const SourceDir& dir);
  /// Registers the geostreams_store_* collector (after recovery).
  void RegisterCollector();
  SourceStore* SourceFor(const std::string& source);
  SourceStore* FindSource(const std::string& source) const;
  Result<std::unique_ptr<WritableFile>> OpenFile(const std::string& path);
  Status EnsureOpenLocked(SourceStore* src);
  uint64_t NowMs() const;
  void GcThreadMain();
  /// Retention + GC for one source; takes src->mu internally. Returns
  /// the first error but keeps sweeping (retention is best-effort).
  Status ApplyRetentionSource(SourceStore* src);
  /// Unlinks a fully-dead sealed segment and drops it from the
  /// source's list; returns the bytes freed (0 when the unlink fails).
  /// Scans still holding its frames keep reading the unlinked file
  /// until their snapshots drop the last reference.
  uint64_t RetireSegmentLocked(SourceStore* src, std::shared_ptr<Segment> seg);
  /// Copies the surviving frame runs of a mostly-dead sealed segment
  /// into a fresh page, reindexes them, then retires the old file.
  Status RewriteSegmentLocked(SourceStore* src, std::shared_ptr<Segment> seg,
                              uint64_t* reclaimed);
  Status EmitFrame(SourceStore* src,
                   const std::shared_ptr<const StoredFrame>& frame,
                   const StoreScan& scan, EventSink* sink);
  /// pread of one tile record of `frame`, CRC-verified. `buf` is
  /// reused.
  static Status ReadTileRecord(const StoredFrame& frame, const TileRef& ref,
                               std::vector<uint8_t>* buf);

  TileStoreOptions options_;
  TileStoreRecovery recovery_;

  mutable std::mutex mu_;  // guards sources_ (map itself)
  std::map<std::string, std::unique_ptr<SourceStore>> sources_;

  /// Serializes retention passes (background thread vs
  /// RunRetentionNow) so segment GC never races with itself.
  std::mutex gc_mu_;
  std::thread gc_thread_;
  std::mutex gc_wake_mu_;
  std::condition_variable gc_cv_;
  bool stopping_ = false;

  /// Null without a registry.
  MetricHistogram* put_latency_us_ = nullptr;
  MetricHistogram* scan_frame_latency_us_ = nullptr;
  /// Last member: unregistered first on destruction.
  MetricsRegistry::CollectorHandle collector_;
};

/// EventSink that assembles each frame of one source and persists it
/// into the store. Sits at the server's ingest fan-out, ahead of the
/// query chains, so a frame's commit record is durable before any
/// later event reaches a CatchUpGate (the ordering the cut-over seam
/// replay depends on). Store failures are counted and logged once —
/// the live chain never stalls because the disk is unhappy.
class StoreIngestSink : public EventSink {
 public:
  StoreIngestSink(TileStore* store, std::string source);

  Status Consume(const StreamEvent& event) override;

  uint64_t frames_stored() const {
    return frames_stored_.load(std::memory_order_relaxed);
  }
  uint64_t store_errors() const {
    return store_errors_.load(std::memory_order_relaxed);
  }

 private:
  TileStore* store_;
  const std::string source_;
  FrameAssembler assembler_;
  /// FrameBegin metadata buffered until the first batch reveals the
  /// band count (frames with no batches assemble with one band).
  bool frame_pending_ = false;
  FrameInfo pending_info_;
  std::atomic<uint64_t> frames_stored_{0};
  std::atomic<uint64_t> store_errors_{0};
  /// Store failures warn at most once per interval (a degraded disk
  /// sheds every frame — one warning per frame would flood the log);
  /// the first success after a failing streak logs recovery and
  /// re-arms the limiter so the next incident warns immediately.
  void WarnStoreFailure(const Status& status, const char* what);
  void NoteStoreSuccess();
  uint64_t last_warn_ms_ = 0;
  uint64_t suppressed_warnings_ = 0;
  bool in_error_streak_ = false;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STORE_TILE_STORE_H_
