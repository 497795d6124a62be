#include "store/tile_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "common/byte_codec.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "geo/crs_registry.h"
#include "obs/event_log.h"
#include "storage/governor.h"

namespace geostreams {

namespace fs = std::filesystem;

namespace {

constexpr RecordFormat kStoreFormat = {
    {'G', 'S', 'T', '1'}, /*version=*/1, /*max_payload=*/256u << 20, "store"};
constexpr char kPagePrefix[] = "page-";
constexpr char kPageSuffix[] = ".gst";

enum class RecordType : uint8_t {
  kFrameMeta = 1,
  kTilePage = 2,
  kFrameCommit = 3,
};

/// The GST1 header's flags byte carries the record's pyramid level.
void AppendStoreRecord(std::vector<uint8_t>& out, RecordType type,
                       uint8_t level, const std::vector<uint8_t>& payload) {
  AppendRecord(kStoreFormat, static_cast<uint8_t>(type), level,
               payload.data(), payload.size(), out);
}

std::string PagePath(const std::string& dir, uint64_t page_no) {
  return dir + "/" + kPagePrefix +
         StringPrintf("%06llu", static_cast<unsigned long long>(page_no)) +
         kPageSuffix;
}

/// One level of the in-memory pyramid under construction.
struct LevelImage {
  Raster raster;
  std::vector<uint8_t> filled;
};

/// Factor-2 mask-aware box reduction: an output cell averages the
/// FILLED cells of its 2x2 source block and is filled iff at least
/// one contributor was — nodata never fabricates values (the
/// AssembledFrame contract, raster/frame_assembler.h).
LevelImage ReduceMasked(const LevelImage& src) {
  const int64_t sw = src.raster.width();
  const int64_t sh = src.raster.height();
  const int bands = src.raster.bands();
  const int64_t w = (sw + 1) / 2;
  const int64_t h = (sh + 1) / 2;
  LevelImage out;
  out.raster = Raster(w, h, bands);
  out.raster.set_lattice(src.raster.lattice().Reduced(2));
  out.filled.assign(static_cast<size_t>(w * h), 0);
  for (int64_t r = 0; r < h; ++r) {
    for (int64_t c = 0; c < w; ++c) {
      int count = 0;
      for (int64_t dr = 0; dr < 2; ++dr) {
        for (int64_t dc = 0; dc < 2; ++dc) {
          const int64_t sc = 2 * c + dc;
          const int64_t sr = 2 * r + dr;
          if (sc >= sw || sr >= sh) continue;
          if (!src.filled[static_cast<size_t>(sr * sw + sc)]) continue;
          ++count;
          for (int b = 0; b < bands; ++b) {
            out.raster.Set(c, r, b,
                           out.raster.At(c, r, b) + src.raster.At(sc, sr, b));
          }
        }
      }
      if (count > 0) {
        out.filled[static_cast<size_t>(r * w + c)] = 1;
        for (int b = 0; b < bands; ++b) {
          out.raster.Set(c, r, b, out.raster.At(c, r, b) / count);
        }
      }
    }
  }
  return out;
}

/// Set bits among the first `n` bits of `bitmap` (LSB-first).
size_t CountBits(const uint8_t* bitmap, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n / 8; ++i) count += std::popcount(bitmap[i]);
  if (n % 8 != 0) {
    const unsigned tail = bitmap[n / 8] & ((1u << (n % 8)) - 1);
    count += std::popcount(tail);
  }
  return count;
}

/// The first bit in [pos, end) of `bitmap` (LSB-first) that equals
/// `set`, or `end` when there is none. Whole bytes are tested at once.
size_t FindBit(const uint8_t* bitmap, size_t pos, size_t end, bool set) {
  while (pos < end) {
    const uint8_t byte = set ? bitmap[pos >> 3]
                             : static_cast<uint8_t>(~bitmap[pos >> 3]);
    const unsigned rest = static_cast<unsigned>(byte) >> (pos & 7);
    if (rest != 0) {
      return std::min(end, pos + static_cast<size_t>(std::countr_zero(rest)));
    }
    pos = (pos | 7) + 1;
  }
  return end;
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Index structures

struct TileStore::TileRef {
  uint64_t offset = 0;    // record start within the frame's run
  uint32_t length = 0;    // header + payload
  uint32_t tile_col = 0;
  uint32_t tile_row = 0;
  uint16_t tile_w = 0;
  uint16_t tile_h = 0;
};

struct TileStore::StoredLevel {
  GridLattice lattice;
  std::vector<TileRef> tiles;
};

/// One page segment file. Its O_RDONLY fd is opened once — when the
/// segment is created, resumed or recovered — and closed with the last
/// reference. The source's segment list holds one reference and every
/// StoredFrame whose run lives in the file holds another, so a scan's
/// frame snapshot keeps each file it reads open, and POSIX keeps an
/// unlinked file readable until its last fd closes: GC may unlink and
/// forget a segment at any time without tearing a reader.
struct TileStore::Segment {
  Segment(std::string path_in, int fd_in)
      : path(std::move(path_in)), fd(fd_in) {}
  ~Segment() { ::close(fd); }
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  static Result<std::shared_ptr<Segment>> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IoError(StringPrintf("open %s: %s", path.c_str(),
                                          std::strerror(errno)));
    }
    return std::make_shared<Segment>(path, fd);
  }

  const std::string path;
  const int fd;
  // Accounting, guarded by SourceStore::mu.
  uint64_t bytes = 0;       // good bytes on disk
  uint64_t live_bytes = 0;  // bytes of runs still in the index
  uint64_t live_frames = 0;
};

struct TileStore::StoredFrame {
  int64_t frame_id = 0;
  int band_count = 1;
  int64_t expected_points = 0;
  /// The frame's whole record run (meta + pages + commit) is
  /// contiguous in one segment; retention prunes and GC rewrites
  /// whole runs.
  std::shared_ptr<Segment> segment;
  uint64_t run_offset = 0;
  uint64_t run_bytes = 0;
  uint64_t stored_ms = 0;  // NowMs() at index time (age retention)
  std::vector<StoredLevel> levels;
};

struct TileStore::SourceStore {
  std::string name;
  std::string dir;

  mutable std::mutex mu;
  std::vector<std::shared_ptr<Segment>> segments;  // page files on disk
  /// The segment this incarnation appends to: the recovered last page
  /// until the first write resumes (or rotates past) it, then the
  /// active page. GC never touches it.
  std::shared_ptr<Segment> tail;
  std::unique_ptr<WritableFile> active;  // appends to `tail`
  uint64_t active_bytes = 0;
  uint64_t next_page_no = 0;
  /// Recovery's final size of the last segment; the first write of
  /// this incarnation resumes there instead of opening a new page.
  uint64_t resume_bytes = 0;
  bool resumed = false;
  /// A write error abandoned the active segment; the next frame
  /// starts a fresh page so committed runs stay contiguous.
  bool tainted = false;
  std::map<int64_t, std::shared_ptr<const StoredFrame>> frames;
  int64_t watermark = std::numeric_limits<int64_t>::min();
  /// Highest frame id retention ever pruned (catch-up truncation
  /// reporting).
  int64_t pruned_upto = std::numeric_limits<int64_t>::min();
  TileStoreStats stats;
  /// PutFrame warned about a duplicate frame id (once per source).
  bool warned_duplicate = false;
};

// ---------------------------------------------------------------------------
// Open / recovery

TileStore::TileStore(TileStoreOptions options)
    : options_(std::move(options)) {
  if (options_.tile_size < 1) options_.tile_size = 64;
  if (options_.max_levels < 0) options_.max_levels = 0;
  if (options_.metrics != nullptr) {
    put_latency_us_ = options_.metrics->GetHistogram(
        "geostreams_store_put_latency_us",
        "Tile + pyramid encode and append latency per committed frame");
    scan_frame_latency_us_ = options_.metrics->GetHistogram(
        "geostreams_store_scan_frame_latency_us",
        "Latency of replaying one stored frame into an event sink");
  }
}

void TileStore::RegisterCollector() {
  if (options_.metrics == nullptr) return;
  MetricsRegistry& reg = *options_.metrics;
  auto counter = [&reg](const char* name, const char* help) {
    return reg.GetCounter(name, help);
  };
  Counter* frames_written = counter("geostreams_store_frames_written_total",
                                    "Frames committed to the tile store");
  Counter* tiles_written = counter("geostreams_store_tiles_written_total",
                                   "Tile pages written (all levels)");
  Counter* bytes_written = counter("geostreams_store_bytes_written_total",
                                   "Bytes appended to tile page segments");
  Counter* write_errors = counter(
      "geostreams_store_write_errors_total",
      "Frame writes abandoned on I/O errors (frame not committed)");
  Counter* frames_read = counter("geostreams_store_frames_read_total",
                                 "Frames replayed from the store");
  Counter* tiles_read = counter("geostreams_store_tiles_read_total",
                                "Tile pages read and CRC-verified");
  Counter* tile_read_errors = counter(
      "geostreams_store_tile_read_errors_total",
      "Tile pages skipped on read (CRC mismatch or I/O error)");
  Counter* frames_recovered =
      counter("geostreams_store_frames_recovered_total",
              "Committed frames re-indexed by startup recovery");
  Counter* torn_tails =
      counter("geostreams_store_torn_tails_total",
              "Half-written page tails truncated by startup recovery");
  Counter* corrupt_regions =
      counter("geostreams_store_corrupt_regions_total",
              "Mid-file corrupt regions skipped by recovery");
  Counter* frames_rejected = counter(
      "geostreams_store_frames_rejected_total",
      "Frames refused at PutFrame admission while storage is degraded");
  Counter* frames_duplicate = counter(
      "geostreams_store_frames_duplicate_total",
      "Frames dropped at PutFrame because their id was already stored");
  Counter* sync_errors = counter(
      "geostreams_store_sync_errors_total",
      "Segment Sync/Close failures (previously silently discarded)");
  Counter* frames_pruned =
      counter("geostreams_store_frames_pruned_total",
              "Frames evicted from the index by retention budgets");
  Counter* segments_deleted =
      counter("geostreams_store_segments_deleted_total",
              "Fully-dead page segments unlinked by GC");
  Counter* segments_rewritten =
      counter("geostreams_store_segments_rewritten_total",
              "Mostly-dead page segments compacted by GC");
  Counter* bytes_reclaimed =
      counter("geostreams_store_bytes_reclaimed_total",
              "Net on-disk bytes freed by retention and GC");
  collector_ = reg.AddCollector([=, this] {
    const TileStoreStats s = TotalStats();
    frames_written->Set(s.frames_written);
    tiles_written->Set(s.tiles_written);
    bytes_written->Set(s.bytes_written);
    write_errors->Set(s.write_errors);
    frames_read->Set(s.frames_read);
    tiles_read->Set(s.tiles_read);
    tile_read_errors->Set(s.tile_read_errors);
    frames_rejected->Set(s.frames_rejected);
    frames_duplicate->Set(s.frames_duplicate);
    sync_errors->Set(s.sync_errors);
    frames_pruned->Set(s.frames_pruned);
    segments_deleted->Set(s.segments_deleted);
    segments_rewritten->Set(s.segments_rewritten);
    bytes_reclaimed->Set(s.bytes_reclaimed);
    // Fixed once Open returns.
    frames_recovered->Set(recovery_.frames_recovered);
    torn_tails->Set(recovery_.torn_tails);
    corrupt_regions->Set(recovery_.corrupt_regions);
  });
}

TileStore::~TileStore() {
  {
    std::lock_guard<std::mutex> lock(gc_wake_mu_);
    stopping_ = true;
  }
  gc_cv_.notify_all();
  if (gc_thread_.joinable()) gc_thread_.join();
  Status st = SyncAll();  // SyncAll counts its own failures
  if (!st.ok()) {
    GEOSTREAMS_LOG(kWarning) << "tile store final sync: " << st.ToString();
  }
}

Result<std::unique_ptr<TileStore>> TileStore::Open(TileStoreOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("tile store directory must be non-empty");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("create " + options.dir + ": " + ec.message());
  }
  std::unique_ptr<TileStore> store(new TileStore(std::move(options)));
  GEOSTREAMS_RETURN_IF_ERROR(store->RecoverAll());
  store->RegisterCollector();
  if (store->options_.gc_interval_ms > 0) {
    TileStore* raw = store.get();
    store->gc_thread_ = std::thread([raw] { raw->GcThreadMain(); });
  }
  return store;
}

uint64_t TileStore::NowMs() const {
  if (options_.now_ms) return options_.now_ms();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status TileStore::RecoverAll() {
  GEOSTREAMS_ASSIGN_OR_RETURN(std::vector<SourceDir> source_dirs,
                              ListSourceDirs(options_.dir));
  for (const SourceDir& dir : source_dirs) {
    GEOSTREAMS_RETURN_IF_ERROR(RecoverSource(dir));
  }
  if (options_.governor != nullptr) {
    uint64_t on_disk = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, src] : sources_) {
      std::lock_guard<std::mutex> src_lock(src->mu);
      for (const auto& seg : src->segments) on_disk += seg->bytes;
    }
    options_.governor->SetUsage("store", on_disk);
  }
  return Status::OK();
}

Status TileStore::RecoverSource(const SourceDir& dir) {
  const std::string& source = dir.source;
  auto src = std::make_unique<SourceStore>();
  src->name = source;
  src->dir = dir.path;

  GEOSTREAMS_ASSIGN_OR_RETURN(
      std::vector<SegmentFile> pages,
      ListSegments(dir.path, kPagePrefix, kPageSuffix));
  if (!pages.empty()) src->next_page_no = pages.back().number + 1;
  for (const SegmentFile& page : pages) {
    GEOSTREAMS_ASSIGN_OR_RETURN(std::shared_ptr<Segment> seg,
                                Segment::Open(page.path));
    src->segments.push_back(std::move(seg));
  }

  // The frame being rebuilt: its meta record has been seen, its
  // commit not yet. A frame's run is contiguous in one segment, so a
  // record that does not start where the run ends (damage, or a new
  // segment) abandons it.
  std::shared_ptr<StoredFrame> pending;
  std::vector<uint32_t> pending_counts;  // tiles seen per level
  size_t pending_segment = 0;
  uint64_t pending_run_start = 0;  // offset of pending's kFrameMeta
  uint64_t pending_run_end = 0;    // where its next record must start
  auto drop_pending = [&] {
    if (pending != nullptr) ++recovery_.incomplete_frames;
    pending.reset();
    pending_counts.clear();
  };
  const uint64_t recovered_now_ms = NowMs();

  auto on_record = [&](const ScannedRecord& scanned, bool probe) -> Status {
    const RecordView& record = scanned.record;
    if (record.type < static_cast<uint8_t>(RecordType::kFrameMeta) ||
        record.type > static_cast<uint8_t>(RecordType::kFrameCommit)) {
      return Status::InvalidArgument("unknown store record type");
    }
    if (probe) return Status::OK();
    if (pending != nullptr && (scanned.segment != pending_segment ||
                               scanned.offset != pending_run_end)) {
      drop_pending();
    }
    const std::shared_ptr<Segment>& seg = src->segments[scanned.segment];
    const uint64_t off = scanned.offset;
    const uint8_t level = record.flags;
    PayloadReader reader{record.payload, record.payload_len};
    switch (static_cast<RecordType>(record.type)) {
      case RecordType::kFrameMeta: {
        drop_pending();
        const int64_t frame_id = reader.I64();
        const uint16_t bands = reader.U16();
        const uint8_t level_count = static_cast<uint8_t>(reader.U16() & 0xff);
        const int64_t expected = reader.I64();
        const uint16_t crs_len = reader.U16();
        const uint8_t* crs_bytes = reader.Take(crs_len);
        const double ox = reader.F64();
        const double oy = reader.F64();
        const double dx = reader.F64();
        const double dy = reader.F64();
        const int64_t w = reader.I64();
        const int64_t h = reader.I64();
        if (!reader.ok || bands < 1 || level_count < 1) break;
        Result<CrsPtr> crs = ResolveCrs(
            std::string(reinterpret_cast<const char*>(crs_bytes), crs_len));
        if (!crs.ok()) {
          GEOSTREAMS_LOG(kWarning)
              << "tile store source '" << source
              << "': frame " << frame_id << " has unresolvable CRS; skipped";
          break;
        }
        pending = std::make_shared<StoredFrame>();
        pending->frame_id = frame_id;
        pending->band_count = bands;
        pending->expected_points = expected;
        pending->segment = seg;
        pending_segment = scanned.segment;
        pending_run_start = off;
        pending->levels.resize(level_count);
        const GridLattice base(*crs, ox, oy, dx, dy, w, h);
        for (uint8_t l = 0; l < level_count; ++l) {
          pending->levels[l].lattice = l == 0 ? base : base.Reduced(1 << l);
        }
        pending_counts.assign(level_count, 0);
        break;
      }
      case RecordType::kTilePage: {
        if (pending == nullptr || level >= pending->levels.size()) break;
        const int64_t frame_id = reader.I64();
        const uint32_t tc = reader.U32();
        const uint32_t tr = reader.U32();
        const uint16_t tw = reader.U16();
        const uint16_t th = reader.U16();
        reader.U16();  // band count (validated against meta on read)
        reader.U16();  // pad
        if (!reader.ok || frame_id != pending->frame_id) break;
        TileRef ref;
        ref.offset = off - pending_run_start;
        ref.length = static_cast<uint32_t>(record.size());
        ref.tile_col = tc;
        ref.tile_row = tr;
        ref.tile_w = tw;
        ref.tile_h = th;
        pending->levels[level].tiles.push_back(ref);
        ++pending_counts[level];
        break;
      }
      case RecordType::kFrameCommit: {
        if (pending == nullptr) break;
        const int64_t frame_id = reader.I64();
        const uint16_t level_count = reader.U16();
        bool counts_ok = reader.ok && frame_id == pending->frame_id &&
                         level_count == pending->levels.size();
        for (uint16_t l = 0; counts_ok && l < level_count; ++l) {
          counts_ok = reader.U32() == pending_counts[l] && reader.ok;
        }
        if (!counts_ok) {
          drop_pending();
          break;
        }
        if (src->frames.count(pending->frame_id) > 0) {
          // The duplicate's run bytes stay dead in this segment (a
          // crash mid-GC-rewrite leaves one of these; GC reclaims the
          // bytes once the segment's live fraction drops).
          ++recovery_.duplicate_frames;
        } else {
          uint64_t tiles = 0;
          for (const StoredLevel& lv : pending->levels) {
            tiles += lv.tiles.size();
          }
          pending->run_offset = pending_run_start;
          pending->run_bytes = off + record.size() - pending_run_start;
          pending->stored_ms = recovered_now_ms;
          seg->live_bytes += pending->run_bytes;
          ++seg->live_frames;
          recovery_.tile_pages_recovered += tiles;
          ++recovery_.frames_recovered;
          src->watermark = std::max(src->watermark, pending->frame_id);
          src->frames.emplace(pending->frame_id, std::move(pending));
        }
        pending.reset();
        pending_counts.clear();
        break;
      }
    }
    pending_run_end = off + record.size();
    return Status::OK();
  };
  GEOSTREAMS_ASSIGN_OR_RETURN(const SegmentScan scan,
                              ScanSegments(kStoreFormat, pages, on_record));
  drop_pending();

  // A corrupt region is skipped: every committed frame around it
  // keeps serving. A torn tail is the write a crash interrupted, and
  // its frame was never committed: cut it off.
  for (const DamagedRegion& region : scan.corrupt) {
    ++recovery_.corrupt_regions;
    GEOSTREAMS_LOG(kError)
        << "tile store source '" << source << "': corrupt region of "
        << region.bytes << " bytes at offset " << region.offset << " of "
        << region.path << " (" << region.reason << ")";
  }
  if (scan.torn_tail()) {
    GEOSTREAMS_RETURN_IF_ERROR(CutTornTail(scan));
    ++recovery_.torn_tails;
    recovery_.torn_bytes += scan.torn.bytes;
    GEOSTREAMS_LOG(kWarning)
        << "tile store source '" << source << "': truncated torn tail at "
        << scan.torn.offset << " of " << scan.torn.path;
  }
  for (size_t i = 0; i < src->segments.size(); ++i) {
    src->segments[i]->bytes = scan.good_bytes[i];
  }
  if (!src->segments.empty()) {
    src->tail = src->segments.back();
    src->resume_bytes = scan.good_bytes.back();
  }

  std::lock_guard<std::mutex> lock(mu_);
  sources_.emplace(source, std::move(src));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Source lookup / segment management

TileStore::SourceStore* TileStore::FindSource(const std::string& source) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(source);
  return it == sources_.end() ? nullptr : it->second.get();
}

TileStore::SourceStore* TileStore::SourceFor(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(source);
  if (it != sources_.end()) return it->second.get();
  auto src = std::make_unique<SourceStore>();
  src->name = source;
  src->dir = options_.dir + "/" + SourceDirName(source);
  // A directory that cannot be created fails the first page open, so
  // the error surfaces as a PutFrame write error.
  Status ignored = CreateSourceDir(options_.dir, source).status();
  (void)ignored;
  SourceStore* out = src.get();
  sources_.emplace(source, std::move(src));
  return out;
}

Result<std::unique_ptr<WritableFile>> TileStore::OpenFile(
    const std::string& path) {
  if (options_.file_factory) return options_.file_factory(path);
  return OpenPosixWritable(path);
}

Status TileStore::EnsureOpenLocked(SourceStore* src) {
  if (src->active != nullptr && !src->tainted &&
      src->active_bytes < options_.segment_max_bytes) {
    return Status::OK();
  }
  if (src->active != nullptr) {
    // Sealing failures no longer vanish: a failed fsync here means
    // the sealed segment's tail may not survive power loss.
    Status sync_st = src->active->Sync();
    Status close_st = src->active->Close();
    if (!sync_st.ok() || !close_st.ok()) {
      ++src->stats.sync_errors;
      GEOSTREAMS_LOG(kWarning)
          << "tile store source '" << src->name << "': sealing segment: "
          << (!sync_st.ok() ? sync_st : close_st).ToString();
    }
    src->active.reset();
  }
  const bool resume = !src->tainted && !src->resumed &&
                      src->tail != nullptr &&
                      src->resume_bytes < options_.segment_max_bytes;
  src->resumed = true;
  src->tainted = false;
  if (resume) {
    GEOSTREAMS_ASSIGN_OR_RETURN(src->active, OpenFile(src->tail->path));
    src->active_bytes = src->resume_bytes;
    return Status::OK();
  }
  const std::string path = PagePath(src->dir, src->next_page_no++);
  GEOSTREAMS_ASSIGN_OR_RETURN(src->active, OpenFile(path));
  Result<std::shared_ptr<Segment>> seg = Segment::Open(path);
  if (!seg.ok()) {
    Status ignored = src->active->Close();
    (void)ignored;
    src->active.reset();
    return seg.status();
  }
  src->tail = *std::move(seg);
  src->segments.push_back(src->tail);
  src->active_bytes = 0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Write path

Status TileStore::PutFrame(const std::string& source, const FrameInfo& info,
                           const Raster& raster,
                           const std::vector<uint8_t>& filled) {
  const int64_t w = raster.width();
  const int64_t h = raster.height();
  if (w <= 0 || h <= 0) {
    return Status::InvalidArgument("cannot store an empty raster");
  }
  if (filled.size() != static_cast<size_t>(w * h)) {
    return Status::InvalidArgument("occupancy mask does not match raster");
  }
  const GridLattice& base =
      raster.lattice().width() == w && raster.lattice().height() == h
          ? raster.lattice()
          : info.lattice;
  if (base.crs() == nullptr) {
    return Status::InvalidArgument("stored frames need a lattice with a CRS");
  }

  SourceStore* src = SourceFor(source);
  std::lock_guard<std::mutex> lock(src->mu);
  if (src->frames.count(info.frame_id) > 0) {
    // Already durable. A producer's crash replay lands here, but so
    // does a producer that numbers its frames from 0 again over an
    // old store, whose frames are then all dropped: count every drop
    // and say so once.
    ++src->stats.frames_duplicate;
    if (!src->warned_duplicate) {
      src->warned_duplicate = true;
      GEOSTREAMS_LOG(kWarning)
          << "tile store source '" << src->name << "': frame "
          << info.frame_id
          << " is already stored, dropping it (the producer replayed it "
             "or restarted its frame ids); further drops are counted in "
             "geostreams_store_frames_duplicate_total";
    }
    return Status::OK();
  }
  StorageGovernor* gov = options_.governor;
  if (gov != nullptr) {
    // Degraded-mode shed happens before any encode work; replayed
    // already-durable frames (above) still succeed while degraded.
    Status admit = gov->Admit("store");
    if (!admit.ok()) {
      ++src->stats.frames_rejected;
      return admit;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Build the pyramid in memory: level 0 is the frame itself, each
  // further level halves the resolution until one tile covers it.
  std::vector<LevelImage> levels;
  levels.push_back(LevelImage{raster, filled});
  levels.back().raster.set_lattice(base);
  const int tile = options_.tile_size;
  while (static_cast<int>(levels.size()) <= options_.max_levels &&
         (levels.back().raster.width() > tile ||
          levels.back().raster.height() > tile)) {
    levels.push_back(ReduceMasked(levels.back()));
  }

  auto frame = std::make_shared<StoredFrame>();
  frame->frame_id = info.frame_id;
  frame->band_count = raster.bands();
  frame->expected_points = info.expected_points;
  frame->levels.resize(levels.size());
  for (size_t l = 0; l < levels.size(); ++l) {
    frame->levels[l].lattice =
        l == 0 ? base : base.Reduced(1 << static_cast<int>(l));
  }

  // Encode the whole record run (meta, pages, commit) into one
  // buffer; a single append keeps the run contiguous and makes any
  // torn write an uncommitted (hence invisible) frame.
  std::vector<uint8_t> run;
  std::vector<uint8_t> payload;
  {
    payload.clear();
    PutI64(payload, info.frame_id);
    PutU16(payload, static_cast<uint16_t>(raster.bands()));
    PutU16(payload, static_cast<uint16_t>(levels.size() & 0xff));
    PutI64(payload, info.expected_points);
    PutString(payload, base.crs()->name());
    PutF64(payload, base.origin_x());
    PutF64(payload, base.origin_y());
    PutF64(payload, base.dx());
    PutF64(payload, base.dy());
    PutI64(payload, base.width());
    PutI64(payload, base.height());
    AppendStoreRecord(run, RecordType::kFrameMeta, 0, payload);
  }

  std::vector<uint32_t> level_counts(levels.size(), 0);
  uint64_t total_tiles = 0;
  for (size_t l = 0; l < levels.size(); ++l) {
    const LevelImage& img = levels[l];
    const int64_t lw = img.raster.width();
    const int64_t lh = img.raster.height();
    const int bands = img.raster.bands();
    const int64_t tiles_x = (lw + tile - 1) / tile;
    const int64_t tiles_y = (lh + tile - 1) / tile;
    for (int64_t tr = 0; tr < tiles_y; ++tr) {
      for (int64_t tc = 0; tc < tiles_x; ++tc) {
        const int64_t c0 = tc * tile;
        const int64_t r0 = tr * tile;
        const uint16_t tw = static_cast<uint16_t>(std::min<int64_t>(tile, lw - c0));
        const uint16_t th = static_cast<uint16_t>(std::min<int64_t>(tile, lh - r0));
        // Occupancy bitmap + filled samples only: a restricted stream
        // covering 5% of the sector costs 5% of the page bytes.
        std::vector<uint8_t> bitmap((static_cast<size_t>(tw) * th + 7) / 8, 0);
        std::vector<double> samples;
        uint32_t filled_cells = 0;
        for (int64_t r = 0; r < th; ++r) {
          for (int64_t c = 0; c < tw; ++c) {
            const size_t cell = static_cast<size_t>((r0 + r) * lw + (c0 + c));
            if (!img.filled[cell]) continue;
            const size_t bit = static_cast<size_t>(r * tw + c);
            bitmap[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
            ++filled_cells;
            for (int b = 0; b < bands; ++b) {
              samples.push_back(img.raster.At(c0 + c, r0 + r, b));
            }
          }
        }
        if (filled_cells == 0) continue;  // empty tiles are never written
        payload.clear();
        PutI64(payload, info.frame_id);
        PutU32(payload, static_cast<uint32_t>(tc));
        PutU32(payload, static_cast<uint32_t>(tr));
        PutU16(payload, tw);
        PutU16(payload, th);
        PutU16(payload, static_cast<uint16_t>(bands));
        PutU16(payload, 0);
        payload.insert(payload.end(), bitmap.begin(), bitmap.end());
        PutArray(payload, samples.data(), samples.size());

        TileRef ref;
        ref.offset = run.size();
        ref.tile_col = static_cast<uint32_t>(tc);
        ref.tile_row = static_cast<uint32_t>(tr);
        ref.tile_w = tw;
        ref.tile_h = th;
        const size_t before = run.size();
        AppendStoreRecord(run, RecordType::kTilePage, static_cast<uint8_t>(l),
                     payload);
        ref.length = static_cast<uint32_t>(run.size() - before);
        frame->levels[l].tiles.push_back(ref);
        ++level_counts[l];
        ++total_tiles;
      }
    }
  }

  {
    payload.clear();
    PutI64(payload, info.frame_id);
    PutU16(payload, static_cast<uint16_t>(levels.size()));
    for (uint32_t count : level_counts) PutU32(payload, count);
    AppendStoreRecord(run, RecordType::kFrameCommit, 0, payload);
  }

  Status st = EnsureOpenLocked(src);
  if (st.ok()) st = src->active->Append(run.data(), run.size());
  if (st.ok() && options_.fsync_frames) st = src->active->Sync();
  if (gov != nullptr) gov->RecordWriteResult("store", st);
  if (!st.ok()) {
    // Abandon the segment: the partial run has no commit record, so
    // recovery (and every reader — it is not indexed) ignores it.
    if (src->active != nullptr) {
      Status ignored = src->active->Close();
      (void)ignored;
      src->active.reset();
    }
    src->tainted = true;
    ++src->stats.write_errors;
    return st;
  }

  frame->segment = src->tail;
  frame->run_offset = src->active_bytes;
  frame->run_bytes = run.size();
  frame->stored_ms = NowMs();
  src->active_bytes += run.size();
  src->tail->bytes = src->active_bytes;
  src->tail->live_bytes += run.size();
  ++src->tail->live_frames;
  if (gov != nullptr) {
    gov->AddUsage("store", static_cast<int64_t>(run.size()));
  }
  src->watermark = std::max(src->watermark, info.frame_id);
  src->frames.emplace(info.frame_id, std::move(frame));
  ++src->stats.frames_written;
  src->stats.tiles_written += total_tiles;
  src->stats.bytes_written += run.size();
  if (put_latency_us_) put_latency_us_->Observe(ElapsedUs(t0));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Read path

int64_t TileStore::Watermark(const std::string& source) const {
  SourceStore* src = FindSource(source);
  if (src == nullptr) return std::numeric_limits<int64_t>::min();
  std::lock_guard<std::mutex> lock(src->mu);
  return src->watermark;
}

std::vector<int64_t> TileStore::FrameIds(const std::string& source,
                                         int64_t lo, int64_t hi) const {
  std::vector<int64_t> out;
  SourceStore* src = FindSource(source);
  if (src == nullptr) return out;
  std::lock_guard<std::mutex> lock(src->mu);
  for (auto it = src->frames.lower_bound(lo);
       it != src->frames.end() && it->first <= hi; ++it) {
    out.push_back(it->first);
  }
  return out;
}

Status TileStore::ReadTileRecord(const StoredFrame& frame, const TileRef& ref,
                                 std::vector<uint8_t>* buf) {
  // Lock-free: the caller's frame snapshot holds the segment, so its
  // fd stays open — and the file readable, unlinked or not — until
  // the snapshot is dropped.
  const int fd = frame.segment->fd;
  const uint64_t offset = frame.run_offset + ref.offset;
  buf->resize(ref.length);
  size_t got = 0;
  while (got < ref.length) {
    const ssize_t n =
        ::pread(fd, buf->data() + got, ref.length - got,
                static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StringPrintf("pread: %s", std::strerror(errno)));
    }
    if (n == 0) {
      return Status::IoError("tile page truncated under the index");
    }
    got += static_cast<size_t>(n);
  }
  GEOSTREAMS_ASSIGN_OR_RETURN(
      const RecordView record,
      ParseRecord(kStoreFormat, buf->data(), buf->size()));
  if (record.size() != buf->size() ||
      record.type != static_cast<uint8_t>(RecordType::kTilePage)) {
    return Status::IoError("tile ref does not address a tile page");
  }
  return Status::OK();
}

Status TileStore::EmitFrame(SourceStore* src,
                            const std::shared_ptr<const StoredFrame>& frame,
                            const StoreScan& scan, EventSink* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  // The deepest overview whose scale stays within the reduce hint:
  // reading a 4x-reduced view touches ~1/16th of the cells.
  size_t level = 0;
  while (level + 1 < frame->levels.size() &&
         (1 << static_cast<int>(level + 1)) <= std::max(scan.reduce, 1)) {
    ++level;
  }
  const StoredLevel& lv = frame->levels[level];
  const GridLattice& lattice = lv.lattice;

  FrameInfo info;
  info.frame_id = frame->frame_id;
  info.lattice = lattice;
  // Same convention as the stream generator's FrameBegin; nothing
  // gates frame completion on it (FrameEnd does), it is metadata.
  info.expected_points = lattice.num_cells();
  GEOSTREAMS_RETURN_IF_ERROR(sink->Consume(StreamEvent::FrameBegin(info)));

  BoundingBox region_bounds;
  if (scan.region != nullptr) region_bounds = scan.region->bounds();
  const double half_x = std::abs(lattice.dx()) / 2.0;
  const double half_y = std::abs(lattice.dy()) / 2.0;

  // A cap of 0 cuts after every point, as a cap of 1 does.
  const size_t batch_cap = std::max<size_t>(scan.max_batch_points, 1);
  auto batch = std::make_shared<PointBatch>();
  auto reset_batch = [&] {
    batch = std::make_shared<PointBatch>();
    batch->frame_id = frame->frame_id;
    batch->band_count = frame->band_count;
    batch->Reserve(scan.max_batch_points);
  };
  reset_batch();
  auto flush_batch = [&]() -> Status {
    if (batch->empty()) return Status::OK();
    PointBatchPtr out = std::move(batch);
    reset_batch();
    return sink->Consume(StreamEvent::Batch(std::move(out)));
  };

  // Temporal pruning: a frame outside the pushed-down time sets emits
  // its Begin/End (the live temporal op forwards control events, and
  // replay must match that sequence exactly) but reads no tiles.
  bool times_pass = true;
  for (const TimeSet& times : scan.times) {
    if (!times.Contains(frame->frame_id)) {
      times_pass = false;
      break;
    }
  }

  uint64_t tiles_read = 0;
  uint64_t tile_errors = 0;
  std::vector<uint8_t> buf;
  bool warned = false;
  static const std::vector<TileRef> kNoTiles;
  for (const TileRef& ref : times_pass ? lv.tiles : kNoTiles) {
    if (scan.region != nullptr) {
      // Tile extent from cell centres, padded by half a cell.
      const int64_t c0 = static_cast<int64_t>(ref.tile_col) *
                         options_.tile_size;
      const int64_t r0 = static_cast<int64_t>(ref.tile_row) *
                         options_.tile_size;
      const double x0 = lattice.CellX(c0);
      const double x1 = lattice.CellX(c0 + ref.tile_w - 1);
      const double y0 = lattice.CellY(r0);
      const double y1 = lattice.CellY(r0 + ref.tile_h - 1);
      BoundingBox tile_box(std::min(x0, x1) - half_x, std::min(y0, y1) - half_y,
                           std::max(x0, x1) + half_x,
                           std::max(y0, y1) + half_y);
      if (!tile_box.Intersects(region_bounds)) continue;
    }
    Status st = ReadTileRecord(*frame, ref, &buf);
    if (!st.ok()) {
      // Serve what survives: a rotten page loses its tile, not the
      // frame, and the loss is counted and logged once.
      ++tile_errors;
      if (!warned) {
        warned = true;
        GEOSTREAMS_LOG(kWarning)
            << "tile store source '" << src->name << "': unreadable tile in "
            << "frame " << frame->frame_id << ": " << st.ToString();
      }
      continue;
    }
    ++tiles_read;
    PayloadReader reader{buf.data() + kRecordHeaderSize,
                         buf.size() - kRecordHeaderSize};
    reader.I64();  // frame id (validated by the index)
    reader.U32();  // tile col
    reader.U32();  // tile row
    const uint16_t tw = reader.U16();
    const uint16_t th = reader.U16();
    const uint16_t bands = reader.U16();
    reader.U16();
    const size_t bitmap_len = (static_cast<size_t>(tw) * th + 7) / 8;
    const uint8_t* bitmap = reader.Take(bitmap_len);
    if (!reader.ok || bands != frame->band_count || tw != ref.tile_w ||
        th != ref.tile_h) {
      ++tile_errors;
      continue;
    }
    // The filled cells' samples follow the bitmap in bitmap order, one
    // `stride` of band-interleaved doubles each: a page too short for
    // its bitmap is damaged as a whole.
    const size_t stride = static_cast<size_t>(bands) * sizeof(double);
    const uint8_t* samples = reader.Take(
        CountBits(bitmap, static_cast<size_t>(tw) * th) * stride);
    if (samples == nullptr) {
      ++tile_errors;
      continue;
    }
    const int64_t c0 = static_cast<int64_t>(ref.tile_col) * options_.tile_size;
    const int64_t r0 = static_cast<int64_t>(ref.tile_row) * options_.tile_size;
    // Each row is walked as runs of filled cells; the region test stays
    // per cell, and every kept stretch of a run is appended in bulk, cut
    // where a batch fills.
    for (int64_t r = 0; r < th; ++r) {
      const int32_t row = static_cast<int32_t>(r0 + r);
      const double y = lattice.CellY(row);
      const size_t row_bit = static_cast<size_t>(r) * tw;
      const size_t row_end = row_bit + tw;
      auto col_of = [&](size_t bit) {
        return static_cast<int32_t>(c0 + static_cast<int64_t>(bit - row_bit));
      };
      auto inside = [&](size_t bit) {
        return scan.region->Contains(lattice.CellX(col_of(bit)), y);
      };
      size_t bit = FindBit(bitmap, row_bit, row_end, true);
      while (bit < row_end) {
        const size_t run_end = FindBit(bitmap, bit, row_end, false);
        while (bit < run_end) {
          size_t keep_end = run_end;
          if (scan.region != nullptr) {
            for (; bit < run_end && !inside(bit); ++bit) samples += stride;
            keep_end = bit;
            while (keep_end < run_end && inside(keep_end)) ++keep_end;
          }
          while (bit < keep_end) {
            const size_t n =
                std::min(keep_end - bit, batch_cap - batch->size());
            double* dst =
                batch->AppendRowRun(col_of(bit), row, frame->frame_id, n);
            GetArray(samples, dst, n * bands);
            samples += n * stride;
            bit += n;
            if (batch->size() >= batch_cap) {
              GEOSTREAMS_RETURN_IF_ERROR(flush_batch());
            }
          }
        }
        bit = FindBit(bitmap, run_end, row_end, true);
      }
    }
  }
  GEOSTREAMS_RETURN_IF_ERROR(flush_batch());
  GEOSTREAMS_RETURN_IF_ERROR(sink->Consume(StreamEvent::FrameEnd(info)));

  {
    std::lock_guard<std::mutex> lock(src->mu);
    ++src->stats.frames_read;
    src->stats.tiles_read += tiles_read;
    src->stats.tile_read_errors += tile_errors;
  }
  if (scan_frame_latency_us_) {
    scan_frame_latency_us_->Observe(ElapsedUs(t0));
  }
  return Status::OK();
}

namespace {

bool FramePasses(int64_t frame_id, const StoreScan& scan) {
  // Only the id bounds select frames; scan.times prune tile IO inside
  // EmitFrame but never suppress a frame's control events.
  return frame_id >= scan.min_frame_id && frame_id <= scan.max_frame_id;
}

}  // namespace

Status TileStore::Scan(const std::string& source, const StoreScan& scan,
                       EventSink* sink) {
  SourceStore* src = FindSource(source);
  if (src == nullptr) return Status::OK();
  // The snapshot holds every frame's segment: each file this scan
  // reads stays open until it returns, whatever GC does meanwhile.
  std::vector<std::shared_ptr<const StoredFrame>> frames;
  {
    std::lock_guard<std::mutex> lock(src->mu);
    for (auto it = src->frames.lower_bound(scan.min_frame_id);
         it != src->frames.end() && it->first <= scan.max_frame_id; ++it) {
      if (FramePasses(it->first, scan)) frames.push_back(it->second);
    }
  }
  for (const auto& frame : frames) {
    GEOSTREAMS_RETURN_IF_ERROR(EmitFrame(src, frame, scan, sink));
  }
  return Status::OK();
}

Status TileStore::ScanFrame(const std::string& source, int64_t frame_id,
                            const StoreScan& scan, EventSink* sink) {
  SourceStore* src = FindSource(source);
  if (src == nullptr) {
    return Status::NotFound("no stored frames for source " + source);
  }
  std::shared_ptr<const StoredFrame> frame;
  {
    std::lock_guard<std::mutex> lock(src->mu);
    auto it = src->frames.find(frame_id);
    if (it != src->frames.end()) frame = it->second;
  }
  if (frame == nullptr || !FramePasses(frame_id, scan)) {
    return Status::NotFound(StringPrintf(
        "frame %lld is not stored for source %s",
        static_cast<long long>(frame_id), source.c_str()));
  }
  return EmitFrame(src, frame, scan, sink);
}

StoreHorizon TileStore::Horizon(const std::string& source) const {
  StoreHorizon out;
  SourceStore* src = FindSource(source);
  if (src == nullptr) return out;
  std::lock_guard<std::mutex> lock(src->mu);
  if (!src->frames.empty()) out.oldest_frame_id = src->frames.begin()->first;
  out.pruned_upto = src->pruned_upto;
  out.frames_pruned = src->stats.frames_pruned;
  return out;
}

TileStoreStats TileStore::TotalStats() const {
  std::vector<SourceStore*> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources.reserve(sources_.size());
    for (const auto& [name, src] : sources_) sources.push_back(src.get());
  }
  TileStoreStats total;
  for (SourceStore* src : sources) {
    std::lock_guard<std::mutex> lock(src->mu);
    total.frames_written += src->stats.frames_written;
    total.tiles_written += src->stats.tiles_written;
    total.bytes_written += src->stats.bytes_written;
    total.write_errors += src->stats.write_errors;
    total.frames_read += src->stats.frames_read;
    total.tiles_read += src->stats.tiles_read;
    total.tile_read_errors += src->stats.tile_read_errors;
    total.frames_rejected += src->stats.frames_rejected;
    total.frames_duplicate += src->stats.frames_duplicate;
    total.sync_errors += src->stats.sync_errors;
    total.frames_pruned += src->stats.frames_pruned;
    total.segments_deleted += src->stats.segments_deleted;
    total.segments_rewritten += src->stats.segments_rewritten;
    total.bytes_reclaimed += src->stats.bytes_reclaimed;
  }
  return total;
}

Status TileStore::SyncAll() {
  std::vector<SourceStore*> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources.reserve(sources_.size());
    for (const auto& [name, src] : sources_) sources.push_back(src.get());
  }
  Status first = Status::OK();
  for (SourceStore* src : sources) {
    std::lock_guard<std::mutex> lock(src->mu);
    if (src->active == nullptr) continue;
    Status st = src->active->Sync();
    if (!st.ok()) {
      ++src->stats.sync_errors;
      if (first.ok()) first = st;
    }
  }
  return first;
}

// ---------------------------------------------------------------------------
// Retention and garbage collection

void TileStore::GcThreadMain() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(gc_wake_mu_);
      gc_cv_.wait_for(lock, std::chrono::milliseconds(options_.gc_interval_ms),
                      [this] { return stopping_; });
      if (stopping_) return;
    }
    Status st = RunRetentionNow();
    if (!st.ok()) {
      GEOSTREAMS_LOG(kWarning)
          << "tile store retention pass: " << st.ToString();
    }
  }
}

Status TileStore::RunRetentionNow() {
  std::lock_guard<std::mutex> gc_lock(gc_mu_);
  std::vector<SourceStore*> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources.reserve(sources_.size());
    for (const auto& [name, src] : sources_) sources.push_back(src.get());
  }
  Status first = Status::OK();
  for (SourceStore* src : sources) {
    Status st = ApplyRetentionSource(src);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Status TileStore::ApplyRetentionSource(SourceStore* src) {
  const uint64_t max_bytes = options_.retention_max_bytes;
  const uint64_t max_age_ms = options_.retention_max_age_ms;
  const uint64_t max_frames = options_.retention_max_frames;
  const uint64_t now = NowMs();
  Status first = Status::OK();
  uint64_t reclaimed_total = 0;
  uint64_t pruned_this_pass = 0;
  uint64_t segments_deleted_this_pass = 0;
  uint64_t segments_rewritten_this_pass = 0;

  std::lock_guard<std::mutex> lock(src->mu);

  // Phase 1 — prune the oldest frames over budget. Disk bytes only
  // actually drop when segment GC (phase 2) runs, so the byte budget
  // works on a projection that debits each pruned frame's run.
  uint64_t projected = 0;
  for (const auto& seg : src->segments) projected += seg->bytes;
  while (src->frames.size() > options_.retention_min_frames) {
    auto oldest = src->frames.begin();
    bool evict = false;
    if (max_frames > 0 && src->frames.size() > max_frames) evict = true;
    if (!evict && max_bytes > 0 && projected > max_bytes) evict = true;
    if (!evict && max_age_ms > 0) {
      const uint64_t stored = oldest->second->stored_ms;
      if (now > stored && now - stored > max_age_ms) evict = true;
    }
    if (!evict) break;
    const StoredFrame& f = *oldest->second;
    Segment& seg = *f.segment;
    seg.live_bytes -= std::min(seg.live_bytes, f.run_bytes);
    if (seg.live_frames > 0) --seg.live_frames;
    projected -= std::min(projected, f.run_bytes);
    src->pruned_upto = std::max(src->pruned_upto, f.frame_id);
    ++src->stats.frames_pruned;
    ++pruned_this_pass;
    src->frames.erase(oldest);
  }

  // Phase 2 — segment GC over every sealed segment (all but the
  // tail). Iterates a copy: retiring erases from the list and a
  // rewrite appends to it.
  const std::vector<std::shared_ptr<Segment>> sealed = src->segments;
  for (const std::shared_ptr<Segment>& seg : sealed) {
    if (seg == src->tail) continue;
    if (seg->live_frames == 0) {
      const uint64_t freed = RetireSegmentLocked(src, seg);
      if (freed > 0) {
        reclaimed_total += freed;
        ++src->stats.segments_deleted;
        ++segments_deleted_this_pass;
      }
      continue;
    }
    const uint64_t bytes = seg->bytes;
    const uint64_t live = std::min(bytes, seg->live_bytes);
    if (options_.gc_rewrite_dead_fraction > 0 && bytes > 0) {
      const double dead_fraction =
          static_cast<double>(bytes - live) / static_cast<double>(bytes);
      if (dead_fraction >= options_.gc_rewrite_dead_fraction) {
        uint64_t reclaimed = 0;
        Status st = RewriteSegmentLocked(src, seg, &reclaimed);
        reclaimed_total += reclaimed;
        if (reclaimed > 0) ++segments_rewritten_this_pass;
        if (!st.ok() && first.ok()) first = st;
      }
    }
  }

  if (reclaimed_total > 0) {
    src->stats.bytes_reclaimed += reclaimed_total;
    if (options_.governor != nullptr) {
      options_.governor->AddUsage("store",
                                  -static_cast<int64_t>(reclaimed_total));
    }
  }
  if (options_.event_log != nullptr &&
      (pruned_this_pass > 0 || segments_deleted_this_pass > 0 ||
       segments_rewritten_this_pass > 0)) {
    // One event per source per pass, never per frame: a steady prune
    // cadence cannot evict more interesting ring entries.
    options_.event_log->Append(
        EventSeverity::kInfo, "store", "retention",
        StringPrintf("source=%s pruned=%llu segments_deleted=%llu "
                     "segments_rewritten=%llu reclaimed_bytes=%llu",
                     src->name.c_str(),
                     static_cast<unsigned long long>(pruned_this_pass),
                     static_cast<unsigned long long>(
                         segments_deleted_this_pass),
                     static_cast<unsigned long long>(
                         segments_rewritten_this_pass),
                     static_cast<unsigned long long>(reclaimed_total)));
  }
  return first;
}

uint64_t TileStore::RetireSegmentLocked(SourceStore* src,
                                        std::shared_ptr<Segment> seg) {
  std::error_code ec;
  fs::remove(seg->path, ec);
  if (ec) {
    GEOSTREAMS_LOG(kWarning)
        << "tile store: remove " << seg->path << ": " << ec.message()
        << " (will retry next pass)";
    return 0;
  }
  src->segments.erase(
      std::find(src->segments.begin(), src->segments.end(), seg));
  return seg->bytes;
}

Status TileStore::RewriteSegmentLocked(SourceStore* src,
                                       std::shared_ptr<Segment> seg,
                                       uint64_t* reclaimed) {
  *reclaimed = 0;
  // Surviving frames of this segment, in file order.
  std::vector<std::shared_ptr<const StoredFrame>> live;
  for (const auto& [id, frame] : src->frames) {
    if (frame->segment == seg) live.push_back(frame);
  }
  std::sort(live.begin(), live.end(),
            [](const std::shared_ptr<const StoredFrame>& a,
               const std::shared_ptr<const StoredFrame>& b) {
              return a->run_offset < b->run_offset;
            });
  if (live.empty()) {
    const uint64_t freed = RetireSegmentLocked(src, seg);
    if (freed > 0) {
      *reclaimed = freed;
      ++src->stats.segments_deleted;
    }
    return Status::OK();
  }

  std::vector<uint8_t> data;
  GEOSTREAMS_RETURN_IF_ERROR(ReadWholeFile(seg->path, &data));

  // Pack the live runs into a fresh page, written through the
  // injectable factory so crash kill-points and injected ENOSPC gate
  // GC exactly like ingestion.
  std::vector<uint8_t> packed;
  std::vector<uint64_t> new_offsets;
  new_offsets.reserve(live.size());
  for (const auto& frame : live) {
    if (frame->run_offset + frame->run_bytes > data.size()) {
      return Status::Internal(StringPrintf(
          "frame %lld run exceeds segment bounds",
          static_cast<long long>(frame->frame_id)));
    }
    new_offsets.push_back(packed.size());
    packed.insert(packed.end(), data.begin() + frame->run_offset,
                  data.begin() + frame->run_offset + frame->run_bytes);
  }

  const std::string path = PagePath(src->dir, src->next_page_no++);
  Status st;
  {
    Result<std::unique_ptr<WritableFile>> out = OpenFile(path);
    if (!out.ok()) return out.status();
    st = (*out)->Append(packed.data(), packed.size());
    // The copy is durable before the original is unlinked: a crash in
    // between leaves the frames committed twice, and recovery's
    // duplicate-frame dedup keeps exactly one.
    if (st.ok()) st = (*out)->Sync();
    Status close_st = (*out)->Close();
    if (st.ok()) st = close_st;
  }
  if (options_.governor != nullptr) {
    options_.governor->RecordWriteResult("store", st);
  }
  if (!st.ok()) {
    std::error_code ec;
    fs::remove(path, ec);  // the half-written copy is dead weight
    return st;
  }

  Result<std::shared_ptr<Segment>> opened = Segment::Open(path);
  if (!opened.ok()) {
    std::error_code ec;
    fs::remove(path, ec);
    return opened.status();
  }

  // Install the copy: fresh StoredFrame objects that own the new
  // segment (in-flight snapshots keep the old ones, and so the old
  // file). Tile offsets are run-relative, so only the run moves.
  std::shared_ptr<Segment> copy_seg = *std::move(opened);
  copy_seg->bytes = packed.size();
  copy_seg->live_bytes = packed.size();
  copy_seg->live_frames = live.size();
  src->segments.push_back(copy_seg);
  for (size_t k = 0; k < live.size(); ++k) {
    auto copy = std::make_shared<StoredFrame>(*live[k]);
    copy->segment = copy_seg;
    copy->run_offset = new_offsets[k];
    src->frames[copy->frame_id] = std::move(copy);
  }
  // Nothing in the index lives in the old file any more; should the
  // unlink fail, the next pass retries it as a fully-dead segment.
  seg->live_bytes = 0;
  seg->live_frames = 0;

  const uint64_t freed = RetireSegmentLocked(src, seg);
  if (freed >= packed.size()) {
    *reclaimed = freed - packed.size();
  }
  ++src->stats.segments_rewritten;
  if (options_.governor != nullptr && freed == 0) {
    // Unlink failed: the new copy still landed, account its bytes.
    options_.governor->AddUsage("store", static_cast<int64_t>(packed.size()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// StoreIngestSink

namespace {

/// Minimum gap between store-failure warnings from one sink. A
/// degraded disk fails every frame; one line per frame floods the log
/// without adding information.
constexpr uint64_t kStoreWarnIntervalMs = 5000;

uint64_t SteadyMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

StoreIngestSink::StoreIngestSink(TileStore* store, std::string source)
    : store_(store), source_(std::move(source)) {}

void StoreIngestSink::WarnStoreFailure(const Status& status,
                                       const char* what) {
  const uint64_t now = SteadyMs();
  if (in_error_streak_ && now - last_warn_ms_ < kStoreWarnIntervalMs) {
    ++suppressed_warnings_;
    return;
  }
  std::string suppressed;
  if (suppressed_warnings_ > 0) {
    suppressed = StringPrintf(
        ", %llu similar suppressed",
        static_cast<unsigned long long>(suppressed_warnings_));
  }
  in_error_streak_ = true;
  last_warn_ms_ = now;
  suppressed_warnings_ = 0;
  GEOSTREAMS_LOG(kWarning)
      << "tile store " << what << " on " << source_
      << " (live chain continues" << suppressed
      << "): " << status.ToString();
}

void StoreIngestSink::NoteStoreSuccess() {
  if (!in_error_streak_) return;
  std::string suppressed;
  if (suppressed_warnings_ > 0) {
    suppressed = StringPrintf(
        " (%llu warnings were suppressed)",
        static_cast<unsigned long long>(suppressed_warnings_));
  }
  in_error_streak_ = false;
  last_warn_ms_ = 0;
  suppressed_warnings_ = 0;
  GEOSTREAMS_LOG(kInfo)
      << "tile store writes recovered on " << source_ << suppressed;
}

Status StoreIngestSink::Consume(const StreamEvent& event) {
  switch (event.kind) {
    case EventKind::kFrameBegin:
      // A Begin while a frame is open means its End was lost: the
      // open frame is incomplete and must not enter history (live
      // subscribers never saw it finish either).
      assembler_.Abort();
      pending_info_ = event.frame;
      frame_pending_ = true;
      return Status::OK();
    case EventKind::kPointBatch: {
      if (event.batch == nullptr) return Status::OK();
      if (frame_pending_ && !assembler_.active()) {
        Status st = assembler_.Begin(pending_info_, event.batch->band_count);
        if (!st.ok()) {
          frame_pending_ = false;
          store_errors_.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        }
      }
      if (!assembler_.active() ||
          event.batch->frame_id != assembler_.frame_id()) {
        // Point-by-point instruments (no frames) and stray batches
        // are not framed history; the store only persists frames.
        return Status::OK();
      }
      Status st = assembler_.Add(*event.batch);
      if (!st.ok()) {
        assembler_.Abort();
        frame_pending_ = false;
        store_errors_.fetch_add(1, std::memory_order_relaxed);
        WarnStoreFailure(st, "skips frame");
      }
      return Status::OK();
    }
    case EventKind::kFrameEnd: {
      if (!frame_pending_) return Status::OK();
      frame_pending_ = false;
      if (!assembler_.active()) {
        // A frame with no batches still happened: record it so a
        // catch-up replay reproduces the exact live sequence.
        Status st = assembler_.Begin(pending_info_, 1);
        if (!st.ok()) {
          store_errors_.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        }
      }
      Result<AssembledFrame> assembled = assembler_.Finish();
      if (!assembled.ok()) {
        store_errors_.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
      assembled->Expand();  // history holds whole frames
      Status st = store_->PutFrame(source_, pending_info_, assembled->raster,
                                   assembled->filled);
      if (st.ok()) {
        frames_stored_.fetch_add(1, std::memory_order_relaxed);
        NoteStoreSuccess();
      } else {
        store_errors_.fetch_add(1, std::memory_order_relaxed);
        WarnStoreFailure(st, "write failed");
      }
      return Status::OK();
    }
    case EventKind::kStreamEnd:
      assembler_.Abort();
      frame_pending_ = false;
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace geostreams
