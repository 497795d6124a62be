// TileStore retention + garbage-collection tests: pruning by frame
// count / byte budget / age (pinned clock), whole-segment deletion,
// partially-dead segment rewrites (live frame runs re-based into a
// fresh page and still bit-exact), the retention horizon for catch-up
// truncation reporting, reopen recovery after GC, governor budget
// coupling with exact on-disk usage accounting, and degraded-mode
// PutFrame shedding with self-heal.

#include "store/tile_store.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/faulty_file.h"
#include "storage/governor.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

namespace fs = std::filesystem;
using testing_util::LatLonLattice;
using testing_util::TestValue;

std::string FreshDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "gsret-" +
                    info->test_suite_name() + "-" + info->name() + "-" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Raster FullFrame(const GridLattice& lattice, int64_t frame_id) {
  Raster raster(lattice.width(), lattice.height(), 1);
  raster.set_lattice(lattice);
  for (int64_t row = 0; row < lattice.height(); ++row) {
    for (int64_t col = 0; col < lattice.width(); ++col) {
      raster.Set(col, row, TestValue(frame_id, col, row));
    }
  }
  return raster;
}

Status PutFullFrame(TileStore* store, const std::string& source,
                    const GridLattice& lattice, int64_t frame_id) {
  FrameInfo info;
  info.frame_id = frame_id;
  info.lattice = lattice;
  info.expected_points = lattice.num_cells();
  const Raster raster = FullFrame(lattice, frame_id);
  const std::vector<uint8_t> filled(
      static_cast<size_t>(lattice.num_cells()), 1);
  return store->PutFrame(source, info, raster, filled);
}

/// Sum of page-segment bytes under <dir>/<source sanitized dir>.
uint64_t PageBytesOnDisk(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("page-", 0) == 0) total += entry.file_size();
  }
  return total;
}

/// This process's open fds that point at unlinked files under `dir`
/// (Linux renders such /proc/self/fd links as "<path> (deleted)").
size_t DeletedFdsUnder(const std::string& dir) {
  const std::string root = fs::canonical(dir).string() + "/";
  const std::string deleted = " (deleted)";
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::string target = fs::read_symlink(entry.path(), ec).string();
    if (ec || target.rfind(root, 0) != 0 || target.size() < deleted.size()) {
      continue;
    }
    if (target.compare(target.size() - deleted.size(), deleted.size(),
                       deleted) == 0) {
      ++n;
    }
  }
  return n;
}

/// Collects a scan but parks the scanning thread at its first
/// FrameBegin until Resume(): the scan has snapshotted the index and
/// read no tile yet.
class ParkingSink : public EventSink {
 public:
  Status Consume(const StreamEvent& event) override {
    if (event.kind == EventKind::kFrameBegin) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!parked_) {
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return resumed_; });
      }
    }
    return sink_.Consume(event);
  }
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Resume() {
    std::lock_guard<std::mutex> lock(mu_);
    resumed_ = true;
    cv_.notify_all();
  }
  const CollectingSink& collected() const { return sink_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool resumed_ = false;
  CollectingSink sink_;
};

/// Writes frames 1..`frames`, parks a full scan A at its first
/// FrameBegin, runs one retention pass that unlinks (or rewrites)
/// the segments under A's snapshot, completes a second scan B, then
/// resumes A. A must emit every snapshotted frame whole, and once A
/// returns no fd of an unlinked page may remain open — without any
/// further retention pass.
void ExpectParkedScanSurvivesGc(const TileStoreOptions& options,
                                const GridLattice& lattice, int64_t frames) {
  auto store = TileStore::Open(options);
  GS_ASSERT_OK(store.status());
  for (int64_t f = 1; f <= frames; ++f) {
    GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, f));
  }

  ParkingSink parked;
  Status scan_a;
  std::thread a([&] { scan_a = (*store)->Scan("src", StoreScan{}, &parked); });
  parked.WaitParked();

  GS_ASSERT_OK((*store)->RunRetentionNow());
  const TileStoreStats gc = (*store)->TotalStats();
  EXPECT_GT(gc.frames_pruned, 0u);
  EXPECT_GT(gc.segments_deleted + gc.segments_rewritten, 0u);
  // The GC really unlinked files that A's snapshot still holds open.
  EXPECT_GT(DeletedFdsUnder(options.dir), 0u);

  CollectingSink b;
  GS_ASSERT_OK((*store)->Scan("src", StoreScan{}, &b));
  EXPECT_EQ(b.NumFrames(),
            (*store)->FrameIds("src", INT64_MIN, INT64_MAX).size());

  parked.Resume();
  a.join();
  GS_ASSERT_OK(scan_a);

  const std::vector<StreamEvent>& events = parked.collected().events();
  ASSERT_TRUE(testing_util::WellFormedFrames(events));
  EXPECT_EQ(parked.collected().NumFrames(), static_cast<uint64_t>(frames));
  std::map<int64_t, uint64_t> points;
  for (const StreamEvent& e : events) {
    if (e.kind != EventKind::kPointBatch) continue;
    for (size_t i = 0; i < e.batch->size(); ++i) {
      ASSERT_EQ(e.batch->ValueAt(i, 0),
                TestValue(e.batch->frame_id, e.batch->cols[i],
                          e.batch->rows[i]));
    }
    points[e.batch->frame_id] += e.batch->size();
  }
  for (int64_t f = 1; f <= frames; ++f) {
    EXPECT_EQ(points[f], static_cast<uint64_t>(lattice.num_cells()))
        << "frame " << f << " emitted incomplete";
  }
  EXPECT_EQ((*store)->TotalStats().tile_read_errors, 0u);
  EXPECT_EQ(DeletedFdsUnder(options.dir), 0u)
      << "an unlinked page stayed open after the last scan holding it";
}

/// Scans one frame and checks every cell is bit-exact for `frame_id`.
void ExpectFrameIntact(TileStore* store, const std::string& source,
                       const GridLattice& lattice, int64_t frame_id) {
  CollectingSink sink;
  StoreScan scan;
  scan.min_frame_id = frame_id;
  scan.max_frame_id = frame_id;
  Status st = store->Scan(source, scan, &sink);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(testing_util::WellFormedFrames(sink.events()));
  ASSERT_EQ(sink.NumFrames(), 1u) << "frame " << frame_id << " missing";
  uint64_t points = 0;
  for (const StreamEvent& e : sink.events()) {
    if (e.kind != EventKind::kPointBatch) continue;
    for (size_t i = 0; i < e.batch->size(); ++i) {
      EXPECT_EQ(e.batch->ValueAt(i, 0),
                TestValue(frame_id, e.batch->cols[i], e.batch->rows[i]))
          << "frame " << frame_id << " cell (" << e.batch->cols[i] << ","
          << e.batch->rows[i] << ")";
      ++points;
    }
  }
  EXPECT_EQ(points, static_cast<uint64_t>(lattice.num_cells()));
}

TEST(TileStoreRetentionTest, PrunesByFrameCountAndDeletesDeadSegments) {
  TileStoreOptions options;
  options.dir = FreshDir("count");
  options.tile_size = 16;
  options.segment_max_bytes = 1;  // one frame per segment
  options.retention_max_frames = 3;
  auto store = TileStore::Open(options);
  GS_ASSERT_OK(store.status());

  const GridLattice lattice = LatLonLattice(24, 16);
  for (int64_t f = 1; f <= 10; ++f) {
    GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, f));
  }
  ASSERT_EQ((*store)->FrameIds("src", INT64_MIN, INT64_MAX).size(), 10u);
  const uint64_t bytes_before = PageBytesOnDisk(options.dir);

  GS_ASSERT_OK((*store)->RunRetentionNow());

  EXPECT_EQ((*store)->FrameIds("src", INT64_MIN, INT64_MAX),
            (std::vector<int64_t>{8, 9, 10}));
  EXPECT_EQ((*store)->Watermark("src"), 10);

  const StoreHorizon horizon = (*store)->Horizon("src");
  EXPECT_EQ(horizon.oldest_frame_id, 8);
  EXPECT_EQ(horizon.pruned_upto, 7);
  EXPECT_EQ(horizon.frames_pruned, 7u);

  const TileStoreStats stats = (*store)->TotalStats();
  EXPECT_EQ(stats.frames_pruned, 7u);
  EXPECT_EQ(stats.segments_deleted, 7u);  // frames 1..7 owned their segment
  EXPECT_GT(stats.bytes_reclaimed, 0u);
  EXPECT_LT(PageBytesOnDisk(options.dir), bytes_before);

  // What survived reads back bit-exact.
  for (int64_t f = 8; f <= 10; ++f) {
    ExpectFrameIntact(store->get(), "src", lattice, f);
  }
  // A pruned frame is simply absent.
  CollectingSink sink;
  StoreScan one;
  one.min_frame_id = 3;
  one.max_frame_id = 3;
  EXPECT_EQ((*store)->ScanFrame("src", 3, one, &sink).code(),
            StatusCode::kNotFound);
}

TEST(TileStoreRetentionTest, PrunesByAgeWithPinnedClock) {
  uint64_t now = 1000;
  TileStoreOptions options;
  options.dir = FreshDir("age");
  options.tile_size = 16;
  options.segment_max_bytes = 1;
  options.retention_max_age_ms = 5000;
  options.retention_min_frames = 2;
  options.now_ms = [&now] { return now; };
  auto store = TileStore::Open(options);
  GS_ASSERT_OK(store.status());

  const GridLattice lattice = LatLonLattice(20, 12);
  for (int64_t f = 1; f <= 5; ++f) {
    GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, f));
  }
  // Nothing is old yet: retention is a no-op.
  GS_ASSERT_OK((*store)->RunRetentionNow());
  EXPECT_EQ((*store)->FrameIds("src", INT64_MIN, INT64_MAX).size(), 5u);

  // Everything ages past the cap — but the newest retention_min_frames
  // are pinned (the catch-up seam needs the watermark frame).
  now += 6000;
  GS_ASSERT_OK((*store)->RunRetentionNow());
  EXPECT_EQ((*store)->FrameIds("src", INT64_MIN, INT64_MAX),
            (std::vector<int64_t>{4, 5}));
  EXPECT_EQ((*store)->TotalStats().frames_pruned, 3u);
  ExpectFrameIntact(store->get(), "src", lattice, 5);
}

TEST(TileStoreRetentionTest, RewriteCompactsPartiallyDeadSegment) {
  // Measure one frame's on-disk run, then size segments to hold
  // exactly four frames each.
  const GridLattice lattice = LatLonLattice(24, 16);
  uint64_t run_bytes = 0;
  {
    TileStoreOptions probe;
    probe.dir = FreshDir("probe");
    probe.tile_size = 16;
    auto store = TileStore::Open(probe);
    GS_ASSERT_OK(store.status());
    GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, 1));
    run_bytes = PageBytesOnDisk(probe.dir);
  }
  ASSERT_GT(run_bytes, 0u);

  TileStoreOptions options;
  options.dir = FreshDir("rewrite");
  options.tile_size = 16;
  options.segment_max_bytes = 4 * run_bytes;  // 4 frames per segment
  options.retention_max_frames = 6;
  options.gc_rewrite_dead_fraction = 0.5;
  auto store = TileStore::Open(options);
  GS_ASSERT_OK(store.status());

  // Segments: [1..4] [5..8] [9 active]. Pruning to 6 frames kills
  // 1..3 — segment one is 3/4 dead and must be rewritten around
  // frame 4.
  for (int64_t f = 1; f <= 9; ++f) {
    GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, f));
  }
  GS_ASSERT_OK((*store)->RunRetentionNow());

  EXPECT_EQ((*store)->FrameIds("src", INT64_MIN, INT64_MAX),
            (std::vector<int64_t>{4, 5, 6, 7, 8, 9}));
  const TileStoreStats stats = (*store)->TotalStats();
  EXPECT_EQ(stats.frames_pruned, 3u);
  EXPECT_EQ(stats.segments_rewritten, 1u);
  EXPECT_GT(stats.bytes_reclaimed, 0u);

  // Frame 4 now lives at new offsets in a fresh page; every survivor
  // is still bit-exact.
  for (int64_t f = 4; f <= 9; ++f) {
    ExpectFrameIntact(store->get(), "src", lattice, f);
  }

  // Reopen: recovery sees the rewritten page as just another segment.
  store->reset();
  auto reopened = TileStore::Open(options);
  GS_ASSERT_OK(reopened.status());
  EXPECT_EQ((*reopened)->recovery().frames_recovered, 6u);
  EXPECT_EQ((*reopened)->FrameIds("src", INT64_MIN, INT64_MAX),
            (std::vector<int64_t>{4, 5, 6, 7, 8, 9}));
  for (int64_t f = 4; f <= 9; ++f) {
    ExpectFrameIntact(reopened->get(), "src", lattice, f);
  }
}

TEST(TileStoreRetentionTest, ByteCapDrivesPruningAndGovernorUsageIsExact) {
  StorageGovernor governor({});

  TileStoreOptions options;
  options.dir = FreshDir("gov");
  options.tile_size = 16;
  options.segment_max_bytes = 1;
  options.governor = &governor;
  const GridLattice lattice = LatLonLattice(24, 16);
  uint64_t full_usage = 0;
  {
    auto store = TileStore::Open(options);
    GS_ASSERT_OK(store.status());
    for (int64_t f = 1; f <= 8; ++f) {
      GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, f));
    }
    // The store reports its on-disk bytes to the governor as it writes.
    EXPECT_EQ(governor.Usage("store"), PageBytesOnDisk(options.dir));
    full_usage = governor.Usage("store");
  }

  // Reopened with a byte cap of about half the bytes: recovery
  // re-seeds the governor's accounting, and the cap alone drives the
  // prune.
  options.retention_max_bytes = full_usage / 2;
  auto store = TileStore::Open(options);
  GS_ASSERT_OK(store.status());
  EXPECT_EQ(governor.Usage("store"), full_usage);
  GS_ASSERT_OK((*store)->RunRetentionNow());

  const std::vector<int64_t> kept =
      (*store)->FrameIds("src", INT64_MIN, INT64_MAX);
  EXPECT_LT(kept.size(), 8u);
  EXPECT_GE(kept.size(), 1u);
  EXPECT_EQ(kept.back(), 8) << "newest frame must survive";
  // Accounting stayed exact across prune + segment GC.
  EXPECT_EQ(governor.Usage("store"), PageBytesOnDisk(options.dir));
  EXPECT_LE(governor.Usage("store"), full_usage / 2);
  for (int64_t f : kept) ExpectFrameIntact(store->get(), "src", lattice, f);
}

TEST(TileStoreRetentionTest, ReopenReportsUsageAndKeepsPruningState) {
  StorageGovernor governor({});
  TileStoreOptions options;
  options.dir = FreshDir("reopen");
  options.tile_size = 16;
  options.segment_max_bytes = 1;
  options.retention_max_frames = 2;
  {
    auto store = TileStore::Open(options);
    GS_ASSERT_OK(store.status());
    const GridLattice lattice = LatLonLattice(20, 12);
    for (int64_t f = 1; f <= 5; ++f) {
      GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, f));
    }
    GS_ASSERT_OK((*store)->RunRetentionNow());
    EXPECT_EQ((*store)->FrameIds("src", INT64_MIN, INT64_MAX),
              (std::vector<int64_t>{4, 5}));
  }
  // Recovery seeds the governor's usage from what is really on disk.
  options.governor = &governor;
  auto reopened = TileStore::Open(options);
  GS_ASSERT_OK(reopened.status());
  EXPECT_EQ(governor.Usage("store"), PageBytesOnDisk(options.dir));
  EXPECT_EQ((*reopened)->FrameIds("src", INT64_MIN, INT64_MAX),
            (std::vector<int64_t>{4, 5}));
  // The pruned-upto horizon is in-memory state; after a reopen the
  // store only knows what it retained.
  EXPECT_EQ((*reopened)->Horizon("src").oldest_frame_id, 4);
}

TEST(TileStoreRetentionTest, DegradedGovernorShedsPutFrameAndSelfHeals) {
  const std::string probe_dir = FreshDir("probe");
  FaultyFileOptions fopts;
  fopts.space_quota_bytes = 1;  // the probe cannot land a byte
  FaultyFileInjector injector(fopts);

  uint64_t now = 10000;
  StorageGovernorOptions gopts;
  gopts.probe_dir = probe_dir;
  gopts.probe_interval_ms = 200;
  gopts.file_factory = injector.Factory();
  gopts.now_ms = [&now] { return now; };
  StorageGovernor governor(gopts);

  TileStoreOptions options;
  options.dir = FreshDir("shed");
  options.tile_size = 16;
  options.governor = &governor;
  auto store = TileStore::Open(options);
  GS_ASSERT_OK(store.status());

  const GridLattice lattice = LatLonLattice(20, 12);
  GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, 1));

  // The journal (or the store itself) hit ENOSPC: the plane degrades
  // and PutFrame sheds at admission — no half-written run, the frame
  // is simply not stored, and the rejection is counted.
  governor.RecordWriteResult("store",
                             Status::ResourceExhausted("disk full"));
  now += 201;
  Status shed = PutFullFrame(store->get(), "src", lattice, 2);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable) << shed.ToString();
  EXPECT_EQ((*store)->TotalStats().frames_rejected, 1u);
  EXPECT_EQ((*store)->Watermark("src"), 1);
  // Reads keep serving while degraded.
  ExpectFrameIntact(store->get(), "src", lattice, 1);

  // Space frees: the admission probe heals and writes flow again.
  injector.SetSpaceQuota(0);
  now += 201;
  GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, 2));
  EXPECT_FALSE(governor.degraded());
  EXPECT_EQ((*store)->Watermark("src"), 2);
  ExpectFrameIntact(store->get(), "src", lattice, 2);
}

TEST(TileStoreRetentionTest, HorizonOfUnknownOrUnprunedSourceIsEmpty) {
  TileStoreOptions options;
  options.dir = FreshDir("horizon");
  options.tile_size = 16;
  auto store = TileStore::Open(options);
  GS_ASSERT_OK(store.status());

  StoreHorizon horizon = (*store)->Horizon("nope");
  EXPECT_EQ(horizon.oldest_frame_id, INT64_MAX);
  EXPECT_EQ(horizon.pruned_upto, INT64_MIN);
  EXPECT_EQ(horizon.frames_pruned, 0u);

  const GridLattice lattice = LatLonLattice(20, 12);
  GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, 7));
  horizon = (*store)->Horizon("src");
  EXPECT_EQ(horizon.oldest_frame_id, 7);
  EXPECT_EQ(horizon.pruned_upto, INT64_MIN);
  EXPECT_EQ(horizon.frames_pruned, 0u);
}

TEST(TileStoreRetentionTest, BackgroundThreadPrunesWithoutExplicitCalls) {
  TileStoreOptions options;
  options.dir = FreshDir("bg");
  options.tile_size = 16;
  options.segment_max_bytes = 1;
  options.retention_max_frames = 2;
  options.gc_interval_ms = 20;
  auto store = TileStore::Open(options);
  GS_ASSERT_OK(store.status());

  const GridLattice lattice = LatLonLattice(20, 12);
  for (int64_t f = 1; f <= 6; ++f) {
    GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, f));
  }
  // The background pass catches up within a few intervals.
  for (int i = 0; i < 200; ++i) {
    if ((*store)->FrameIds("src", INT64_MIN, INT64_MAX).size() <= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ((*store)->FrameIds("src", INT64_MIN, INT64_MAX),
            (std::vector<int64_t>{5, 6}));
  // Destructor joins the thread cleanly (no hang, no crash).
}

TEST(TileStoreRetentionTest, ParkedScanKeepsUnlinkedSegmentUntilItReturns) {
  TileStoreOptions options;
  options.dir = FreshDir("park-delete");
  options.tile_size = 16;
  options.segment_max_bytes = 1;  // one frame per segment
  options.retention_max_frames = 2;
  // Frames 1..4 are pruned and their segments unlinked under A.
  ExpectParkedScanSurvivesGc(options, LatLonLattice(24, 16), 6);
}

TEST(TileStoreRetentionTest, ParkedScanKeepsRewrittenSegmentUntilItReturns) {
  const GridLattice lattice = LatLonLattice(24, 16);
  uint64_t run_bytes = 0;
  {
    TileStoreOptions probe;
    probe.dir = FreshDir("park-probe");
    probe.tile_size = 16;
    auto store = TileStore::Open(probe);
    GS_ASSERT_OK(store.status());
    GS_ASSERT_OK(PutFullFrame(store->get(), "src", lattice, 1));
    run_bytes = PageBytesOnDisk(probe.dir);
  }
  ASSERT_GT(run_bytes, 0u);

  TileStoreOptions options;
  options.dir = FreshDir("park-rewrite");
  options.tile_size = 16;
  options.segment_max_bytes = 4 * run_bytes;  // 4 frames per segment
  options.retention_max_frames = 6;
  options.gc_rewrite_dead_fraction = 0.5;
  // Segments [1..4] [5..8] [9]: pruning 1..3 rewrites segment one
  // around frame 4 and unlinks the original under A.
  ExpectParkedScanSurvivesGc(options, lattice, 9);
}

}  // namespace
}  // namespace geostreams
