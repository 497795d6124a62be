// One count per fact: the ingest journal, tile store, storage governor
// and ingest sessions count only into their own stats, and a
// scrape-time collector mirrors those stats into the registry.
//
//   * Parity: after a scripted sequence on each subsystem, every
//     mirrored series in the exposition equals its stats field.
//   * Lifetime: a registry scraped after the subsystems that
//     registered into it are gone never calls into freed memory (the
//     ASan+UBSan lane turns a stale collector into a failure).
//   * Race: a scrape loop keeps running while those subsystems are
//     built and torn down (the TSan lane repeats it).

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "mqo/cascade_tree.h"
#include "net/ingest_session.h"
#include "net/net_server.h"
#include "net/producer_client.h"
#include "obs/metrics_registry.h"
#include "server/dsms_server.h"
#include "storage/faulty_file.h"
#include "storage/governor.h"
#include "storage/journal.h"
#include "store/tile_store.h"
#include "stream/memory_tracker.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

namespace fs = std::filesystem;
using testing_util::LatLonLattice;
using testing_util::TestValue;

std::string FreshDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "gsmirror-" +
                    info->test_suite_name() + "-" + info->name() + "-" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The value of one rendered series (`name` or `name{labels}`); fails
/// the test when the exposition lacks it.
uint64_t Scraped(const std::string& exposition, const std::string& series) {
  const std::string prefix = series + " ";
  for (size_t at = 0; at < exposition.size();) {
    size_t eol = exposition.find('\n', at);
    if (eol == std::string::npos) eol = exposition.size();
    if (exposition.compare(at, prefix.size(), prefix) == 0) {
      return std::strtoull(exposition.c_str() + at + prefix.size(), nullptr,
                           10);
    }
    at = eol + 1;
  }
  ADD_FAILURE() << "series " << series << " missing from:\n" << exposition;
  return ~0ull;
}

StreamEvent Batch(int64_t ordinal, size_t n = 16) {
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = ordinal / 14;
  batch->band_count = 1;
  for (size_t i = 0; i < n; ++i) {
    batch->Append1(static_cast<int32_t>(i), static_cast<int32_t>(ordinal % 12),
                   ordinal,
                   TestValue(batch->frame_id, static_cast<int64_t>(i),
                             ordinal % 12));
  }
  batch->checksum = batch->ComputeChecksum();
  return StreamEvent::Batch(std::move(batch));
}

IngestMessage Msg(const std::string& source, uint64_t seq) {
  IngestMessage message;
  message.source = source;
  message.seq = seq;
  message.event = Batch(static_cast<int64_t>(seq));
  return message;
}

Status PutFrame(TileStore* store, const GridLattice& lattice,
                int64_t frame_id) {
  FrameInfo info;
  info.frame_id = frame_id;
  info.lattice = lattice;
  info.expected_points = lattice.num_cells();
  Raster raster(lattice.width(), lattice.height(), 1);
  raster.set_lattice(lattice);
  for (int64_t row = 0; row < lattice.height(); ++row) {
    for (int64_t col = 0; col < lattice.width(); ++col) {
      raster.Set(col, row, TestValue(frame_id, col, row));
    }
  }
  const std::vector<uint8_t> filled(static_cast<size_t>(lattice.num_cells()),
                                    1);
  return store->PutFrame("src", info, raster, filled);
}

class CountingSink : public EventSink {
 public:
  Status Consume(const StreamEvent&) override {
    if (refuse_) return Status::Internal("refused by the test sink");
    ++events_;
    return Status::OK();
  }
  void set_refuse(bool refuse) { refuse_ = refuse; }
  uint64_t events() const { return events_; }

 private:
  bool refuse_ = false;
  uint64_t events_ = 0;
};

// ---------------------------------------------------------------------------
// Parity

TEST(MetricsMirrorTest, JournalSeriesEqualTheJournalStats) {
  const std::string source = "mirror.src";
  JournalOptions options;
  options.dir = FreshDir("journal");
  options.fsync = FsyncPolicy::kPerRecord;
  {
    // A first incarnation leaves records for recovery to replay.
    auto first = IngestJournal::Open(options);
    GS_ASSERT_OK(first.status());
    auto sj = (*first)->SourceFor(source);
    GS_ASSERT_OK(sj.status());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      GS_ASSERT_OK((*sj)->Append(Msg(source, seq)));
    }
  }

  MetricsRegistry registry;
  options.metrics = &registry;
  // Two records per segment, every closed segment over the byte cap:
  // each rotation retires the oldest segments, deleting settled ones
  // and compacting the live records of mixed ones forward.
  const uint64_t record = EncodeIngestMessage(Msg(source, 1)).size();
  options.segment_max_bytes = 2 * record;
  options.retention_max_bytes = 1;
  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK(journal.status());
  auto sj = (*journal)->SourceFor(source);
  GS_ASSERT_OK(sj.status());
  (*sj)->SetRetainFloor(7);
  for (uint64_t seq = 4; seq <= 12; ++seq) {
    GS_ASSERT_OK((*sj)->Append(Msg(source, seq)));
  }
  GS_ASSERT_OK((*journal)->SyncAll());

  const std::string out = registry.RenderPrometheus();
  const SourceJournalStats s = (*journal)->TotalStats();
  const JournalRecovery& rec = (*journal)->recovery();
  EXPECT_EQ(s.appends, 9u);
  EXPECT_GT(s.rotations, 0u);
  EXPECT_GT(s.segments_retired, 0u);
  EXPECT_GT(s.segments_compacted, 0u);
  EXPECT_EQ(rec.records_replayed, 3u);
  EXPECT_EQ(Scraped(out, "geostreams_journal_appends_total"), s.appends);
  EXPECT_EQ(Scraped(out, "geostreams_journal_append_bytes_total"),
            s.append_bytes);
  EXPECT_EQ(Scraped(out, "geostreams_journal_append_errors_total"),
            s.append_errors);
  EXPECT_EQ(Scraped(out, "geostreams_journal_fsyncs_total"), s.fsyncs);
  EXPECT_EQ(Scraped(out, "geostreams_journal_rotations_total"), s.rotations);
  EXPECT_EQ(Scraped(out, "geostreams_journal_segments_retired_total"),
            s.segments_retired);
  EXPECT_EQ(Scraped(out, "geostreams_journal_segments_compacted_total"),
            s.segments_compacted);
  EXPECT_EQ(Scraped(out, "geostreams_journal_records_compacted_total"),
            s.records_compacted);
  EXPECT_EQ(Scraped(out, "geostreams_journal_reclaimed_bytes_total"),
            s.reclaimed_bytes);
  EXPECT_EQ(Scraped(out, "geostreams_journal_recovered_records_total"),
            rec.records_replayed);
  EXPECT_EQ(Scraped(out, "geostreams_journal_recovered_duplicates_total"),
            rec.duplicate_records);
  EXPECT_EQ(Scraped(out, "geostreams_journal_torn_tails_total"),
            rec.torn_tails);
  EXPECT_EQ(Scraped(out, "geostreams_journal_torn_bytes_total"),
            rec.torn_bytes);
  EXPECT_EQ(Scraped(out, "geostreams_journal_corrupt_regions_total"),
            rec.corrupt_regions);
  // Every fsync is one latency observation.
  EXPECT_EQ(Scraped(out, "geostreams_journal_fsync_latency_us_count"),
            s.fsyncs);
}

TEST(MetricsMirrorTest, StoreSeriesEqualTheStoreStats) {
  const GridLattice lattice = LatLonLattice(24, 16);
  uint64_t run_bytes = 0;
  {
    TileStoreOptions probe;
    probe.dir = FreshDir("probe");
    probe.tile_size = 16;
    auto store = TileStore::Open(probe);
    GS_ASSERT_OK(store.status());
    GS_ASSERT_OK(PutFrame(store->get(), lattice, 1));
    run_bytes = (*store)->TotalStats().bytes_written;
  }
  ASSERT_GT(run_bytes, 0u);

  MetricsRegistry registry;
  TileStoreOptions options;
  options.dir = FreshDir("store");
  options.tile_size = 16;
  options.metrics = &registry;
  options.segment_max_bytes = 4 * run_bytes;  // 4 frames per segment
  options.retention_max_frames = 6;
  options.gc_rewrite_dead_fraction = 0.5;
  auto store = TileStore::Open(options);
  GS_ASSERT_OK(store.status());
  // Segments [1..4] [5..8] [9]: pruning to 6 frames kills 1..3, so the
  // first segment is rewritten around frame 4.
  for (int64_t f = 1; f <= 9; ++f) {
    GS_ASSERT_OK(PutFrame(store->get(), lattice, f));
  }
  GS_ASSERT_OK(PutFrame(store->get(), lattice, 9));  // dropped: stored
  GS_ASSERT_OK((*store)->RunRetentionNow());
  CountingSink sink;
  GS_ASSERT_OK((*store)->Scan("src", StoreScan{}, &sink));

  const std::string out = registry.RenderPrometheus();
  const TileStoreStats s = (*store)->TotalStats();
  const TileStoreRecovery& rec = (*store)->recovery();
  EXPECT_EQ(s.frames_written, 9u);
  EXPECT_EQ(s.frames_pruned, 3u);
  EXPECT_EQ(s.segments_rewritten, 1u);
  EXPECT_EQ(s.frames_read, 6u);
  EXPECT_EQ(s.frames_duplicate, 1u);
  EXPECT_EQ(Scraped(out, "geostreams_store_frames_written_total"),
            s.frames_written);
  EXPECT_EQ(Scraped(out, "geostreams_store_tiles_written_total"),
            s.tiles_written);
  EXPECT_EQ(Scraped(out, "geostreams_store_bytes_written_total"),
            s.bytes_written);
  EXPECT_EQ(Scraped(out, "geostreams_store_write_errors_total"),
            s.write_errors);
  EXPECT_EQ(Scraped(out, "geostreams_store_frames_read_total"),
            s.frames_read);
  EXPECT_EQ(Scraped(out, "geostreams_store_tiles_read_total"), s.tiles_read);
  EXPECT_EQ(Scraped(out, "geostreams_store_tile_read_errors_total"),
            s.tile_read_errors);
  EXPECT_EQ(Scraped(out, "geostreams_store_frames_rejected_total"),
            s.frames_rejected);
  EXPECT_EQ(Scraped(out, "geostreams_store_frames_duplicate_total"),
            s.frames_duplicate);
  EXPECT_EQ(Scraped(out, "geostreams_store_sync_errors_total"),
            s.sync_errors);
  EXPECT_EQ(Scraped(out, "geostreams_store_frames_pruned_total"),
            s.frames_pruned);
  EXPECT_EQ(Scraped(out, "geostreams_store_segments_deleted_total"),
            s.segments_deleted);
  EXPECT_EQ(Scraped(out, "geostreams_store_segments_rewritten_total"),
            s.segments_rewritten);
  EXPECT_EQ(Scraped(out, "geostreams_store_bytes_reclaimed_total"),
            s.bytes_reclaimed);
  EXPECT_EQ(Scraped(out, "geostreams_store_frames_recovered_total"),
            rec.frames_recovered);
  EXPECT_EQ(Scraped(out, "geostreams_store_torn_tails_total"),
            rec.torn_tails);
  EXPECT_EQ(Scraped(out, "geostreams_store_corrupt_regions_total"),
            rec.corrupt_regions);
  EXPECT_EQ(Scraped(out, "geostreams_store_put_latency_us_count"),
            s.frames_written);
  EXPECT_EQ(Scraped(out, "geostreams_store_scan_frame_latency_us_count"),
            s.frames_read);
}

TEST(MetricsMirrorTest, RerunOverOneStoreDirectoryCountsDroppedFrames) {
  // A second run over the same store directory whose producer numbers
  // its frames from 1 again: every id it reuses is already stored, so
  // its frames are dropped, and the drop count says so.
  const GridLattice lattice = LatLonLattice(24, 16);
  const std::string dir = FreshDir("store");
  {
    TileStoreOptions options;
    options.dir = dir;
    options.tile_size = 16;
    auto first = TileStore::Open(options);
    GS_ASSERT_OK(first.status());
    for (int64_t f = 1; f <= 3; ++f) {
      GS_ASSERT_OK(PutFrame(first->get(), lattice, f));
    }
    EXPECT_EQ((*first)->TotalStats().frames_duplicate, 0u);
  }
  MetricsRegistry registry;
  TileStoreOptions options;
  options.dir = dir;
  options.tile_size = 16;
  options.metrics = &registry;
  auto second = TileStore::Open(options);
  GS_ASSERT_OK(second.status());
  for (int64_t f = 1; f <= 4; ++f) {
    GS_ASSERT_OK(PutFrame(second->get(), lattice, f));
  }
  const TileStoreStats s = (*second)->TotalStats();
  EXPECT_EQ(s.frames_duplicate, 3u);
  EXPECT_EQ(s.frames_written, 1u);
  EXPECT_EQ((*second)->FrameIds("src", INT64_MIN, INT64_MAX).size(), 4u);
  EXPECT_EQ(Scraped(registry.RenderPrometheus(),
                    "geostreams_store_frames_duplicate_total"),
            3u);
}

TEST(MetricsMirrorTest, GovernorSeriesEqualTheGovernorStats) {
  MetricsRegistry registry;
  FaultyFileOptions fopts;
  fopts.space_quota_bytes = 1;  // every probe write fails
  FaultyFileInjector injector(fopts);
  uint64_t now = 10000;
  StorageGovernorOptions options;
  options.probe_dir = FreshDir("governor");
  options.file_factory = injector.Factory();
  options.probe_interval_ms = 200;
  options.now_ms = [&now] { return now; };
  options.free_bytes_fn = [](const std::string&) -> Result<uint64_t> {
    return uint64_t{123456};
  };
  options.metrics = &registry;
  StorageGovernor governor(options);
  governor.SetUsage("journal", 1000);
  governor.AddUsage("store", 300);

  // Degrade, refuse (the first refusal probes and fails, the second
  // is inside the probe interval), then heal once space returns.
  governor.RecordWriteResult("journal", Status::IoError("ENOSPC"));
  EXPECT_FALSE(governor.Admit("journal").ok());
  EXPECT_FALSE(governor.Admit("store").ok());
  std::string out = registry.RenderPrometheus();
  EXPECT_EQ(Scraped(out, "geostreams_storage_degraded"), 1u);
  injector.SetSpaceQuota(0);
  now += 1000;
  GS_EXPECT_OK(governor.Admit("journal"));

  out = registry.RenderPrometheus();
  const StorageGovernorStats s = governor.stats();
  EXPECT_FALSE(s.degraded);
  EXPECT_EQ(s.degraded_entries, 1u);
  EXPECT_EQ(s.healed, 1u);
  EXPECT_EQ(s.admissions_refused, 2u);
  EXPECT_EQ(s.probes, 2u);
  EXPECT_EQ(s.probe_failures, 1u);
  EXPECT_EQ(s.free_bytes, 123456u);
  EXPECT_EQ(Scraped(out, "geostreams_storage_degraded"), s.degraded ? 1 : 0);
  EXPECT_EQ(Scraped(out, "geostreams_storage_free_bytes"), s.free_bytes);
  EXPECT_EQ(Scraped(out, "geostreams_storage_degraded_entries_total"),
            s.degraded_entries);
  EXPECT_EQ(Scraped(out, "geostreams_storage_healed_total"), s.healed);
  EXPECT_EQ(Scraped(out, "geostreams_storage_probes_total"), s.probes);
  EXPECT_EQ(Scraped(out, "geostreams_storage_probe_failures_total"),
            s.probe_failures);
  EXPECT_EQ(Scraped(out, "geostreams_storage_admissions_refused_total"),
            s.admissions_refused);
  ASSERT_EQ(s.bytes.size(), 2u);
  for (const auto& [subsystem, bytes] : s.bytes) {
    EXPECT_EQ(Scraped(out, "geostreams_storage_bytes{subsystem=\"" +
                               subsystem + "\"}"),
              bytes);
  }
}

TEST(MetricsMirrorTest, IngestSeriesEqualTheSessionStats) {
  MetricsRegistry registry;
  MemoryTracker memory;
  CountingSink sink;
  const uint64_t batch_bytes = Batch(0).batch->ApproxBytes();
  uint64_t now = 1000;
  IngestSessionOptions options;
  options.metrics = &registry;
  options.memory = &memory;
  options.admission_max_bytes = 1024;
  options.overload_policy = IngestSessionOptions::OverloadPolicy::kShed;
  options.source_rate_bytes_per_sec = batch_bytes;
  options.source_burst_bytes = batch_bytes;
  options.now_ms = [&now] { return now; };
  IngestSession session("mirror.src", &sink, options);
  session.Attach();

  EXPECT_EQ(session.Handle(Msg("mirror.src", 1)), "ACK mirror.src 1");
  // Duplicate: re-acked.
  EXPECT_EQ(session.Handle(Msg("mirror.src", 1)), "ACK mirror.src 1");
  // Gap: NACKed with the rewind point.
  EXPECT_EQ(session.Handle(Msg("mirror.src", 5)).rfind("NACK", 0), 0u);
  // The bucket is empty: the per-source budget sheds (acked, dropped).
  EXPECT_EQ(session.Handle(Msg("mirror.src", 2)), "ACK mirror.src 2");
  // Refilled bucket, but memory over budget: admission sheds.
  now += 1000;
  memory.Update("ballast", 1u << 20);
  EXPECT_EQ(session.Handle(Msg("mirror.src", 3)), "ACK mirror.src 3");
  memory.Update("ballast", 0);
  // The chain refuses delivery: NACKed, then delivered on retry.
  now += 1000;
  sink.set_refuse(true);
  EXPECT_EQ(session.Handle(Msg("mirror.src", 4)).rfind("NACK", 0), 0u);
  sink.set_refuse(false);
  now += 1000;
  EXPECT_EQ(session.Handle(Msg("mirror.src", 4)), "ACK mirror.src 4");

  const std::string out = registry.RenderPrometheus();
  const IngestSessionStats s = session.Stats();
  EXPECT_EQ(s.acks, 5u);
  EXPECT_EQ(s.nacks, 2u);
  EXPECT_EQ(s.duplicates, 1u);
  EXPECT_EQ(s.gaps, 1u);
  EXPECT_EQ(s.delivered, 2u);
  EXPECT_EQ(s.budget_shed, 1u);
  EXPECT_EQ(s.overload_shed, 1u);
  EXPECT_EQ(sink.events(), 2u);
  auto series = [](const char* name) {
    return std::string(name) + "{source=\"mirror.src\"}";
  };
  EXPECT_EQ(Scraped(out, series("geostreams_ingest_acks_total")), s.acks);
  EXPECT_EQ(Scraped(out, series("geostreams_ingest_nacks_total")), s.nacks);
  EXPECT_EQ(Scraped(out, series("geostreams_ingest_replays_total")),
            s.duplicates);
  EXPECT_EQ(Scraped(out, series("geostreams_ingest_gaps_total")), s.gaps);
  EXPECT_EQ(Scraped(out, series("geostreams_ingest_delivered_total")),
            s.delivered);
  EXPECT_EQ(Scraped(out, series("geostreams_ingest_shed_events_total")),
            s.overload_shed + s.budget_shed);
  EXPECT_EQ(Scraped(out, series("geostreams_ingest_shed_points_total")),
            s.overload_shed_points);
  EXPECT_EQ(Scraped(out, series("geostreams_ingest_shed_bytes_total")),
            s.overload_shed_bytes);
}

TEST(MetricsMirrorTest, IndexNodeSeriesEqualTheCascadeTreeNodes) {
  // The gauge mirrors the node count of the tree each stream's shared
  // restriction owns; a reference tree over the same lattice, fed the
  // same boxes, gives the expected count.
  DsmsServer dsms;
  const GeoStreamDescriptor desc =
      testing_util::TestDescriptor("sat.band1", 64, 48);
  GS_ASSERT_OK(dsms.RegisterStream(desc));
  auto view = dsms.RegisterDerivedStream("sat.half", "reduce(sat.band1, 2)");
  GS_ASSERT_OK(view.status());
  const std::string source = "geostreams_mqo_index_nodes{source=\"sat.band1\"}";
  const std::string derived = "geostreams_mqo_index_nodes{source=\"sat.half\"}";
  CascadeTree reference(desc.reference_lattice());
  EXPECT_EQ(Scraped(dsms.RenderMetrics(), source), reference.node_count());
  EXPECT_EQ(Scraped(dsms.RenderMetrics(), derived), 1u);

  const std::vector<BoundingBox> boxes = {{-124.0, 30.0, -118.0, 33.5},
                                          {-110.0, 22.0, -100.5, 44.0},
                                          {-125.0, 21.0, -93.0, 45.0}};
  std::vector<QueryId> ids;
  for (size_t i = 0; i < boxes.size(); ++i) {
    const BoundingBox& b = boxes[i];
    auto id = dsms.RegisterQuery(
        StringPrintf("region(sat.band1, bbox(%g, %g, %g, %g))", b.min_x,
                     b.min_y, b.max_x, b.max_y),
        [](int64_t, const AssembledFrame&, const std::vector<uint8_t>&) {});
    GS_ASSERT_OK(id.status());
    ids.push_back(*id);
    GS_ASSERT_OK(reference.Insert(static_cast<QueryId>(i), b));
    EXPECT_EQ(Scraped(dsms.RenderMetrics(), source), reference.node_count());
  }
  EXPECT_GT(reference.node_count(), 1u);
  GS_ASSERT_OK(dsms.UnregisterQuery(ids[1]));
  GS_ASSERT_OK(reference.Remove(1));
  EXPECT_EQ(Scraped(dsms.RenderMetrics(), source), reference.node_count());
  EXPECT_EQ(Scraped(dsms.RenderMetrics(), derived), 1u);
}

// ---------------------------------------------------------------------------
// Lifetime and teardown races

/// One incarnation of every mirrored subsystem, registered into
/// `dsms`'s registry: a governor, a journal and a store (standalone,
/// under `dir`), and a NetServer whose ingest session a producer has
/// attached and fed one frame.
class MirroredPlane {
 public:
  MirroredPlane(DsmsServer* dsms, const std::string& dir) {
    MetricsRegistry* registry = dsms->metrics_registry();
    StorageGovernorOptions gopts;
    gopts.metrics = registry;
    governor_ = std::make_unique<StorageGovernor>(gopts);
    JournalOptions jopts;
    jopts.dir = dir + "/journal";
    jopts.fsync = FsyncPolicy::kOff;
    jopts.metrics = registry;
    jopts.governor = governor_.get();
    auto journal = IngestJournal::Open(jopts);
    GS_EXPECT_OK(journal.status());
    if (journal.ok()) journal_ = std::move(*journal);
    TileStoreOptions sopts;
    sopts.dir = dir + "/store";
    sopts.metrics = registry;
    sopts.governor = governor_.get();
    auto store = TileStore::Open(sopts);
    GS_EXPECT_OK(store.status());
    if (store.ok()) store_ = std::move(*store);
    net_ = std::make_unique<NetServer>(dsms);
    GS_EXPECT_OK(net_->Start());
  }

  void Exercise() {
    if (journal_ != nullptr) {
      auto sj = journal_->SourceFor("mirror.src");
      GS_EXPECT_OK(sj.status());
      if (sj.ok()) GS_EXPECT_OK((*sj)->Append(Msg("mirror.src", 1)));
    }
    if (store_ != nullptr) {
      GS_EXPECT_OK(PutFrame(store_.get(), LatLonLattice(16, 12), 1));
    }
    ProducerClientOptions popts;
    popts.port = net_->port();
    popts.source = "sat.band1";
    ProducerClient producer(popts);
    GS_EXPECT_OK(producer.Connect());
    GS_EXPECT_OK(
        testing_util::PushFrame(&producer, LatLonLattice(16, 12), 0));
    GS_EXPECT_OK(producer.Flush(10000));
    producer.Close();
  }

  /// Destroys the subsystems in dependency order.
  void TearDown() {
    net_.reset();
    store_.reset();
    journal_.reset();
    governor_.reset();
  }

 private:
  std::unique_ptr<StorageGovernor> governor_;
  std::unique_ptr<IngestJournal> journal_;
  std::unique_ptr<TileStore> store_;
  std::unique_ptr<NetServer> net_;
};

TEST(MetricsMirrorTest, RegistryOutlivesTheSubsystemsThatRegistered) {
  DsmsServer dsms;
  GS_ASSERT_OK(dsms.RegisterStream(testing_util::TestDescriptor("sat.band1")));
  const std::string dir = FreshDir("lifetime");
  {
    MirroredPlane plane(&dsms, dir);
    plane.Exercise();
    const std::string live = dsms.RenderMetrics();
    EXPECT_EQ(Scraped(live, "geostreams_journal_appends_total"), 1u);
    EXPECT_EQ(Scraped(live, "geostreams_store_frames_written_total"), 1u);
    EXPECT_GT(Scraped(live, "geostreams_ingest_acks_total{source=\"sat.band1\"}"),
              0u);
    plane.TearDown();
  }
  // Every collector is gone with its subsystem; the series keep the
  // last mirrored value instead of calling into freed memory.
  const std::string after = dsms.RenderMetrics();
  EXPECT_EQ(Scraped(after, "geostreams_journal_appends_total"), 1u);
  EXPECT_EQ(Scraped(after, "geostreams_store_frames_written_total"), 1u);
  EXPECT_EQ(Scraped(after, "geostreams_storage_degraded"), 0u);
  EXPECT_GT(Scraped(after, "geostreams_ingest_acks_total{source=\"sat.band1\"}"),
            0u);
}

TEST(MetricsMirrorTest, ScrapesRaceSubsystemTeardown) {
  DsmsServer dsms;
  GS_ASSERT_OK(dsms.RegisterStream(testing_util::TestDescriptor("sat.band1")));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load()) {
      const std::string out = dsms.RenderMetrics();
      EXPECT_FALSE(out.empty());
      // Back to back, no pause: a scrape formats outside the registry
      // lock, so it cannot starve the registrations it races.
      scrapes.fetch_add(1);
    }
  });
  for (int round = 0; round < 3; ++round) {
    MirroredPlane plane(&dsms, FreshDir("race" + std::to_string(round)));
    plane.Exercise();
    // Let at least one scrape see the live collectors, then tear the
    // plane down while the loop keeps scraping.
    const uint64_t seen = scrapes.load();
    while (scrapes.load() < seen + 2) std::this_thread::yield();
    plane.TearDown();
  }
  stop.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);
}

}  // namespace
}  // namespace geostreams
