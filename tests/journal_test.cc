// Durable ingest journal tests: append/replay round-trips, segment
// rotation + retention, fsync policies, startup recovery (torn-tail
// truncation, mid-file quarantine, duplicate dedup, name-floor
// resume), deterministic fault injection through FaultyFile, recovery
// fuzzing over arbitrary truncation/corruption offsets, persisted
// dead letters, and a 10k-record bounded-time recovery check.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/wire_protocol.h"
#include "obs/metrics_registry.h"
#include "storage/dead_letter_store.h"
#include "storage/faulty_file.h"
#include "storage/journal.h"
#include "stream/supervisor.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers

#define GS_ASSERT_OK_(expr) GS_ASSERT_OK(expr)

/// A fresh directory under the test temp root, unique per test.
std::string FreshDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "gsjournal-" +
                    info->test_suite_name() + "-" + info->name() + "-" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A small audit-stamped batch: every timestamp carries `ordinal`.
StreamEvent BatchEvent(int64_t ordinal, size_t n = 6) {
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = ordinal / 14;
  batch->band_count = 1;
  for (size_t i = 0; i < n; ++i) {
    batch->Append1(static_cast<int32_t>(i),
                   static_cast<int32_t>(ordinal % 12), ordinal,
                   testing_util::TestValue(batch->frame_id,
                                           static_cast<int64_t>(i),
                                           ordinal % 12));
  }
  batch->checksum = batch->ComputeChecksum();
  return StreamEvent::Batch(std::move(batch));
}

/// Ingest message whose payload is recoverable by seq: the batch
/// timestamps equal the sequence number.
IngestMessage Msg(const std::string& source, uint64_t seq, size_t n = 6) {
  IngestMessage message;
  message.source = source;
  message.seq = seq;
  message.event = BatchEvent(static_cast<int64_t>(seq), n);
  return message;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Segment files under <dir>/<source-dir>, sorted by name.
std::vector<std::string> SegmentFiles(const std::string& source_dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(source_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Replays `source` and returns the seq -> first-timestamp map (the
/// audit identity stamped by Msg).
std::map<uint64_t, int64_t> ReplayIds(IngestJournal* journal,
                                      const std::string& source) {
  std::map<uint64_t, int64_t> ids;
  Status st = journal->Replay(source, [&ids](const IngestMessage& m) {
    const int64_t stamp =
        m.event.batch && !m.event.batch->timestamps.empty()
            ? m.event.batch->timestamps[0]
            : -1;
    EXPECT_EQ(ids.count(m.seq), 0u) << "seq replayed twice: " << m.seq;
    ids[m.seq] = stamp;
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return ids;
}

// ---------------------------------------------------------------------------
// Basic append / replay / reopen

TEST(JournalTest, FsyncPolicyNames) {
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kPerRecord), "per-record");
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kGroupCommit), "group-commit");
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kOff), "off");
}

TEST(JournalTest, OpenRejectsEmptyDir) {
  JournalOptions options;
  auto journal = IngestJournal::Open(options);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kInvalidArgument);
}

TEST(JournalTest, AppendReplayReopenRoundTrip) {
  const std::string dir = FreshDir("rt");
  const std::string source = "sat.band1";
  constexpr uint64_t kRecords = 9;

  {
    JournalOptions options;
    options.dir = dir;
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    EXPECT_EQ((*sj)->next_seq(), 1u);
    for (uint64_t seq = 1; seq <= kRecords; ++seq) {
      GS_ASSERT_OK_((*sj)->Append(Msg(source, seq)));
      EXPECT_EQ((*sj)->next_seq(), seq + 1);
    }
    const SourceJournalStats stats = (*sj)->stats();
    EXPECT_EQ(stats.appends, kRecords);
    EXPECT_GT(stats.append_bytes, 0u);
    EXPECT_EQ(stats.append_errors, 0u);
    EXPECT_EQ(stats.fsyncs, kRecords);  // kPerRecord default

    const std::map<uint64_t, int64_t> ids = ReplayIds(journal->get(), source);
    ASSERT_EQ(ids.size(), kRecords);
    for (uint64_t seq = 1; seq <= kRecords; ++seq) {
      EXPECT_EQ(ids.at(seq), static_cast<int64_t>(seq));
    }
  }

  // Reopen: recovery replays the committed prefix and seeds next_seq.
  JournalOptions options;
  options.dir = dir;
  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK_(journal.status());
  const JournalRecovery& recovery = (*journal)->recovery();
  EXPECT_EQ(recovery.records_replayed, kRecords);
  EXPECT_EQ(recovery.torn_tails, 0u);
  EXPECT_EQ(recovery.corrupt_regions, 0u);
  ASSERT_EQ(recovery.sources.count(source), 1u);
  EXPECT_EQ(recovery.sources.at(source).next_seq, kRecords + 1);
  auto sj = (*journal)->SourceFor(source);
  GS_ASSERT_OK_(sj.status());
  EXPECT_EQ((*sj)->next_seq(), kRecords + 1);
  EXPECT_EQ((*sj)->stats().recovered_records, kRecords);
  // And appending continues the sequence in the resumed segment.
  GS_ASSERT_OK_((*sj)->Append(Msg(source, kRecords + 1)));
  EXPECT_EQ(ReplayIds(journal->get(), source).size(), kRecords + 1);
}

TEST(JournalTest, ReplayOfUnknownSourceIsNotFound) {
  const std::string dir = FreshDir("nf");
  JournalOptions options;
  options.dir = dir;
  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK_(journal.status());
  Status st = (*journal)->Replay("no.such", [](const IngestMessage&) {});
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(JournalTest, RotationNamesSegmentsByNextSequence) {
  const std::string dir = FreshDir("rot");
  const std::string source = "rot.src";
  const size_t record_size = EncodeIngestMessage(Msg(source, 1)).size();

  JournalOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kOff;
  options.segment_max_bytes = record_size;  // one record per segment
  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK_(journal.status());
  auto sj = (*journal)->SourceFor(source);
  GS_ASSERT_OK_(sj.status());
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    GS_ASSERT_OK_((*sj)->Append(Msg(source, seq)));
  }
  EXPECT_EQ((*sj)->stats().rotations, 3u);

  const std::vector<std::string> segments = SegmentFiles(dir + "/" + source);
  ASSERT_EQ(segments.size(), 4u);
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    // Zero-padded start sequence in the file name.
    EXPECT_NE(segments[seq - 1].find("seg-0000000000000000000" +
                                     std::to_string(seq)),
              std::string::npos)
        << segments[seq - 1];
  }

  journal->reset();
  auto reopened = IngestJournal::Open(options);
  GS_ASSERT_OK_(reopened.status());
  EXPECT_EQ((*reopened)->recovery().records_replayed, 4u);
  EXPECT_EQ((*reopened)->recovery().sources.at(source).next_seq, 5u);
}

TEST(JournalTest, RetentionRetiresClosedSegmentsButKeepsHighWaterMark) {
  const std::string dir = FreshDir("ret");
  const std::string source = "ret.src";

  JournalOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kOff;
  options.segment_max_bytes = 1;        // rotate on every append
  options.retention_max_bytes = 1;      // retire every closed segment
  {
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      GS_ASSERT_OK_((*sj)->Append(Msg(source, seq)));
      // Settle each record (delivered + acked) so retention may drop
      // it; unsettled records survive retirement via compaction and
      // are covered by the JournalCompactionTest suite.
      (*sj)->SetRetainFloor(seq + 1);
    }
    EXPECT_EQ((*sj)->stats().segments_retired, 3u);
    // Only the newest closed segment and the active one survive.
    EXPECT_EQ(SegmentFiles(dir + "/" + source).size(), 2u);
  }

  // Early records are gone, but the sequence high-water mark is not:
  // segment names carry it.
  auto reopened = IngestJournal::Open(options);
  GS_ASSERT_OK_(reopened.status());
  const SourceRecovery& rec = (*reopened)->recovery().sources.at(source);
  EXPECT_EQ(rec.records_replayed, 2u);
  EXPECT_EQ(rec.next_seq, 6u);
  auto sj = (*reopened)->SourceFor(source);
  GS_ASSERT_OK_(sj.status());
  EXPECT_EQ((*sj)->next_seq(), 6u);
}

TEST(JournalTest, DuplicateSequenceAppendsReplayOnce) {
  const std::string dir = FreshDir("dup");
  const std::string source = "dup.src";
  JournalOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kOff;
  {
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    GS_ASSERT_OK_((*sj)->Append(Msg(source, 1)));
    GS_ASSERT_OK_((*sj)->Append(Msg(source, 2)));
    // The NACKed-delivery retry: the same sequence journaled twice.
    GS_ASSERT_OK_((*sj)->Append(Msg(source, 2)));
    GS_ASSERT_OK_((*sj)->Append(Msg(source, 3)));
    EXPECT_EQ((*sj)->next_seq(), 4u);
  }
  auto reopened = IngestJournal::Open(options);
  GS_ASSERT_OK_(reopened.status());
  const SourceRecovery& rec = (*reopened)->recovery().sources.at(source);
  EXPECT_EQ(rec.records_replayed, 3u);
  EXPECT_EQ(rec.duplicate_records, 1u);
  EXPECT_EQ(rec.next_seq, 4u);
  const std::map<uint64_t, int64_t> ids =
      ReplayIds(reopened->get(), source);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids.count(2), 1u);
}

TEST(JournalTest, FsyncPolicies) {
  const std::string source = "sync.src";
  // kGroupCommit with a huge interval: appends never fsync on their
  // own; an explicit Sync still flushes.
  {
    JournalOptions options;
    options.dir = FreshDir("group");
    options.fsync = FsyncPolicy::kGroupCommit;
    options.group_commit_interval_ms = 1000u * 1000u;
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    for (uint64_t seq = 1; seq <= 8; ++seq) {
      GS_ASSERT_OK_((*sj)->Append(Msg(source, seq)));
    }
    EXPECT_EQ((*sj)->stats().fsyncs, 0u);
    GS_ASSERT_OK_((*sj)->Sync());
    EXPECT_EQ((*sj)->stats().fsyncs, 1u);
    GS_ASSERT_OK_((*sj)->Sync());  // clean: no second fsync
    EXPECT_EQ((*sj)->stats().fsyncs, 1u);
  }
  // kOff: never, not even via policy — only explicit Sync.
  {
    JournalOptions options;
    options.dir = FreshDir("off");
    options.fsync = FsyncPolicy::kOff;
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    for (uint64_t seq = 1; seq <= 8; ++seq) {
      GS_ASSERT_OK_((*sj)->Append(Msg(source, seq)));
    }
    EXPECT_EQ((*sj)->stats().fsyncs, 0u);
  }
}

TEST(JournalTest, GroupCommitFlusherSyncsInTheBackground) {
  // With a short interval, the background flusher thread fsyncs dirty
  // sources on its own — no append or explicit Sync ever does.
  const std::string source = "flush.src";
  JournalOptions options;
  options.dir = FreshDir("bg");
  options.fsync = FsyncPolicy::kGroupCommit;
  options.group_commit_interval_ms = 2;
  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK_(journal.status());
  auto sj = (*journal)->SourceFor(source);
  GS_ASSERT_OK_(sj.status());
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    GS_ASSERT_OK_((*sj)->Append(Msg(source, seq)));
  }
  // The flusher catches up within a couple of intervals.
  uint64_t fsyncs = 0;
  for (int i = 0; i < 500 && fsyncs == 0; ++i) {
    fsyncs = (*sj)->stats().fsyncs;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(fsyncs, 1u);

  // Idle ticks stay cheap: a clean source is skipped, so fsyncs stop
  // climbing once the dirty bytes are down.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t settled = (*sj)->stats().fsyncs;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ((*sj)->stats().fsyncs, settled);

  // New dirty bytes wake the next tick.
  GS_ASSERT_OK_((*sj)->Append(Msg(source, 5)));
  uint64_t after = settled;
  for (int i = 0; i < 500 && after == settled; ++i) {
    after = (*sj)->stats().fsyncs;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(after, settled);
}

TEST(JournalTest, GroupCommitShutdownFlushesAndRecovers) {
  // Destruction stops the flusher and force-syncs, so a clean close
  // loses nothing even with a never-firing interval.
  const std::string source = "close.src";
  JournalOptions options;
  options.dir = FreshDir("shutdown");
  options.fsync = FsyncPolicy::kGroupCommit;
  options.group_commit_interval_ms = 1000u * 1000u;
  {
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    for (uint64_t seq = 1; seq <= 12; ++seq) {
      GS_ASSERT_OK_((*sj)->Append(Msg(source, seq)));
    }
    EXPECT_EQ((*sj)->stats().fsyncs, 0u);
  }
  auto reopened = IngestJournal::Open(options);
  GS_ASSERT_OK_(reopened.status());
  const auto& rec = (*reopened)->recovery().sources.at(source);
  EXPECT_EQ(rec.records_replayed, 12u);
  EXPECT_EQ(rec.next_seq, 13u);
  EXPECT_FALSE(rec.torn_tail);
}

TEST(JournalTest, MetricsTrackAppendsAndFsyncLatency) {
  MetricsRegistry registry;
  JournalOptions options;
  options.dir = FreshDir("metrics");
  options.metrics = &registry;
  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK_(journal.status());
  auto sj = (*journal)->SourceFor("m.src");
  GS_ASSERT_OK_(sj.status());
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    GS_ASSERT_OK_((*sj)->Append(Msg("m.src", seq)));
  }
  registry.RenderPrometheus();  // the journal's collector fills the series
  EXPECT_EQ(registry.GetCounter("geostreams_journal_appends_total", "")
                ->Value(),
            5u);
  EXPECT_EQ(registry.GetCounter("geostreams_journal_fsyncs_total", "")
                ->Value(),
            5u);
  EXPECT_GT(registry.GetCounter("geostreams_journal_append_bytes_total", "")
                ->Value(),
            0u);
  // Every fsync observed a latency sample.
  EXPECT_EQ(registry
                .GetHistogram("geostreams_journal_fsync_latency_us", "")
                ->Count(),
            5u);
}

// ---------------------------------------------------------------------------
// Recovery: torn tails, mid-file corruption, name floors

TEST(JournalRecoveryTest, TornTailIsTruncatedAndNeverReappears) {
  const std::string dir = FreshDir("torn");
  const std::string source = "t.src";
  JournalOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kOff;
  {
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      GS_ASSERT_OK_((*sj)->Append(Msg(source, seq)));
    }
  }
  const std::vector<std::string> segments = SegmentFiles(dir + "/" + source);
  ASSERT_EQ(segments.size(), 1u);
  const uint64_t full_size = fs::file_size(segments[0]);
  const size_t record_size = EncodeIngestMessage(Msg(source, 5)).size();
  const uint64_t clean_size = full_size - record_size;

  // The crash hit mid-append: the last record lost its final 7 bytes.
  fs::resize_file(segments[0], full_size - 7);
  {
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    const JournalRecovery& recovery = (*journal)->recovery();
    EXPECT_EQ(recovery.torn_tails, 1u);
    EXPECT_EQ(recovery.records_replayed, 4u);
    const SourceRecovery& rec = recovery.sources.at(source);
    EXPECT_TRUE(rec.torn_tail);
    EXPECT_EQ(rec.torn_bytes, record_size - 7);
    EXPECT_EQ(rec.next_seq, 5u);
    EXPECT_EQ(fs::file_size(segments[0]), clean_size);
  }
  // Second recovery over the truncated file is clean — idempotent.
  {
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    EXPECT_EQ((*journal)->recovery().torn_tails, 0u);
    EXPECT_EQ((*journal)->recovery().records_replayed, 4u);
  }

  // Trailing garbage (no GSF1 header at all) is also a torn tail.
  {
    std::ofstream out(segments[0], std::ios::binary | std::ios::app);
    out << "not-a-journal-record";
  }
  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK_(journal.status());
  EXPECT_EQ((*journal)->recovery().torn_tails, 1u);
  EXPECT_EQ((*journal)->recovery().records_replayed, 4u);
  EXPECT_EQ(fs::file_size(segments[0]), clean_size);
}

TEST(JournalRecoveryTest, FullyTornLastSegmentResumesFromNameFloor) {
  const std::string dir = FreshDir("floor");
  const std::string source = "floor.src";
  JournalOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kOff;
  options.segment_max_bytes = 1;  // one record per segment
  {
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      GS_ASSERT_OK_((*sj)->Append(Msg(source, seq)));
    }
  }
  // The whole last segment (seg-...3) is unreadable. Its name still
  // proves sequence 3 was once acked, so recovery must not hand the
  // producer next_seq=3's slot back as a fresh sequence... it does
  // hand exactly 3 (not 2): duplicates are impossible, and the
  // producer replays 3 itself.
  std::vector<std::string> segments = SegmentFiles(dir + "/" + source);
  ASSERT_EQ(segments.size(), 3u);
  const uint64_t last_size = fs::file_size(segments[2]);
  WriteAll(segments[2],
           std::vector<uint8_t>(static_cast<size_t>(last_size), 0x5a));

  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK_(journal.status());
  const SourceRecovery& rec = (*journal)->recovery().sources.at(source);
  EXPECT_TRUE(rec.torn_tail);
  EXPECT_EQ(rec.records_replayed, 2u);
  EXPECT_EQ(rec.next_seq, 3u);  // floor from the segment name
  auto sj = (*journal)->SourceFor(source);
  GS_ASSERT_OK_(sj.status());
  EXPECT_EQ((*sj)->next_seq(), 3u);
}

TEST(JournalRecoveryTest, MidFileCorruptionIsQuarantinedIntoDeadLetters) {
  const std::string dir = FreshDir("mid");
  const std::string source = "c.src";
  JournalOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kOff;
  {
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      GS_ASSERT_OK_((*sj)->Append(Msg(source, seq)));
    }
  }
  const std::vector<std::string> segments = SegmentFiles(dir + "/" + source);
  ASSERT_EQ(segments.size(), 1u);
  // Flip one payload byte inside record 2 (records 3..5 follow, so
  // this is mid-file damage, not a torn tail).
  const size_t r1 = EncodeIngestMessage(Msg(source, 1)).size();
  std::vector<uint8_t> bytes = ReadAll(segments[0]);
  bytes[r1 + kWireHeaderSize + 3] ^= 0xff;
  WriteAll(segments[0], bytes);

  {
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    const SourceRecovery& rec = (*journal)->recovery().sources.at(source);
    EXPECT_EQ(rec.corrupt_regions, 1u);
    EXPECT_GT(rec.corrupt_bytes, 0u);
    EXPECT_FALSE(rec.torn_tail);
    EXPECT_EQ(rec.records_replayed, 4u);  // 1, 3, 4, 5 survive
    EXPECT_EQ(rec.next_seq, 6u);
    const std::map<uint64_t, int64_t> ids =
        ReplayIds(journal->get(), source);
    ASSERT_EQ(ids.size(), 4u);
    EXPECT_EQ(ids.count(2), 0u);
    // The quarantine was recorded into the (fresh) dead-letter store.
    auto dls = (*journal)->DeadLettersFor(source);
    GS_ASSERT_OK_(dls.status());
    EXPECT_EQ((*dls)->next_ordinal(), 1u);
  }
  // The quarantine evidence survived the restart.
  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK_(journal.status());
  auto dls = (*journal)->DeadLettersFor(source);
  GS_ASSERT_OK_(dls.status());
  ASSERT_GE((*dls)->recovered().size(), 1u);
  EXPECT_EQ((*dls)->recovered()[0].ordinal, 0u);
  EXPECT_NE((*dls)->recovered()[0].error.find("corrupt at offset"),
            std::string::npos)
      << (*dls)->recovered()[0].error;
}

// ---------------------------------------------------------------------------
// FaultyFile: deterministic injected storage faults

TEST(JournalFaultTest, ShortWriteFailsTheAppendAndHealsAfterDisarm) {
  const std::string dir = FreshDir("short");
  const std::string source = "sw.src";
  FaultyFileOptions fopts;
  fopts.seed = 11;
  fopts.short_write_p = 1.0;
  FaultyFileInjector injector(fopts);

  {
    JournalOptions options;
    options.dir = dir;
    options.file_factory = injector.Factory();
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    const Status torn = (*sj)->Append(Msg(source, 1));
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ((*sj)->stats().append_errors, 1u);
    EXPECT_EQ((*sj)->next_seq(), 1u);  // nothing committed
    EXPECT_EQ(injector.stats().short_writes, 1u);

    // The operator fixed the disk; the producer retries the same seq.
    injector.Disarm();
    GS_ASSERT_OK_((*sj)->Append(Msg(source, 1)));
    EXPECT_EQ((*sj)->next_seq(), 2u);
  }

  // Recovery with real files: the retried record replays; the torn
  // prefix the short write left (if any bytes landed) is quarantined
  // loudly, never silently dropped.
  JournalOptions options;
  options.dir = dir;
  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK_(journal.status());
  const SourceRecovery& rec = (*journal)->recovery().sources.at(source);
  EXPECT_EQ(rec.records_replayed, 1u);
  EXPECT_EQ(rec.next_seq, 2u);
  const std::map<uint64_t, int64_t> ids = ReplayIds(journal->get(), source);
  ASSERT_EQ(ids.count(1), 1u);
  EXPECT_EQ(ids.at(1), 1);
}

TEST(JournalFaultTest, FsyncFailureNacksButTheBytesMayStillCommit) {
  const std::string dir = FreshDir("syncfail");
  const std::string source = "sf.src";
  FaultyFileOptions fopts;
  fopts.seed = 3;
  fopts.sync_fail_p = 1.0;
  FaultyFileInjector injector(fopts);

  {
    JournalOptions options;
    options.dir = dir;
    options.file_factory = injector.Factory();
    options.fsync = FsyncPolicy::kPerRecord;
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    // The record's bytes land but the fsync fails: the append reports
    // failure (the ACK must not go out — durability was not proven).
    const Status failed = (*sj)->Append(Msg(source, 1));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ((*sj)->next_seq(), 1u);
    EXPECT_GE(injector.stats().sync_failures, 1u);

    injector.Disarm();
    GS_ASSERT_OK_((*sj)->Append(Msg(source, 1)));  // producer retry
  }

  // Both copies of seq 1 are on disk; recovery replays exactly one.
  JournalOptions options;
  options.dir = dir;
  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK_(journal.status());
  const SourceRecovery& rec = (*journal)->recovery().sources.at(source);
  EXPECT_EQ(rec.records_replayed, 1u);
  EXPECT_EQ(rec.duplicate_records, 1u);
  EXPECT_EQ(rec.next_seq, 2u);
}

TEST(JournalFaultTest, CrashAtByteBudgetLeavesRecoverableAckedPrefix) {
  const std::string dir = FreshDir("budget");
  const std::string source = "crash.src";
  const uint64_t r = EncodeIngestMessage(Msg(source, 1)).size();

  FaultyFileOptions fopts;
  fopts.fail_at_byte = 2 * r + r / 2;  // dies halfway through record 3
  FaultyFileInjector injector(fopts);
  {
    JournalOptions options;
    options.dir = dir;
    options.file_factory = injector.Factory();
    options.fsync = FsyncPolicy::kPerRecord;
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    GS_ASSERT_OK_((*sj)->Append(Msg(source, 1)));
    GS_ASSERT_OK_((*sj)->Append(Msg(source, 2)));
    // "Power failure" mid-append: a torn half-record reaches disk.
    ASSERT_FALSE((*sj)->Append(Msg(source, 3)).ok());
    EXPECT_TRUE(injector.stats().budget_exhausted);
    // The machine is off: every later append fails too. The retry's
    // reopen repairs the torn prefix in place (truncation needs no
    // new disk space) before the dead disk refuses the record again.
    ASSERT_FALSE((*sj)->Append(Msg(source, 3)).ok());
    EXPECT_EQ((*sj)->next_seq(), 3u);
  }
  (void)r;

  // Reboot with a healthy disk. The two acked records replay; the
  // torn half of record 3 (never acked) is already gone — repaired
  // by the in-incarnation retry, so recovery finds a clean tail.
  JournalOptions options;
  options.dir = dir;
  auto journal = IngestJournal::Open(options);
  GS_ASSERT_OK_(journal.status());
  const SourceRecovery& rec = (*journal)->recovery().sources.at(source);
  EXPECT_EQ(rec.records_replayed, 2u);
  EXPECT_FALSE(rec.torn_tail);
  EXPECT_EQ(rec.torn_bytes, 0u);
  EXPECT_EQ(rec.next_seq, 3u);
}

TEST(JournalFaultTest, FaultScheduleIsDeterministicPerSeed) {
  FaultyFileOptions fopts;
  fopts.seed = 77;
  fopts.short_write_p = 0.3;
  fopts.bit_flip_p = 0.2;
  const std::string source = "det.src";

  auto run = [&](const std::string& dir) -> FaultyFileStats {
    FaultyFileInjector injector(fopts);
    JournalOptions options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kOff;
    options.file_factory = injector.Factory();
    auto journal = IngestJournal::Open(options);
    EXPECT_TRUE(journal.ok());
    auto sj = (*journal)->SourceFor(source);
    EXPECT_TRUE(sj.ok());
    for (uint64_t seq = 1; seq <= 30; ++seq) {
      Status ignored = (*sj)->Append(Msg(source, seq));
      (void)ignored;  // failures are part of the schedule
    }
    return injector.stats();
  };

  const FaultyFileStats a = run(FreshDir("a"));
  const FaultyFileStats b = run(FreshDir("b"));
  EXPECT_GT(a.short_writes, 0u);
  EXPECT_GT(a.bit_flips, 0u);
  EXPECT_EQ(a.appends, b.appends);
  EXPECT_EQ(a.short_writes, b.short_writes);
  EXPECT_EQ(a.bit_flips, b.bit_flips);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
}

// ---------------------------------------------------------------------------
// Recovery fuzzing

/// Builds one pristine single-segment journal for `source` and
/// returns its bytes plus the record boundaries (byte offset where
/// record i+1 starts; boundaries[0] == 0).
std::vector<uint8_t> PristineSegment(const std::string& source,
                                     uint64_t records,
                                     std::vector<size_t>* boundaries) {
  std::vector<uint8_t> bytes;
  boundaries->clear();
  boundaries->push_back(0);
  for (uint64_t seq = 1; seq <= records; ++seq) {
    const std::vector<uint8_t> record =
        EncodeIngestMessage(Msg(source, seq, /*n=*/4));
    bytes.insert(bytes.end(), record.begin(), record.end());
    boundaries->push_back(bytes.size());
  }
  return bytes;
}

/// Lays `segment` down as a fresh journal for `source` and returns
/// the root directory.
std::string PlantJournal(const std::string& root, const std::string& source,
                         const std::vector<uint8_t>& segment) {
  fs::remove_all(root);
  fs::create_directories(root + "/" + source);
  WriteAll(root + "/" + source + "/seg-00000000000000000001.gsj", segment);
  return root;
}

TEST(JournalFuzzTest, TruncationAtEveryOffsetRecoversTheCleanPrefix) {
  const std::string source = "fuzz.src";
  std::vector<size_t> boundaries;
  const std::vector<uint8_t> pristine =
      PristineSegment(source, /*records=*/6, &boundaries);
  const std::string root = ::testing::TempDir() + "gsjournal-truncfuzz";

  for (size_t cut = 0; cut <= pristine.size(); ++cut) {
    // Records fully contained in the first `cut` bytes survive.
    size_t expect_full = 0;
    while (expect_full + 1 < boundaries.size() &&
           boundaries[expect_full + 1] <= cut) {
      ++expect_full;
    }
    const bool at_boundary = boundaries[expect_full] == cut;

    std::vector<uint8_t> truncated(pristine.begin(),
                                   pristine.begin() + cut);
    PlantJournal(root, source, truncated);
    JournalOptions options;
    options.dir = root;
    auto journal = IngestJournal::Open(options);
    ASSERT_TRUE(journal.ok())
        << "cut=" << cut << ": " << journal.status().ToString();
    const SourceRecovery& rec = (*journal)->recovery().sources.at(source);
    ASSERT_EQ(rec.records_replayed, expect_full) << "cut=" << cut;
    ASSERT_EQ(rec.torn_tail, !at_boundary) << "cut=" << cut;
    ASSERT_EQ(rec.corrupt_regions, 0u) << "cut=" << cut;
    ASSERT_EQ(rec.next_seq, expect_full + 1) << "cut=" << cut;

    // The replayed prefix is exactly seqs 1..expect_full, bit-true.
    const std::map<uint64_t, int64_t> ids =
        ReplayIds(journal->get(), source);
    ASSERT_EQ(ids.size(), expect_full) << "cut=" << cut;
    for (uint64_t seq = 1; seq <= expect_full; ++seq) {
      ASSERT_EQ(ids.at(seq), static_cast<int64_t>(seq)) << "cut=" << cut;
    }
    journal->reset();

    // Recovery converged: a second pass finds a clean journal.
    auto again = IngestJournal::Open(options);
    ASSERT_TRUE(again.ok()) << "cut=" << cut;
    const SourceRecovery& rec2 = (*again)->recovery().sources.at(source);
    ASSERT_FALSE(rec2.torn_tail) << "cut=" << cut;
    ASSERT_EQ(rec2.records_replayed, expect_full) << "cut=" << cut;
  }
  fs::remove_all(root);
}

TEST(JournalFuzzTest, RandomBitFlipsNeverCrashOrInventRecords) {
  const std::string source = "flip.src";
  constexpr uint64_t kRecords = 12;
  std::vector<size_t> boundaries;
  const std::vector<uint8_t> pristine =
      PristineSegment(source, kRecords, &boundaries);
  const std::string root = ::testing::TempDir() + "gsjournal-flipfuzz";
  std::mt19937_64 rng(20260808);

  for (int trial = 0; trial < 60; ++trial) {
    std::vector<uint8_t> mutated = pristine;
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<uint8_t>(1u << (rng() % 8));
    }
    PlantJournal(root, source, mutated);
    JournalOptions options;
    options.dir = root;
    auto journal = IngestJournal::Open(options);
    ASSERT_TRUE(journal.ok())
        << "trial=" << trial << ": " << journal.status().ToString();
    const SourceRecovery& rec = (*journal)->recovery().sources.at(source);
    ASSERT_LE(rec.records_replayed, kRecords) << "trial=" << trial;

    // No phantom records: everything replayed is one of the pristine
    // records, byte-faithful (the CRC guarantees it; the stamp checks
    // the payload actually decoded to the right batch).
    const std::map<uint64_t, int64_t> ids =
        ReplayIds(journal->get(), source);
    for (const auto& [seq, stamp] : ids) {
      ASSERT_GE(seq, 1u) << "trial=" << trial;
      ASSERT_LE(seq, kRecords) << "trial=" << trial;
      ASSERT_EQ(stamp, static_cast<int64_t>(seq)) << "trial=" << trial;
    }
    const uint64_t first_pass = rec.records_replayed;
    journal->reset();

    // Idempotent: a second recovery loses nothing further.
    auto again = IngestJournal::Open(options);
    ASSERT_TRUE(again.ok()) << "trial=" << trial;
    ASSERT_EQ((*again)->recovery().records_replayed, first_pass)
        << "trial=" << trial;
    ASSERT_FALSE((*again)->recovery().sources.at(source).torn_tail)
        << "trial=" << trial;
  }
  fs::remove_all(root);
}

TEST(JournalFuzzTest, TenThousandRecordRecoveryIsBoundedAndCounted) {
  const std::string dir = FreshDir("10k");
  const std::string source = "bulk.src";
  constexpr uint64_t kRecords = 10000;
  {
    JournalOptions options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kOff;
    options.segment_max_bytes = 256u << 10;  // several segments
    auto journal = IngestJournal::Open(options);
    GS_ASSERT_OK_(journal.status());
    auto sj = (*journal)->SourceFor(source);
    GS_ASSERT_OK_(sj.status());
    for (uint64_t seq = 1; seq <= kRecords; ++seq) {
      GS_ASSERT_OK_((*sj)->Append(Msg(source, seq, /*n=*/2)));
    }
    EXPECT_GT((*sj)->stats().rotations, 0u);
  }

  MetricsRegistry registry;
  JournalOptions options;
  options.dir = dir;
  options.metrics = &registry;
  const auto t0 = std::chrono::steady_clock::now();
  auto journal = IngestJournal::Open(options);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  GS_ASSERT_OK_(journal.status());
  registry.RenderPrometheus();  // the journal's collector fills the series
  EXPECT_EQ((*journal)->recovery().records_replayed, kRecords);
  EXPECT_EQ((*journal)->recovery().sources.at(source).next_seq,
            kRecords + 1);
  EXPECT_EQ(
      registry.GetCounter("geostreams_journal_recovered_records_total", "")
          ->Value(),
      kRecords);
  EXPECT_EQ(registry.GetCounter("geostreams_journal_torn_tails_total", "")
                ->Value(),
            0u);
  // Bounded: a 10k-record journal must recover in seconds, not
  // minutes (generous CI margin; locally this is well under 1s).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            10000);
  journal->reset();

  // Tear the tail and watch the replayed-vs-truncated split.
  std::vector<std::string> segments = SegmentFiles(dir + "/" + source);
  ASSERT_FALSE(segments.empty());
  const std::string& last = segments.back();
  fs::resize_file(last, fs::file_size(last) - 5);
  MetricsRegistry registry2;
  options.metrics = &registry2;
  auto reopened = IngestJournal::Open(options);
  GS_ASSERT_OK_(reopened.status());
  registry2.RenderPrometheus();
  EXPECT_EQ(
      registry2.GetCounter("geostreams_journal_recovered_records_total", "")
          ->Value(),
      kRecords - 1);
  EXPECT_EQ(registry2.GetCounter("geostreams_journal_torn_tails_total", "")
                ->Value(),
            1u);
  EXPECT_GT(registry2.GetCounter("geostreams_journal_torn_bytes_total", "")
                ->Value(),
            0u);
}

// ---------------------------------------------------------------------------
// Persisted dead letters

TEST(DeadLetterStoreTest, QueueHookPersistsAndRestoreRoundTrips) {
  const std::string dir = FreshDir("dlq");
  const std::string path = dir + "/dead_letters.gsd";

  {
    auto store = DeadLetterStore::Open(path, OpenPosixWritable);
    GS_ASSERT_OK_(store.status());
    EXPECT_EQ((*store)->next_ordinal(), 0u);
    DeadLetterQueue queue(16, 1 << 20);
    DeadLetterStore* dls = store->get();
    queue.SetPersistHook([dls](const DeadLetter& letter) {
      Status st = dls->Append("dlq.src", letter);
      EXPECT_TRUE(st.ok()) << st.ToString();
    });
    queue.Push(BatchEvent(100), Status::InvalidArgument("bad checksum"));
    queue.Push(BatchEvent(101), Status::InvalidArgument("poison pill"));
    queue.Push(BatchEvent(102), Status::Internal("operator crashed"));
    EXPECT_EQ((*store)->next_ordinal(), 3u);
  }

  // Restart: the letters come back in order with their ordinals.
  auto store = DeadLetterStore::Open(path, OpenPosixWritable);
  GS_ASSERT_OK_(store.status());
  ASSERT_EQ((*store)->recovered().size(), 3u);
  EXPECT_EQ((*store)->load_errors(), 0u);
  for (size_t i = 0; i < 3; ++i) {
    const DeadLetter& letter = (*store)->recovered()[i];
    EXPECT_EQ(letter.ordinal, i);
    ASSERT_EQ(letter.event.kind, EventKind::kPointBatch);
    ASSERT_TRUE(letter.event.batch != nullptr);
    EXPECT_EQ(letter.event.batch->timestamps[0],
              static_cast<int64_t>(100 + i));
  }
  EXPECT_NE((*store)->recovered()[0].error.find("bad checksum"),
            std::string::npos);

  // Restore refills a fresh queue and the ordinal sequence continues
  // across the restart — both in memory and on disk.
  DeadLetterQueue queue(16, 1 << 20);
  queue.Restore((*store)->recovered());
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.total_pushed(), 3u);
  DeadLetterStore* dls = store->get();
  queue.SetPersistHook([dls](const DeadLetter& letter) {
    EXPECT_EQ(letter.ordinal, 3u);
    Status st = dls->Append("dlq.src", letter);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  queue.Push(BatchEvent(103), Status::Internal("post-restart"));
  EXPECT_EQ((*store)->next_ordinal(), 4u);
  store->reset();

  auto again = DeadLetterStore::Open(path, OpenPosixWritable);
  GS_ASSERT_OK_(again.status());
  ASSERT_EQ((*again)->recovered().size(), 4u);
  EXPECT_EQ((*again)->recovered()[3].ordinal, 3u);
}

TEST(DeadLetterStoreTest, TornTailIsToleratedOnLoad) {
  const std::string dir = FreshDir("dlqtorn");
  const std::string path = dir + "/dead_letters.gsd";
  {
    auto store = DeadLetterStore::Open(path, OpenPosixWritable);
    GS_ASSERT_OK_(store.status());
    GS_ASSERT_OK_((*store)->AppendQuarantine("q.src", "region one"));
    GS_ASSERT_OK_((*store)->AppendQuarantine("q.src", "region two"));
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "torn";
  }
  auto store = DeadLetterStore::Open(path, OpenPosixWritable);
  GS_ASSERT_OK_(store.status());
  EXPECT_EQ((*store)->recovered().size(), 2u);
  EXPECT_GE((*store)->load_errors(), 1u);
  EXPECT_EQ((*store)->next_ordinal(), 2u);
  EXPECT_NE((*store)->recovered()[1].error.find("region two"),
            std::string::npos);
}

}  // namespace
}  // namespace geostreams
