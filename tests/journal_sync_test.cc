// The group-commit fsync runs outside the source's append lock: while
// one thread's Sync() waits on the disk, appends to the same source
// keep returning. A test-local WritableFileFactory parks the first
// Sync() on a latch, so "the disk is slow" is deterministic.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/journal.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

namespace fs = std::filesystem;

/// Parks the first Sync() of any file it opened until Release().
class SyncLatch {
 public:
  WritableFileFactory Factory() {
    return [this](const std::string& path)
               -> Result<std::unique_ptr<WritableFile>> {
      GEOSTREAMS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> real,
                                  OpenPosixWritable(path));
      return std::unique_ptr<WritableFile>(
          std::make_unique<LatchedFile>(this, std::move(real)));
    };
  }

  /// Waits until a Sync() is parked on the latch.
  bool WaitEntered(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return entered_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  class LatchedFile : public WritableFile {
   public:
    LatchedFile(SyncLatch* latch, std::unique_ptr<WritableFile> real)
        : latch_(latch), real_(std::move(real)) {}
    Status Append(const uint8_t* data, size_t len) override {
      return real_->Append(data, len);
    }
    Status Sync() override {
      latch_->Park();
      return real_->Sync();
    }
    Status Close() override { return real_->Close(); }

   private:
    SyncLatch* latch_;
    std::unique_ptr<WritableFile> real_;
  };

  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    if (entered_) return;  // only the first Sync() parks
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

IngestMessage Msg(uint64_t seq) {
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = 1;
  batch->band_count = 1;
  batch->Append1(0, 0, static_cast<int64_t>(seq), 0.5);
  IngestMessage message;
  message.source = "sat.band1";
  message.seq = seq;
  message.event = StreamEvent::Batch(std::move(batch));
  return message;
}

TEST(JournalSyncTest, AppendsReturnWhileAnFsyncIsBlocked) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir =
      ::testing::TempDir() + "gsjournal-sync-" + info->name();
  fs::remove_all(dir);

  SyncLatch latch;
  JournalOptions options;
  options.dir = dir;
  // No background flusher tick inside the test window: the only
  // fsync is the one this test starts.
  options.fsync = FsyncPolicy::kGroupCommit;
  options.group_commit_interval_ms = 3600 * 1000;
  options.file_factory = latch.Factory();
  auto journal = IngestJournal::Open(options);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  auto source = (*journal)->SourceFor("sat.band1");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  SourceJournal* sj = *source;
  GS_ASSERT_OK(sj->Append(Msg(1)));

  std::thread syncer([sj] { GS_EXPECT_OK(sj->Sync()); });
  const bool parked = latch.WaitEntered(std::chrono::seconds(10));
  EXPECT_TRUE(parked) << "Sync() never reached the file";

  // Appends on the same source while the fsync is parked. They must
  // all return long before the deadline; if they wait on the fsync
  // they time out and the latch is released below, so the test fails
  // instead of hanging.
  constexpr uint64_t kAppends = 16;
  std::future<Status> appends = std::async(std::launch::async, [sj] {
    for (uint64_t seq = 2; seq < 2 + kAppends; ++seq) {
      Status st = sj->Append(Msg(seq));
      if (!st.ok()) return st;
    }
    return Status::OK();
  });
  const bool returned = parked && appends.wait_for(std::chrono::seconds(3)) ==
                                      std::future_status::ready;
  EXPECT_TRUE(returned) << "appends waited on an fsync they did not need";
  latch.Release();
  syncer.join();
  GS_EXPECT_OK(appends.get());
  EXPECT_EQ(sj->next_seq(), 2 + kAppends);

  // The parked fsync covered only the first record; the appends that
  // landed during it leave the source dirty, so the next Sync() must
  // run a fresh fsync rather than report them durable.
  const uint64_t fsyncs = sj->stats().fsyncs;
  GS_ASSERT_OK(sj->Sync());
  EXPECT_EQ(sj->stats().fsyncs, fsyncs + 1);
  GS_ASSERT_OK(sj->Sync());
  EXPECT_EQ(sj->stats().fsyncs, fsyncs + 1) << "a clean source fsynced again";
}

TEST(JournalSyncTest, RotationAndRetentionRunBesideTheFlusher) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir =
      ::testing::TempDir() + "gsjournal-sync-" + info->name();
  fs::remove_all(dir);
  JournalOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kGroupCommit;
  options.group_commit_interval_ms = 1;
  options.segment_max_bytes = 512;  // rotate every few records
  options.retention_max_bytes = 2048;
  constexpr uint64_t kRecords = 300;
  {
    auto journal = IngestJournal::Open(options);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    auto source = (*journal)->SourceFor("sat.band1");
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    SourceJournal* sj = *source;
    // A second unlocked fsync caller next to the flusher thread, while
    // appends rotate segments and retention retires them.
    std::atomic<bool> done{false};
    std::thread syncer([sj, &done] {
      while (!done.load()) {
        GS_EXPECT_OK(sj->Sync());
        std::this_thread::yield();
      }
    });
    for (uint64_t seq = 1; seq <= kRecords; ++seq) {
      GS_EXPECT_OK(sj->Append(Msg(seq)));
      // Everything below the last few records is settled.
      if (seq > 4) sj->SetRetainFloor(seq - 4);
    }
    done = true;
    syncer.join();
    EXPECT_GT(sj->stats().rotations, 0u);
    EXPECT_GT(sj->stats().segments_retired, 0u);
  }
  auto reopened = IngestJournal::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery().torn_tails, 0u);
  EXPECT_EQ((*reopened)->recovery().corrupt_regions, 0u);
  const SourceRecovery& recovered =
      (*reopened)->recovery().sources.at("sat.band1");
  EXPECT_EQ(recovered.next_seq, kRecords + 1);
  // Retention never drops a live record: the unsettled tail replays.
  std::vector<uint64_t> seqs;
  GS_ASSERT_OK((*reopened)->Replay(
      "sat.band1", [&seqs](const IngestMessage& m) { seqs.push_back(m.seq); }));
  ASSERT_FALSE(seqs.empty());
  EXPECT_EQ(seqs.back(), kRecords);
  EXPECT_LE(seqs.front(), kRecords - 4);
}

}  // namespace
}  // namespace geostreams
