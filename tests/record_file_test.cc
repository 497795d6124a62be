// The shared storage substrate: the record header codec, the source
// directory helpers, and the positional damage scan, checked directly
// on a synthetic format and end to end through the two stores that
// run it (the ingest journal and the tile store).

#include "storage/record_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/journal.h"
#include "store/tile_store.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

namespace fs = std::filesystem;

constexpr RecordFormat kTestFormat = {{'T', 'S', 'T', '1'}, 3, 1024, "test"};

std::string FreshDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info->name();
  std::replace(name.begin(), name.end(), '/', '-');
  std::string dir = ::testing::TempDir() + "gsrecord-" + name + "-" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<uint8_t> Record(uint8_t type, const std::string& payload) {
  std::vector<uint8_t> out;
  AppendRecord(kTestFormat, type, /*flags=*/7,
               reinterpret_cast<const uint8_t*>(payload.data()),
               payload.size(), out);
  return out;
}

void AppendBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A torn record: a whole header whose payload never made it to disk.
std::vector<uint8_t> TornRecord() {
  std::vector<uint8_t> bytes = Record(1, "a payload that was never written");
  bytes.resize(kRecordHeaderSize + 5);
  return bytes;
}

// ---------------------------------------------------------------------------
// Header codec

TEST(RecordFileTest, HeaderRoundTripsAndRejectsDamage) {
  std::vector<uint8_t> bytes = Record(2, "hello");
  ASSERT_EQ(bytes.size(), kRecordHeaderSize + 5);
  bytes.push_back(0xEE);  // a following record's first byte
  Result<RecordView> view =
      ParseRecord(kTestFormat, bytes.data(), bytes.size());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->type, 2);
  EXPECT_EQ(view->flags, 7);
  EXPECT_EQ(view->size(), kRecordHeaderSize + 5);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(view->payload),
                        view->payload_len),
            "hello");

  std::vector<uint8_t> flipped = Record(2, "hello");
  flipped.back() ^= 0x1;
  EXPECT_FALSE(ParseRecord(kTestFormat, flipped.data(), flipped.size()).ok());
  const std::vector<uint8_t> whole = Record(2, "hello");
  EXPECT_FALSE(ParseRecord(kTestFormat, whole.data(), whole.size() - 1).ok());
  EXPECT_FALSE(ParseRecord(kTestFormat, whole.data(), 10).ok());
  constexpr RecordFormat kOtherMagic = {{'T', 'S', 'T', '2'}, 3, 1024, "x"};
  EXPECT_FALSE(ParseRecord(kOtherMagic, whole.data(), whole.size()).ok());
  constexpr RecordFormat kOtherVersion = {{'T', 'S', 'T', '1'}, 4, 1024, "x"};
  EXPECT_FALSE(ParseRecord(kOtherVersion, whole.data(), whole.size()).ok());
  constexpr RecordFormat kSmallCap = {{'T', 'S', 'T', '1'}, 3, 4, "x"};
  EXPECT_FALSE(ParseRecord(kSmallCap, whole.data(), whole.size()).ok());
}

TEST(RecordFileTest, ListSegmentsOrdersByNumberAndSkipsStrangers) {
  const std::string dir = FreshDir("ls");
  for (const char* name : {"seg-10.x", "seg-9.x", "seg-0011.x", "seg-.x",
                           "seg-1a.x", "seg-3.y", "other"}) {
    AppendBytes(dir + "/" + name, {1});
  }
  Result<std::vector<SegmentFile>> segments = ListSegments(dir, "seg-", ".x");
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  std::vector<uint64_t> numbers;
  for (const SegmentFile& s : *segments) numbers.push_back(s.number);
  EXPECT_EQ(numbers, (std::vector<uint64_t>{9, 10, 11}));
}

TEST(RecordFileTest, SourceDirsRoundTripTheOriginalName) {
  const std::string root = FreshDir("src");
  Result<std::string> dir = CreateSourceDir(root, "a/b");
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  EXPECT_EQ(*dir, root + "/" + SourceDirName("a/b"));
  fs::create_directories(root + "/handmade");
  Result<std::vector<SourceDir>> dirs = ListSourceDirs(root);
  ASSERT_TRUE(dirs.ok()) << dirs.status().ToString();
  ASSERT_EQ(dirs->size(), 2u);
  EXPECT_EQ((*dirs)[0].source, "a/b");
  EXPECT_EQ((*dirs)[1].source, "handmade");  // no marker: the dir name

  std::vector<uint8_t> bytes;
  EXPECT_EQ(ReadWholeFile(root + "/missing", &bytes).code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Damage scan on a synthetic format

struct ScanRun {
  SegmentScan scan;
  std::vector<std::string> payloads;  // consumed records, in order
};

ScanRun Scan(const std::vector<SegmentFile>& segments) {
  ScanRun run;
  auto on_record = [&run](const ScannedRecord& r, bool probe) -> Status {
    const std::string payload(reinterpret_cast<const char*>(r.record.payload),
                              r.record.payload_len);
    if (payload == "reject") return Status::InvalidArgument("rejected");
    if (!probe) run.payloads.push_back(payload);
    return Status::OK();
  };
  Result<SegmentScan> scan = ScanSegments(kTestFormat, segments, on_record);
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  if (scan.ok()) run.scan = *std::move(scan);
  return run;
}

TEST(RecordFileTest, ScanClassifiesDamageByPosition) {
  const std::string dir = FreshDir("scan");
  const std::vector<SegmentFile> segments = {{dir + "/s1", 1},
                                             {dir + "/s2", 2}};
  AppendBytes(segments[0].path, Record(1, "a"));
  AppendBytes(segments[0].path, {0xde, 0xad, 'T', 0xbe, 0xef});
  AppendBytes(segments[0].path, Record(1, "b"));
  AppendBytes(segments[0].path, Record(1, "reject"));
  AppendBytes(segments[0].path, Record(1, "c"));
  // Damage ending a segment that is not the last: corrupt, not torn.
  AppendBytes(segments[0].path, TornRecord());
  AppendBytes(segments[1].path, Record(1, "d"));
  const uint64_t s1_size = fs::file_size(segments[0].path);

  ScanRun run = Scan(segments);
  EXPECT_EQ(run.payloads, (std::vector<std::string>{"a", "b", "c", "d"}));
  ASSERT_EQ(run.scan.corrupt.size(), 3u);
  EXPECT_EQ(run.scan.corrupt[0].offset, kRecordHeaderSize + 1);
  EXPECT_EQ(run.scan.corrupt[0].bytes, 5u);
  EXPECT_EQ(run.scan.corrupt[1].reason, "rejected");
  EXPECT_EQ(run.scan.corrupt[2].path, segments[0].path);
  EXPECT_EQ(run.scan.corrupt[2].offset + run.scan.corrupt[2].bytes, s1_size);
  EXPECT_FALSE(run.scan.torn_tail());
  EXPECT_EQ(run.scan.good_bytes,
            (std::vector<uint64_t>{s1_size, kRecordHeaderSize + 1}));

  // The same tear at the end of the last segment is a torn tail, and
  // cutting it leaves exactly the good prefix.
  AppendBytes(segments[1].path, TornRecord());
  run = Scan(segments);
  ASSERT_TRUE(run.scan.torn_tail());
  EXPECT_EQ(run.scan.torn.path, segments[1].path);
  EXPECT_EQ(run.scan.torn.offset, kRecordHeaderSize + 1);
  EXPECT_EQ(run.scan.corrupt.size(), 3u);
  GS_ASSERT_OK(CutTornTail(run.scan));
  EXPECT_EQ(fs::file_size(segments[1].path), kRecordHeaderSize + 1);
  EXPECT_FALSE(Scan(segments).scan.torn_tail());
}

// ---------------------------------------------------------------------------
// The same classification, end to end through both stores

enum class Store { kJournal, kTileStore };

struct Recovered {
  uint64_t corrupt_regions = 0;
  uint64_t torn_tails = 0;
  uint64_t items = 0;  // journal records / stored frames still served
};

class DamageClassificationTest : public ::testing::TestWithParam<Store> {
 protected:
  static constexpr uint64_t kItems = 6;

  std::string source_dir() const {
    return dir_ + "/" + SourceDirName("goes.band1");
  }

  /// Writes kItems journal records or stored frames, spread over at
  /// least two segments; returns the segment paths in order.
  std::vector<std::string> Write() {
    dir_ = FreshDir(GetParam() == Store::kJournal ? "journal" : "store");
    if (GetParam() == Store::kJournal) {
      auto journal = IngestJournal::Open(JournalOptionsFor());
      EXPECT_TRUE(journal.ok()) << journal.status().ToString();
      auto source = (*journal)->SourceFor("goes.band1");
      EXPECT_TRUE(source.ok());
      for (uint64_t seq = 1; seq <= kItems; ++seq) {
        auto batch = std::make_shared<PointBatch>();
        batch->frame_id = 1;
        batch->band_count = 1;
        batch->Append1(0, 0, static_cast<int64_t>(seq), 0.5);
        IngestMessage message;
        message.source = "goes.band1";
        message.seq = seq;
        message.event = StreamEvent::Batch(std::move(batch));
        GS_EXPECT_OK((*source)->Append(message));
      }
    } else {
      auto store = TileStore::Open(StoreOptionsFor());
      EXPECT_TRUE(store.ok()) << store.status().ToString();
      const GridLattice lattice = testing_util::LatLonLattice(8, 6);
      Raster raster(8, 6, 1);
      raster.set_lattice(lattice);
      const std::vector<uint8_t> filled(48, 1);
      for (uint64_t id = 1; id <= kItems; ++id) {
        FrameInfo info;
        info.frame_id = static_cast<int64_t>(id);
        info.lattice = lattice;
        GS_EXPECT_OK((*store)->PutFrame("goes.band1", info, raster, filled));
      }
    }
    std::vector<std::string> segments;
    for (const auto& entry : fs::directory_iterator(source_dir())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("seg-", 0) == 0 || name.rfind("page-", 0) == 0) {
        segments.push_back(entry.path().string());
      }
    }
    std::sort(segments.begin(), segments.end());
    return segments;
  }

  /// Reopens the store, which runs recovery, and reports what it found.
  Recovered Reopen() {
    Recovered out;
    if (GetParam() == Store::kJournal) {
      auto journal = IngestJournal::Open(JournalOptionsFor());
      EXPECT_TRUE(journal.ok()) << journal.status().ToString();
      out.corrupt_regions = (*journal)->recovery().corrupt_regions;
      out.torn_tails = (*journal)->recovery().torn_tails;
      GS_EXPECT_OK((*journal)->Replay(
          "goes.band1", [&out](const IngestMessage&) { ++out.items; }));
    } else {
      auto store = TileStore::Open(StoreOptionsFor());
      EXPECT_TRUE(store.ok()) << store.status().ToString();
      out.corrupt_regions = (*store)->recovery().corrupt_regions;
      out.torn_tails = (*store)->recovery().torn_tails;
      out.items = (*store)
                      ->FrameIds("goes.band1",
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max())
                      .size();
    }
    return out;
  }

  /// A record header whose payload never landed, in this store's format.
  std::vector<uint8_t> TornStoreRecord(const std::string& segment) {
    std::ifstream in(segment, std::ios::binary);
    std::vector<uint8_t> head(kRecordHeaderSize + 3);
    in.read(reinterpret_cast<char*>(head.data()),
            static_cast<std::streamsize>(head.size()));
    return head;
  }

 private:
  JournalOptions JournalOptionsFor() const {
    JournalOptions options;
    options.dir = dir_;
    options.fsync = FsyncPolicy::kOff;
    options.segment_max_bytes = 150;  // a couple of records per segment
    return options;
  }
  TileStoreOptions StoreOptionsFor() const {
    TileStoreOptions options;
    options.dir = dir_;
    options.segment_max_bytes = 1;  // one frame per page
    return options;
  }

  std::string dir_;
};

TEST_P(DamageClassificationTest, DamageEndingAnEarlierSegmentIsCorrupt) {
  const std::vector<std::string> segments = Write();
  ASSERT_GE(segments.size(), 2u);
  AppendBytes(segments[0], TornStoreRecord(segments[0]));
  const uint64_t damaged_size = fs::file_size(segments[0]);

  const Recovered recovered = Reopen();
  EXPECT_EQ(recovered.corrupt_regions, 1u);
  EXPECT_EQ(recovered.torn_tails, 0u);
  EXPECT_EQ(recovered.items, kItems);
  // A corrupt region is reported, never cut: only a torn tail is.
  EXPECT_EQ(fs::file_size(segments[0]), damaged_size);
}

TEST_P(DamageClassificationTest, DamageEndingTheLastSegmentIsATornTail) {
  const std::vector<std::string> segments = Write();
  ASSERT_GE(segments.size(), 2u);
  const uint64_t clean_size = fs::file_size(segments.back());
  AppendBytes(segments.back(), TornStoreRecord(segments.back()));

  const Recovered recovered = Reopen();
  EXPECT_EQ(recovered.corrupt_regions, 0u);
  EXPECT_EQ(recovered.torn_tails, 1u);
  EXPECT_EQ(recovered.items, kItems);
  EXPECT_EQ(fs::file_size(segments.back()), clean_size);
}

INSTANTIATE_TEST_SUITE_P(BothStores, DamageClassificationTest,
                         ::testing::Values(Store::kJournal, Store::kTileStore),
                         [](const ::testing::TestParamInfo<Store>& info) {
                           return info.param == Store::kJournal ? "Journal"
                                                                : "TileStore";
                         });

}  // namespace
}  // namespace geostreams
