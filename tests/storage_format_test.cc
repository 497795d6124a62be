// Format pins: known-answer checks on the bytes every persisted format
// puts on disk. A journal segment, a tile page, a dead-letter record
// and a source directory name written today must stay readable by
// every later build, so any change to these bytes is a format change
// and must be made on purpose (new version, new magic), never as a
// side effect of a refactor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "net/wire_protocol.h"
#include "raster/checksum.h"
#include "storage/dead_letter_store.h"
#include "storage/journal.h"
#include "store/tile_store.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "gsformat-" + info->name() + "-" +
                    tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// Regular files directly under `dir` whose names start with `prefix`.
std::vector<std::string> FilesWithPrefix(const std::string& dir,
                                         const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::set<std::string> SubdirNames(const std::string& dir) {
  std::set<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_directory()) out.insert(entry.path().filename().string());
  }
  return out;
}

/// A two-point, two-band batch with a producer timestamp: every field
/// of the kIngest payload, the capture flag included, is non-trivial.
IngestMessage FixedIngestMessage() {
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = 42;
  batch->band_count = 2;
  const double a[2] = {0.25, -1.5};
  const double b[2] = {3.0, 1e-3};
  batch->Append(3, 7, 1000, a);
  batch->Append(4, 7, 1001, b);
  batch->checksum = batch->ComputeChecksum();
  IngestMessage message;
  message.source = "goes.band1";
  message.seq = 9;
  message.capture_wall_us = 1700000000123456ull;
  message.event = StreamEvent::Batch(std::move(batch));
  return message;
}

TEST(StorageFormatTest, JournaledIngestRecordBytes) {
  const std::string dir = FreshDir("j");
  const IngestMessage message = FixedIngestMessage();
  {
    JournalOptions options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kOff;
    auto journal = IngestJournal::Open(options);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    auto source = (*journal)->SourceFor(message.source);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    GS_ASSERT_OK((*source)->Append(message));
  }
  const std::vector<std::string> segments =
      FilesWithPrefix(dir + "/goes.band1", "seg-");
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(fs::path(segments[0]).filename().string(),
            "seg-00000000000000000001.gsj");
  const std::vector<uint8_t> bytes = ReadFile(segments[0]);
  EXPECT_EQ(bytes, EncodeIngestMessage(message));
  EXPECT_EQ(Hex(bytes),
            "47534631020201007500000021efdfb20a00676f65732e62616e6431"
            "090000000000000040222018240a0600012a00000000000000020000"
            "00c7cebdacb0fa89480200000003000000040000000700000007000000"
            "e803000000000000e903000000000000000000000000d03f00000000"
            "0000f8bf0000000000000840fca9f1d24d62503f");
}

TEST(StorageFormatTest, TilePageFileCrc) {
  const std::string dir = FreshDir("t");
  const GridLattice lattice = testing_util::LatLonLattice(16, 12);
  Raster raster(16, 12, 1);
  raster.set_lattice(lattice);
  std::vector<uint8_t> filled(16 * 12, 0);
  for (int64_t row = 0; row < 12; ++row) {
    for (int64_t col = 0; col < 16; ++col) {
      raster.Set(col, row, testing_util::TestValue(5, col, row));
      // A diagonal hole leaves the mask and the sparse sample layout
      // something to pin as well.
      filled[static_cast<size_t>(row * 16 + col)] = (col + row) % 5 != 0;
    }
  }
  FrameInfo info;
  info.frame_id = 5;
  info.lattice = lattice;
  info.expected_points = lattice.num_cells();
  {
    TileStoreOptions options;
    options.dir = dir;
    options.tile_size = 8;
    auto store = TileStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    GS_ASSERT_OK((*store)->PutFrame("goes.band1", info, raster, filled));
  }
  const std::vector<std::string> pages =
      FilesWithPrefix(dir + "/goes.band1", "page-");
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_EQ(fs::path(pages[0]).filename().string(), "page-000000.gst");
  const std::vector<uint8_t> bytes = ReadFile(pages[0]);
  EXPECT_EQ(bytes.size(), 1964u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 1547288655u);
}

TEST(StorageFormatTest, DeadLetterRecordBytes) {
  const std::string path = FreshDir("d") + "/dead_letters.gsd";
  {
    auto store = DeadLetterStore::Open(path, nullptr);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    DeadLetter letter;
    letter.ordinal = 3;
    letter.error = "poison";
    letter.event = StreamEvent::StreamEnd();
    GS_ASSERT_OK((*store)->Append("a/b", letter));
  }
  EXPECT_EQ(Hex(ReadFile(path)),
            "4753444c3400000048529513030000000000000006000000706f6973"
            "6f6e1e00000047534631020001000e00000058bedf7e0300612f6203"
            "0000000000000003");
}

TEST(StorageFormatTest, SourceDirectoryNames) {
  const std::vector<std::string> sources = {"goes.band1", "a/b", "\xc3\xa9"};
  const std::set<std::string> expected = {"goes.band1", "a_b-0d0f158b",
                                          "__-c486b16b"};
  const std::string journal_dir = FreshDir("jn");
  const std::string store_dir = FreshDir("sn");
  {
    JournalOptions options;
    options.dir = journal_dir;
    auto journal = IngestJournal::Open(options);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    TileStoreOptions store_options;
    store_options.dir = store_dir;
    auto store = TileStore::Open(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const GridLattice lattice = testing_util::LatLonLattice(4, 4);
    Raster raster(4, 4, 1);
    raster.set_lattice(lattice);
    const std::vector<uint8_t> filled(16, 1);
    FrameInfo info;
    info.frame_id = 1;
    info.lattice = lattice;
    for (const std::string& source : sources) {
      ASSERT_TRUE((*journal)->SourceFor(source).ok());
      GS_ASSERT_OK((*store)->PutFrame(source, info, raster, filled));
    }
  }
  EXPECT_EQ(SubdirNames(journal_dir), expected);
  EXPECT_EQ(SubdirNames(store_dir), expected);
  // The name marker keeps the original source for recovery.
  for (const std::string& name : SubdirNames(journal_dir)) {
    const std::vector<uint8_t> marker = ReadFile(journal_dir + "/" + name +
                                                 "/name");
    const std::string text(marker.begin(), marker.end());
    EXPECT_EQ(std::count(sources.begin(), sources.end(),
                         text.substr(0, text.size() - 1)),
              1)
        << name;
  }
}

}  // namespace
}  // namespace geostreams
