// Parity of the byte plane's fast paths against the simple ones they
// replaced: the CRC-32 (its carry-less-multiply kernel and its
// slicing-by-8 tables, both run in this binary) against a bit-serial
// CRC, the
// bulk-copy GSF1 encoders against per-element reference encoders
// kept here, and the one-pass fill-window trim against a brute-force
// window. Every byte on the wire and on disk must stay the same.
// The bulk copies read and write at unaligned offsets, so this suite
// also runs in the ASan+UBSan lane.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_codec.h"
#include "kernels/simd.h"
#include "net/wire_protocol.h"
#include "raster/checksum.h"
#include "raster/raster.h"

namespace geostreams {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations

uint32_t ReferenceUpdateCrc32(uint32_t crc, const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc;
}

uint32_t ReferenceCrc32(const uint8_t* data, size_t len) {
  return ReferenceUpdateCrc32(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

void PutLe(std::vector<uint8_t>& out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutDouble(std::vector<uint8_t>& out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutLe(out, bits, 8);
}

/// Header + payload, one byte at a time.
std::vector<uint8_t> ReferenceMessage(uint8_t type, uint8_t flags,
                                      const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out = {'G', 'S', 'F', '1', type, flags};
  PutLe(out, kWireVersion, 2);
  PutLe(out, payload.size(), 4);
  PutLe(out, ReferenceCrc32(payload.data(), payload.size()), 4);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<uint8_t> ReferenceResultFrame(int64_t query_id, int64_t frame_id,
                                          const Raster& raster) {
  std::vector<uint8_t> payload;
  PutLe(payload, static_cast<uint64_t>(query_id), 8);
  PutLe(payload, static_cast<uint64_t>(frame_id), 8);
  PutLe(payload, static_cast<uint64_t>(raster.width()), 4);
  PutLe(payload, static_cast<uint64_t>(raster.height()), 4);
  PutLe(payload, static_cast<uint64_t>(raster.bands()), 2);
  PutLe(payload, 0, 2);
  for (double v : raster.data()) PutDouble(payload, v);
  return ReferenceMessage(static_cast<uint8_t>(MessageType::kResultFrame), 0,
                          payload);
}

/// A kFlagWindow body's rectangle.
struct Window {
  uint32_t col0 = 0;
  uint32_t row0 = 0;
  uint32_t width = 0;
  uint32_t height = 0;
};

/// The smallest rectangle holding every cell whose bytes differ from
/// cell 0's in some band, found by comparing every cell.
Window ReferenceFillWindow(const Raster& raster) {
  const size_t bands = static_cast<size_t>(raster.bands());
  const double* data = raster.data().data();
  int64_t min_col = raster.width(), min_row = raster.height();
  int64_t max_col = -1, max_row = -1;
  for (int64_t row = 0; row < raster.height(); ++row) {
    for (int64_t col = 0; col < raster.width(); ++col) {
      const size_t cell = static_cast<size_t>(row * raster.width() + col);
      if (std::memcmp(data + cell * bands, data, bands * sizeof(double)) ==
          0) {
        continue;
      }
      min_col = std::min(min_col, col);
      max_col = std::max(max_col, col);
      min_row = std::min(min_row, row);
      max_row = std::max(max_row, row);
    }
  }
  if (max_col < 0) return Window{};
  return Window{static_cast<uint32_t>(min_col), static_cast<uint32_t>(min_row),
                static_cast<uint32_t>(max_col - min_col + 1),
                static_cast<uint32_t>(max_row - min_row + 1)};
}

/// A kFlagWindow message over `window`, one byte at a time.
std::vector<uint8_t> ReferenceWindowedFrame(int64_t query_id,
                                            int64_t frame_id,
                                            const Raster& raster,
                                            const Window& window) {
  const size_t bands = static_cast<size_t>(raster.bands());
  std::vector<uint8_t> payload;
  PutLe(payload, static_cast<uint64_t>(query_id), 8);
  PutLe(payload, static_cast<uint64_t>(frame_id), 8);
  PutLe(payload, static_cast<uint64_t>(raster.width()), 4);
  PutLe(payload, static_cast<uint64_t>(raster.height()), 4);
  PutLe(payload, bands, 2);
  PutLe(payload, 0, 2);
  PutLe(payload, window.col0, 4);
  PutLe(payload, window.row0, 4);
  PutLe(payload, window.width, 4);
  PutLe(payload, window.height, 4);
  for (size_t b = 0; b < bands; ++b) PutDouble(payload, raster.data()[b]);
  for (uint32_t r = 0; r < window.height; ++r) {
    for (uint32_t c = 0; c < window.width; ++c) {
      const size_t cell = static_cast<size_t>(
          (window.row0 + r) * raster.width() + window.col0 + c);
      for (size_t b = 0; b < bands; ++b) {
        PutDouble(payload, raster.data()[cell * bands + b]);
      }
    }
  }
  return ReferenceMessage(static_cast<uint8_t>(MessageType::kResultFrame),
                          kFlagWindow, payload);
}

std::vector<uint8_t> ReferenceIngestBatch(const std::string& source,
                                          uint64_t seq, uint64_t capture_us,
                                          const PointBatch& batch,
                                          uint32_t claimed_points) {
  std::vector<uint8_t> payload;
  PutLe(payload, source.size(), 2);
  payload.insert(payload.end(), source.begin(), source.end());
  PutLe(payload, seq, 8);
  if (capture_us != 0) PutLe(payload, capture_us, 8);
  payload.push_back(static_cast<uint8_t>(EventKind::kPointBatch));
  PutLe(payload, static_cast<uint64_t>(batch.frame_id), 8);
  PutLe(payload, static_cast<uint64_t>(batch.band_count), 4);
  PutLe(payload, batch.checksum, 8);
  PutLe(payload, claimed_points, 4);
  for (int32_t c : batch.cols) PutLe(payload, static_cast<uint32_t>(c), 4);
  for (int32_t r : batch.rows) PutLe(payload, static_cast<uint32_t>(r), 4);
  for (int64_t t : batch.timestamps) {
    PutLe(payload, static_cast<uint64_t>(t), 8);
  }
  for (double v : batch.values) PutDouble(payload, v);
  return ReferenceMessage(static_cast<uint8_t>(MessageType::kIngest),
                          capture_us != 0 ? kFlagCaptureTs : 0, payload);
}

/// Deterministic bytes (xorshift), so a failure reproduces.
std::vector<uint8_t> PseudoRandomBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  uint64_t x = seed;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x >> 24);
  }
  return out;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Awkward samples: NaN, both zeros, infinity, a denormal.
double Sample(size_t i) {
  switch (i % 7) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return 0.0;
    case 2: return -0.0;
    case 3: return std::numeric_limits<double>::infinity();
    case 4: return -std::numeric_limits<double>::denorm_min();
    case 5: return 1.0 / 3.0 * static_cast<double>(i);
    default: return -1e300 + static_cast<double>(i);
  }
}

// ---------------------------------------------------------------------------
// CRC-32

/// Runs `check` twice: with UpdateCrc32 dispatched as on this machine
/// (the folding kernel where the CPU has it), then forced onto the
/// slicing-by-8 tables.
template <typename Check>
void OnBothCrcPaths(Check check) {
  {
    SCOPED_TRACE("dispatched");
    check();
  }
  SetSimdLevelForTesting(SimdLevel::kScalar);
  {
    SCOPED_TRACE("tables");
    ASSERT_FALSE(Crc32ClmulActive());
    check();
  }
  ClearSimdLevelForTesting();
}

TEST(CrcParityTest, CheckValue) {
  const std::string check = "123456789";
  const auto* data = reinterpret_cast<const uint8_t*>(check.data());
  OnBothCrcPaths([&] {
    EXPECT_EQ(Crc32(data, check.size()), 0xCBF43926u);
    EXPECT_EQ(ReferenceCrc32(data, check.size()), 0xCBF43926u);
    EXPECT_EQ(Crc32(nullptr, 0), 0u);
  });
}

TEST(CrcParityTest, EveryLengthAtEveryStartOffset) {
  const std::vector<uint8_t> bytes = PseudoRandomBytes(1024 + 8, 0x9E3779B9u);
  OnBothCrcPaths([&] {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 1024; ++len) {
        ASSERT_EQ(Crc32(bytes.data() + offset, len),
                  ReferenceCrc32(bytes.data() + offset, len))
            << "offset " << offset << " length " << len;
      }
    }
  });
}

TEST(CrcParityTest, ChainedAtEverySplitPoint) {
  const std::vector<uint8_t> bytes = PseudoRandomBytes(777, 42);
  const uint32_t whole = ReferenceCrc32(bytes.data(), bytes.size());
  OnBothCrcPaths([&] {
    ASSERT_EQ(Crc32(bytes.data(), bytes.size()), whole);
    for (size_t split = 0; split <= bytes.size(); ++split) {
      const uint32_t head = UpdateCrc32(0xFFFFFFFFu, bytes.data(), split);
      const uint32_t chained =
          UpdateCrc32(head, bytes.data() + split, bytes.size() - split) ^
          0xFFFFFFFFu;
      ASSERT_EQ(chained, whole) << "split " << split;
    }
  });
}

TEST(CrcParityTest, LengthsAroundTheKernelThresholdFromRandomRegisters) {
  // The kernel takes 64 bytes or more and folds 16-byte blocks, so
  // lengths 48-80 cross its threshold and its block size, and
  // 1000-1100 run the four-lane loop for every remainder mod 64. The
  // starting register is random, not just the 0xFFFFFFFF of Crc32().
  const std::vector<uint8_t> bytes = PseudoRandomBytes(1100 + 16, 7);
  std::vector<size_t> lengths;
  for (size_t len = 48; len <= 80; ++len) lengths.push_back(len);
  for (size_t len = 1000; len <= 1100; ++len) lengths.push_back(len);
  OnBothCrcPaths([&] {
    std::mt19937 rng(1234);
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t len : lengths) {
        const uint32_t start = static_cast<uint32_t>(rng());
        ASSERT_EQ(UpdateCrc32(start, bytes.data() + offset, len),
                  ReferenceUpdateCrc32(start, bytes.data() + offset, len))
            << "offset " << offset << " length " << len << " start "
            << start;
      }
    }
  });
}

TEST(CrcParityTest, EverySixteenByteTailAfterTheFoldedBlocks) {
  // 64 * k + tail bytes: the kernel folds the blocks, the tables take
  // the 0-15 byte tail. Long buffers (a tile page, a raw frame) too.
  const std::vector<uint8_t> bytes = PseudoRandomBytes((64 << 10) + 32, 99);
  OnBothCrcPaths([&] {
    for (size_t blocks : {size_t{1}, size_t{2}, size_t{5}, size_t{1024}}) {
      for (size_t tail = 0; tail < 16; ++tail) {
        const size_t len = 64 * blocks + tail;
        ASSERT_EQ(Crc32(bytes.data() + 3, len),
                  ReferenceCrc32(bytes.data() + 3, len))
            << "blocks " << blocks << " tail " << tail;
      }
    }
    ASSERT_EQ(Crc32(bytes.data(), bytes.size()),
              ReferenceCrc32(bytes.data(), bytes.size()));
  });
}

TEST(CrcParityTest, RegisterCrossesBetweenKernelAndTables) {
  // A chained CRC may hand its register from one path to the other
  // mid-message: a head the kernel folded continues on the tables, and
  // the reverse, at every split.
  const std::vector<uint8_t> bytes = PseudoRandomBytes(300, 5);
  const uint32_t whole = ReferenceCrc32(bytes.data(), bytes.size());
  for (bool kernel_first : {true, false}) {
    for (size_t split = 0; split <= bytes.size(); ++split) {
      if (!kernel_first) SetSimdLevelForTesting(SimdLevel::kScalar);
      const uint32_t head = UpdateCrc32(0xFFFFFFFFu, bytes.data(), split);
      if (kernel_first) {
        SetSimdLevelForTesting(SimdLevel::kScalar);
      } else {
        ClearSimdLevelForTesting();
      }
      const uint32_t chained =
          UpdateCrc32(head, bytes.data() + split, bytes.size() - split) ^
          0xFFFFFFFFu;
      ClearSimdLevelForTesting();
      ASSERT_EQ(chained, whole)
          << (kernel_first ? "dispatched head" : "table head") << ", split "
          << split;
    }
  }
}

// ---------------------------------------------------------------------------
// Bulk column copies

TEST(ByteCodecParityTest, ArraysMatchPerElementPutsAtUnalignedOffsets) {
  const std::vector<int32_t> ints = {0, -1, 7, INT32_MIN, INT32_MAX, -12345};
  const std::vector<int64_t> longs = {0, -1, INT64_MIN, INT64_MAX, 1 << 20};
  std::vector<double> doubles;
  for (size_t i = 0; i < 13; ++i) doubles.push_back(Sample(i));
  for (size_t lead = 0; lead < 8; ++lead) {
    std::vector<uint8_t> bulk(lead, 0xAB);
    std::vector<uint8_t> loop(lead, 0xAB);
    PutArray(bulk, ints.data(), ints.size());
    PutArray(bulk, longs.data(), longs.size());
    PutArray(bulk, doubles.data(), doubles.size());
    for (int32_t v : ints) PutU32(loop, static_cast<uint32_t>(v));
    for (int64_t v : longs) PutI64(loop, v);
    for (double v : doubles) PutF64(loop, v);
    ASSERT_EQ(bulk, loop) << "lead " << lead;

    std::vector<int32_t> ints_back(ints.size());
    std::vector<int64_t> longs_back(longs.size());
    std::vector<double> doubles_back(doubles.size());
    PayloadReader reader{bulk.data() + lead, bulk.size() - lead};
    reader.Array(ints_back);
    reader.Array(longs_back);
    reader.Array(doubles_back);
    ASSERT_TRUE(reader.ok);
    EXPECT_EQ(reader.remaining, 0u);
    EXPECT_EQ(ints_back, ints);
    EXPECT_EQ(longs_back, longs);
    for (size_t i = 0; i < doubles.size(); ++i) {
      EXPECT_EQ(Bits(doubles_back[i]), Bits(doubles[i])) << i;
    }
    // A short read fails closed.
    std::vector<double> too_many(2);
    PayloadReader short_reader{bulk.data() + bulk.size() - 8, 8};
    short_reader.Array(too_many);
    EXPECT_FALSE(short_reader.ok);
  }
}

// ---------------------------------------------------------------------------
// Result frames

Raster AwkwardRaster(int64_t width, int64_t height, int bands) {
  Raster raster(width, height, bands);
  std::vector<double>& data = raster.mutable_data();
  for (size_t i = 0; i < data.size(); ++i) data[i] = Sample(i);
  return raster;
}

void ExpectFrameRoundTrip(const std::vector<uint8_t>& wire,
                          const Raster& raster, int64_t query_id,
                          int64_t frame_id) {
  auto decoded = DecodeFrameMessage(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->query_id, query_id);
  EXPECT_EQ(decoded->frame_id, frame_id);
  EXPECT_EQ(decoded->width, static_cast<uint32_t>(raster.width()));
  EXPECT_EQ(decoded->height, static_cast<uint32_t>(raster.height()));
  EXPECT_EQ(decoded->bands, static_cast<uint16_t>(raster.bands()));
  EXPECT_FALSE(decoded->png);
  ASSERT_EQ(decoded->samples.size(), raster.data().size());
  for (size_t i = 0; i < raster.data().size(); ++i) {
    ASSERT_EQ(Bits(decoded->samples[i]), Bits(raster.data()[i])) << i;
  }
}

TEST(ResultFrameParityTest, BulkEncoderMatchesReferenceBytes) {
  for (int bands : {1, 2}) {
    const Raster raster = AwkwardRaster(9, 5, bands);
    const std::vector<uint8_t> expected =
        ReferenceResultFrame(-3, 1LL << 40, raster);
    EXPECT_EQ(EncodeResultFrame(-3, 1LL << 40, raster, {}), expected)
        << bands << " bands";
    FrameMessage message;
    message.query_id = -3;
    message.frame_id = 1LL << 40;
    message.width = 9;
    message.height = 5;
    message.bands = static_cast<uint16_t>(bands);
    message.samples = raster.data();
    EXPECT_EQ(EncodeFrameMessage(message), expected) << bands << " bands";
    ExpectFrameRoundTrip(expected, raster, -3, 1LL << 40);
  }
}

TEST(ResultFrameParityTest, PngBodyMatchesReferenceBytes) {
  const Raster raster = AwkwardRaster(3, 2, 1);
  const std::vector<uint8_t> png = PseudoRandomBytes(101, 5);
  std::vector<uint8_t> payload;
  PutLe(payload, 8, 8);
  PutLe(payload, 9, 8);
  PutLe(payload, 3, 4);
  PutLe(payload, 2, 4);
  PutLe(payload, 1, 2);
  PutLe(payload, 0, 2);
  payload.insert(payload.end(), png.begin(), png.end());
  const std::vector<uint8_t> expected = ReferenceMessage(
      static_cast<uint8_t>(MessageType::kResultFrame), kFlagPng, payload);
  const std::vector<uint8_t> wire = EncodeResultFrame(8, 9, raster, png);
  EXPECT_EQ(wire, expected);
  auto decoded = DecodeFrameMessage(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->png);
  EXPECT_EQ(decoded->png_bytes, png);
}

TEST(ResultFrameParityTest, DecoderRejectsEveryTruncation) {
  const Raster raster = AwkwardRaster(4, 3, 2);
  const std::vector<uint8_t> wire = EncodeResultFrame(1, 2, raster, {});
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeFrameMessage(wire.data(), len).ok()) << len;
  }
  // A body one sample short under a consistent header and CRC is
  // refused too: the sample count must match the raster's shape.
  std::vector<uint8_t> payload(wire.begin() + kWireHeaderSize, wire.end() - 8);
  const std::vector<uint8_t> short_body = ReferenceMessage(
      static_cast<uint8_t>(MessageType::kResultFrame), 0, payload);
  EXPECT_EQ(DecodeFrameMessage(short_body.data(), short_body.size())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Fill windows (kFlagWindow)

double FromBits(uint64_t bits) { return std::bit_cast<double>(bits); }

/// Fill values, each with a twin whose bytes differ although it
/// compares equal, is NaN too, or is its mirror: the trim must compare
/// bit patterns, not values.
struct FillTwin {
  double fill;
  double twin;
};
const std::vector<FillTwin>& FillTwins() {
  static const std::vector<FillTwin> twins = {
      {0.0, -0.0},
      {std::numeric_limits<double>::quiet_NaN(), FromBits(0x7FF8000000000ABCull)},
      {FromBits(0xFFF8000000000000ull), std::numeric_limits<double>::quiet_NaN()},
      {std::numeric_limits<double>::infinity(),
       -std::numeric_limits<double>::infinity()},
      {std::numeric_limits<double>::denorm_min(),
       -std::numeric_limits<double>::denorm_min()},
      {-1e300, std::nextafter(-1e300, 0.0)},
  };
  return twins;
}

/// Where WindowedRaster marks the window's extent: at its top-right
/// and bottom-left corners, or at one cell inside each edge, so that
/// rows between the first and the last set the left and right edges.
enum class Marks { kCorners, kEdges };

/// A frame that is all fill (twin `t` shifted by band) but for data
/// inside `window`: the marks carry the fill's twin in band
/// `mark_band`, so the window is exactly the trim's answer, and each
/// other window cell keeps or replaces each band's fill at random.
/// Cell 0 stays fill.
Raster WindowedRaster(uint32_t width, uint32_t height, int bands,
                      const Window& window, size_t t, int mark_band,
                      std::mt19937_64* rng, Marks marks = Marks::kCorners) {
  const auto& twins = FillTwins();
  auto fill = [&](int b) { return twins[(t + b) % twins.size()].fill; };
  Raster raster(width, height, bands);
  std::vector<double>& data = raster.mutable_data();
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = fill(static_cast<int>(i % static_cast<size_t>(bands)));
  }
  auto at = [&](uint32_t col, uint32_t row, int b) -> double& {
    return data[(static_cast<size_t>(row) * width + col) * bands + b];
  };
  for (uint32_t r = 0; r < window.height; ++r) {
    for (uint32_t c = 0; c < window.width; ++c) {
      for (int b = 0; b < bands; ++b) {
        if ((*rng)() % 2 == 0) {
          at(window.col0 + c, window.row0 + r, b) =
              Sample(static_cast<size_t>((*rng)() % 1000));
        }
      }
    }
  }
  if (window.width > 0 && window.height > 0) {
    const double twin = twins[(t + mark_band) % twins.size()].twin;
    const uint32_t right = window.col0 + window.width - 1;
    const uint32_t bottom = window.row0 + window.height - 1;
    if (marks == Marks::kCorners) {
      at(right, window.row0, mark_band) = twin;
      at(window.col0, bottom, mark_band) = twin;
    } else {
      at(window.col0 + window.width / 2, window.row0, mark_band) = twin;
      at(window.col0 + (window.width - 1) / 2, bottom, mark_band) = twin;
      at(window.col0, window.row0 + window.height / 2, mark_band) = twin;
      at(right, window.row0 + (window.height - 1) / 2, mark_band) = twin;
    }
  }
  for (int b = 0; b < bands; ++b) at(0, 0, b) = fill(b);
  return raster;
}

size_t RawFrameSize(const Raster& raster) {
  return kWireHeaderSize + kFramePreambleSize +
         raster.data().size() * sizeof(double);
}

size_t WindowedFrameSize(const Window& w, int bands) {
  return kWireHeaderSize + kFramePreambleSize + 16 + 8 * bands +
         8 * static_cast<size_t>(bands) * w.width * w.height;
}

/// Encodes `raster` and checks it against the reference encoders: the
/// brute-force window's message when that is smaller than the raw
/// one, the raw message otherwise. Returns whether it was windowed.
bool ExpectWindowParity(const Raster& raster, const std::string& label) {
  const std::vector<uint8_t> wire = EncodeResultFrame(5, -6, raster, {});
  const Window window = ReferenceFillWindow(raster);
  const bool windowed =
      WindowedFrameSize(window, raster.bands()) < RawFrameSize(raster);
  if (windowed) {
    EXPECT_EQ(wire, ReferenceWindowedFrame(5, -6, raster, window)) << label;
    // The window flag is set and the body is shorter than the raw one,
    // so a decoder that ignores the flag fails its length check.
    EXPECT_EQ(wire[5], kFlagWindow) << label;
    EXPECT_LT(wire.size(), RawFrameSize(raster)) << label;
  } else {
    EXPECT_EQ(wire, ReferenceResultFrame(5, -6, raster)) << label;
  }
  ExpectFrameRoundTrip(wire, raster, 5, -6);
  return windowed;
}

TEST(ResultFrameParityTest, WindowMatchesBruteForceAtEveryEdge) {
  constexpr uint32_t kW = 19;
  constexpr uint32_t kH = 7;
  const std::vector<Window> windows = {
      {3, 2, 4, 3},    // interior
      {0, 2, 4, 3},    // left edge
      {15, 2, 4, 3},   // right edge
      {3, 0, 4, 3},    // top edge
      {3, 4, 4, 3},    // bottom edge
      {0, 0, 5, 4},    // top-left corner (cell 0 stays fill)
      {14, 3, 5, 4},   // bottom-right corner
      {0, 2, kW, 3},   // left to right
      {4, 0, 3, kH},   // top to bottom
      {9, 3, 1, 1},    // a single cell
      {18, 6, 1, 1},   // the last cell
      {17, 1, 1, 5},   // one column
      {2, 5, 16, 1},   // one row
      {0, 0, 0, 0},    // every cell is fill
  };
  std::mt19937_64 rng(24);
  for (int bands : {1, 2, 3}) {
    for (size_t i = 0; i < windows.size(); ++i) {
      for (size_t t = 0; t < FillTwins().size(); ++t) {
        for (Marks marks : {Marks::kCorners, Marks::kEdges}) {
          const Window& w = windows[i];
          const int mark_band = static_cast<int>((i + t) % bands);
          const Raster raster =
              WindowedRaster(kW, kH, bands, w, t, mark_band, &rng, marks);
          const std::string label =
              "bands " + std::to_string(bands) + " window " +
              std::to_string(i) + " fill " + std::to_string(t) +
              (marks == Marks::kCorners ? " corners" : " edges");
          const Window found = ReferenceFillWindow(raster);
          ASSERT_EQ(found.col0, w.col0) << label;
          ASSERT_EQ(found.row0, w.row0) << label;
          ASSERT_EQ(found.width, w.width) << label;
          ASSERT_EQ(found.height, w.height) << label;
          EXPECT_TRUE(ExpectWindowParity(raster, label)) << label;
        }
      }
    }
  }
}

TEST(ResultFrameParityTest, SeededRandomRastersRoundTripBitForBit) {
  std::mt19937_64 rng(0x5EED);
  size_t windowed = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const int bands = 1 + iter % 3;
    const uint32_t width = 1 + static_cast<uint32_t>(rng() % 40);
    const uint32_t height = 1 + static_cast<uint32_t>(rng() % 12);
    Window w;  // one in eight all fill, two in eight the whole frame
    const uint64_t shape = rng() % 8;
    if (shape == 1 || shape == 2) {
      w = Window{0, 0, width, height};
    } else if (shape > 2) {
      w.col0 = static_cast<uint32_t>(rng() % width);
      w.row0 = static_cast<uint32_t>(rng() % height);
      w.width = 1 + static_cast<uint32_t>(rng() % (width - w.col0));
      w.height = 1 + static_cast<uint32_t>(rng() % (height - w.row0));
    }
    const size_t t = rng() % FillTwins().size();
    const Marks marks = rng() % 2 == 0 ? Marks::kCorners : Marks::kEdges;
    const Raster raster =
        WindowedRaster(width, height, bands, w, t,
                       static_cast<int>(rng() % bands), &rng, marks);
    windowed += ExpectWindowParity(
        raster, "iteration " + std::to_string(iter)) ? 1 : 0;
    if (HasFailure()) return;
  }
  // Both paths ran many times.
  EXPECT_GT(windowed, 100u);
  EXPECT_LT(windowed, 500u);
}

TEST(ResultFrameParityTest, FrameWithNoFillBorderKeepsTheRawBytes) {
  std::mt19937_64 rng(7);
  for (int bands : {1, 2, 3}) {
    // All fill but one cell in the top row's last column and one in
    // the bottom row's first column: the window is the whole frame.
    const Raster sparse =
        WindowedRaster(33, 9, bands, Window{0, 0, 33, 9}, 1, 0, &rng);
    EXPECT_EQ(EncodeResultFrame(1, 2, sparse, {}),
              ReferenceResultFrame(1, 2, sparse))
        << bands << " bands";
    const Raster awkward = AwkwardRaster(9, 5, bands);
    EXPECT_EQ(EncodeResultFrame(1, 2, awkward, {}),
              ReferenceResultFrame(1, 2, awkward))
        << bands << " bands";
  }
  // A window that would not shrink the message: a 2x2 frame whose
  // last cell differs (1x1 window: 16 + 8 + 8 bytes against 32 raw).
  Raster tiny(2, 2, 1);
  tiny.mutable_data() = {0.0, 0.0, 0.0, 1.0};
  EXPECT_EQ(EncodeResultFrame(1, 2, tiny, {}),
            ReferenceResultFrame(1, 2, tiny));
  // PNG frames never carry the window flag.
  const Raster blank(64, 64, 1);
  const std::vector<uint8_t> png = PseudoRandomBytes(40, 3);
  const std::vector<uint8_t> wire = EncodeResultFrame(1, 2, blank, png);
  EXPECT_EQ(wire[5], kFlagPng);
  EXPECT_EQ(wire.size(), kWireHeaderSize + kFramePreambleSize + png.size());
}

TEST(ResultFrameParityTest, WindowedMessageHoldsOnlyTheWindow) {
  std::mt19937_64 rng(11);
  for (int bands : {1, 2, 3}) {
    const Window w{100, 40, 21, 9};
    const Raster raster = WindowedRaster(256, 256, bands, w, 1, 0, &rng);
    const std::vector<uint8_t> wire = EncodeResultFrame(3, 4, raster, {});
    EXPECT_LE(wire.size(), kWireHeaderSize + kFramePreambleSize + 16 +
                               8 * static_cast<size_t>(bands) +
                               8 * static_cast<size_t>(bands) * w.width *
                                   w.height)
        << bands << " bands";
    ExpectFrameRoundTrip(wire, raster, 3, 4);
  }
  // An all-fill frame ships as a 0x0 window and its fill pattern.
  Raster nodata(256, 256, 1);
  std::fill(nodata.mutable_data().begin(), nodata.mutable_data().end(),
            FromBits(0x7FF8000000000ABCull));
  const std::vector<uint8_t> wire = EncodeResultFrame(3, 4, nodata, {});
  EXPECT_EQ(wire.size(), kWireHeaderSize + kFramePreambleSize + 16 + 8);
  ExpectFrameRoundTrip(wire, nodata, 3, 4);
}

/// A kFlagWindow payload with whatever fields a test wants, and
/// `samples` zero samples after the fill.
std::vector<uint8_t> CraftedWindowMessage(uint32_t width, uint32_t height,
                                          uint16_t bands, const Window& w,
                                          uint64_t samples,
                                          uint8_t flags = kFlagWindow) {
  std::vector<uint8_t> payload;
  PutLe(payload, 1, 8);
  PutLe(payload, 2, 8);
  PutLe(payload, width, 4);
  PutLe(payload, height, 4);
  PutLe(payload, bands, 2);
  PutLe(payload, 0, 2);
  PutLe(payload, w.col0, 4);
  PutLe(payload, w.row0, 4);
  PutLe(payload, w.width, 4);
  PutLe(payload, w.height, 4);
  for (uint16_t b = 0; b < bands; ++b) PutDouble(payload, 0.0);
  for (uint64_t i = 0; i < samples; ++i) PutDouble(payload, 1.0);
  return ReferenceMessage(static_cast<uint8_t>(MessageType::kResultFrame),
                          flags, payload);
}

TEST(ResultFrameParityTest, DecoderRejectsMalformedWindows) {
  auto rejected = [](const std::vector<uint8_t>& wire) {
    return DecodeFrameMessage(wire.data(), wire.size()).status().code() ==
           StatusCode::kInvalidArgument;
  };
  // The crafted message is well formed before it is broken.
  ASSERT_FALSE(rejected(CraftedWindowMessage(16, 8, 2, {3, 2, 4, 3}, 24)));

  // Every truncation of a real windowed message.
  std::mt19937_64 rng(5);
  const Raster raster = WindowedRaster(16, 8, 2, {3, 2, 4, 3}, 0, 1, &rng);
  const std::vector<uint8_t> wire = EncodeResultFrame(1, 2, raster, {});
  ASSERT_EQ(wire[5], kFlagWindow);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeFrameMessage(wire.data(), len).ok()) << len;
  }
  // Truncations under a consistent header and CRC: the window
  // preamble cut short, and the fill cut short.
  for (size_t cut : {size_t{4}, size_t{16}, size_t{16 + 8}}) {
    std::vector<uint8_t> payload(wire.begin() + kWireHeaderSize,
                                 wire.begin() + kWireHeaderSize +
                                     kFramePreambleSize + cut);
    EXPECT_TRUE(rejected(ReferenceMessage(
        static_cast<uint8_t>(MessageType::kResultFrame), kFlagWindow,
        payload)))
        << cut;
  }

  // Windows outside the frame, with bodies that match their claims.
  EXPECT_TRUE(rejected(CraftedWindowMessage(16, 8, 1, {13, 0, 4, 1}, 4)));
  EXPECT_TRUE(rejected(CraftedWindowMessage(16, 8, 1, {0, 6, 1, 3}, 3)));
  EXPECT_TRUE(rejected(CraftedWindowMessage(16, 8, 1, {16, 0, 1, 1}, 1)));
  // col0 + win_w and row0 + win_h wrap u32 to a value inside the frame.
  EXPECT_TRUE(
      rejected(CraftedWindowMessage(16, 8, 1, {0xFFFFFFF0u, 0, 0x20, 1}, 32)));
  EXPECT_TRUE(
      rejected(CraftedWindowMessage(16, 8, 1, {0, 0xFFFFFFFFu, 1, 2}, 2)));

  // A body that lies about its length: one sample short, one over.
  EXPECT_TRUE(rejected(CraftedWindowMessage(16, 8, 2, {3, 2, 4, 3}, 23)));
  EXPECT_TRUE(rejected(CraftedWindowMessage(16, 8, 2, {3, 2, 4, 3}, 25)));

  // A 0-band windowed header.
  EXPECT_TRUE(rejected(CraftedWindowMessage(16, 8, 0, {3, 2, 4, 3}, 0)));
  // A frame too large for any raw body under kMaxWirePayload: refused
  // before anything is allocated.
  EXPECT_TRUE(rejected(
      CraftedWindowMessage(0xFFFFFFFFu, 0xFFFFFFFFu, 3, {0, 0, 1, 1}, 3)));
  // The window flag on a PNG frame.
  EXPECT_TRUE(rejected(CraftedWindowMessage(16, 8, 1, {3, 2, 4, 3}, 12,
                                            kFlagWindow | kFlagPng)));
}

TEST(ResultFrameParityTest, RawDecoderRejectsHeadersThatWrapTheSampleCount) {
  // 1824726041 x 315916329 x 8 samples of 8 bytes is 2^64 + 64 bytes:
  // in u64 arithmetic the header "matches" a 64-byte body. The decoder
  // must refuse it, not size a vector by the wrapped count.
  std::vector<uint8_t> payload;
  PutLe(payload, 1, 8);
  PutLe(payload, 2, 8);
  PutLe(payload, 1824726041u, 4);
  PutLe(payload, 315916329u, 4);
  PutLe(payload, 8, 2);
  PutLe(payload, 0, 2);
  for (int i = 0; i < 8; ++i) PutDouble(payload, 1.0);
  const std::vector<uint8_t> wire = ReferenceMessage(
      static_cast<uint8_t>(MessageType::kResultFrame), 0, payload);
  EXPECT_EQ(DecodeFrameMessage(wire.data(), wire.size()).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Ingest batches

std::shared_ptr<PointBatch> AwkwardBatch(int band_count, size_t n) {
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = -77;
  batch->band_count = band_count;
  std::vector<double> vals(static_cast<size_t>(band_count));
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < band_count; ++b) {
      vals[static_cast<size_t>(b)] = Sample(i * 3 + static_cast<size_t>(b));
    }
    const int32_t col = static_cast<int32_t>(i) - 5;   // negative cols
    const int32_t row = -static_cast<int32_t>(i * 7);  // negative rows
    batch->Append(col, row, static_cast<int64_t>(i) * -1000000007LL,
                  vals.data());
  }
  batch->checksum = batch->ComputeChecksum();
  return batch;
}

TEST(IngestParityTest, BulkEncoderMatchesReferenceBytes) {
  for (int band_count : {1, 3}) {
    for (uint64_t capture_us : {uint64_t{0}, uint64_t{1700000000123456}}) {
      auto batch = AwkwardBatch(band_count, 11);
      IngestMessage message;
      message.source = "sat.band" + std::to_string(band_count);
      message.seq = 99;
      message.capture_wall_us = capture_us;
      message.event = StreamEvent::Batch(batch);
      const std::vector<uint8_t> expected = ReferenceIngestBatch(
          message.source, 99, capture_us, *batch,
          static_cast<uint32_t>(batch->size()));
      const std::vector<uint8_t> wire = EncodeIngestMessage(message);
      ASSERT_EQ(wire, expected)
          << band_count << " bands, capture " << capture_us;

      auto decoded = DecodeIngestMessage(wire.data(), wire.size());
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded->source, message.source);
      EXPECT_EQ(decoded->seq, 99u);
      EXPECT_EQ(decoded->capture_wall_us, capture_us);
      ASSERT_EQ(decoded->event.kind, EventKind::kPointBatch);
      const PointBatch& back = *decoded->event.batch;
      EXPECT_EQ(back.frame_id, batch->frame_id);
      EXPECT_EQ(back.band_count, band_count);
      EXPECT_EQ(back.checksum, batch->checksum);
      EXPECT_EQ(back.cols, batch->cols);
      EXPECT_EQ(back.rows, batch->rows);
      EXPECT_EQ(back.timestamps, batch->timestamps);
      ASSERT_EQ(back.values.size(), batch->values.size());
      for (size_t i = 0; i < back.values.size(); ++i) {
        ASSERT_EQ(Bits(back.values[i]), Bits(batch->values[i])) << i;
      }
      EXPECT_TRUE(back.ChecksumValid());
    }
  }
}

TEST(IngestParityTest, DecoderRejectsTruncatedBatches) {
  auto batch = AwkwardBatch(3, 6);
  IngestMessage message;
  message.source = "sat.band1";
  message.seq = 5;
  message.capture_wall_us = 17;
  message.event = StreamEvent::Batch(batch);
  const std::vector<uint8_t> wire = EncodeIngestMessage(message);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeIngestMessage(wire.data(), len).ok()) << len;
  }
  // A point count that promises more columns than the payload holds
  // (header and CRC consistent) is refused, never over-read.
  const std::vector<uint8_t> lying = ReferenceIngestBatch(
      "sat.band1", 5, 17, *batch, static_cast<uint32_t>(batch->size() + 1));
  EXPECT_EQ(DecodeIngestMessage(lying.data(), lying.size()).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace geostreams
