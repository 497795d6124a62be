// Parity of the byte plane's fast paths against the simple ones they
// replaced: the slicing-by-8 CRC-32 against a byte-at-a-time CRC, and
// the bulk-copy GSF1 encoders against per-element reference encoders
// kept here. Every byte on the wire and on disk must stay the same.
// The bulk copies read and write at unaligned offsets, so this suite
// also runs in the ASan+UBSan lane.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_codec.h"
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

TEST(CrcParityTest, CheckValue) {
  const std::string check = "123456789";
  const auto* data = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(Crc32(data, check.size()), 0xCBF43926u);
  EXPECT_EQ(ReferenceCrc32(data, check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(CrcParityTest, EveryLengthAtEveryStartOffset) {
  const std::vector<uint8_t> bytes = PseudoRandomBytes(1024 + 8, 0x9E3779B9u);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32(bytes.data() + offset, len),
                ReferenceCrc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(CrcParityTest, ChainedAtEverySplitPoint) {
  const std::vector<uint8_t> bytes = PseudoRandomBytes(777, 42);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  ASSERT_EQ(whole, ReferenceCrc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = UpdateCrc32(0xFFFFFFFFu, bytes.data(), split);
    const uint32_t chained =
        UpdateCrc32(head, bytes.data() + split, bytes.size() - split) ^
        0xFFFFFFFFu;
    ASSERT_EQ(chained, whole) << "split " << split;
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
