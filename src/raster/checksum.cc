#include "raster/checksum.h"

#include <array>

#include "common/byte_codec.h"
#include "kernels/crc32_clmul.h"
#include "kernels/simd.h"

namespace geostreams {

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: table[0] is
/// the classic byte-at-a-time table, and table[k][n] is the CRC of
/// byte n followed by k zero bytes, so eight table lookups advance the
/// CRC over eight input bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (uint32_t n = 0; n < 256; ++n) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][n];
      tables[k][n] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

}  // namespace

uint32_t UpdateCrc32(uint32_t crc, const uint8_t* data, size_t len) {
#ifdef GEOSTREAMS_SIMD_AVX2
  // The kernel folds the whole 16-byte blocks; the tables finish the
  // last 0-15 bytes.
  if (len >= kernels::kCrc32ClmulMinBytes && Crc32ClmulActive()) {
    const size_t folded = len & ~size_t{15};
    crc = kernels::Crc32Clmul(crc, data, folded);
    data += folded;
    len -= folded;
  }
#endif
  const auto& t = kCrcTables;
  // The eight bytes are read as two little-endian words whatever the
  // host order, so the table lookups see the bytes in stream order.
  while (len >= 8) {
    const uint32_t lo = GetU32(data) ^ crc;
    const uint32_t hi = GetU32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
    data += 8;
    len -= 8;
  }
  for (size_t i = 0; i < len; ++i) {
    crc = t[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

uint32_t Crc32(const uint8_t* data, size_t len) {
  return UpdateCrc32(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

uint32_t Adler32(uint32_t adler, const uint8_t* data, size_t len) {
  constexpr uint32_t kMod = 65521;
  uint32_t a = adler & 0xFFFFu;
  uint32_t b = (adler >> 16) & 0xFFFFu;
  for (size_t i = 0; i < len; ++i) {
    a = (a + data[i]) % kMod;
    b = (b + a) % kMod;
  }
  return (b << 16) | a;
}

}  // namespace geostreams
