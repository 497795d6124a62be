// CRC-32 and Adler-32 (zlib stream checksum), implemented locally so
// PNG delivery has no external dependencies. The one CRC-32 of the
// code base: PNG chunks, GSF1 messages, GST1 tile pages and GSDL dead
// letters all use it.
//
// UpdateCrc32 runs one of two paths with equal results. Buffers of 64
// bytes or more fold their whole 16-byte blocks with a PCLMULQDQ
// kernel (kernels/crc32_clmul.cc) while kernels/simd.h's
// Crc32ClmulActive() holds: the active SIMD level is AVX2 and cpuid
// reports PCLMULQDQ and SSE4.1. Slicing-by-8 tables take the rest of
// the bytes, short buffers, GEOSTREAMS_SIMD=OFF builds and
// SetSimdLevelForTesting(SimdLevel::kScalar).

#ifndef GEOSTREAMS_RASTER_CHECKSUM_H_
#define GEOSTREAMS_RASTER_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace geostreams {

/// CRC-32 (ISO 3309 / ITU-T V.42, reflected IEEE polynomial) as
/// required by the PNG specification. `crc` chains across calls;
/// start from 0xFFFFFFFF via Crc32() or pass a previous UpdateCrc32
/// result.
uint32_t UpdateCrc32(uint32_t crc, const uint8_t* data, size_t len);

/// One-shot CRC-32 of a buffer (pre/post-conditioned).
uint32_t Crc32(const uint8_t* data, size_t len);

/// Adler-32 checksum used by the zlib container. Start from 1.
uint32_t Adler32(uint32_t adler, const uint8_t* data, size_t len);

}  // namespace geostreams

#endif  // GEOSTREAMS_RASTER_CHECKSUM_H_
