// Internal: the carry-less-multiply CRC-32 kernel behind UpdateCrc32
// (raster/checksum.cc). Defined only when the GEOSTREAMS_SIMD CMake
// option is on; UpdateCrc32 calls it only while Crc32ClmulActive()
// (kernels/simd.h) holds, and runs slicing-by-8 otherwise.

#ifndef GEOSTREAMS_KERNELS_CRC32_CLMUL_H_
#define GEOSTREAMS_KERNELS_CRC32_CLMUL_H_

#include <cstddef>
#include <cstdint>

namespace geostreams {
namespace kernels {

/// Shortest input the kernel takes: four 16-byte lanes.
inline constexpr size_t kCrc32ClmulMinBytes = 64;

/// Advances the reflected IEEE CRC-32 register `crc` (the same
/// register UpdateCrc32 chains) over `len` bytes at `data`. `len` is a
/// multiple of 16 and at least kCrc32ClmulMinBytes; `data` needs no
/// alignment. Equal to slicing-by-8 over the same bytes.
uint32_t Crc32Clmul(uint32_t crc, const uint8_t* data, size_t len);

}  // namespace kernels
}  // namespace geostreams

#endif  // GEOSTREAMS_KERNELS_CRC32_CLMUL_H_
