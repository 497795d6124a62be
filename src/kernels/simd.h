// Runtime SIMD dispatch level for the operator kernels.
//
// The kernels in this directory are compiled twice from one shared
// template: a portable scalar translation unit and (when the
// GEOSTREAMS_SIMD CMake option is on) an AVX2 translation unit. At
// process start the best level the CPU supports is detected via
// cpuid; every kernel call dispatches through that level. Both paths
// are required to produce bit-identical outputs (enforced by the
// parity suite in tests/kernels_test.cc), so dispatch is purely a
// throughput decision.
//
// The same switch selects UpdateCrc32's carry-less-multiply kernel
// (kernels/crc32_clmul.cc, built with -mpclmul -msse4.1): it folds
// while the active level is kAvx2 and cpuid reports PCLMULQDQ and
// SSE4.1, so forcing kScalar puts every CRC on slicing-by-8 too
// (tests/codec_parity_test.cc runs both).

#ifndef GEOSTREAMS_KERNELS_SIMD_H_
#define GEOSTREAMS_KERNELS_SIMD_H_

#include <cstdint>

namespace geostreams {

enum class SimdLevel : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

const char* SimdLevelName(SimdLevel level);

/// Best level both compiled in and supported by this CPU. Constant
/// for the process lifetime.
SimdLevel DetectedSimdLevel();

/// Level the kernels actually dispatch to: the detected level unless
/// a test override is active.
SimdLevel ActiveSimdLevel();

/// Forces dispatch to `level` (clamped to the detected level — a
/// machine without AVX2 cannot be forced onto the AVX2 path). The
/// parity suite uses this to run both code paths on the same inputs.
void SetSimdLevelForTesting(SimdLevel level);

/// Restores cpuid-detected dispatch.
void ClearSimdLevelForTesting();

/// Whether UpdateCrc32 folds with the carry-less-multiply kernel now:
/// the active level is kAvx2 and the CPU has PCLMULQDQ and SSE4.1.
/// Always false with the GEOSTREAMS_SIMD CMake option off.
bool Crc32ClmulActive();

}  // namespace geostreams

#endif  // GEOSTREAMS_KERNELS_SIMD_H_
