// CRC-32 by carry-less multiplication (PCLMULQDQ), after Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009). Built with -mpclmul -msse4.1 when the
// GEOSTREAMS_SIMD CMake option is on; UpdateCrc32 only calls it after
// the cpuid check in kernels/simd.cc, so the binary stays runnable on
// machines without the instructions.
//
// Four 128-bit lanes fold 64 input bytes per step: each lane's two
// 64-bit halves are carried 512 bits further by a multiplication with
// a constant power of x mod P, then added to the next 64 bytes. The
// lanes then fold into one, 16 more bytes fold at a time, and the
// 128-bit remainder is folded to 64 bits and Barrett-reduced to the
// 32-bit register.

#include "kernels/crc32_clmul.h"

#ifdef GEOSTREAMS_SIMD_AVX2

#include <immintrin.h>

namespace geostreams {
namespace kernels {

namespace {

// Bit-reflected folding constants for P = 0x104C11DB7 (the paper's
// values, in the layout zlib's and Chromium's SSE4.2 kernels use):
// {x^(4*128+32), x^(4*128-32)} folds across four lanes,
// {x^(128+32), x^(128-32)} across one, x^64 folds 96 bits to 64, and
// {P', mu'} drive the Barrett reduction.
alignas(16) constexpr uint64_t kFold4[2] = {0x0154442bd4, 0x01c6e41596};
alignas(16) constexpr uint64_t kFold1[2] = {0x01751997d0, 0x00ccaa009e};
alignas(16) constexpr uint64_t kFold64[2] = {0x0163cd6124, 0x0000000000};
alignas(16) constexpr uint64_t kBarrett[2] = {0x01db710641, 0x01f7011641};

__m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__m128i Constants(const uint64_t (&k)[2]) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(k));
}

/// `lane` carried 128 bits further along the message, plus `next`.
__m128i Fold(__m128i lane, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

}  // namespace

uint32_t Crc32Clmul(uint32_t crc, const uint8_t* data, size_t len) {
  __m128i x1 =
      _mm_xor_si128(Load(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load(data + 16);
  __m128i x3 = Load(data + 32);
  __m128i x4 = Load(data + 48);
  data += 64;
  len -= 64;

  const __m128i fold4 = Constants(kFold4);
  while (len >= 64) {
    x1 = Fold(x1, fold4, Load(data));
    x2 = Fold(x2, fold4, Load(data + 16));
    x3 = Fold(x3, fold4, Load(data + 32));
    x4 = Fold(x4, fold4, Load(data + 48));
    data += 64;
    len -= 64;
  }

  const __m128i fold1 = Constants(kFold1);
  x1 = Fold(x1, fold1, x2);
  x1 = Fold(x1, fold1, x3);
  x1 = Fold(x1, fold1, x4);
  while (len >= 16) {
    x1 = Fold(x1, fold1, Load(data));
    data += 16;
    len -= 16;
  }

  // 128 -> 64 bits: the low half times x^(128-32), added to the high.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, fold1, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32),
                                          Constants(kFold64), 0x00));

  // Barrett reduction to the 32-bit remainder.
  const __m128i barrett = Constants(kBarrett);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

}  // namespace kernels
}  // namespace geostreams

#endif  // GEOSTREAMS_SIMD_AVX2
