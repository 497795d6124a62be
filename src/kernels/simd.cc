#include "kernels/simd.h"

#include <atomic>

namespace geostreams {

namespace {

std::atomic<int> g_override{-1};

SimdLevel Detect() {
#if defined(GEOSTREAMS_SIMD_AVX2) && (defined(__x86_64__) || defined(__i386__))
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

bool DetectClmul() {
#if defined(GEOSTREAMS_SIMD_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = Detect();
  return level;
}

SimdLevel ActiveSimdLevel() {
  const int forced = g_override.load(std::memory_order_relaxed);
  const SimdLevel detected = DetectedSimdLevel();
  if (forced < 0) return detected;
  const auto level = static_cast<SimdLevel>(forced);
  return static_cast<uint8_t>(level) <= static_cast<uint8_t>(detected)
             ? level
             : detected;
}

void SetSimdLevelForTesting(SimdLevel level) {
  g_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ClearSimdLevelForTesting() {
  g_override.store(-1, std::memory_order_relaxed);
}

bool Crc32ClmulActive() {
  static const bool clmul = DetectClmul();
  return clmul && ActiveSimdLevel() == SimdLevel::kAvx2;
}

}  // namespace geostreams
