// The CRC-32 every stored and shipped byte pays: GSF1 messages, the
// journal, tile pages and PNG chunks all run UpdateCrc32. Each size
// runs twice: dispatched as on this machine (the PCLMULQDQ folding
// kernel where the CPU has it) and forced onto the slicing-by-8
// tables.
//
//   64 B     a short record: the kernel's threshold
//   4 KiB    a small tile page or windowed result frame
//   512 KiB  a raw 256 x 256 result frame

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "kernels/simd.h"
#include "raster/checksum.h"

namespace geostreams {
namespace {

void BM_Crc32(benchmark::State& state) {
  const auto len = static_cast<size_t>(state.range(0));
  const bool scalar = state.range(1) != 0;
  std::vector<uint8_t> bytes(len);
  uint32_t x = 0x9E3779B9u;
  for (uint8_t& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  if (scalar) SetSimdLevelForTesting(SimdLevel::kScalar);
  state.SetLabel(Crc32ClmulActive() ? "clmul" : "tables");
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(crc);
  }
  ClearSimdLevelForTesting();
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_Crc32)
    ->ArgsProduct({{64, 4 << 10, 512 << 10}, {0, 1}})
    ->ArgNames({"bytes", "scalar"});

}  // namespace
}  // namespace geostreams
