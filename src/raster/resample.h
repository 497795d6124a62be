// Resampling kernels used by spatial transforms and re-projection
// (Sec. 3.2: nearest point, linear interpolation, k x k box averages).

#ifndef GEOSTREAMS_RASTER_RESAMPLE_H_
#define GEOSTREAMS_RASTER_RESAMPLE_H_

#include <cmath>
#include <cstdint>

#include "common/math_util.h"
#include "common/status.h"
#include "raster/raster.h"

namespace geostreams {

enum class ResampleKernel : uint8_t {
  kNearest,
  kBilinear,
};

const char* ResampleKernelName(ResampleKernel k);

/// Samples band `band` of `src` at fractional pixel coordinates
/// (col, row) where integer coordinates are pixel centres. Coordinates
/// outside the raster are clamped to the edge. `Grid` is anything with
/// Raster's AtClamped(col, row, band): a Raster, or an AssembledFrame
/// read through its window.
template <typename Grid>
double SampleRaster(const Grid& src, double col, double row, int band,
                    ResampleKernel kernel) {
  switch (kernel) {
    case ResampleKernel::kNearest:
      return src.AtClamped(static_cast<int64_t>(std::llround(col)),
                           static_cast<int64_t>(std::llround(row)), band);
    case ResampleKernel::kBilinear: {
      const double fc = std::floor(col);
      const double fr = std::floor(row);
      const auto c0 = static_cast<int64_t>(fc);
      const auto r0 = static_cast<int64_t>(fr);
      const double tx = col - fc;
      const double ty = row - fr;
      const double v00 = src.AtClamped(c0, r0, band);
      const double v10 = src.AtClamped(c0 + 1, r0, band);
      const double v01 = src.AtClamped(c0, r0 + 1, band);
      const double v11 = src.AtClamped(c0 + 1, r0 + 1, band);
      return Lerp(Lerp(v00, v10, tx), Lerp(v01, v11, tx), ty);
    }
  }
  return 0.0;
}

/// Mean of the k x k block of source pixels whose top-left corner is
/// (col0, row0); out-of-bounds pixels are excluded from the average.
double BoxAverage(const Raster& src, int64_t col0, int64_t row0, int k,
                  int band);

/// Full-raster resolution decrease by integer factor k (Fig. 2a).
Result<Raster> ReduceRaster(const Raster& src, int k);

/// Full-raster magnification by integer factor k: each source pixel
/// becomes a k x k block (Sec. 3.2's zoom example).
Result<Raster> MagnifyRaster(const Raster& src, int k);

}  // namespace geostreams

#endif  // GEOSTREAMS_RASTER_RESAMPLE_H_
