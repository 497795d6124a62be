#include "raster/resample.h"

#include <cmath>

#include "common/math_util.h"

namespace geostreams {

const char* ResampleKernelName(ResampleKernel k) {
  switch (k) {
    case ResampleKernel::kNearest:
      return "nearest";
    case ResampleKernel::kBilinear:
      return "bilinear";
  }
  return "?";
}

double BoxAverage(const Raster& src, int64_t col0, int64_t row0, int k,
                  int band) {
  double sum = 0.0;
  int64_t n = 0;
  for (int dr = 0; dr < k; ++dr) {
    const int64_t r = row0 + dr;
    if (r < 0 || r >= src.height()) continue;
    for (int dc = 0; dc < k; ++dc) {
      const int64_t c = col0 + dc;
      if (c < 0 || c >= src.width()) continue;
      sum += src.At(c, r, band);
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

Result<Raster> ReduceRaster(const Raster& src, int k) {
  if (k < 1) return Status::InvalidArgument("reduction factor must be >= 1");
  if (src.empty()) return Status::InvalidArgument("empty source raster");
  const int64_t nw = (src.width() + k - 1) / k;
  const int64_t nh = (src.height() + k - 1) / k;
  Raster out(nw, nh, src.bands());
  for (int64_t r = 0; r < nh; ++r) {
    for (int64_t c = 0; c < nw; ++c) {
      for (int b = 0; b < src.bands(); ++b) {
        out.Set(c, r, b, BoxAverage(src, c * k, r * k, k, b));
      }
    }
  }
  return out;
}

Result<Raster> MagnifyRaster(const Raster& src, int k) {
  if (k < 1) {
    return Status::InvalidArgument("magnification factor must be >= 1");
  }
  if (src.empty()) return Status::InvalidArgument("empty source raster");
  Raster out(src.width() * k, src.height() * k, src.bands());
  for (int64_t r = 0; r < out.height(); ++r) {
    for (int64_t c = 0; c < out.width(); ++c) {
      for (int b = 0; b < src.bands(); ++b) {
        out.Set(c, r, b, src.At(c / k, r / k, b));
      }
    }
  }
  return out;
}

}  // namespace geostreams
