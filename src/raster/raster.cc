#include "raster/raster.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/string_util.h"

namespace geostreams {

Raster::Raster(int64_t width, int64_t height, int bands, double fill)
    : width_(width),
      height_(height),
      bands_(bands),
      data_(static_cast<size_t>(width * height * bands), fill) {}

Status Raster::ValidateShape(int64_t width, int64_t height, int bands) {
  if (width <= 0 || height <= 0) {
    return Status::InvalidArgument(
        StringPrintf("raster extents must be positive: %lld x %lld",
                     static_cast<long long>(width),
                     static_cast<long long>(height)));
  }
  if (bands < 1 || bands > kMaxBands) {
    return Status::InvalidArgument(
        StringPrintf("raster band count %d outside [1, %d]", bands,
                     kMaxBands));
  }
  return Status::OK();
}

Result<Raster> Raster::Create(int64_t width, int64_t height, int bands,
                              double fill) {
  GEOSTREAMS_RETURN_IF_ERROR(ValidateShape(width, height, bands));
  return Raster(width, height, bands, fill);
}

double Raster::AtClamped(int64_t col, int64_t row, int band) const {
  col = Clamp<int64_t>(col, 0, width_ - 1);
  row = Clamp<int64_t>(row, 0, height_ - 1);
  return At(col, row, band);
}

void Raster::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Raster::MinMax(int band, double* min_v, double* max_v) const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (int64_t r = 0; r < height_; ++r) {
    for (int64_t c = 0; c < width_; ++c) {
      const double v = At(c, r, band);
      if (std::isnan(v)) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  *min_v = lo;
  *max_v = hi;
}

double Raster::Mean(int band) const {
  if (empty()) return 0.0;
  double sum = 0.0;
  for (int64_t r = 0; r < height_; ++r) {
    for (int64_t c = 0; c < width_; ++c) sum += At(c, r, band);
  }
  return sum / static_cast<double>(num_pixels());
}

Result<double> Raster::AbsDifference(const Raster& a, const Raster& b) {
  if (a.width() != b.width() || a.height() != b.height() ||
      a.bands() != b.bands()) {
    return Status::InvalidArgument("raster shapes differ");
  }
  double sum = 0.0;
  for (size_t i = 0; i < a.data().size(); ++i) {
    sum += std::fabs(a.data()[i] - b.data()[i]);
  }
  return sum;
}

}  // namespace geostreams
