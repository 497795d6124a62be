// In-memory raster images (Definition 4: an image is an
// equi-timestamp subset of a stream; materialized here as a grid).

#ifndef GEOSTREAMS_RASTER_RASTER_H_
#define GEOSTREAMS_RASTER_RASTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/value.h"
#include "geo/lattice.h"

namespace geostreams {

/// Dense band-interleaved raster of double samples. (col, row) with
/// row 0 first; geometry, when present, comes from the lattice.
class Raster {
 public:
  Raster() = default;
  Raster(int64_t width, int64_t height, int bands, double fill = 0.0);

  static Result<Raster> Create(int64_t width, int64_t height, int bands,
                               double fill = 0.0);
  /// The checks Create makes: positive extents, 1..kMaxBands bands.
  static Status ValidateShape(int64_t width, int64_t height, int bands);

  int64_t width() const { return width_; }
  int64_t height() const { return height_; }
  int bands() const { return bands_; }
  int64_t num_pixels() const { return width_ * height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  bool InBounds(int64_t col, int64_t row) const {
    return col >= 0 && col < width_ && row >= 0 && row < height_;
  }

  double At(int64_t col, int64_t row, int band = 0) const {
    return data_[Index(col, row, band)];
  }
  void Set(int64_t col, int64_t row, double v) { data_[Index(col, row, 0)] = v; }
  void Set(int64_t col, int64_t row, int band, double v) {
    data_[Index(col, row, band)] = v;
  }

  /// Clamped read: coordinates are clamped into bounds (edge
  /// replication for neighbourhood kernels at frame boundaries).
  double AtClamped(int64_t col, int64_t row, int band = 0) const;

  void Fill(double v);

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

  /// Optional geometry.
  const GridLattice& lattice() const { return lattice_; }
  void set_lattice(GridLattice lattice) { lattice_ = std::move(lattice); }

  /// Min/max over one band (ignoring NaN).
  void MinMax(int band, double* min_v, double* max_v) const;
  /// Mean over one band (NaN-free input assumed).
  double Mean(int band = 0) const;

  /// Sum of absolute per-pixel differences over all bands; rasters
  /// must have identical shape.
  static Result<double> AbsDifference(const Raster& a, const Raster& b);

  size_t ApproxBytes() const { return data_.capacity() * sizeof(double); }

 private:
  size_t Index(int64_t col, int64_t row, int band) const {
    return (static_cast<size_t>(row) * static_cast<size_t>(width_) +
            static_cast<size_t>(col)) *
               static_cast<size_t>(bands_) +
           static_cast<size_t>(band);
  }

  int64_t width_ = 0;
  int64_t height_ = 0;
  int bands_ = 1;
  std::vector<double> data_;
  GridLattice lattice_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_RASTER_RASTER_H_
