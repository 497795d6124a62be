#include "geo/lattice.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/math_util.h"
#include "common/string_util.h"

namespace geostreams {

GridLattice::GridLattice(CrsPtr crs, double origin_x, double origin_y,
                         double dx, double dy, int64_t width, int64_t height)
    : crs_(std::move(crs)),
      origin_x_(origin_x),
      origin_y_(origin_y),
      dx_(dx),
      dy_(dy),
      width_(width),
      height_(height) {}

Status GridLattice::Validate() const {
  if (!crs_) return Status::InvalidArgument("lattice has no CRS");
  if (width_ <= 0 || height_ <= 0) {
    return Status::InvalidArgument(
        StringPrintf("lattice extents must be positive: %lld x %lld",
                     static_cast<long long>(width_),
                     static_cast<long long>(height_)));
  }
  if (dx_ <= 0.0 || dy_ == 0.0) {
    return Status::InvalidArgument(
        StringPrintf("lattice spacing invalid: dx=%g dy=%g", dx_, dy_));
  }
  return Status::OK();
}

void GridLattice::NearestCell(double x, double y, int64_t* col,
                              int64_t* row) const {
  *col = static_cast<int64_t>(std::llround((x - origin_x_) / dx_));
  *row = static_cast<int64_t>(std::llround((y - origin_y_) / dy_));
}

BoundingBox GridLattice::Extent() const {
  const double x0 = origin_x_ - dx_ / 2.0;
  const double x1 = origin_x_ + (width_ - 0.5) * dx_;
  const double y0 = origin_y_ - dy_ / 2.0;
  const double y1 = origin_y_ + (height_ - 0.5) * dy_;
  return BoundingBox(x0, y0, x1, y1);
}

CellRect CellRect::Intersection(const CellRect& other) const {
  const int64_t c0 = std::max(col0, other.col0);
  const int64_t r0 = std::max(row0, other.row0);
  const int64_t c1 = std::min(col0 + width, other.col0 + other.width);
  const int64_t r1 = std::min(row0 + height, other.row0 + other.height);
  if (c0 >= c1 || r0 >= r1) return CellRect{};
  return CellRect{c0, r0, c1 - c0, r1 - r0};
}

namespace {

/// How far, in cells, CellsWithin reaches past the bounds: far more
/// than the rounding of (bound - origin) / step on any sane lattice,
/// far less than a cell.
constexpr double kSnapSlack = 1e-6;

/// The indices i in [0, n) whose centre origin + i * step can lie in
/// [lo, hi], as [*first, *end); false when none can. A NaN bound
/// admits every index.
bool CellSpan(double lo, double hi, double origin, double step, int64_t n,
              int64_t* first, int64_t* end) {
  double a = (lo - origin) / step;
  double b = (hi - origin) / step;
  if (std::isnan(a) || std::isnan(b)) {
    *first = 0;
    *end = n;
    return n > 0;
  }
  if (a > b) std::swap(a, b);
  // Clamped in double before the cast: the bounds may be huge.
  const double f = std::max(std::ceil(a - kSnapSlack), 0.0);
  const double l =
      std::min(std::floor(b + kSnapSlack), static_cast<double>(n - 1));
  if (f > l) return false;
  *first = static_cast<int64_t>(f);
  *end = static_cast<int64_t>(l) + 1;
  return true;
}

}  // namespace

CellRect GridLattice::CellsWithin(const BoundingBox& box) const {
  CellRect rect;
  int64_t c1 = 0, r1 = 0;
  if (box.empty() ||
      !CellSpan(box.min_x, box.max_x, origin_x_, dx_, width_, &rect.col0,
                &c1) ||
      !CellSpan(box.min_y, box.max_y, origin_y_, dy_, height_, &rect.row0,
                &r1)) {
    return CellRect{};
  }
  rect.width = c1 - rect.col0;
  rect.height = r1 - rect.row0;
  return rect;
}

bool GridLattice::AlignedWith(const GridLattice& other) const {
  if (!crs_ || !other.crs_ || !crs_->Equals(*other.crs_)) return false;
  if (!NearlyEqual(dx_, other.dx_) || !NearlyEqual(dy_, other.dy_)) {
    return false;
  }
  // Origins must differ by an integer number of cells.
  const double cx = (other.origin_x_ - origin_x_) / dx_;
  const double cy = (other.origin_y_ - origin_y_) / dy_;
  return NearlyEqual(cx, std::round(cx), 1e-6) &&
         NearlyEqual(cy, std::round(cy), 1e-6);
}

bool GridLattice::operator==(const GridLattice& other) const {
  return crs_ && other.crs_ && crs_->Equals(*other.crs_) &&
         NearlyEqual(origin_x_, other.origin_x_) &&
         NearlyEqual(origin_y_, other.origin_y_) &&
         NearlyEqual(dx_, other.dx_) && NearlyEqual(dy_, other.dy_) &&
         width_ == other.width_ && height_ == other.height_;
}

std::string GridLattice::ToString() const {
  return StringPrintf(
      "lattice(%s, origin=(%g, %g), step=(%g, %g), %lld x %lld)",
      crs_ ? crs_->name().c_str() : "<none>", origin_x_, origin_y_, dx_, dy_,
      static_cast<long long>(width_), static_cast<long long>(height_));
}

GridLattice GridLattice::Magnified(int factor) const {
  const double ndx = dx_ / factor;
  const double ndy = dy_ / factor;
  // Keep the covered extent: the first fine cell centre sits half a
  // coarse cell minus half a fine cell before the coarse origin.
  const double nox = origin_x_ - dx_ / 2.0 + ndx / 2.0;
  const double noy = origin_y_ - dy_ / 2.0 + ndy / 2.0;
  return GridLattice(crs_, nox, noy, ndx, ndy, width_ * factor,
                     height_ * factor);
}

GridLattice GridLattice::Reduced(int factor) const {
  const double ndx = dx_ * factor;
  const double ndy = dy_ * factor;
  const double nox = origin_x_ - dx_ / 2.0 + ndx / 2.0;
  const double noy = origin_y_ - dy_ / 2.0 + ndy / 2.0;
  const int64_t nw = (width_ + factor - 1) / factor;
  const int64_t nh = (height_ + factor - 1) / factor;
  return GridLattice(crs_, nox, noy, ndx, ndy, nw, nh);
}

}  // namespace geostreams
