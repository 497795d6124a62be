// Regularly-spaced point lattices (Definition 1, restricted form).
//
// The paper restricts point sets to regularly-spaced lattices in R^n
// with an associated spatial resolution and coordinate system. A
// GridLattice describes such a lattice: an origin, per-axis spacing,
// and integer extents. Lattice cells are addressed by (col, row);
// point coordinates are cell centres.

#ifndef GEOSTREAMS_GEO_LATTICE_H_
#define GEOSTREAMS_GEO_LATTICE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "geo/bounding_box.h"
#include "geo/crs.h"

namespace geostreams {

/// A rectangle of lattice cells: columns [col0, col0 + width) and rows
/// [row0, row0 + height). 0x0 holds no cell.
struct CellRect {
  int64_t col0 = 0;
  int64_t row0 = 0;
  int64_t width = 0;
  int64_t height = 0;

  int64_t num_cells() const { return width * height; }
  bool Contains(int64_t col, int64_t row) const {
    return col >= col0 && col - col0 < width && row >= row0 &&
           row - row0 < height;
  }
  /// The cells both rectangles hold (0x0 when none).
  CellRect Intersection(const CellRect& other) const;
  bool operator==(const CellRect& other) const = default;
};

/// Geometry of a regular spatial lattice in some CRS.
///
/// origin_x/origin_y locate the *centre* of cell (0, 0); dx > 0 steps
/// east per column; dy steps per row and may be negative for
/// north-up scan order (row 0 at the top).
class GridLattice {
 public:
  GridLattice() = default;
  GridLattice(CrsPtr crs, double origin_x, double origin_y, double dx,
              double dy, int64_t width, int64_t height);

  /// Validates the geometry (non-null CRS, positive extents, non-zero
  /// spacing).
  Status Validate() const;

  const CrsPtr& crs() const { return crs_; }
  double origin_x() const { return origin_x_; }
  double origin_y() const { return origin_y_; }
  double dx() const { return dx_; }
  double dy() const { return dy_; }
  int64_t width() const { return width_; }
  int64_t height() const { return height_; }
  int64_t num_cells() const { return width_ * height_; }

  /// Centre coordinates of cell (col, row); no bounds check.
  double CellX(int64_t col) const { return origin_x_ + col * dx_; }
  double CellY(int64_t row) const { return origin_y_ + row * dy_; }

  /// Nearest cell for spatial coordinates (x, y). The result may be
  /// outside [0, width) x [0, height); use ContainsCell to check.
  void NearestCell(double x, double y, int64_t* col, int64_t* row) const;

  bool ContainsCell(int64_t col, int64_t row) const {
    return col >= 0 && col < width_ && row >= 0 && row < height_;
  }

  /// Spatial extent covered by the lattice cells (cell centres padded
  /// by half a cell on each side).
  BoundingBox Extent() const;

  /// Every cell of the lattice.
  CellRect Cells() const { return CellRect{0, 0, width_, height_}; }
  /// The smallest cell rectangle holding every cell whose centre lies
  /// in `box`, clamped to the lattice (0x0 when none does). The snap
  /// errs outwards: a centre within a millionth of a cell of the box
  /// counts as inside, so rounding never drops a boundary cell.
  CellRect CellsWithin(const BoundingBox& box) const;

  /// True when both lattices share CRS, spacing, and alignment: the
  /// precondition for point-by-point composition (Definition 10). The
  /// extents may differ.
  bool AlignedWith(const GridLattice& other) const;

  /// True when every field matches.
  bool operator==(const GridLattice& other) const;

  std::string ToString() const;

  /// Lattice covering the same spatial extent with the spacing scaled
  /// by 1/factor (magnification, Sec. 3.2) — factor > 1 increases the
  /// resolution.
  GridLattice Magnified(int factor) const;

  /// Lattice with spacing scaled by factor (resolution decrease);
  /// extents are rounded up so the coverage is preserved.
  GridLattice Reduced(int factor) const;

 private:
  CrsPtr crs_;
  double origin_x_ = 0.0;
  double origin_y_ = 0.0;
  double dx_ = 1.0;
  double dy_ = 1.0;
  int64_t width_ = 0;
  int64_t height_ = 0;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_GEO_LATTICE_H_
