// Spatial regions used by spatial restrictions (Definition 6).
//
// Section 3.1 of the paper lists three ways a restriction region R can
// be specified: (1) an enumeration of x,y pairs, (2) constraint-model
// polynomial inequalities on x and y, and (3) a bounding box given by
// two corner points. All three are implemented here, plus polygons
// and boolean composites, since derived regions arise during query
// rewriting.

#ifndef GEOSTREAMS_GEO_REGION_H_
#define GEOSTREAMS_GEO_REGION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geo/bounding_box.h"

namespace geostreams {

enum class RegionKind {
  kBBox,
  kPolygon,
  kConstraint,
  kEnumerated,
  kUnion,
  kIntersection,
  kAll,
};

/// Immutable predicate over spatial coordinates (in the coordinates of
/// whatever CRS the enclosing operator declares).
class Region {
 public:
  virtual ~Region() = default;

  virtual RegionKind kind() const = 0;

  /// True when the point (x, y) belongs to the region.
  virtual bool Contains(double x, double y) const = 0;

  /// A conservative bounding box: every contained point lies inside it.
  virtual BoundingBox bounds() const = 0;

  /// Parseable textual form (mirrors the query language syntax).
  virtual std::string ToString() const = 0;
};

using RegionPtr = std::shared_ptr<const Region>;

/// Rectangle given by two corner points — the common GUI case (3).
class BBoxRegion : public Region {
 public:
  explicit BBoxRegion(BoundingBox box) : box_(box) {}
  BBoxRegion(double x0, double y0, double x1, double y1)
      : box_(x0, y0, x1, y1) {}

  RegionKind kind() const override { return RegionKind::kBBox; }
  bool Contains(double x, double y) const override {
    return box_.Contains(x, y);
  }
  BoundingBox bounds() const override { return box_; }
  std::string ToString() const override { return box_.ToString(); }

  const BoundingBox& box() const { return box_; }

 private:
  BoundingBox box_;
};

/// Simple polygon, even-odd rule, closed implicitly.
class PolygonRegion : public Region {
 public:
  /// Vertices in order; at least 3 required (checked by the factory in
  /// the parser; the constructor trusts its input).
  explicit PolygonRegion(std::vector<std::pair<double, double>> vertices);

  RegionKind kind() const override { return RegionKind::kPolygon; }
  bool Contains(double x, double y) const override;
  BoundingBox bounds() const override { return bounds_; }
  std::string ToString() const override;

  const std::vector<std::pair<double, double>>& vertices() const {
    return vertices_;
  }

 private:
  std::vector<std::pair<double, double>> vertices_;
  BoundingBox bounds_;
};

/// One polynomial inequality sum(coef * x^px * y^py) <= 0.
struct PolynomialConstraint {
  struct Term {
    double coef;
    int x_power;
    int y_power;
  };
  std::vector<Term> terms;

  double Evaluate(double x, double y) const;
  std::string ToString() const;
};

/// Conjunction of polynomial constraints — the constraint data model
/// case (2). `bounds` must be supplied (polynomial root isolation is
/// out of scope); it is used only for pruning and may over-cover.
class ConstraintRegion : public Region {
 public:
  ConstraintRegion(std::vector<PolynomialConstraint> constraints,
                   BoundingBox bounds);

  RegionKind kind() const override { return RegionKind::kConstraint; }
  bool Contains(double x, double y) const override;
  BoundingBox bounds() const override { return bounds_; }
  std::string ToString() const override;

  /// Builds the disk (x-cx)^2 + (y-cy)^2 - r^2 <= 0.
  static std::shared_ptr<ConstraintRegion> Disk(double cx, double cy,
                                                double r);

  /// True when this region was built by Disk(); fills centre and
  /// squared radius. Disk regions evaluate Contains with the direct
  /// quadratic (x-cx)^2 + (y-cy)^2 <= r^2 — the same expression the
  /// vectorized kernel uses — instead of the expanded monomial sum,
  /// whose different association could disagree on boundary cells.
  bool AsDisk(double* cx, double* cy, double* r2) const;

 private:
  std::vector<PolynomialConstraint> constraints_;
  BoundingBox bounds_;
  bool is_disk_ = false;
  double disk_cx_ = 0.0, disk_cy_ = 0.0, disk_r2_ = 0.0;
  /// Query-language spelling when the region came from a sugar
  /// constructor (e.g. "disk(1, 2, 3)"); empty for raw constraints.
  std::string query_form_;
};

/// Explicit finite point set — enumeration case (1). Points are
/// matched with a tolerance of half the given cell size, so lattice
/// points snap correctly; bounds() covers that whole tolerance cell
/// around every point.
class EnumeratedRegion : public Region {
 public:
  EnumeratedRegion(std::vector<std::pair<double, double>> points,
                   double cell_size);

  RegionKind kind() const override { return RegionKind::kEnumerated; }
  bool Contains(double x, double y) const override;
  BoundingBox bounds() const override { return bounds_; }
  std::string ToString() const override;

  size_t size() const { return keys_.size(); }

 private:
  int64_t KeyOf(double v) const;

  double cell_size_;
  // Sorted (kx, ky) cell keys for binary search.
  std::vector<std::pair<int64_t, int64_t>> keys_;
  BoundingBox bounds_;
};

/// Union / intersection composites.
class CompositeRegion : public Region {
 public:
  CompositeRegion(RegionKind kind, std::vector<RegionPtr> children);

  RegionKind kind() const override { return kind_; }
  bool Contains(double x, double y) const override;
  BoundingBox bounds() const override { return bounds_; }
  std::string ToString() const override;

  const std::vector<RegionPtr>& children() const { return children_; }

 private:
  RegionKind kind_;  // kUnion or kIntersection
  std::vector<RegionPtr> children_;
  BoundingBox bounds_;
};

/// The trivial region containing every point (identity restriction).
class AllRegion : public Region {
 public:
  RegionKind kind() const override { return RegionKind::kAll; }
  bool Contains(double, double) const override { return true; }
  BoundingBox bounds() const override {
    return BoundingBox(-1e300, -1e300, 1e300, 1e300);
  }
  std::string ToString() const override { return "all()"; }

  static RegionPtr Instance();
};

/// Factory helpers.
RegionPtr MakeBBoxRegion(double x0, double y0, double x1, double y1);
RegionPtr MakePolygonRegion(std::vector<std::pair<double, double>> vertices);
RegionPtr MakeUnionRegion(std::vector<RegionPtr> children);
RegionPtr MakeIntersectionRegion(std::vector<RegionPtr> children);

}  // namespace geostreams

#endif  // GEOSTREAMS_GEO_REGION_H_
