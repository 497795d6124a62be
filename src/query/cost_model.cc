#include "query/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace geostreams {

namespace {

// Relative per-point CPU weights, calibrated roughly to the measured
// per-point costs of the physical operators (bench E1-E4): pure
// filters are the unit; projection math dominates re-projection.
constexpr double kWeightRestrict = 1.0;
constexpr double kWeightValueTransform = 1.5;
constexpr double kWeightStretch = 4.0;
constexpr double kWeightMagnify = 1.0;   // per output point
constexpr double kWeightReduce = 2.0;
constexpr double kWeightReproject = 12.0;
constexpr double kWeightCompose = 3.0;
constexpr double kWeightAggregate = 2.0;

/// Fraction of the lattice extent the region's bounding box covers.
double SpatialSelectivity(const Region& region, const GridLattice& lattice) {
  const BoundingBox extent = lattice.Extent();
  const BoundingBox overlap = extent.Intersection(region.bounds());
  if (overlap.empty()) return 0.0;
  const double denom = extent.area();
  return denom <= 0.0 ? 1.0 : std::min(1.0, overlap.area() / denom);
}

Result<NodeCost> Estimate(const Expr* e,
                          std::map<const Expr*, NodeCost>* per_node) {
  if (!e->analyzed) {
    return Status::FailedPrecondition(
        "cost model requires an analyzed query");
  }
  NodeCost left, right;
  if (e->child) {
    GEOSTREAMS_ASSIGN_OR_RETURN(left, Estimate(e->child.get(), per_node));
  }
  if (e->right) {
    GEOSTREAMS_ASSIGN_OR_RETURN(right, Estimate(e->right.get(), per_node));
  }

  NodeCost c;
  c.input_points = left.output_points + right.output_points;
  switch (e->kind) {
    case ExprKind::kStreamRef:
      c.output_points =
          static_cast<double>(e->out_desc.reference_lattice().num_cells());
      break;
    case ExprKind::kSpatialRestrict:
      c.selectivity = SpatialSelectivity(
          *e->region, e->child->out_desc.reference_lattice());
      c.output_points = c.input_points * c.selectivity;
      c.cpu = c.input_points * kWeightRestrict;
      break;
    case ExprKind::kTemporalRestrict:
      // Without timestamp statistics assume all frames pass; recurring
      // windows narrow to their duty cycle when derivable.
      c.selectivity = 1.0;
      c.output_points = c.input_points;
      c.cpu = c.input_points * kWeightRestrict;
      break;
    case ExprKind::kValueRestrict:
      // Default heuristic: a value predicate keeps a third.
      c.selectivity = 1.0 / 3.0;
      c.output_points = c.input_points * c.selectivity;
      c.cpu = c.input_points * kWeightRestrict;
      break;
    case ExprKind::kValueTransform:
      c.output_points = c.input_points;
      c.cpu = c.input_points * kWeightValueTransform;
      break;
    case ExprKind::kStretch:
      c.output_points = c.input_points;
      c.cpu = c.input_points * kWeightStretch;
      // Buffers the largest frame (Sec. 3.2) — conservatively sized by
      // the input's reference lattice; upstream spatial restrictions
      // shrink the points actually buffered, reflected via
      // input_points.
      c.buffer_bytes =
          c.input_points * e->child->out_desc.value_set().BytesPerPoint() *
          3.0;  // value + cell address + timestamp
      break;
    case ExprKind::kMagnify:
      c.selectivity = static_cast<double>(e->factor) * e->factor;
      c.output_points = c.input_points * c.selectivity;
      c.cpu = c.output_points * kWeightMagnify;
      break;
    case ExprKind::kReduce:
      c.selectivity = 1.0 / (static_cast<double>(e->factor) * e->factor);
      c.output_points = c.input_points * c.selectivity;
      c.cpu = c.input_points * kWeightReduce;
      // Active accumulator cells: about one output row per in-progress
      // block for row-by-row input; whole frame otherwise.
      if (e->child->out_desc.organization() ==
          PointOrganization::kRowByRow) {
        c.buffer_bytes = static_cast<double>(
                             e->out_desc.reference_lattice().width()) *
                         24.0;
      } else {
        c.buffer_bytes = c.output_points * 24.0;
      }
      break;
    case ExprKind::kReproject:
      c.output_points = c.input_points;
      c.cpu = c.output_points * kWeightReproject;
      c.buffer_bytes =
          c.input_points * sizeof(double);  // assembled frame raster
      break;
    case ExprKind::kCompose:
    case ExprKind::kNdviMacro:
    case ExprKind::kBandStack: {
      c.output_points = std::min(left.output_points, right.output_points);
      c.cpu = c.input_points * kWeightCompose;
      // Buffering depends on arrival interleaving (Sec. 3.3): one scan
      // line for row-by-row streams, a frame for image-by-image.
      const GeoStreamDescriptor& lin = e->child->out_desc;
      const double entry = 24.0;
      if (lin.organization() == PointOrganization::kRowByRow) {
        c.buffer_bytes =
            static_cast<double>(lin.reference_lattice().width()) * entry;
      } else {
        c.buffer_bytes = left.output_points * entry;
      }
      break;
    }
    case ExprKind::kShed:
      c.selectivity = e->shed_keep;
      c.output_points = c.input_points * c.selectivity;
      c.cpu = c.input_points * kWeightRestrict;
      break;
    case ExprKind::kAggregate:
      c.output_points = static_cast<double>(e->agg_regions.size());
      c.cpu = c.input_points * kWeightAggregate *
              static_cast<double>(e->agg_regions.size());
      c.buffer_bytes = static_cast<double>(e->agg_regions.size()) * 40.0;
      break;
  }
  if (per_node) (*per_node)[e] = c;
  return c;
}

double SumCpu(const Expr* e, const std::map<const Expr*, NodeCost>& costs) {
  double total = costs.at(e).cpu;
  if (e->child) total += SumCpu(e->child.get(), costs);
  if (e->right) total += SumCpu(e->right.get(), costs);
  return total;
}

double SumPoints(const Expr* e,
                 const std::map<const Expr*, NodeCost>& costs) {
  double total = costs.at(e).input_points;
  if (e->child) total += SumPoints(e->child.get(), costs);
  if (e->right) total += SumPoints(e->right.get(), costs);
  return total;
}

double MaxBuffer(const Expr* e,
                 const std::map<const Expr*, NodeCost>& costs) {
  double m = costs.at(e).buffer_bytes;
  if (e->child) m = std::max(m, MaxBuffer(e->child.get(), costs));
  if (e->right) m = std::max(m, MaxBuffer(e->right.get(), costs));
  return m;
}

}  // namespace

std::string PlanCost::ToString() const {
  return StringPrintf(
      "cpu=%.0f points=%.0f max_buffer=%.0fB", total_cpu,
      total_points_processed, max_buffer_bytes);
}

Result<PlanCost> EstimatePlanCost(
    const ExprPtr& analyzed, std::map<const Expr*, NodeCost>* per_node) {
  if (!analyzed) return Status::InvalidArgument("null query");
  std::map<const Expr*, NodeCost> local;
  std::map<const Expr*, NodeCost>* costs = per_node ? per_node : &local;
  GEOSTREAMS_ASSIGN_OR_RETURN(NodeCost root,
                              Estimate(analyzed.get(), costs));
  (void)root;
  PlanCost out;
  out.total_cpu = SumCpu(analyzed.get(), *costs);
  out.total_points_processed = SumPoints(analyzed.get(), *costs);
  out.max_buffer_bytes = MaxBuffer(analyzed.get(), *costs);
  return out;
}

}  // namespace geostreams
