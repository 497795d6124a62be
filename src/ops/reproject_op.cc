#include "ops/reproject_op.h"

namespace geostreams {

ReprojectOp::ReprojectOp(std::string name, CrsPtr target_crs,
                         ResampleKernel kernel)
    : GatherOp(std::move(name), kernel, "re-projection"),
      target_crs_(std::move(target_crs)) {}

Result<GridLattice> ReprojectOp::DeriveLattice(const GridLattice& source,
                                               const CrsPtr& target_crs) {
  GEOSTREAMS_RETURN_IF_ERROR(source.Validate());
  const BoundingBox ext =
      TransformBoundingBox(source.Extent(), *source.crs(), *target_crs);
  if (ext.empty()) {
    return Status::OutOfRange(
        "source extent does not map into the target CRS domain");
  }
  // Regular lattice of corresponding size and aspect.
  const int64_t w = source.width();
  const int64_t h = source.height();
  const double dx = ext.width() / static_cast<double>(w);
  const double dy = ext.height() / static_cast<double>(h);
  // Row 0 at the top (north-up): negative dy from the max-y edge.
  return GridLattice(target_crs, ext.min_x + dx / 2.0, ext.max_y - dy / 2.0,
                     dx, -dy, w, h);
}

Status ReprojectOp::BeginFrame(const GridLattice& in) {
  in_lattice_ = in;
  GEOSTREAMS_ASSIGN_OR_RETURN(out_lattice_, DeriveLattice(in, target_crs_));
  return Status::OK();
}

Status ReprojectOp::FlushFrame(const AssembledFrame& frame,
                               int64_t frame_id) {
  const CoordinateSystem& src_crs = *in_lattice_.crs();
  return GatherFrame(
      frame, frame_id, [&](int64_t c, int64_t r, double* fc, double* fr) {
        double sx = 0.0, sy = 0.0;
        // A target cell outside the source projection domain has none.
        if (!TransformPoint(*target_crs_, src_crs, out_lattice_.CellX(c),
                            out_lattice_.CellY(r), &sx, &sy)
                 .ok()) {
          return false;
        }
        *fc = (sx - in_lattice_.origin_x()) / in_lattice_.dx();
        *fr = (sy - in_lattice_.origin_y()) / in_lattice_.dy();
        return true;
      });
}

}  // namespace geostreams
