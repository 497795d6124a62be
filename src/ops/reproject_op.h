// Re-projection operator (Sec. 3.2): maps a GeoStream from one
// coordinate system to another.
//
// "One can think of a re-projection as a mathematical framework that
// specifies for every point y in Y what points in X are necessary to
// compute y and its point value." The operator buffers the current
// scan sector (frame), overlays a regular lattice of corresponding
// size/aspect over the transformed spatial extent, and computes each
// target point from the nearest source point or a bilinear
// neighbourhood — the two resampling choices the paper names. Its
// space cost is the frame size; E3 measures it.

#ifndef GEOSTREAMS_OPS_REPROJECT_OP_H_
#define GEOSTREAMS_OPS_REPROJECT_OP_H_

#include "geo/crs.h"
#include "ops/spatial_transform_op.h"

namespace geostreams {

class ReprojectOp : public GatherOp {
 public:
  /// Re-projects into `target_crs`. Each frame derives an output
  /// lattice covering its own transformed extent with approximately as
  /// many cells as the source sector.
  ReprojectOp(std::string name, CrsPtr target_crs,
              ResampleKernel kernel = ResampleKernel::kNearest);

  /// Derives the per-frame output lattice for a source lattice: the
  /// transformed extent overlaid with a regular grid "corresponding in
  /// size and aspect" to the source.
  static Result<GridLattice> DeriveLattice(const GridLattice& source,
                                           const CrsPtr& target_crs);

 protected:
  Status BeginFrame(const GridLattice& in) override;
  Status FlushFrame(const AssembledFrame& frame, int64_t frame_id) override;

 private:
  CrsPtr target_crs_;
  GridLattice in_lattice_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_OPS_REPROJECT_OP_H_
