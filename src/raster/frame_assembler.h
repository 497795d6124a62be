// Assembles point batches of one frame back into a Raster.
//
// Frame-scoped operators (stretch transforms, image-organized
// compositions, delivery) need the points of a frame materialized as
// an image. The assembler tracks the frame lattice from FrameBegin
// metadata and fills a raster as batches arrive. The raster is
// allocated at the frame's first point, not at FrameBegin: a region
// query over a scan holds its buffer only once the scan reaches its
// rows, so frames waiting for their points cost nothing.

#ifndef GEOSTREAMS_RASTER_FRAME_ASSEMBLER_H_
#define GEOSTREAMS_RASTER_FRAME_ASSEMBLER_H_

#include <optional>

#include "common/status.h"
#include "core/stream_event.h"
#include "raster/raster.h"

namespace geostreams {

/// A completed frame: the raster plus the per-cell occupancy mask.
/// Restricted streams deliver only part of a sector; gather operators
/// (re-projection, affine transforms) must not fabricate values from
/// never-filled nodata cells.
struct AssembledFrame {
  Raster raster;
  std::vector<uint8_t> filled;  // 1 per cell that received a point

  bool IsFilled(int64_t col, int64_t row) const {
    return filled[static_cast<size_t>(row) *
                      static_cast<size_t>(raster.width()) +
                  static_cast<size_t>(col)] != 0;
  }
};

/// One-frame accumulator. Reusable: Finish() returns the frame and
/// resets for the next one.
class FrameAssembler {
 public:
  /// `nodata` fills cells no point arrived for.
  explicit FrameAssembler(double nodata = 0.0) : nodata_(nodata) {}

  /// Starts a frame: validates its lattice and raster shape. The
  /// raster itself is allocated at the first point.
  Status Begin(const FrameInfo& info, int band_count);

  /// Adds a batch; a batch of another frame or band count is rejected
  /// before anything is allocated, and points outside the frame
  /// lattice are rejected.
  Status Add(const PointBatch& batch);

  /// Completes the frame and returns the assembled raster + mask (all
  /// nodata for a frame that received no points).
  Result<AssembledFrame> Finish();

  /// Abandons the open frame and frees its buffer (fault recovery).
  void Abort() {
    active_ = false;
    points_seen_ = 0;
    raster_ = Raster();
    filled_.clear();
  }

  bool active() const { return active_; }
  int64_t frame_id() const { return frame_id_; }
  int64_t points_seen() const { return points_seen_; }
  /// Bytes currently buffered (drives the memory accounting of
  /// frame-buffering operators, Sec. 3.2): 0 until the first point.
  size_t BufferedBytes() const { return active_ ? raster_.ApproxBytes() : 0; }

 private:
  /// Allocates the open frame's nodata raster and empty fill mask.
  void Allocate();

  double nodata_;
  bool active_ = false;
  int64_t frame_id_ = 0;
  int64_t points_seen_ = 0;
  GridLattice lattice_;
  int bands_ = 1;
  /// Empty until the open frame's first point.
  Raster raster_;
  std::vector<uint8_t> filled_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_RASTER_FRAME_ASSEMBLER_H_
