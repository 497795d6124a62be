// Assembles point batches of one frame back into a raster.
//
// Frame-scoped operators (stretch transforms, image-organized
// compositions, delivery) need the points of a frame materialized as
// an image. The assembler tracks the frame lattice from FrameBegin
// metadata and fills a raster as batches arrive.
//
// It buffers only the frame's support window: the cells FrameInfo's
// support says the points can occupy (a spatial restriction sets it
// to its region's bounds, Sec. 3.1), or the whole lattice when no
// support is set. A region query over a sector therefore holds a few
// hundred cells, not the sector (the per-operator buffer bound of
// Sec. 3.2). The window is allocated at the frame's first point, not
// at FrameBegin, so frames waiting for their points cost nothing.
//
// A point inside the lattice but outside the support widens the
// window once, to the whole lattice; the frame stays correct, and
// widenings() counts it (a restricted plan should never widen).
// Consumers that need the whole frame expand it on demand
// (AssembledFrame::Expanded); the wire encoder reads the window as it
// is.

#ifndef GEOSTREAMS_RASTER_FRAME_ASSEMBLER_H_
#define GEOSTREAMS_RASTER_FRAME_ASSEMBLER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/stream_event.h"
#include "raster/raster.h"

namespace geostreams {

/// A completed frame: the samples and per-cell occupancy mask of its
/// window, plus what it takes to rebuild the whole frame (the frame's
/// lattice and the fill of every cell outside the window). Restricted
/// streams deliver only part of a sector; gather operators
/// (re-projection, affine transforms) must not fabricate values from
/// never-filled nodata cells.
struct AssembledFrame {
  /// The window's samples: window.width x window.height cells. When
  /// the window is the whole lattice (unrestricted frames) this is the
  /// whole frame and carries the frame's lattice.
  Raster raster;
  std::vector<uint8_t> filled;  // 1 per window cell that received a point
  /// Where the window sits in the frame.
  CellRect window;
  /// The frame's lattice: its full dimensions and geometry.
  GridLattice lattice;
  /// The value of every cell no point reached, inside or outside the
  /// window.
  double fill = 0.0;

  int64_t width() const { return lattice.width(); }
  int64_t height() const { return lattice.height(); }
  int bands() const { return raster.bands(); }
  /// True when the window is smaller than the frame.
  bool windowed() const { return !(window == lattice.Cells()); }

  /// Frame coordinates; cells outside the window were never filled.
  bool IsFilled(int64_t col, int64_t row) const {
    if (!window.Contains(col, row)) return false;
    return filled[WindowIndex(col, row)] != 0;
  }
  /// The sample at frame cell (col, row), coordinates clamped into the
  /// frame (edge replication, as Raster::AtClamped).
  double AtClamped(int64_t col, int64_t row, int band = 0) const {
    col = std::clamp<int64_t>(col, 0, width() - 1);
    row = std::clamp<int64_t>(row, 0, height() - 1);
    if (!window.Contains(col, row)) return fill;
    return raster.data()[WindowIndex(col, row) *
                             static_cast<size_t>(raster.bands()) +
                         static_cast<size_t>(band)];
  }

  /// The whole frame as one raster: the window itself when it spans
  /// the lattice, else built on first use and kept.
  const Raster& Expanded() const;
  /// In-process frame callbacks take `const Raster&`; they receive the
  /// expanded frame through this conversion.
  operator const Raster&() const { return Expanded(); }
  /// Makes this frame whole in place (raster and mask cover the
  /// lattice); a no-op for a frame that already is.
  void Expand();

 private:
  size_t WindowIndex(int64_t col, int64_t row) const {
    return static_cast<size_t>(row - window.row0) *
               static_cast<size_t>(window.width) +
           static_cast<size_t>(col - window.col0);
  }

  /// Expanded()'s whole frame, once built (windowed frames only).
  mutable Raster expanded_;
};

/// One-frame accumulator. Reusable: Finish() returns the frame and
/// resets for the next one.
class FrameAssembler {
 public:
  /// `nodata` fills cells no point arrived for.
  explicit FrameAssembler(double nodata = 0.0) : nodata_(nodata) {}

  /// Starts a frame: validates its lattice and raster shape and takes
  /// its support as the window. The window is allocated at the first
  /// point.
  Status Begin(const FrameInfo& info, int band_count);

  /// Adds a batch; a batch of another frame or band count is rejected
  /// before anything is allocated, and points outside the frame
  /// lattice are rejected.
  Status Add(const PointBatch& batch);

  /// Completes the frame and returns its window and mask (all nodata
  /// for a frame that received no points).
  Result<AssembledFrame> Finish();

  /// Abandons the open frame and frees its buffer (fault recovery).
  void Abort() {
    active_ = false;
    allocated_ = false;
    points_seen_ = 0;
    raster_ = Raster();
    filled_.clear();
  }

  bool active() const { return active_; }
  int64_t frame_id() const { return frame_id_; }
  int64_t points_seen() const { return points_seen_; }
  /// Bytes currently buffered (drives the memory accounting of
  /// frame-buffering operators, Sec. 3.2): the window's samples, 0
  /// until the first point.
  size_t BufferedBytes() const { return active_ ? raster_.ApproxBytes() : 0; }
  /// Frames whose support missed a point and were widened to the whole
  /// lattice, over this assembler's life.
  uint64_t widenings() const { return widenings_; }

 private:
  /// Allocates the open frame's nodata window and empty fill mask.
  void Allocate();
  /// Grows the window to the whole lattice, keeping what it holds.
  void Widen();

  double nodata_;
  bool active_ = false;
  bool allocated_ = false;
  int64_t frame_id_ = 0;
  int64_t points_seen_ = 0;
  GridLattice lattice_;
  int bands_ = 1;
  CellRect window_;
  /// Empty until the open frame's first point.
  Raster raster_;
  std::vector<uint8_t> filled_;
  uint64_t widenings_ = 0;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_RASTER_FRAME_ASSEMBLER_H_
