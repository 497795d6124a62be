// Spatial transform operators G . f_spat (Definition 9, Sec. 3.2).
//
// Three concrete transforms:
//  * MagnifyOp     — resolution increase by k: each incoming point
//                    yields a k x k block of output points. Needs no
//                    neighbouring points, hence no buffering.
//  * ReduceOp      — resolution decrease by 1/k (Fig. 2a): each output
//                    point needs a k x k input neighbourhood. Output
//                    points are emitted as soon as their neighbourhood
//                    completes. Partial sums live in dense row slabs,
//                    one per output row that has an open cell: a slab
//                    is allocated at its row's first point and freed
//                    when its last open cell completes, so a
//                    row-by-row (or tile-ordered) stream buffers about
//                    one output row, while an arbitrary order buffers
//                    at most the reduced frame. FrameEnd metadata
//                    flushes the boundary cells that never completed
//                    (the paper's "boundary point interpolations" from
//                    scan-sector metadata), in row-major order.
//  * AffineOp      — general affine map between lattices (rotation,
//                    shear, translation, zoom); buffers the frame and
//                    gathers with a resampling kernel.
//
// AffineOp and re-projection (reproject_op.h) are both GatherOps: they
// differ only in the output lattice and in where an output cell falls
// in the source frame.

#ifndef GEOSTREAMS_OPS_SPATIAL_TRANSFORM_OP_H_
#define GEOSTREAMS_OPS_SPATIAL_TRANSFORM_OP_H_

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "raster/frame_assembler.h"
#include "raster/resample.h"
#include "stream/operator.h"

namespace geostreams {

/// Resolution increase by an integer factor (zooming).
class MagnifyOp : public UnaryOperator {
 public:
  MagnifyOp(std::string name, int factor);

  int factor() const { return factor_; }

 protected:
  Status Process(const StreamEvent& event) override;

 private:
  int factor_;
  GridLattice out_lattice_;
};

/// Resolution decrease by an integer factor with box averaging. Each
/// output cell sums its inputs in arrival order and is emitted, with
/// the timestamp of its first input, once all of them have arrived; a
/// point that arrives again after its cell was emitted opens the cell
/// anew. Points outside the frame's lattice are refused (OutOfRange),
/// as the frame assembler refuses them.
class ReduceOp : public UnaryOperator {
 public:
  ReduceOp(std::string name, int factor);

  int factor() const { return factor_; }

  void Reset() override;

 protected:
  Status Process(const StreamEvent& event) override;

 private:
  struct CellAccum {
    double sum = 0.0;
    int32_t count = 0;  // 0: the cell is not open
    int32_t expected = 0;
    int64_t timestamp = 0;
  };
  /// One output row: out_width cells while the row has an open cell,
  /// no storage otherwise.
  struct RowSlab {
    std::vector<CellAccum> cells;
    int64_t open = 0;
  };

  Status FlushAll();
  /// Drops every slab, spare storage included, and reports nothing
  /// buffered.
  void ClearSlabs();
  int32_t ExpectedContributions(int64_t ocol, int64_t orow) const;

  int factor_;
  GridLattice in_lattice_;
  GridLattice out_lattice_;
  bool in_frame_ = false;
  int64_t frame_id_ = 0;
  /// Indexed by output row; sized at FrameBegin.
  std::vector<RowSlab> slabs_;
  /// Slabs holding cells.
  int64_t open_slabs_ = 0;
  /// Zeroed cell storage of completed rows, handed to the next row
  /// that opens within the frame: never more than the peak number of
  /// open slabs. Buffered bytes are the open slabs' and these cells.
  std::vector<std::vector<CellAccum>> spare_cells_;
};

/// 2x3 affine matrix mapping output lattice cell indices to input
/// lattice cell indices: (ic, ir) = M * (oc, or, 1).
struct AffineMap {
  double m00 = 1.0, m01 = 0.0, m02 = 0.0;
  double m10 = 0.0, m11 = 1.0, m12 = 0.0;

  void Apply(double oc, double orow, double* ic, double* ir) const {
    *ic = m00 * oc + m01 * orow + m02;
    *ir = m10 * oc + m11 * orow + m12;
  }

  /// Rotation by `deg` about the centre of a w x h output lattice,
  /// sampling from an equally-sized input lattice.
  static AffineMap RotationAboutCenter(double deg, int64_t w, int64_t h);
};

/// A frame-buffered gather: buffers each (single-band) frame, then
/// samples every cell of the output lattice from it at FrameEnd. Only
/// the input's support window is buffered; samples outside it read
/// the fill, as they would from the whole frame.
class GatherOp : public UnaryOperator {
 public:
  void Reset() override;

 protected:
  /// `what` names the transform in the error a frameless batch gets.
  GatherOp(std::string name, ResampleKernel kernel, std::string what,
           GridLattice out_lattice = GridLattice());

  /// Called at FrameBegin with the source frame's lattice, before
  /// out_lattice_ is announced downstream.
  virtual Status BeginFrame(const GridLattice& in) {
    (void)in;
    return Status::OK();
  }
  /// Gathers the finished frame: GatherFrame with the op's cell map.
  virtual Status FlushFrame(const AssembledFrame& frame,
                            int64_t frame_id) = 0;

  /// Emits the gather of `frame` onto out_lattice_: output cell (c, r)
  /// samples the frame at the fractional source cell `map(c, r, &fc,
  /// &fr)` names (false: none). A cell outside the frame or whose
  /// nearest source cell was never filled is skipped, so no value is
  /// fabricated. Cells are emitted row-major, in one batch.
  template <typename CellMap>
  Status GatherFrame(const AssembledFrame& frame, int64_t frame_id,
                     CellMap&& map) {
    auto out = std::make_shared<PointBatch>();
    out->frame_id = frame_id;
    out->band_count = 1;
    out->Reserve(static_cast<size_t>(out_lattice_.num_cells()));
    const int64_t width = frame.width();
    const int64_t height = frame.height();
    for (int64_t r = 0; r < out_lattice_.height(); ++r) {
      for (int64_t c = 0; c < out_lattice_.width(); ++c) {
        double fc = 0.0, fr = 0.0;
        if (!map(c, r, &fc, &fr)) continue;
        if (fc < -0.5 || fc > width - 0.5 || fr < -0.5 || fr > height - 0.5) {
          continue;
        }
        const int64_t nc = static_cast<int64_t>(
            std::llround(Clamp(fc, 0.0, static_cast<double>(width - 1))));
        const int64_t nr = static_cast<int64_t>(
            std::llround(Clamp(fr, 0.0, static_cast<double>(height - 1))));
        if (!frame.IsFilled(nc, nr)) continue;
        out->Append1(static_cast<int32_t>(c), static_cast<int32_t>(r),
                     frame_timestamp_,
                     SampleRaster(frame, fc, fr, 0, kernel_));
      }
    }
    if (out->empty()) return Status::OK();
    return Emit(StreamEvent::Batch(std::move(out)));
  }

  Status Process(const StreamEvent& event) override;

  GridLattice out_lattice_;

 private:
  ResampleKernel kernel_;
  std::string what_;
  FrameAssembler assembler_;
  int64_t frame_timestamp_ = 0;
};

/// General affine spatial transform; frame-buffered.
class AffineOp : public GatherOp {
 public:
  /// Output lattice geometry is supplied by the planner (it generally
  /// differs from the input's).
  AffineOp(std::string name, AffineMap map, GridLattice out_lattice,
           ResampleKernel kernel);

 protected:
  Status FlushFrame(const AssembledFrame& frame, int64_t frame_id) override;

 private:
  AffineMap map_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_OPS_SPATIAL_TRANSFORM_OP_H_
