#include "ops/spatial_transform_op.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/string_util.h"

namespace geostreams {

// ---------------------------------------------------------------------------
// MagnifyOp

MagnifyOp::MagnifyOp(std::string name, int factor)
    : UnaryOperator(std::move(name)), factor_(factor) {}

Status MagnifyOp::Process(const StreamEvent& event) {
  switch (event.kind) {
    case EventKind::kFrameBegin: {
      out_lattice_ = event.frame.lattice.Magnified(factor_);
      FrameInfo info = event.frame;
      info.lattice = out_lattice_;
      info.support.reset();  // the support addressed the input lattice
      info.expected_points =
          event.frame.expected_points * factor_ * factor_;
      return Emit(StreamEvent::FrameBegin(std::move(info)));
    }
    case EventKind::kFrameEnd: {
      FrameInfo info = event.frame;
      info.lattice = out_lattice_;
      return Emit(StreamEvent::FrameEnd(std::move(info)));
    }
    case EventKind::kStreamEnd:
      return Emit(event);
    case EventKind::kPointBatch:
      break;
  }
  const PointBatch& in = *event.batch;
  auto out = std::make_shared<PointBatch>();
  out->frame_id = in.frame_id;
  out->band_count = in.band_count;
  const auto k = static_cast<size_t>(factor_);
  out->Reserve(in.size() * k * k);
  for (size_t i = 0; i < in.size(); ++i) {
    const int32_t c0 = in.cols[i] * factor_;
    const int32_t r0 = in.rows[i] * factor_;
    const double* vals = &in.values[i * static_cast<size_t>(in.band_count)];
    for (int dr = 0; dr < factor_; ++dr) {
      for (int dc = 0; dc < factor_; ++dc) {
        out->Append(c0 + dc, r0 + dr, in.timestamps[i], vals);
      }
    }
  }
  return Emit(StreamEvent::Batch(std::move(out)));
}

// ---------------------------------------------------------------------------
// ReduceOp

ReduceOp::ReduceOp(std::string name, int factor)
    : UnaryOperator(std::move(name)), factor_(factor) {}

void ReduceOp::Reset() {
  ClearSlabs();
  in_frame_ = false;
}

void ReduceOp::ClearSlabs() {
  slabs_.clear();
  spare_cells_.clear();
  open_slabs_ = 0;
  ReportBuffered(0);
}

int32_t ReduceOp::ExpectedContributions(int64_t ocol, int64_t orow) const {
  // Edge cells cover fewer input cells when the extent is not a
  // multiple of the factor.
  const int64_t c0 = ocol * factor_;
  const int64_t r0 = orow * factor_;
  const int64_t cw = std::min<int64_t>(factor_, in_lattice_.width() - c0);
  const int64_t rh = std::min<int64_t>(factor_, in_lattice_.height() - r0);
  return static_cast<int32_t>(cw * rh);
}

Status ReduceOp::Process(const StreamEvent& event) {
  switch (event.kind) {
    case EventKind::kFrameBegin: {
      in_lattice_ = event.frame.lattice;
      out_lattice_ = in_lattice_.Reduced(factor_);
      in_frame_ = true;
      frame_id_ = event.frame.frame_id;
      ClearSlabs();
      slabs_.resize(static_cast<size_t>(out_lattice_.height()));
      FrameInfo info = event.frame;
      info.lattice = out_lattice_;
      info.support.reset();  // the support addressed the input lattice
      info.expected_points = out_lattice_.num_cells();
      return Emit(StreamEvent::FrameBegin(std::move(info)));
    }
    case EventKind::kFrameEnd: {
      GEOSTREAMS_RETURN_IF_ERROR(FlushAll());
      in_frame_ = false;
      FrameInfo info = event.frame;
      info.lattice = out_lattice_;
      return Emit(StreamEvent::FrameEnd(std::move(info)));
    }
    case EventKind::kStreamEnd:
      if (in_frame_) {
        GEOSTREAMS_RETURN_IF_ERROR(FlushAll());
        in_frame_ = false;
      }
      return Emit(event);
    case EventKind::kPointBatch:
      break;
  }
  if (!in_frame_) {
    return Status::FailedPrecondition(
        "resolution decrease requires framed input (scan-sector "
        "metadata bounds the neighbourhood buffers)");
  }
  const PointBatch& in = *event.batch;
  if (in.band_count != 1) {
    return Status::InvalidArgument("ReduceOp supports single-band streams");
  }
  const int64_t in_width = in_lattice_.width();
  const int64_t in_height = in_lattice_.height();
  const size_t out_width = static_cast<size_t>(out_lattice_.width());
  const size_t n = in.size();
  const int32_t* cols = in.cols.data();
  const int32_t* rows = in.rows.data();
  const double* values = in.values.data();
  auto out = std::make_shared<PointBatch>();
  out->frame_id = frame_id_;
  out->band_count = 1;
  // The input row the last run fell in, its output row and that row's
  // slab: consecutive runs of a row skip the division and the lookup.
  int64_t last_row = -1;
  int64_t orow = 0;
  RowSlab* slab = nullptr;
  // One step per run: the points from i on that stay in row `row` and
  // in the output cell of cols[i] (re-sent points included), up to
  // the cell's last missing contribution. The run adds into a register
  // that starts from the cell's sum, in arrival order, so the sums are
  // the per-point sums bit for bit.
  for (size_t i = 0; i < n;) {
    const int64_t col = cols[i];
    const int64_t row = rows[i];
    if (col < 0 || col >= in_width || row < 0 || row >= in_height) {
      return Status::OutOfRange(StringPrintf(
          "point (%lld, %lld) outside frame lattice",
          static_cast<long long>(col), static_cast<long long>(row)));
    }
    if (row != last_row) {
      last_row = row;
      orow = row / factor_;
      slab = &slabs_[static_cast<size_t>(orow)];
    }
    if (slab->cells.empty()) {
      if (spare_cells_.empty()) {
        slab->cells.resize(out_width);
      } else {
        slab->cells.swap(spare_cells_.back());
        spare_cells_.pop_back();
      }
      ++open_slabs_;
    }
    const int64_t oc = col / factor_;
    CellAccum& cell = slab->cells[static_cast<size_t>(oc)];
    if (cell.count == 0) {
      cell.expected = ExpectedContributions(oc, orow);
      cell.timestamp = in.timestamps[i];
      ++slab->open;
    }
    // Columns [cell_begin, cell_begin + span) of this row belong to
    // the cell, and all lie inside the lattice.
    const int64_t cell_begin = oc * factor_;
    const auto span = static_cast<uint64_t>(
        std::min<int64_t>(factor_, in_width - cell_begin));
    const auto missing = static_cast<size_t>(cell.expected - cell.count);
    const size_t run_end = i + std::min(n - i, missing);
    double sum = cell.sum;
    size_t j = i;
    do {
      sum += values[j];
      ++j;
    } while (j < run_end && rows[j] == row &&
             static_cast<uint64_t>(cols[j] - cell_begin) < span);
    cell.sum = sum;
    cell.count += static_cast<int32_t>(j - i);
    i = j;
    if (cell.count >= cell.expected) {
      out->Append1(static_cast<int32_t>(oc), static_cast<int32_t>(orow),
                   cell.timestamp, cell.sum / cell.count);
      cell = CellAccum{};
      if (--slab->open == 0) {
        // Every cell of the row is back to CellAccum{}: keep the
        // storage for the next row instead of re-allocating it.
        spare_cells_.emplace_back().swap(slab->cells);
        --open_slabs_;
      }
    }
  }
  const uint64_t held_rows =
      static_cast<uint64_t>(open_slabs_) + spare_cells_.size();
  ReportBuffered(held_rows * out_width * sizeof(CellAccum));
  if (out->empty()) return Status::OK();
  return Emit(StreamEvent::Batch(std::move(out)));
}

Status ReduceOp::FlushAll() {
  // Boundary cells whose neighbourhood never completed (points lost or
  // sector cut short): emit the average of what arrived, row-major.
  auto out = std::make_shared<PointBatch>();
  out->frame_id = frame_id_;
  out->band_count = 1;
  for (size_t orow = 0; orow < slabs_.size(); ++orow) {
    const std::vector<CellAccum>& cells = slabs_[orow].cells;
    for (size_t oc = 0; oc < cells.size(); ++oc) {
      const CellAccum& cell = cells[oc];
      if (cell.count == 0) continue;
      out->Append1(static_cast<int32_t>(oc), static_cast<int32_t>(orow),
                   cell.timestamp, cell.sum / cell.count);
    }
  }
  ClearSlabs();
  if (out->empty()) return Status::OK();
  return Emit(StreamEvent::Batch(std::move(out)));
}

// ---------------------------------------------------------------------------
// AffineOp

AffineMap AffineMap::RotationAboutCenter(double deg, int64_t w, int64_t h) {
  const double rad = DegreesToRadians(deg);
  const double c = std::cos(rad);
  const double s = std::sin(rad);
  const double cx = (static_cast<double>(w) - 1.0) / 2.0;
  const double cy = (static_cast<double>(h) - 1.0) / 2.0;
  // Inverse rotation (output gathers from input).
  AffineMap m;
  m.m00 = c;
  m.m01 = s;
  m.m02 = cx - c * cx - s * cy;
  m.m10 = -s;
  m.m11 = c;
  m.m12 = cy + s * cx - c * cy;
  return m;
}

GatherOp::GatherOp(std::string name, ResampleKernel kernel, std::string what,
                   GridLattice out_lattice)
    : UnaryOperator(std::move(name)),
      out_lattice_(std::move(out_lattice)),
      kernel_(kernel),
      what_(std::move(what)) {}

void GatherOp::Reset() {
  assembler_.Abort();
  ReportBuffered(0);
}

Status GatherOp::Process(const StreamEvent& event) {
  switch (event.kind) {
    case EventKind::kFrameBegin: {
      GEOSTREAMS_RETURN_IF_ERROR(BeginFrame(event.frame.lattice));
      GEOSTREAMS_RETURN_IF_ERROR(assembler_.Begin(event.frame, 1));
      frame_timestamp_ = event.frame.frame_id;
      FrameInfo info = event.frame;
      info.lattice = out_lattice_;
      info.support.reset();  // the support addressed the input lattice
      info.expected_points = out_lattice_.num_cells();
      return Emit(StreamEvent::FrameBegin(std::move(info)));
    }
    case EventKind::kPointBatch: {
      if (!assembler_.active()) {
        return Status::FailedPrecondition(what_ + " requires framed input");
      }
      GEOSTREAMS_RETURN_IF_ERROR(assembler_.Add(*event.batch));
      mutable_metrics().frames_widened = assembler_.widenings();
      if (!event.batch->empty()) {
        frame_timestamp_ = event.batch->timestamps.front();
      }
      ReportBuffered(assembler_.BufferedBytes());
      return Status::OK();
    }
    case EventKind::kFrameEnd: {
      GEOSTREAMS_ASSIGN_OR_RETURN(AssembledFrame frame, assembler_.Finish());
      ReportBuffered(0);
      GEOSTREAMS_RETURN_IF_ERROR(FlushFrame(frame, event.frame.frame_id));
      FrameInfo info = event.frame;
      info.lattice = out_lattice_;
      return Emit(StreamEvent::FrameEnd(std::move(info)));
    }
    case EventKind::kStreamEnd:
      return Emit(event);
  }
  return Status::OK();
}

AffineOp::AffineOp(std::string name, AffineMap map, GridLattice out_lattice,
                   ResampleKernel kernel)
    : GatherOp(std::move(name), kernel, "affine transform",
               std::move(out_lattice)),
      map_(map) {}

Status AffineOp::FlushFrame(const AssembledFrame& frame, int64_t frame_id) {
  return GatherFrame(frame, frame_id,
                     [&](int64_t c, int64_t r, double* fc, double* fr) {
                       map_.Apply(static_cast<double>(c),
                                  static_cast<double>(r), fc, fr);
                       return true;
                     });
}

}  // namespace geostreams
