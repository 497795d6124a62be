#include "raster/frame_assembler.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace geostreams {

namespace {

/// Copies `window`-shaped rows of `src` (row stride `window.width`
/// cells of `bands` elements) into a frame-wide `dst` whose rows are
/// `frame_width` cells wide.
template <typename T>
void CopyWindowRows(const T* src, const CellRect& window, int64_t frame_width,
                    size_t bands, T* dst) {
  const size_t row_elems = static_cast<size_t>(window.width) * bands;
  for (int64_t r = 0; r < window.height; ++r) {
    const size_t cell = static_cast<size_t>(window.row0 + r) *
                            static_cast<size_t>(frame_width) +
                        static_cast<size_t>(window.col0);
    std::copy_n(src + static_cast<size_t>(r) * row_elems, row_elems,
                dst + cell * bands);
  }
}

/// The whole frame's samples: `fill` everywhere, the window copied in.
Raster WholeRaster(const AssembledFrame& frame) {
  Raster whole(frame.width(), frame.height(), frame.bands(), frame.fill);
  whole.set_lattice(frame.lattice);
  CopyWindowRows(frame.raster.data().data(), frame.window, frame.width(),
                 static_cast<size_t>(frame.bands()),
                 whole.mutable_data().data());
  return whole;
}

}  // namespace

const Raster& AssembledFrame::Expanded() const {
  if (!windowed()) return raster;
  if (expanded_.empty()) expanded_ = WholeRaster(*this);
  return expanded_;
}

void AssembledFrame::Expand() {
  if (!windowed()) return;
  std::vector<uint8_t> mask(static_cast<size_t>(lattice.num_cells()), 0);
  CopyWindowRows(filled.data(), window, width(), 1, mask.data());
  raster = expanded_.empty() ? WholeRaster(*this) : std::move(expanded_);
  expanded_ = Raster();
  filled = std::move(mask);
  window = lattice.Cells();
}

Status FrameAssembler::Begin(const FrameInfo& info, int band_count) {
  if (active_) {
    return Status::FailedPrecondition(
        StringPrintf("frame %lld still open",
                     static_cast<long long>(frame_id_)));
  }
  GEOSTREAMS_RETURN_IF_ERROR(info.lattice.Validate());
  // Validated now, allocated at the first point: an open frame that
  // no point has reached yet holds no buffer.
  GEOSTREAMS_RETURN_IF_ERROR(Raster::ValidateShape(
      info.lattice.width(), info.lattice.height(), band_count));
  lattice_ = info.lattice;
  window_ = info.SupportCells();
  bands_ = band_count;
  frame_id_ = info.frame_id;
  points_seen_ = 0;
  active_ = true;
  allocated_ = false;
  return Status::OK();
}

void FrameAssembler::Allocate() {
  raster_ = Raster(window_.width, window_.height, bands_, nodata_);
  if (window_ == lattice_.Cells()) raster_.set_lattice(lattice_);
  filled_.assign(static_cast<size_t>(window_.num_cells()), 0);
  allocated_ = true;
}

void FrameAssembler::Widen() {
  AssembledFrame partial;
  partial.raster = std::move(raster_);
  partial.filled = std::move(filled_);
  partial.window = window_;
  partial.lattice = lattice_;
  partial.fill = nodata_;
  partial.Expand();
  raster_ = std::move(partial.raster);
  filled_ = std::move(partial.filled);
  window_ = lattice_.Cells();
  ++widenings_;
}

Status FrameAssembler::Add(const PointBatch& batch) {
  if (!active_) {
    return Status::FailedPrecondition("no open frame");
  }
  if (batch.frame_id != frame_id_) {
    return Status::InvalidArgument(
        StringPrintf("batch frame %lld does not match open frame %lld",
                     static_cast<long long>(batch.frame_id),
                     static_cast<long long>(frame_id_)));
  }
  if (batch.band_count != bands_) {
    return Status::InvalidArgument(
        StringPrintf("batch bands %d != raster bands %d", batch.band_count,
                     bands_));
  }
  if (batch.empty()) return Status::OK();
  if (!allocated_) Allocate();
  const size_t bands = static_cast<size_t>(bands_);
  for (size_t i = 0; i < batch.size(); ++i) {
    const int64_t c = batch.cols[i];
    const int64_t r = batch.rows[i];
    if (!window_.Contains(c, r)) {
      if (!lattice_.ContainsCell(c, r)) {
        return Status::OutOfRange(
            StringPrintf("point (%lld, %lld) outside frame lattice",
                         static_cast<long long>(c),
                         static_cast<long long>(r)));
      }
      Widen();
    }
    const size_t cell = static_cast<size_t>(r - window_.row0) *
                            static_cast<size_t>(window_.width) +
                        static_cast<size_t>(c - window_.col0);
    double* out = raster_.mutable_data().data() + cell * bands;
    for (size_t b = 0; b < bands; ++b) out[b] = batch.ValueAt(i, b);
    filled_[cell] = 1;
  }
  points_seen_ += static_cast<int64_t>(batch.size());
  return Status::OK();
}

Result<AssembledFrame> FrameAssembler::Finish() {
  if (!active_) {
    return Status::FailedPrecondition("no open frame");
  }
  // A frame no point reached delivers all-nodata.
  if (!allocated_) Allocate();
  active_ = false;
  allocated_ = false;
  AssembledFrame frame;
  frame.raster = std::exchange(raster_, Raster());
  frame.filled = std::move(filled_);
  frame.window = window_;
  frame.lattice = lattice_;
  frame.fill = nodata_;
  return frame;
}

}  // namespace geostreams
