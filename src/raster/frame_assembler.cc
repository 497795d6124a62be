#include "raster/frame_assembler.h"

#include <utility>

#include "common/string_util.h"

namespace geostreams {

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
  bands_ = band_count;
  frame_id_ = info.frame_id;
  points_seen_ = 0;
  active_ = true;
  return Status::OK();
}

void FrameAssembler::Allocate() {
  raster_ = Raster(lattice_.width(), lattice_.height(), bands_, nodata_);
  raster_.set_lattice(lattice_);
  filled_.assign(static_cast<size_t>(raster_.num_pixels()), 0);
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
  if (raster_.empty()) Allocate();
  for (size_t i = 0; i < batch.size(); ++i) {
    const int64_t c = batch.cols[i];
    const int64_t r = batch.rows[i];
    if (!raster_.InBounds(c, r)) {
      return Status::OutOfRange(
          StringPrintf("point (%lld, %lld) outside frame lattice",
                       static_cast<long long>(c),
                       static_cast<long long>(r)));
    }
    for (int b = 0; b < batch.band_count; ++b) {
      raster_.Set(c, r, b, batch.ValueAt(i, b));
    }
    filled_[static_cast<size_t>(r) * static_cast<size_t>(raster_.width()) +
            static_cast<size_t>(c)] = 1;
  }
  points_seen_ += static_cast<int64_t>(batch.size());
  return Status::OK();
}

Result<AssembledFrame> FrameAssembler::Finish() {
  if (!active_) {
    return Status::FailedPrecondition("no open frame");
  }
  // A frame no point reached delivers all-nodata.
  if (raster_.empty()) Allocate();
  active_ = false;
  AssembledFrame frame;
  frame.raster = std::exchange(raster_, Raster());
  frame.filled = std::move(filled_);
  return frame;
}

}  // namespace geostreams
