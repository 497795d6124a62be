#include "ops/delivery_op.h"

namespace geostreams {

DeliveryOp::DeliveryOp(std::string name, FrameCallback callback,
                       DeliveryOptions options)
    : UnaryOperator(std::move(name)),
      callback_(std::move(callback)),
      options_(options),
      assembler_(options.nodata) {}

void DeliveryOp::Reset() {
  assembler_.Abort();
  frame_pending_ = false;
  points_pending_ = 0;
  ReportBuffered(0);
}

Status DeliveryOp::Process(const StreamEvent& event) {
  switch (event.kind) {
    case EventKind::kFrameBegin:
      points_pending_ = 0;
      if (band_count_known_) {
        GEOSTREAMS_RETURN_IF_ERROR(assembler_.Begin(event.frame, band_count_));
        frame_pending_ = false;
      } else {
        // Defer Begin until the first batch reveals the band count.
        pending_frame_ = event.frame;
        frame_pending_ = true;
      }
      return Emit(event);
    case EventKind::kPointBatch: {
      if (frame_pending_) {
        band_count_ = event.batch->band_count;
        band_count_known_ = true;
        GEOSTREAMS_RETURN_IF_ERROR(
            assembler_.Begin(pending_frame_, band_count_));
        frame_pending_ = false;
      }
      if (!assembler_.active()) {
        return Status::FailedPrecondition("delivery requires framed input");
      }
      GEOSTREAMS_RETURN_IF_ERROR(assembler_.Add(*event.batch));
      points_pending_ += event.batch->size();
      mutable_metrics().frames_widened = assembler_.widenings();
      ReportBuffered(assembler_.BufferedBytes());
      return Emit(event);
    }
    case EventKind::kFrameEnd: {
      if (frame_pending_) {
        // Frame carried no points at all: deliver an all-nodata frame.
        band_count_known_ = true;
        GEOSTREAMS_RETURN_IF_ERROR(
            assembler_.Begin(pending_frame_, band_count_));
        frame_pending_ = false;
      }
      if (assembler_.active()) {
        GEOSTREAMS_ASSIGN_OR_RETURN(AssembledFrame frame,
                                    assembler_.Finish());
        ReportBuffered(0);
        std::vector<uint8_t> png;
        if (options_.encode_png) {
          GEOSTREAMS_ASSIGN_OR_RETURN(
              png,
              RasterToPng(frame.Expanded(), options_.png_lo,
                          options_.png_hi));
          bytes_encoded_ += png.size();
        }
        ++frames_delivered_;
        points_delivered_ += points_pending_;
        points_pending_ = 0;
        if (callback_) callback_(event.frame.frame_id, frame, png);
      }
      return Emit(event);
    }
    case EventKind::kStreamEnd:
      return Emit(event);
  }
  return Status::OK();
}

}  // namespace geostreams
