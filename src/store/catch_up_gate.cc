#include "store/catch_up_gate.h"

#include <limits>

namespace geostreams {

bool CatchUpGate::Arm(int64_t watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  if (armed_) return true;
  if (store_ != nullptr && store_->Watermark(source_) != watermark) {
    return false;
  }
  watermark_ = watermark;
  armed_ = true;
  return true;
}

Status CatchUpGate::ReplaySeam(int64_t before) {
  if (store_ == nullptr || before <= watermark_ + 1) return Status::OK();
  StoreScan scan = scan_;
  scan.min_frame_id = watermark_ + 1;
  scan.max_frame_id =
      before == std::numeric_limits<int64_t>::max() ? before : before - 1;
  if (seam_frames_ != nullptr) {
    seam_frames_->Increment(
        store_->FrameIds(source_, scan.min_frame_id, scan.max_frame_id)
            .size());
  }
  return store_->Scan(source_, scan, downstream_);
}

Status CatchUpGate::Consume(const StreamEvent& event) {
  if (live_.load(std::memory_order_acquire)) {
    return downstream_->Consume(event);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (live_.load(std::memory_order_relaxed)) {
    return downstream_->Consume(event);
  }
  // Unarmed: the registering thread is still replaying, and every
  // frame this drops is in the store for it (or the seam) to read.
  if (!armed_) return Status::OK();
  switch (event.kind) {
    case EventKind::kFrameBegin:
      // Cut-over: any frame committed after the watermark but before
      // this one comes from the store, exactly once.
      GEOSTREAMS_RETURN_IF_ERROR(ReplaySeam(event.frame.frame_id));
      live_.store(true, std::memory_order_release);
      return downstream_->Consume(event);
    case EventKind::kStreamEnd:
      // The stream ends before another live frame: drain the seam to
      // the end of recorded history, then let the end through.
      GEOSTREAMS_RETURN_IF_ERROR(
          ReplaySeam(std::numeric_limits<int64_t>::max()));
      live_.store(true, std::memory_order_release);
      return downstream_->Consume(event);
    case EventKind::kPointBatch:
    case EventKind::kFrameEnd:
      // Interior of a frame whose Begin the gate never forwarded: the
      // replay already delivered it, or the seam replay delivers it
      // whole (if there is a store and its id is above the watermark).
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace geostreams
