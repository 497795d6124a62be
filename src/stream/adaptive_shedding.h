// Adaptive load-shedding controller.
//
// "Adaptive query processing" is the first relational-DSMS technique
// the paper's introduction lists. For image streams the natural
// adaptation knob is the shedding rate: when the ingest queue backs
// up, trade product fidelity for liveness by lowering a LoadSheddingOp
// keep fraction; recover it when the backlog drains. The controller
// implements the classic AIMD scheme (multiplicative decrease on
// pressure, additive increase on slack) against an observed queue
// depth — the observation source is a callback, so it composes with
// QueryScheduler stats or anything else.

#ifndef GEOSTREAMS_STREAM_ADAPTIVE_SHEDDING_H_
#define GEOSTREAMS_STREAM_ADAPTIVE_SHEDDING_H_

#include <functional>
#include <vector>

#include "ops/shedding_op.h"

namespace geostreams {

struct AdaptiveSheddingOptions {
  /// Queue depth above which shedding increases.
  size_t high_watermark = 512;
  /// Queue depth below which shedding relaxes.
  size_t low_watermark = 64;
  /// Multiplicative decrease applied to keep when over the high mark.
  double decrease_factor = 0.5;
  /// Additive increase applied to keep when under the low mark.
  double increase_step = 0.05;
  /// Keep never drops below this floor (total blackout helps no one).
  double min_keep = 0.05;
};

/// Drives one or more shedding operators from a backlog observation.
/// Call Observe() periodically (e.g. once per scan line or from a
/// scheduler tick); the controller is not a thread of its own.
class AdaptiveShedController {
 public:
  AdaptiveShedController(std::function<size_t()> backlog_fn,
                         AdaptiveSheddingOptions options = {});

  /// Registers a shedding operator to control (not owned).
  void Control(LoadSheddingOp* op);

  /// Takes one observation and adjusts the registered operators.
  /// Returns the keep fraction now in force.
  double Observe();

  double current_keep() const { return keep_; }
  uint64_t decreases() const { return decreases_; }
  uint64_t increases() const { return increases_; }

 private:
  std::function<size_t()> backlog_fn_;
  AdaptiveSheddingOptions options_;
  std::vector<LoadSheddingOp*> ops_;
  double keep_ = 1.0;
  uint64_t decreases_ = 0;
  uint64_t increases_ = 0;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STREAM_ADAPTIVE_SHEDDING_H_
