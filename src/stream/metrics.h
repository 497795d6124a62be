// Per-operator runtime counters.
//
// The paper's cost discussion (Secs. 3.1-3.3) is about per-point cost
// and buffered state; these metrics make both observable so the bench
// harness can report them.

#ifndef GEOSTREAMS_STREAM_METRICS_H_
#define GEOSTREAMS_STREAM_METRICS_H_

#include <cstdint>
#include <string>

namespace geostreams {

/// Counters updated by an operator while processing. The counters are
/// plain integers, not atomics: an operator instance is driven by at
/// most one thread *at a time*. Under the QueryScheduler worker pool
/// this is the per-pipeline claim invariant — successive events of a
/// pipeline may run on different workers, but the scheduler's queue
/// mutex at claim/release orders those accesses, so updates made on
/// one worker are visible to the next. Aggregating metrics across
/// operators (which may be running on other workers) must happen at a
/// quiescent point — after Stop()/WaitIdle() — via MergeFrom.
struct OperatorMetrics {
  uint64_t events_in = 0;
  uint64_t points_in = 0;
  uint64_t points_out = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  /// Bytes of intermediate point data currently held.
  uint64_t buffered_bytes = 0;
  /// Largest value buffered_bytes ever took (the paper's space cost).
  uint64_t buffered_bytes_high_water = 0;
  /// After MergeFrom: the largest single contribution to
  /// buffered_bytes_high_water — the worst individual operator, as
  /// opposed to the summed upper bound. For an unmerged instance the
  /// two are equal.
  uint64_t buffered_bytes_high_water_max = 0;
  /// Frames a frame-buffering operator had to widen from its support
  /// window to the whole lattice because a point fell outside the
  /// support (raster/frame_assembler.h). 0 on a well-formed plan.
  uint64_t frames_widened = 0;

  /// Sets buffered_bytes and maintains the high-water mark.
  void SetBuffered(uint64_t bytes) {
    buffered_bytes = bytes;
    if (bytes > buffered_bytes_high_water) buffered_bytes_high_water = bytes;
    if (bytes > buffered_bytes_high_water_max) {
      buffered_bytes_high_water_max = bytes;
    }
  }

  /// Accumulates `other` into this struct. Counters add; the
  /// buffered-bytes high water becomes a *sum* of per-operator peaks —
  /// an upper bound, since the peaks need not coincide in time — while
  /// `buffered_bytes_high_water_max` keeps the true worst single
  /// peak, so aggregated stats can show both.
  void MergeFrom(const OperatorMetrics& other) {
    events_in += other.events_in;
    points_in += other.points_in;
    points_out += other.points_out;
    frames_in += other.frames_in;
    frames_out += other.frames_out;
    frames_widened += other.frames_widened;
    buffered_bytes += other.buffered_bytes;
    buffered_bytes_high_water += other.buffered_bytes_high_water;
    uint64_t other_max = other.buffered_bytes_high_water_max
                             ? other.buffered_bytes_high_water_max
                             : other.buffered_bytes_high_water;
    if (other_max > buffered_bytes_high_water_max) {
      buffered_bytes_high_water_max = other_max;
    }
  }

  void Reset() { *this = OperatorMetrics(); }

  std::string ToString() const;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STREAM_METRICS_H_
