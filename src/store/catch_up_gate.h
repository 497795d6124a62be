// Frame-boundary gate in front of every plan input.
//
// Every query's inputs (live, SINCE or a derived view's) are wired to
// their sources at registration, each behind a CatchUpGate. The
// registering thread replays the TileStore into the inputs with no
// lock held, then arms each gate at the watermark W it replayed up
// to; a gate with nothing to replay (a live query's) is armed at once,
// under the server's state lock. The live side must then deliver
// every frame committed after W and no frame twice:
//
//   * Unarmed, the gate drops every event. Nothing is lost: the server
//     commits each frame to the store before it fans the frame out,
//     so the replay (or the seam below) reads back whatever was
//     dropped. A dropped StreamEnd is not replayed.
//   * Arm(W) succeeds only if the store's watermark is still W under
//     the gate's mutex, so no frame above W finished its fan-out
//     before arming; otherwise the caller replays the new frames and
//     retries.
//   * Armed, the gate drops the rest of a frame whose FrameBegin it
//     never saw. The first FrameBegin, whatever its id, replays the
//     open interval (W, frame_id) from the store — frames that
//     committed while the gate was dropping, a frame in flight at
//     registration among them — forwards the FrameBegin and goes
//     transparent for good (one acquire load on the hot path). A
//     FrameBegin at or below W + 1 replays nothing: with monotonic ids
//     none arrives at or below W, so such a frame is a producer that
//     restarted its numbering over a store that already holds those
//     ids, and the stored frames are an earlier run's. A StreamEnd
//     drains (W, +inf) first, so a stream that ends without another
//     frame still yields its full history.
//
// Without a store, Arm always succeeds and the seam replays nothing:
// the gate opens at the first FrameBegin or StreamEnd after arming
// and drops the in-flight frame whole. A gate over a point-by-point
// source is open from construction: it has no frame to tear.
//
// One ingest thread drives the gate (the fan-out contract); the mutex
// orders it against the arming thread.

#ifndef GEOSTREAMS_STORE_CATCH_UP_GATE_H_
#define GEOSTREAMS_STORE_CATCH_UP_GATE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"
#include "core/stream_event.h"
#include "obs/metrics_registry.h"
#include "store/tile_store.h"
#include "stream/operator.h"

namespace geostreams {

class CatchUpGate : public EventSink {
 public:
  /// `store` may be null. `scan` carries the input's region and time
  /// hints; its frame-id bounds are ignored. `seam_frames` (may be
  /// null) counts the frames the seam replay delivers. `framed` is
  /// false for a point-by-point source.
  CatchUpGate(EventSink* downstream, TileStore* store, std::string source,
              StoreScan scan, Counter* seam_frames, bool framed)
      : downstream_(downstream),
        store_(store),
        source_(std::move(source)),
        scan_(std::move(scan)),
        seam_frames_(seam_frames),
        live_(!framed) {}

  Status Consume(const StreamEvent& event) override;

  /// Arms the gate at `watermark` if the store's watermark for the
  /// source still equals it; false (the gate stays unarmed) when it
  /// moved. Always succeeds without a store, and on a gate that is
  /// already armed (keeping its first watermark). Never scans the
  /// store.
  bool Arm(int64_t watermark);

  /// The plan input behind the gate (the replay feeds it directly).
  EventSink* downstream() const { return downstream_; }
  const std::string& source() const { return source_; }
  const StoreScan& scan() const { return scan_; }

 private:
  /// Replays committed frames with ids in the OPEN interval
  /// (watermark_, before) into the downstream sink, ascending.
  Status ReplaySeam(int64_t before);

  EventSink* const downstream_;
  TileStore* const store_;
  const std::string source_;
  const StoreScan scan_;
  Counter* const seam_frames_;

  std::mutex mu_;
  bool armed_ = false;      // guarded by mu_
  int64_t watermark_ = 0;   // guarded by mu_; valid once armed_
  std::atomic<bool> live_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STORE_CATCH_UP_GATE_H_
