// The on-the-wire representation of a GeoStream (Definition 3).
//
// A stream G : X -> V arrives as a sequence of events: frame
// boundaries carrying scan-sector metadata (the lattice geometry of
// the sector being scanned, which Sec. 3.2 notes is what lets
// buffering operators bound their state), and batches of points.
// Points carry lattice cell addresses, a timestamp (measurement time
// or scan-sector identifier, Sec. 3.3), and band-interleaved values.

#ifndef GEOSTREAMS_CORE_STREAM_EVENT_H_
#define GEOSTREAMS_CORE_STREAM_EVENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/value.h"
#include "geo/lattice.h"

namespace geostreams {

class TraceContext;

/// Point-set organizations of Figure 1.
enum class PointOrganization : uint8_t {
  kImageByImage,  // airborne frame cameras: whole frames at a time
  kRowByRow,      // satellite scanners: one scan line at a time
  kPointByPoint,  // LIDAR-like: individual time-ordered points
};

const char* PointOrganizationName(PointOrganization org);

/// How point timestamps are assigned (Sec. 3.3): per-point measurement
/// time (under which compositions never match) or the scan-sector
/// identifier shared by all bands of one scan.
enum class TimestampPolicy : uint8_t {
  kMeasurementTime,
  kScanSectorId,
};

const char* TimestampPolicyName(TimestampPolicy policy);

/// Metadata describing one frame (scan sector): its id, the lattice
/// region being scanned, and where it sits in the stream.
struct FrameInfo {
  /// Scan-sector identifier; doubles as the frame's logical timestamp.
  int64_t frame_id = 0;
  /// Geometry of the sector being scanned. The operator implementations
  /// use this to bound their buffers (Sec. 3.2).
  GridLattice lattice;
  /// Number of points the sector will deliver (0 when unknown, e.g.
  /// point-by-point instruments).
  int64_t expected_points = 0;
  /// The lattice cells this frame's points can occupy. A spatial
  /// restriction G|R yields only the points in R (Sec. 3.1), so it
  /// sets the support to R's bounds snapped to the lattice, and frame
  /// buffers size themselves by it (Sec. 3.2). A hint only: the frame
  /// keeps its lattice, and a point outside the support is still a
  /// valid point. Unset means the whole lattice; operators that change
  /// the lattice reset it.
  std::optional<CellRect> support;

  /// The support, or every cell of the lattice when none is set.
  CellRect SupportCells() const {
    return support ? support->Intersection(lattice.Cells()) : lattice.Cells();
  }
  /// Narrows the support to the cells whose centres can lie in `bounds`.
  void RestrictSupport(const BoundingBox& bounds) {
    support = SupportCells().Intersection(lattice.CellsWithin(bounds));
  }

  std::string ToString() const;
};

/// A batch of points, structure-of-arrays. All vectors have equal
/// length; `values` holds band_count samples per point, interleaved.
/// Batches are immutable after construction and shared between
/// consumers without copying.
struct PointBatch {
  int64_t frame_id = 0;
  int band_count = 1;
  std::vector<int32_t> cols;
  std::vector<int32_t> rows;
  std::vector<int64_t> timestamps;
  std::vector<double> values;
  /// FNV-1a digest over the point data, attached by instruments that
  /// checksum their downlink. 0 means "no checksum attached";
  /// ComputeChecksum never returns 0.
  uint64_t checksum = 0;

  size_t size() const { return cols.size(); }
  bool empty() const { return cols.empty(); }

  /// Digest of frame_id, band_count and all point arrays. Deterministic
  /// across runs; never 0 (0 is reserved for "unset").
  uint64_t ComputeChecksum() const;

  /// True when no checksum is attached or the attached one matches.
  bool ChecksumValid() const {
    return checksum == 0 || checksum == ComputeChecksum();
  }

  /// Value of band b at point index i.
  double ValueAt(size_t i, int b = 0) const {
    return values[i * static_cast<size_t>(band_count) +
                  static_cast<size_t>(b)];
  }

  void Reserve(size_t n) {
    cols.reserve(n);
    rows.reserve(n);
    timestamps.reserve(n);
    values.reserve(n * static_cast<size_t>(band_count));
  }

  /// Appends one point. `vals` must contain band_count samples.
  void Append(int32_t col, int32_t row, int64_t t, const double* vals);
  void Append1(int32_t col, int32_t row, int64_t t, double v);
  /// Appends `n` points of one row, at columns col0 .. col0 + n - 1,
  /// all with timestamp `t`, and returns where their n * band_count
  /// band-interleaved samples go (the caller fills them).
  double* AppendRowRun(int32_t col0, int32_t row, int64_t t, size_t n);

  /// Approximate heap footprint in bytes (for memory accounting).
  size_t ApproxBytes() const;
};

using PointBatchPtr = std::shared_ptr<const PointBatch>;

enum class EventKind : uint8_t {
  kFrameBegin,
  kPointBatch,
  kFrameEnd,
  kStreamEnd,
};

const char* EventKindName(EventKind kind);

/// Frame-lifecycle wall-clock anchors (Unix epoch microseconds, 0 =
/// not stamped), set by the ingest plane as an event crosses each
/// boundary and copied onto a sampled trace at birth. Durations are
/// only ever computed between two anchors, never against the steady
/// clock.
struct StageAnchors {
  uint64_t capture_wall_us = 0;  // producer send (from the wire)
  uint64_t admit_wall_us = 0;    // ingest admission
  uint64_t durable_wall_us = 0;  // journal write acknowledged
};

/// One element of the event sequence making up a GeoStream.
struct StreamEvent {
  EventKind kind = EventKind::kStreamEnd;
  /// Valid for kFrameBegin / kFrameEnd.
  FrameInfo frame;
  /// Valid for kPointBatch.
  PointBatchPtr batch;
  /// End-to-end latency anchors stamped by the ingest plane (all
  /// zero for events born inside the engine).
  StageAnchors anchors;
  /// Sampled pipeline trace riding this event across async queue
  /// boundaries (null = untraced, the common case; copying a null
  /// shared_ptr is free). Within a synchronous operator chain the
  /// thread-local ActiveTrace() is authoritative instead, because
  /// operators emit freshly-built events. See src/obs/trace.h.
  std::shared_ptr<TraceContext> trace;

  static StreamEvent FrameBegin(FrameInfo info);
  static StreamEvent Batch(PointBatchPtr batch);
  static StreamEvent FrameEnd(FrameInfo info);
  static StreamEvent StreamEnd();

  std::string ToString() const;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_CORE_STREAM_EVENT_H_
