#include "core/stream_event.h"

#include <numeric>

#include "common/string_util.h"

namespace geostreams {

const char* PointOrganizationName(PointOrganization org) {
  switch (org) {
    case PointOrganization::kImageByImage:
      return "image-by-image";
    case PointOrganization::kRowByRow:
      return "row-by-row";
    case PointOrganization::kPointByPoint:
      return "point-by-point";
  }
  return "?";
}

const char* TimestampPolicyName(TimestampPolicy policy) {
  switch (policy) {
    case TimestampPolicy::kMeasurementTime:
      return "measurement-time";
    case TimestampPolicy::kScanSectorId:
      return "scan-sector-id";
  }
  return "?";
}

std::string FrameInfo::ToString() const {
  return StringPrintf("frame %lld %s expected=%lld",
                      static_cast<long long>(frame_id),
                      lattice.ToString().c_str(),
                      static_cast<long long>(expected_points));
}

void PointBatch::Append(int32_t col, int32_t row, int64_t t,
                        const double* vals) {
  cols.push_back(col);
  rows.push_back(row);
  timestamps.push_back(t);
  values.insert(values.end(), vals, vals + band_count);
}

void PointBatch::Append1(int32_t col, int32_t row, int64_t t, double v) {
  cols.push_back(col);
  rows.push_back(row);
  timestamps.push_back(t);
  values.push_back(v);
}

double* PointBatch::AppendRowRun(int32_t col0, int32_t row, int64_t t,
                                 size_t n) {
  const size_t at = cols.size();
  cols.resize(at + n);
  std::iota(cols.begin() + static_cast<ptrdiff_t>(at), cols.end(), col0);
  rows.resize(at + n, row);
  timestamps.resize(at + n, t);
  const size_t stride = static_cast<size_t>(band_count);
  values.resize((at + n) * stride);
  return values.data() + at * stride;
}

uint64_t PointBatch::ComputeChecksum() const {
  // FNV-1a over the logical content (not vector capacities), so a
  // copied batch hashes identically and any flipped payload byte is
  // detected downstream.
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix = [&h](const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  mix(&frame_id, sizeof(frame_id));
  mix(&band_count, sizeof(band_count));
  mix(cols.data(), cols.size() * sizeof(int32_t));
  mix(rows.data(), rows.size() * sizeof(int32_t));
  mix(timestamps.data(), timestamps.size() * sizeof(int64_t));
  mix(values.data(), values.size() * sizeof(double));
  return h == 0 ? 1 : h;  // 0 is reserved for "unset"
}

size_t PointBatch::ApproxBytes() const {
  return cols.capacity() * sizeof(int32_t) +
         rows.capacity() * sizeof(int32_t) +
         timestamps.capacity() * sizeof(int64_t) +
         values.capacity() * sizeof(double);
}

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kFrameBegin:
      return "FrameBegin";
    case EventKind::kPointBatch:
      return "PointBatch";
    case EventKind::kFrameEnd:
      return "FrameEnd";
    case EventKind::kStreamEnd:
      return "StreamEnd";
  }
  return "?";
}

StreamEvent StreamEvent::FrameBegin(FrameInfo info) {
  StreamEvent e;
  e.kind = EventKind::kFrameBegin;
  e.frame = std::move(info);
  return e;
}

StreamEvent StreamEvent::Batch(PointBatchPtr batch) {
  StreamEvent e;
  e.kind = EventKind::kPointBatch;
  e.batch = std::move(batch);
  return e;
}

StreamEvent StreamEvent::FrameEnd(FrameInfo info) {
  StreamEvent e;
  e.kind = EventKind::kFrameEnd;
  e.frame = std::move(info);
  return e;
}

StreamEvent StreamEvent::StreamEnd() {
  StreamEvent e;
  e.kind = EventKind::kStreamEnd;
  return e;
}

std::string StreamEvent::ToString() const {
  switch (kind) {
    case EventKind::kFrameBegin:
      return std::string("FrameBegin{") + frame.ToString() + "}";
    case EventKind::kPointBatch:
      return StringPrintf("PointBatch{frame=%lld, n=%zu}",
                          batch ? static_cast<long long>(batch->frame_id) : -1,
                          batch ? batch->size() : 0);
    case EventKind::kFrameEnd:
      return StringPrintf("FrameEnd{frame=%lld}",
                          static_cast<long long>(frame.frame_id));
    case EventKind::kStreamEnd:
      return "StreamEnd{}";
  }
  return "?";
}

}  // namespace geostreams
