#include "ops/restriction_ops.h"

#include "common/string_util.h"

namespace geostreams {

// ---------------------------------------------------------------------------
// SpatialRestrictionOp

SpatialRestrictionOp::SpatialRestrictionOp(std::string name, RegionPtr region)
    : UnaryOperator(std::move(name)),
      region_(region),
      matcher_(std::move(region)) {}

SpatialRestrictionOp::SpatialRestrictionOp(std::string name, RegionPtr region,
                                           GridLattice reference_lattice)
    : UnaryOperator(std::move(name)),
      region_(region),
      matcher_(std::move(region)),
      reference_lattice_(std::move(reference_lattice)),
      has_reference_lattice_(true) {
  frame_lattice_ = reference_lattice_;
  has_frame_geometry_ = true;
}

void SpatialRestrictionOp::Reset() {
  in_frame_ = false;
  frame_may_intersect_ = false;
  if (has_reference_lattice_) {
    frame_lattice_ = reference_lattice_;
    has_frame_geometry_ = true;
  } else {
    frame_lattice_ = GridLattice();
    has_frame_geometry_ = false;
  }
}

Status SpatialRestrictionOp::Process(const StreamEvent& event) {
  switch (event.kind) {
    case EventKind::kFrameBegin: {
      frame_lattice_ = event.frame.lattice;
      has_frame_geometry_ = true;
      in_frame_ = true;
      // Frame-level pruning: a frame whose extent misses the region's
      // bounding box cannot contribute any point.
      frame_may_intersect_ =
          region_->bounds().Intersects(frame_lattice_.Extent());
      // Downstream frame buffers hold only the cells R can reach.
      StreamEvent begin = event;
      begin.frame.RestrictSupport(region_->bounds());
      return Emit(begin);
    }
    case EventKind::kFrameEnd:
      in_frame_ = false;
      return Emit(event);
    case EventKind::kStreamEnd:
      return Emit(event);
    case EventKind::kPointBatch:
      break;
  }
  const PointBatch& batch = *event.batch;
  if (in_frame_ && !frame_may_intersect_) return Status::OK();
  if (!has_frame_geometry_) {
    // No FrameBegin has arrived and no reference lattice was supplied
    // (frameless organizations get one from the planner): evaluating
    // against a default-constructed lattice would silently collapse
    // every point onto (0, 0)-anchored unit cells.
    return Status::FailedPrecondition(
        "spatial restriction " + name() +
        ": point batch arrived before any frame lattice was known");
  }
  const size_t n = batch.size();
  xs_.resize(n);
  ys_.resize(n);
  keep_.resize(n);
  kernels::CellCoords(frame_lattice_, batch.cols.data(), batch.rows.data(), n,
                      xs_.data(), ys_.data());
  const size_t kept = matcher_.Mask(xs_.data(), ys_.data(), n, keep_.data());
  if (kept == n) return Emit(event);  // pass through unchanged
  PointBatchPtr filtered = kernels::FilterBatch(batch, keep_.data(), kept);
  if (!filtered) return Status::OK();
  return Emit(StreamEvent::Batch(std::move(filtered)));
}

// ---------------------------------------------------------------------------
// TemporalRestrictionOp

TemporalRestrictionOp::TemporalRestrictionOp(std::string name, TimeSet times)
    : UnaryOperator(std::move(name)), times_(std::move(times)) {}

Status TemporalRestrictionOp::Process(const StreamEvent& event) {
  if (event.kind != EventKind::kPointBatch) return Emit(event);
  const PointBatch& batch = *event.batch;
  const size_t n = batch.size();
  // Scan-sector fast path: one timestamp per batch -> one Contains()
  // decides pass-through or drop, no mask or copy.
  if (kernels::TimestampsAllEqual(batch.timestamps.data(), n)) {
    if (n == 0 || times_.Contains(batch.timestamps[0])) return Emit(event);
    return Status::OK();
  }
  keep_.resize(n);
  const size_t kept =
      kernels::TimeSetMask(times_, batch.timestamps.data(), n, keep_.data());
  if (kept == n) return Emit(event);
  PointBatchPtr filtered = kernels::FilterBatch(batch, keep_.data(), kept);
  if (!filtered) return Status::OK();
  return Emit(StreamEvent::Batch(std::move(filtered)));
}

// ---------------------------------------------------------------------------
// ValueRestrictionOp

ValueRestrictionOp::ValueRestrictionOp(std::string name,
                                       std::vector<ValueBandRange> ranges)
    : UnaryOperator(std::move(name)), ranges_(std::move(ranges)) {}

Status ValueRestrictionOp::Process(const StreamEvent& event) {
  if (event.kind != EventKind::kPointBatch) return Emit(event);
  const PointBatch& batch = *event.batch;
  for (const ValueBandRange& r : ranges_) {
    if (r.band < 0) {
      // Would index before the start of the values column; the
      // analyzer rejects this at plan time, this guards directly
      // constructed operators.
      return Status::InvalidArgument(
          StringPrintf("value restriction %s: negative band %d",
                       name().c_str(), r.band));
    }
    if (r.band >= batch.band_count) {
      // Conjunct over a band the stream does not carry: nothing can
      // satisfy it. Same drop-all outcome as the per-point code.
      return Status::OK();
    }
  }
  const size_t n = batch.size();
  const size_t stride = static_cast<size_t>(batch.band_count);
  keep_.assign(n, 1);
  size_t kept = n;
  for (const ValueBandRange& r : ranges_) {
    kept = kernels::ValueRangeMaskAnd(
        batch.values.data() + static_cast<size_t>(r.band), n, stride, r.lo,
        r.hi, keep_.data());
    if (kept == 0) break;
  }
  if (kept == n) return Emit(event);
  PointBatchPtr filtered = kernels::FilterBatch(batch, keep_.data(), kept);
  if (!filtered) return Status::OK();
  return Emit(StreamEvent::Batch(std::move(filtered)));
}

}  // namespace geostreams
