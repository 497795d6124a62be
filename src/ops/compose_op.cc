#include "ops/compose_op.h"

#include <algorithm>
#include <limits>

#include "common/math_util.h"
#include "common/string_util.h"
#include "kernels/kernels.h"

namespace geostreams {

BinaryValueFn BinaryValueFn::FromComposeFn(ComposeFn gamma, int bands) {
  BinaryValueFn f;
  f.name = ComposeFnName(gamma);
  f.out_bands = bands;
  f.is_gamma = true;
  f.gamma = gamma;
  f.fn = [gamma, bands](const double* a, const double* b, double* out) {
    for (int i = 0; i < bands; ++i) out[i] = ApplyComposeFn(gamma, a[i], b[i]);
  };
  return f;
}

BinaryValueFn BinaryValueFn::Ndvi() {
  BinaryValueFn f;
  f.name = "ndvi";
  f.out_bands = 1;
  f.fn = [](const double* a, const double* b, double* out) {
    const double sum = a[0] + b[0];
    out[0] = sum == 0.0 ? 0.0 : (a[0] - b[0]) / sum;
  };
  return f;
}

BinaryValueFn BinaryValueFn::Stack(int left_bands, int right_bands) {
  BinaryValueFn f;
  f.name = StringPrintf("stack(%d+%d)", left_bands, right_bands);
  f.out_bands = left_bands + right_bands;
  f.left_bands = left_bands;
  f.right_bands = right_bands;
  f.fn = [left_bands, right_bands](const double* a, const double* b,
                                   double* out) {
    for (int i = 0; i < left_bands; ++i) out[i] = a[i];
    for (int i = 0; i < right_bands; ++i) out[left_bands + i] = b[i];
  };
  return f;
}

size_t ComposeOp::PKeyHash::operator()(const PKey& k) const {
  uint64_t h = static_cast<uint64_t>(k.t);
  h = Mix64(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(k.col)) << 32 |
                 static_cast<uint32_t>(k.row)));
  return static_cast<size_t>(h);
}

ComposeOp::ComposeOp(std::string name, BinaryValueFn fn)
    : BinaryOperator(std::move(name)), fn_(std::move(fn)) {}

ComposeOp::ComposeOp(std::string name, ComposeFn gamma, int bands)
    : BinaryOperator(std::move(name)),
      fn_(BinaryValueFn::FromComposeFn(gamma, bands)) {}

Status ComposeOp::Process(int port, const StreamEvent& event) {
  switch (event.kind) {
    case EventKind::kFrameBegin:
      return HandleFrameBegin(port, event.frame);
    case EventKind::kFrameEnd:
      return HandleFrameEnd(port, event.frame);
    case EventKind::kPointBatch:
      return HandleBatch(port, *event.batch);
    case EventKind::kStreamEnd:
      return HandleStreamEnd();
  }
  return Status::OK();
}

Status ComposeOp::HandleFrameBegin(int port, const FrameInfo& info) {
  FrameState& fs = frames_[info.frame_id];
  if (fs.began[port]) {
    return Status::FailedPrecondition(
        StringPrintf("frame %lld began twice on port %d",
                     static_cast<long long>(info.frame_id), port));
  }
  fs.began[port] = true;
  last_began_[port] = info.frame_id;
  const int other = 1 - port;
  if (fs.began[other]) {
    // Precondition of Definition 10: both streams over the same point
    // lattice (same CRS, same resolution, aligned origins).
    if (!fs.info.lattice.AlignedWith(info.lattice)) {
      return Status::LatticeMismatch(StringPrintf(
          "composition inputs disagree on frame %lld lattice: %s vs %s",
          static_cast<long long>(info.frame_id),
          fs.info.lattice.ToString().c_str(),
          info.lattice.ToString().c_str()));
    }
  } else {
    fs.info = info;
  }
  return AdvanceOutput();
}

Status ComposeOp::HandleFrameEnd(int port, const FrameInfo& info) {
  auto it = frames_.find(info.frame_id);
  if (it == frames_.end() || !it->second.began[port]) {
    return Status::FailedPrecondition(
        StringPrintf("frame %lld ended on port %d without beginning",
                     static_cast<long long>(info.frame_id), port));
  }
  it->second.ended[port] = true;
  return AdvanceOutput();
}

Status ComposeOp::HandleBatch(int port, const PointBatch& batch) {
  // Resolve this port's band count: pinned by the function (stack) or
  // inferred and required to match the other port.
  const int expected = port == 0 ? fn_.left_bands : fn_.right_bands;
  if (expected > 0 && batch.band_count != expected) {
    return Status::InvalidArgument(StringPrintf(
        "composition port %d expects %d bands, stream has %d", port,
        expected, batch.band_count));
  }
  if (in_bands_[port] == 0) {
    in_bands_[port] = batch.band_count;
    const int other = in_bands_[1 - port];
    if (expected == 0 && other != 0 && other != batch.band_count) {
      return Status::InvalidArgument(StringPrintf(
          "composition inputs have different band counts: %d vs %d", other,
          batch.band_count));
    }
  } else if (batch.band_count != in_bands_[port]) {
    return Status::InvalidArgument(StringPrintf(
        "composition port %d band count changed: %d vs %d", port,
        in_bands_[port], batch.band_count));
  }
  auto it = frames_.find(batch.frame_id);
  if (it == frames_.end()) {
    return Status::FailedPrecondition(
        StringPrintf("batch for unknown frame %lld",
                     static_cast<long long>(batch.frame_id)));
  }
  FrameState& fs = it->second;
  const int other = 1 - port;

  std::shared_ptr<PointBatch> out;
  const bool frame_open =
      open_frame_.has_value() && *open_frame_ == batch.frame_id;
  // Gamma fast path: gather matched pairs into contiguous columns and
  // apply the arithmetic with one kernel pass after the join loop.
  // The per-point std::function stays for macro products (NDVI,
  // stack) and for band configurations the staging does not cover.
  const size_t bands = static_cast<size_t>(in_bands_[port]);
  const bool stage = fn_.is_gamma && in_bands_[port] == fn_.out_bands;
  if (stage) {
    stage_keys_.clear();
    stage_a_.clear();
    stage_b_.clear();
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    PKey key{batch.timestamps[i], batch.cols[i], batch.rows[i]};
    auto match = pending_[other].find(key);
    if (match == pending_[other].end()) {
      PendingValue pv;
      for (int b = 0; b < in_bands_[port]; ++b) {
        pv.v[static_cast<size_t>(b)] = batch.ValueAt(i, b);
      }
      pending_[port].emplace(key, pv);
      fs.keys[port].push_back(key);
      continue;
    }
    // Matched: left operand is stream 0's value.
    const double* incoming = &batch.values[i * bands];
    const double* matched = match->second.v.data();
    const double* left = port == 0 ? incoming : matched;
    const double* right = port == 0 ? matched : incoming;
    if (stage) {
      stage_keys_.push_back(key);
      stage_a_.insert(stage_a_.end(), left, left + bands);
      stage_b_.insert(stage_b_.end(), right, right + bands);
    } else {
      PendingValue result;
      fn_.fn(left, right, result.v.data());
      if (frame_open) {
        if (!out) {
          out = std::make_shared<PointBatch>();
          out->frame_id = batch.frame_id;
          out->band_count = fn_.out_bands;
        }
        out->Append(key.col, key.row, key.t, result.v.data());
      } else {
        fs.held.emplace_back(key, result);
      }
    }
    pending_[other].erase(match);
    ++matches_;
  }

  if (stage && !stage_keys_.empty()) {
    stage_out_.resize(stage_a_.size());
    kernels::ComposeArith(fn_.gamma, stage_a_.data(), stage_b_.data(),
                          stage_a_.size(), stage_out_.data());
    if (frame_open) {
      out = std::make_shared<PointBatch>();
      out->frame_id = batch.frame_id;
      out->band_count = fn_.out_bands;
      out->Reserve(stage_keys_.size());
      for (size_t k = 0; k < stage_keys_.size(); ++k) {
        const PKey& key = stage_keys_[k];
        out->Append(key.col, key.row, key.t, &stage_out_[k * bands]);
      }
    } else {
      for (size_t k = 0; k < stage_keys_.size(); ++k) {
        PendingValue result;
        for (size_t b = 0; b < bands; ++b) {
          result.v[b] = stage_out_[k * bands + b];
        }
        fs.held.emplace_back(stage_keys_[k], result);
      }
    }
  }
  UpdateBuffered();
  if (out) return Emit(StreamEvent::Batch(std::move(out)));
  return Status::OK();
}

Status ComposeOp::EmitHeld(FrameState* fs) {
  if (fs->held.empty()) return Status::OK();
  auto out = std::make_shared<PointBatch>();
  out->frame_id = fs->info.frame_id;
  out->band_count = fn_.out_bands;
  out->Reserve(fs->held.size());
  for (const auto& [key, pv] : fs->held) {
    out->Append(key.col, key.row, key.t, pv.v.data());
  }
  fs->held.clear();
  return Emit(StreamEvent::Batch(std::move(out)));
}

Status ComposeOp::AdvanceOutput() {
  while (true) {
    if (open_frame_.has_value()) {
      auto it = frames_.find(*open_frame_);
      FrameState& fs = it->second;
      if (!(fs.ended[0] && fs.ended[1])) break;
      GEOSTREAMS_RETURN_IF_ERROR(EmitHeld(&fs));
      FrameInfo info = fs.info;
      // Evict unmatched points of the closed frame: they can never
      // match now (their counterpart frame is over).
      for (int p = 0; p < 2; ++p) {
        for (const PKey& key : fs.keys[p]) pending_[p].erase(key);
      }
      frames_.erase(it);
      open_frame_.reset();
      UpdateBuffered();
      GEOSTREAMS_RETURN_IF_ERROR(Emit(StreamEvent::FrameEnd(info)));
      continue;
    }
    // Open the next frame, in frame-id order; stop at the first frame
    // one side has not begun yet (per-stream frames arrive in order).
    if (frames_.empty()) break;
    FrameState& fs = frames_.begin()->second;
    const int missing = !fs.began[0] ? 0 : !fs.began[1] ? 1 : -1;
    if (missing >= 0 && fs.ended[1 - missing] &&
        last_began_[missing] > frames_.begin()->first) {
      // The missing side has moved past this frame (the inputs opened
      // on different frames): it can never match, so drop it.
      for (const PKey& key : fs.keys[1 - missing]) {
        pending_[1 - missing].erase(key);
      }
      frames_.erase(frames_.begin());
      UpdateBuffered();
      continue;
    }
    if (missing >= 0 || fs.begin_emitted) break;
    fs.begin_emitted = true;
    open_frame_ = fs.info.frame_id;
    GEOSTREAMS_RETURN_IF_ERROR(Emit(StreamEvent::FrameBegin(fs.info)));
    GEOSTREAMS_RETURN_IF_ERROR(EmitHeld(&fs));
  }
  return Status::OK();
}

Status ComposeOp::HandleStreamEnd() {
  if (++stream_ends_ < 2) return Status::OK();
  // Force-close everything in order: frames one side never finished
  // are flushed with whatever matched.
  for (auto& [id, fs] : frames_) {
    if (!fs.begin_emitted) {
      GEOSTREAMS_RETURN_IF_ERROR(Emit(StreamEvent::FrameBegin(fs.info)));
    }
    GEOSTREAMS_RETURN_IF_ERROR(EmitHeld(&fs));
    if (!fs.end_emitted) {
      GEOSTREAMS_RETURN_IF_ERROR(Emit(StreamEvent::FrameEnd(fs.info)));
    }
  }
  frames_.clear();
  pending_[0].clear();
  pending_[1].clear();
  open_frame_.reset();
  UpdateBuffered();
  return Emit(StreamEvent::StreamEnd());
}

void ComposeOp::Reset() {
  pending_[0].clear();
  pending_[1].clear();
  frames_.clear();
  open_frame_.reset();
  last_began_[0] = last_began_[1] = std::numeric_limits<int64_t>::min();
  stream_ends_ = 0;
  UpdateBuffered();
}

void ComposeOp::UpdateBuffered() {
  const int widest = std::max(std::max(in_bands_[0], in_bands_[1]), 1);
  const size_t entry_bytes =
      sizeof(PKey) + static_cast<size_t>(widest) * sizeof(double);
  size_t held = 0;
  for (const auto& [id, fs] : frames_) {
    held += fs.held.size() * (sizeof(PKey) + sizeof(PendingValue));
  }
  ReportBuffered(
      (pending_[0].size() + pending_[1].size()) * entry_bytes + held);
}

}  // namespace geostreams
