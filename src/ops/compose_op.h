// Stream composition G1 gamma G2 (Definition 10, Sec. 3.3).
//
// Combines two GeoStreams over the same point lattice by matching
// points on BOTH the spatial location and the timestamp. The operator
// is organization-agnostic: it buffers whatever points have no match
// yet, so its space cost emerges from the arrival order —
//  * row-by-row interleaved bands  -> about one scan line buffered;
//  * image-by-image sequential     -> a whole frame buffered;
// exactly the behaviour Sec. 3.3 derives (benchmark E4). Under
// measurement-time timestamps the two sides never match and the
// operator produces no output (E5); buffered points are evicted when
// their frame closes on both sides, so memory stays bounded. A frame
// only one side delivers is dropped once the other side has begun a
// later one, so inputs that opened on different frames still pair up.

#ifndef GEOSTREAMS_OPS_COMPOSE_OP_H_
#define GEOSTREAMS_OPS_COMPOSE_OP_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/value.h"
#include "stream/operator.h"

namespace geostreams {

/// Binary value function applied to matched point pairs. Defaults to
/// bandwise application of a ComposeFn; macro products (NDVI) plug in
/// their own formula.
struct BinaryValueFn {
  std::string name;
  int out_bands = 1;
  /// Expected band counts per input port; 0 means "any, but equal on
  /// both sides".
  int left_bands = 0;
  int right_bands = 0;
  /// Set by FromComposeFn: the function is plain bandwise gamma, so
  /// matched pairs can run through the column kernel
  /// (kernels::ComposeArith) instead of one std::function call each.
  bool is_gamma = false;
  ComposeFn gamma = ComposeFn::kAdd;
  std::function<void(const double* a, const double* b, double* out)> fn;

  static BinaryValueFn FromComposeFn(ComposeFn gamma, int bands);
  /// (a - b) / (a + b), 0 where a + b == 0 — the NDVI formula of
  /// Sec. 3.4 as a single fused operator ("macro operator", Sec. 4).
  static BinaryValueFn Ndvi();
  /// Concatenates the bands of both sides (left first): builds the
  /// colour (Z^3) and multi-spectral (Z^n) value sets of Sec. 2 from
  /// single-band instrument streams.
  static BinaryValueFn Stack(int left_bands, int right_bands);
};

class ComposeOp : public BinaryOperator {
 public:
  ComposeOp(std::string name, BinaryValueFn fn);
  ComposeOp(std::string name, ComposeFn gamma, int bands = 1);

  const BinaryValueFn& fn() const { return fn_; }

  /// Points matched and emitted so far.
  uint64_t matches() const { return matches_; }

  void Reset() override;

 protected:
  Status Process(int port, const StreamEvent& event) override;

 private:
  struct PKey {
    int64_t t;
    int32_t col;
    int32_t row;
    bool operator==(const PKey& o) const {
      return t == o.t && col == o.col && row == o.row;
    }
  };
  struct PKeyHash {
    size_t operator()(const PKey& k) const;
  };
  struct PendingValue {
    std::array<double, kMaxBands> v;
  };
  using PendingMap = std::unordered_map<PKey, PendingValue, PKeyHash>;

  struct FrameState {
    FrameInfo info;
    bool began[2] = {false, false};
    bool ended[2] = {false, false};
    bool begin_emitted = false;
    bool end_emitted = false;
    /// Matched points produced while another output frame was open.
    std::vector<std::pair<PKey, PendingValue>> held;
    /// Keys buffered per side, for eviction at frame close.
    std::vector<PKey> keys[2];
  };

  Status HandleFrameBegin(int port, const FrameInfo& info);
  Status HandleFrameEnd(int port, const FrameInfo& info);
  Status HandleBatch(int port, const PointBatch& batch);
  Status HandleStreamEnd();
  /// Emits any frames that can now open/close, in frame-id order.
  Status AdvanceOutput();
  Status EmitHeld(FrameState* fs);
  void UpdateBuffered();

  BinaryValueFn fn_;
  int in_bands_[2] = {0, 0};  // learned from the first batch per port
  // Staging columns for the gamma fast path: matched pairs are
  // gathered here in match order, combined with one ComposeArith
  // kernel pass, then appended to the output batch (or held list).
  // Reused across batches; the operator is single-threaded.
  std::vector<PKey> stage_keys_;
  std::vector<double> stage_a_, stage_b_, stage_out_;
  PendingMap pending_[2];
  std::map<int64_t, FrameState> frames_;
  std::optional<int64_t> open_frame_;
  /// Newest frame id each side has begun.
  int64_t last_began_[2] = {std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::min()};
  int stream_ends_ = 0;
  uint64_t matches_ = 0;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_OPS_COMPOSE_OP_H_
