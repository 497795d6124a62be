// Stream delivery operator (Sec. 4: "a specialized stream delivery
// operator that ships stream results back to clients using the PNG
// image format").
//
// Assembles each output frame and hands it to a client callback —
// optionally pre-encoded as PNG bytes. The operator also tracks
// delivery statistics (frames, points, encoded bytes) for the
// end-to-end benchmark.
//
// A restricted frame is assembled as its support window only (the
// region's bounds snapped to the lattice; raster/frame_assembler.h),
// so a region query buffers its region, not the sector. The callback
// receives that windowed AssembledFrame: the network plane encodes it
// as it is (net/wire_protocol.h), while a callback taking
// `const Raster&` receives the whole frame, expanded on demand. PNG
// encoding reads the expanded frame too. Either way the bytes equal
// those of a whole-frame assembly.

#ifndef GEOSTREAMS_OPS_DELIVERY_OP_H_
#define GEOSTREAMS_OPS_DELIVERY_OP_H_

#include <functional>

#include "raster/frame_assembler.h"
#include "raster/png_encoder.h"
#include "stream/operator.h"

namespace geostreams {

struct DeliveryOptions {
  /// Encode frames to PNG (costs CPU; off for raw raster delivery).
  bool encode_png = false;
  /// Linear mapping of values to [0, 255] for PNG ([lo, hi]; equal
  /// values mean per-frame min/max).
  double png_lo = 0.0;
  double png_hi = 0.0;
  /// Fill value for lattice cells no point arrived for.
  double nodata = 0.0;
};

/// Frame callback: the frame always present; png empty unless
/// encoding was requested. Callbacks declared over `const Raster&`
/// bind too, and receive AssembledFrame::Expanded().
using FrameCallback = std::function<void(int64_t frame_id,
                                         const AssembledFrame& frame,
                                         const std::vector<uint8_t>& png)>;

class DeliveryOp : public UnaryOperator {
 public:
  DeliveryOp(std::string name, FrameCallback callback,
             DeliveryOptions options = {});

  uint64_t frames_delivered() const { return frames_delivered_; }
  /// Points assembled into delivered frames (shed or aborted frames'
  /// points never count).
  uint64_t points_delivered() const { return points_delivered_; }
  uint64_t bytes_encoded() const { return bytes_encoded_; }

  void Reset() override;

 protected:
  Status Process(const StreamEvent& event) override;

 private:
  FrameCallback callback_;
  DeliveryOptions options_;
  FrameAssembler assembler_;
  int band_count_ = 1;
  bool band_count_known_ = false;
  uint64_t frames_delivered_ = 0;
  uint64_t points_delivered_ = 0;
  uint64_t bytes_encoded_ = 0;
  /// Points in the frame currently being assembled; folded into
  /// points_delivered_ only when the frame actually ships.
  uint64_t points_pending_ = 0;
  // Batches seen before band count is known get replayed into the
  // assembler lazily; in practice the first batch fixes it.
  FrameInfo pending_frame_;
  bool frame_pending_ = false;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_OPS_DELIVERY_OP_H_
