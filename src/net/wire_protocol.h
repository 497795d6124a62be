// Wire framing for streaming result delivery.
//
// The network boundary speaks two planes over one TCP connection:
// a line-based text control plane (commands and their "OK ..."/"ERR
// ..." responses) and a binary data plane carrying query result
// frames. Binary messages are self-delimiting and integrity-checked:
//
//   header (16 bytes; the record header of storage/record_file.h,
//   which the journal and the tile store share)
//     0   magic        "GSF1"
//     4   type         u8   (MessageType)
//     5   flags        u8   (kFlagPng, kFlagWindow, kFlagCaptureTs)
//     6   version      u16  LE (kWireVersion)
//     8   payload_len  u32  LE
//     12  payload_crc  u32  LE (CRC-32 of the payload bytes)
//
//   result-frame payload (preamble, 28 bytes)
//     0   query_id     i64  LE
//     8   frame_id     i64  LE
//     16  width        u32  LE
//     20  height       u32  LE
//     24  bands        u16  LE
//     26  reserved     u16
//   followed by one of three bodies:
//     raw (no body flag)   width*height*bands doubles (LE bit patterns,
//                          band-interleaved, row-major)
//     kFlagPng             PNG bytes
//     kFlagWindow          the raw samples with their uniform border cut
//                          off. The fill pattern is cell 0's bits; the
//                          window is the smallest rectangle outside
//                          which every cell carries it in every band.
//         0   col0         u32  LE
//         4   row0         u32  LE
//         8   win_w        u32  LE   (0x0: every cell is fill)
//         12  win_h        u32  LE
//         16  fill         bands x u64 LE (cell 0's bit patterns)
//             followed by win_h rows of win_w*bands doubles.
//   The encoder sends a window only when its body is strictly smaller
//   than the raw one, so frames with no uniform border (and PNG frames)
//   keep the raw bytes exactly. Decoding rebuilds the full raw sample
//   vector, bit for bit. A decoder that predates kFlagWindow ignores
//   the flag, finds a body shorter than width*height*bands doubles and
//   rejects the message (InvalidArgument); it never decodes a windowed
//   frame wrongly.
//
//   ingest payload (kIngest — producer -> server)
//     0   source_len   u16  LE
//     2   source       source_len bytes (stream name)
//         seq          u64  LE   per-source monotonic sequence number
//         capture_us   u64  LE   only when kFlagCaptureTs is set:
//                                producer wall clock (Unix epoch us)
//                                at send — the first frame-lifecycle
//                                latency anchor. Optional and
//                                backward compatible: old producers
//                                never set the flag, and decoders
//                                only read the field when it is set.
//         event_kind   u8        (EventKind)
//     followed by the kind-specific event body:
//       kFrameBegin / kFrameEnd:
//         frame_id i64, expected_points i64, crs_len u16, crs bytes,
//         origin_x/origin_y/dx/dy f64, width i64, height i64
//       kPointBatch:
//         frame_id i64, band_count u32, checksum u64 (FNV-1a or 0),
//         n u32, cols n*i32, rows n*i32, timestamps n*i64,
//         values n*band_count*f64
//       kStreamEnd: empty
//
// The two planes demultiplex on the first byte: no text response
// begins with 'G' (responses start "OK "/"ERR "/"DL "/"ACK "/"NACK "),
// so a leading 'G' always opens a binary header. Decoding is strict —
// truncated, magic-less, oversized, or checksum-failing input yields
// InvalidArgument, never a crash or a silent partial frame.

#ifndef GEOSTREAMS_NET_WIRE_PROTOCOL_H_
#define GEOSTREAMS_NET_WIRE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/stream_event.h"
#include "raster/frame_assembler.h"
#include "raster/raster.h"
#include "storage/record_file.h"

namespace geostreams {

inline constexpr char kWireMagic[4] = {'G', 'S', 'F', '1'};
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kWireHeaderSize = kRecordHeaderSize;
inline constexpr size_t kFramePreambleSize = 28;
/// Upper bound on one payload; larger lengths are treated as garbage
/// (a desynchronized or hostile peer must not drive allocation).
inline constexpr uint32_t kMaxWirePayload = 256u << 20;
/// The GSF1 record format (header layout: storage/record_file.h).
inline constexpr RecordFormat kWireFormat = {
    {'G', 'S', 'F', '1'}, kWireVersion, kMaxWirePayload, "wire"};

enum class MessageType : uint8_t {
  kResultFrame = 1,
  kIngest = 2,
};

/// Source names longer than this are rejected (they share the wire
/// with attacker-controllable length fields).
inline constexpr size_t kMaxIngestSourceLen = 256;

inline constexpr uint8_t kFlagPng = 0x1;
/// kResultFrame only: the body is a fill window, not the raw samples.
inline constexpr uint8_t kFlagWindow = 0x4;
/// kIngest only: the payload carries a producer capture timestamp
/// (u64 wall-clock microseconds) between `seq` and `event_kind`.
inline constexpr uint8_t kFlagCaptureTs = 0x2;

/// One decoded result frame.
struct FrameMessage {
  int64_t query_id = 0;
  int64_t frame_id = 0;
  uint32_t width = 0;
  uint32_t height = 0;
  uint16_t bands = 1;
  bool png = false;
  /// Raw samples, band-interleaved, width*height*bands (when !png).
  std::vector<double> samples;
  /// PNG bytes (when png).
  std::vector<uint8_t> png_bytes;
};

/// Encodes a complete message (header + payload) ready for the wire.
std::vector<uint8_t> EncodeFrameMessage(const FrameMessage& message);

/// Convenience: builds the message for one delivered frame. When
/// `png` is non-empty it is shipped as-is (kFlagPng); otherwise the
/// raster's samples are, as a fill window (kFlagWindow) when that is
/// smaller.
std::vector<uint8_t> EncodeResultFrame(int64_t query_id, int64_t frame_id,
                                       const Raster& raster,
                                       const std::vector<uint8_t>& png);
/// The same message for an assembled frame, written from its window:
/// the bytes equal those of the expanded frame's raster, but when cell
/// (0, 0) lies outside the window only the window's cells are scanned
/// for the fill border, and the whole frame is never built.
std::vector<uint8_t> EncodeResultFrame(int64_t query_id, int64_t frame_id,
                                       const AssembledFrame& frame,
                                       const std::vector<uint8_t>& png);

/// A result-frame message that passed every check DecodeFrameMessage
/// makes, read in place: the preamble's fields, plus the message's
/// bytes (header first), which stay the caller's. Expand() builds the
/// FrameMessage from those bytes and cannot fail.
struct CheckedFrame {
  int64_t query_id = 0;
  int64_t frame_id = 0;
  uint32_t width = 0;
  uint32_t height = 0;
  uint16_t bands = 1;
  uint8_t flags = 0;
  const uint8_t* message = nullptr;
  size_t size = 0;

  FrameMessage Expand() const;
};

/// The checking half of DecodeFrameMessage: one complete message
/// (header + payload), strict. Anything malformed — short buffer, bad
/// magic, unknown type/version, length over kMaxWirePayload, CRC
/// mismatch, truncated or trailing bytes, a window outside the frame,
/// a sample count over the limit — is InvalidArgument. Nothing is
/// copied or expanded.
Result<CheckedFrame> CheckFrameMessage(const uint8_t* data, size_t len);

/// CheckFrameMessage, then Expand(). A windowed body is expanded, so
/// `samples` always holds width*height*bands values.
Result<FrameMessage> DecodeFrameMessage(const uint8_t* data, size_t len);

/// One sequenced ingest event from a producer: which source stream it
/// belongs to, its per-source monotonic sequence number, and the
/// StreamEvent it carries. The ingest plane's unit of ack/replay.
struct IngestMessage {
  std::string source;
  uint64_t seq = 0;
  /// Producer wall clock (Unix epoch microseconds) when the event was
  /// published; 0 = producer did not stamp one (old producer, or
  /// timestamps disabled). Carried on the wire only under
  /// kFlagCaptureTs, so unstamped messages cost no extra bytes.
  uint64_t capture_wall_us = 0;
  StreamEvent event;
};

/// Encodes a complete kIngest message (header + payload).
std::vector<uint8_t> EncodeIngestMessage(const IngestMessage& message);

/// Decodes one complete kIngest message. Strict, like
/// DecodeFrameMessage; lattice CRS names are resolved through the
/// global registry, so an unknown CRS is InvalidArgument too.
Result<IngestMessage> DecodeIngestMessage(const uint8_t* data, size_t len);

/// Decodes the payload of a kIngest record whose header and CRC have
/// already been checked (ParseRecord with kWireFormat).
Result<IngestMessage> DecodeIngestPayload(const RecordView& view);

/// Incremental decoder over a byte stream that interleaves text lines
/// and binary messages (the client side of one connection). Feed()
/// appends received bytes, or a reader fills PrepareFeed()'s room in
/// place and CommitFeed()s what it wrote; Next() pulls decoded units
/// in order.
class FrameDecoder {
 public:
  /// One demultiplexed unit: exactly one of `frame` / `ingest` /
  /// `line` is set. A result frame is checked but not expanded: its
  /// bytes stay in the decoder's buffer, valid until the next Feed()
  /// or PrepareFeed(). Expand it, or copy the bytes, before then.
  struct Unit {
    std::optional<CheckedFrame> frame;
    std::optional<IngestMessage> ingest;
    std::optional<std::string> line;
  };

  void Feed(const uint8_t* data, size_t len);

  /// Free space at the end of the buffer.
  struct Room {
    uint8_t* data;
    size_t size;
  };
  /// Makes room for at least `min_bytes` more bytes (sliding the
  /// undecoded bytes to the front, or growing the buffer) and returns
  /// all of it, so one read can fill it directly.
  Room PrepareFeed(size_t min_bytes);
  /// Appends the first `len` bytes written into PrepareFeed()'s room.
  void CommitFeed(size_t len);

  /// Next complete unit; nullopt when more bytes are needed. A
  /// malformed binary message poisons the stream: the error is
  /// returned now and on every later call (framing is lost for good).
  Result<std::optional<Unit>> Next();

  size_t buffered_bytes() const { return end_ - begin_; }

 private:
  /// Drops `len` decoded bytes off the front.
  void Consume(size_t len);

  /// Bytes [begin_, end_) are received and undecoded; the rest of
  /// buffer_ is room for the next read.
  std::vector<uint8_t> buffer_;
  size_t begin_ = 0;
  size_t end_ = 0;
  Status poisoned_ = Status::OK();
};

}  // namespace geostreams

#endif  // GEOSTREAMS_NET_WIRE_PROTOCOL_H_
