#include "net/wire_protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

#include "common/byte_codec.h"
#include "common/string_util.h"
#include "geo/crs_registry.h"

namespace geostreams {

namespace {

/// Header validation for one complete message of type `expected`:
/// the shared record checks, then the type and the exact length.
Status ValidateHeader(const uint8_t* data, size_t len, MessageType expected,
                      RecordView* view) {
  GEOSTREAMS_ASSIGN_OR_RETURN(*view, ParseRecord(kWireFormat, data, len));
  if (view->type != static_cast<uint8_t>(expected)) {
    return Status::InvalidArgument(
        StringPrintf("unexpected wire message type %u", view->type));
  }
  if (len != view->size()) {
    return Status::InvalidArgument(StringPrintf(
        "wire payload truncated: header promises %u bytes, %zu present",
        view->payload_len, len - kWireHeaderSize));
  }
  return Status::OK();
}

void PutLattice(std::vector<uint8_t>& out, const GridLattice& lattice) {
  PutString(out, lattice.crs() ? lattice.crs()->name() : std::string());
  PutF64(out, lattice.origin_x());
  PutF64(out, lattice.origin_y());
  PutF64(out, lattice.dx());
  PutF64(out, lattice.dy());
  PutU64(out, static_cast<uint64_t>(lattice.width()));
  PutU64(out, static_cast<uint64_t>(lattice.height()));
}

Result<GridLattice> GetLattice(PayloadReader& reader) {
  const uint16_t crs_len = reader.U16();
  const std::string crs_name = reader.String(crs_len);
  const double origin_x = reader.F64();
  const double origin_y = reader.F64();
  const double dx = reader.F64();
  const double dy = reader.F64();
  const int64_t width = reader.I64();
  const int64_t height = reader.I64();
  if (!reader.ok) {
    return Status::InvalidArgument("ingest lattice truncated");
  }
  CrsPtr crs;
  if (!crs_name.empty()) {
    GEOSTREAMS_ASSIGN_OR_RETURN(crs, ResolveCrs(crs_name));
  }
  return GridLattice(crs, origin_x, origin_y, dx, dy, width, height);
}

/// Decoded frames hold at most as many samples as a raw body under
/// kMaxWirePayload could carry, so a small windowed message cannot
/// drive a huge allocation and width*height*bands cannot wrap.
constexpr uint64_t kMaxFrameSamples = kMaxWirePayload / sizeof(double);

/// width*height*bands, or false when it exceeds kMaxFrameSamples.
bool FrameSampleCount(uint32_t width, uint32_t height, uint16_t bands,
                      uint64_t* count) {
  const uint64_t cells = static_cast<uint64_t>(width) * height;
  if (bands != 0 && cells > kMaxFrameSamples / bands) return false;
  *count = cells * bands;
  return true;
}

/// Bytes of a kFlagWindow body ahead of the window's rows: col0, row0,
/// win_w, win_h (u32 each), then one u64 fill pattern per band.
size_t WindowPreambleSize(uint16_t bands) {
  return 4 * sizeof(uint32_t) + static_cast<size_t>(bands) * sizeof(uint64_t);
}

/// The smallest rectangle outside which every cell carries the fill
/// pattern (cell 0's bits) in every band; 0x0 when every cell does.
struct FillWindow {
  size_t col0 = 0;
  size_t row0 = 0;
  size_t width = 0;
  size_t height = 0;
};

/// Compares the cells of a band-interleaved raster with the fill
/// pattern as u64 words (so NaN payloads and -0.0 count as different
/// values). kOneBand compiles the one-band fast path, which tests
/// eight cells per branch.
template <bool kOneBand>
class FillScanner {
 public:
  FillScanner(const double* samples, size_t bands, const uint64_t* fill)
      : samples_(samples), bands_(kOneBand ? 1 : bands), fill_(fill) {}

  bool Differs(size_t cell) const {
    if constexpr (kOneBand) {
      return std::bit_cast<uint64_t>(samples_[cell]) != fill_[0];
    } else {
      const double* s = samples_ + cell * bands_;
      uint64_t diff = 0;
      for (size_t b = 0; b < bands_; ++b) {
        diff |= std::bit_cast<uint64_t>(s[b]) ^ fill_[b];
      }
      return diff != 0;
    }
  }

  /// The first cell in [begin, end) that differs, or `end`.
  size_t FirstDiff(size_t begin, size_t end) const {
    size_t i = begin;
    if constexpr (kOneBand) {
      for (; i + 8 <= end && !BlockDiffers(i); i += 8) {
      }
    }
    while (i < end && !Differs(i)) ++i;
    return i;
  }

  /// One past the last cell in [begin, end) that differs, or `begin`.
  size_t LastDiffEnd(size_t begin, size_t end) const {
    size_t i = end;
    if constexpr (kOneBand) {
      for (; i >= begin + 8 && !BlockDiffers(i - 8); i -= 8) {
      }
    }
    while (i > begin && !Differs(i - 1)) --i;
    return i;
  }

 private:
  /// Whether any of the eight cells from `cell` on differs.
  bool BlockDiffers(size_t cell) const {
    uint64_t diff = 0;
    for (size_t k = 0; k < 8; ++k) {
      diff |= std::bit_cast<uint64_t>(samples_[cell + k]) ^ fill_[0];
    }
    return diff != 0;
  }

  const double* samples_;
  size_t bands_;
  const uint64_t* fill_;
};

/// Finds the fill window in one pass: rows from the top until one
/// differs, rows from the bottom until one differs, then only the
/// left and right margins of the rows between. No cell is read twice
/// except the few a hit's block re-tests.
template <bool kOneBand>
FillWindow FindFillWindow(const FillScanner<kOneBand>& scan, size_t width,
                          size_t height) {
  FillWindow w;
  size_t top = 0;
  size_t left = width;
  size_t right = 0;  // exclusive
  for (; top < height; ++top) {
    const size_t row = top * width;
    const size_t first = scan.FirstDiff(row, row + width);
    if (first < row + width) {
      left = first - row;
      right = scan.LastDiffEnd(first, row + width) - row;
      break;
    }
  }
  if (top == height) return w;  // every cell is fill
  size_t bottom = top + 1;  // exclusive
  for (size_t r = height; r > top + 1; --r) {
    const size_t row = (r - 1) * width;
    const size_t first = scan.FirstDiff(row, row + width);
    if (first < row + width) {
      bottom = r;
      left = std::min(left, first - row);
      const size_t from = std::max(first - row, right);
      right = std::max(right, scan.LastDiffEnd(row + from, row + width) - row);
      break;
    }
  }
  for (size_t r = top + 1; r + 1 < bottom; ++r) {
    const size_t row = r * width;
    left = scan.FirstDiff(row, row + left) - row;
    right = scan.LastDiffEnd(row + right, row + width) - row;
  }
  w.col0 = left;
  w.row0 = top;
  w.width = right - left;
  w.height = bottom - top;
  return w;
}

/// The fill window of `height` rows of `width` cells at `samples`.
FillWindow TrimFill(const double* samples, size_t width, size_t height,
                    uint16_t bands, const uint64_t* fill) {
  return bands == 1
             ? FindFillWindow(FillScanner<true>(samples, 1, fill), width,
                              height)
             : FindFillWindow(FillScanner<false>(samples, bands, fill),
                              width, height);
}

/// Bytes of a kFlagWindow body holding `w`.
size_t WindowBodyBytes(const FillWindow& w, uint16_t bands) {
  return WindowPreambleSize(bands) +
         w.width * w.height * bands * sizeof(double);
}

/// The preamble every result frame starts with.
struct FramePreamble {
  int64_t query_id;
  int64_t frame_id;
  uint32_t width;
  uint32_t height;
  uint16_t bands;
};

/// One result-frame message, written header, preamble and body into a
/// single buffer and CRCed in place; `put_body` appends the
/// `body_bytes` of the body.
template <typename PutBody>
std::vector<uint8_t> WriteFrame(const FramePreamble& p, uint8_t flags,
                                size_t body_bytes, PutBody&& put_body) {
  std::vector<uint8_t> out;
  out.reserve(kWireHeaderSize + kFramePreambleSize + body_bytes);
  const size_t start = BeginRecord(out);
  PutU64(out, static_cast<uint64_t>(p.query_id));
  PutU64(out, static_cast<uint64_t>(p.frame_id));
  PutU32(out, p.width);
  PutU32(out, p.height);
  PutU16(out, p.bands);
  PutU16(out, 0);  // reserved
  put_body(out);
  SealRecord(kWireFormat, static_cast<uint8_t>(MessageType::kResultFrame),
             flags, start, out);
  return out;
}

/// A kFlagWindow body for frame rectangle `w`. `rows` holds samples
/// `stride` cells wide whose first cell is frame cell (row_col0,
/// row_row0), and covers `w`.
void PutWindowBody(std::vector<uint8_t>& out, const FillWindow& w,
                   const std::vector<uint64_t>& fill, const double* rows,
                   size_t stride, size_t row_col0, size_t row_row0) {
  const size_t bands = fill.size();
  PutU32(out, static_cast<uint32_t>(w.col0));
  PutU32(out, static_cast<uint32_t>(w.row0));
  PutU32(out, static_cast<uint32_t>(w.width));
  PutU32(out, static_cast<uint32_t>(w.height));
  for (uint64_t bits : fill) PutU64(out, bits);
  for (size_t r = 0; r < w.height; ++r) {
    const size_t cell = (w.row0 - row_row0 + r) * stride + (w.col0 - row_col0);
    PutArray(out, rows + cell * bands, w.width * bands);
  }
}

/// The PNG bytes when `png` is set, else the raw samples, or only
/// their fill window (kFlagWindow) when that body is strictly smaller.
std::vector<uint8_t> EncodeFrame(const FramePreamble& p,
                                 const std::vector<double>& samples,
                                 const std::vector<uint8_t>* png) {
  if (png) {
    return WriteFrame(p, kFlagPng, png->size(), [&](std::vector<uint8_t>& out) {
      out.insert(out.end(), png->begin(), png->end());
    });
  }
  const size_t raw_bytes = samples.size() * sizeof(double);
  if (p.bands != 0 && !samples.empty() &&
      samples.size() == static_cast<size_t>(p.width) * p.height * p.bands) {
    std::vector<uint64_t> fill(p.bands);
    for (size_t b = 0; b < p.bands; ++b) {
      fill[b] = std::bit_cast<uint64_t>(samples[b]);
    }
    const FillWindow w =
        TrimFill(samples.data(), p.width, p.height, p.bands, fill.data());
    const size_t window_bytes = WindowBodyBytes(w, p.bands);
    if (window_bytes < raw_bytes) {
      return WriteFrame(p, kFlagWindow, window_bytes,
                        [&](std::vector<uint8_t>& out) {
                          PutWindowBody(out, w, fill, samples.data(), p.width,
                                        0, 0);
                        });
    }
  }
  return WriteFrame(p, 0, raw_bytes, [&](std::vector<uint8_t>& out) {
    PutArray(out, samples.data(), samples.size());
  });
}

/// The rectangle a kFlagWindow body opens with (col0, row0, win_w,
/// win_h), widened so sums of two cannot wrap.
struct WindowRect {
  uint64_t col0, row0, width, height;
};

WindowRect ReadWindowRect(const uint8_t* body) {
  return {GetU32(body), GetU32(body + 4), GetU32(body + 8), GetU32(body + 12)};
}

/// Every check of a kFlagWindow body: the preamble is whole, the
/// window lies inside the frame, and the rows fill the rest exactly.
Status CheckWindowBody(const uint8_t* body, size_t body_len, uint32_t width,
                       uint32_t height, uint16_t bands) {
  if (bands == 0) {
    return Status::InvalidArgument("windowed frame declares 0 bands");
  }
  uint64_t expected = 0;
  if (!FrameSampleCount(width, height, bands, &expected)) {
    return Status::InvalidArgument(StringPrintf(
        "windowed frame of %ux%ux%u exceeds %llu samples", width, height,
        bands, static_cast<unsigned long long>(kMaxFrameSamples)));
  }
  if (body_len < WindowPreambleSize(bands)) {
    return Status::InvalidArgument("windowed frame preamble truncated");
  }
  const WindowRect w = ReadWindowRect(body);
  if (w.col0 + w.width > width || w.row0 + w.height > height) {
    return Status::InvalidArgument(StringPrintf(
        "frame window %llux%llu at (%llu, %llu) falls outside %ux%u",
        static_cast<unsigned long long>(w.width),
        static_cast<unsigned long long>(w.height),
        static_cast<unsigned long long>(w.col0),
        static_cast<unsigned long long>(w.row0), width, height));
  }
  const size_t rows_len = body_len - WindowPreambleSize(bands);
  const uint64_t window_bytes = w.height * w.width * bands * sizeof(double);
  if (rows_len != window_bytes) {
    return Status::InvalidArgument(StringPrintf(
        "windowed frame body holds %zu bytes, a %llux%llux%u window "
        "needs %llu",
        rows_len, static_cast<unsigned long long>(w.width),
        static_cast<unsigned long long>(w.height), bands,
        static_cast<unsigned long long>(window_bytes)));
  }
  return Status::OK();
}

/// Rebuilds a checked kFlagWindow body into the full sample vector:
/// every cell gets the fill pattern, then the window's rows are copied
/// in.
void ExpandWindowBody(const uint8_t* body, FrameMessage* message) {
  const uint16_t bands = message->bands;
  const WindowRect w = ReadWindowRect(body);
  std::vector<uint64_t> fill(bands);
  GetArray(body + 4 * sizeof(uint32_t), fill.data(), bands);
  const uint8_t* rows = body + WindowPreambleSize(bands);
  const uint64_t expected =
      static_cast<uint64_t>(message->width) * message->height * bands;
  std::vector<double>& samples = message->samples;
  if (bands == 1) {
    samples.assign(expected, std::bit_cast<double>(fill[0]));
  } else {
    samples.resize(expected);
    for (size_t i = 0; i < expected; i += bands) {
      for (size_t b = 0; b < bands; ++b) {
        samples[i + b] = std::bit_cast<double>(fill[b]);
      }
    }
  }
  const uint64_t row_samples = w.width * bands;
  for (uint64_t r = 0; r < w.height; ++r) {
    const uint64_t cell = (w.row0 + r) * message->width + w.col0;
    GetArray(rows + r * row_samples * sizeof(double),
             samples.data() + cell * bands, row_samples);
  }
}

}  // namespace

std::vector<uint8_t> EncodeFrameMessage(const FrameMessage& message) {
  return EncodeFrame({message.query_id, message.frame_id, message.width,
                      message.height, message.bands},
                     message.samples,
                     message.png ? &message.png_bytes : nullptr);
}

std::vector<uint8_t> EncodeResultFrame(int64_t query_id, int64_t frame_id,
                                       const Raster& raster,
                                       const std::vector<uint8_t>& png) {
  return EncodeFrame({query_id, frame_id, static_cast<uint32_t>(raster.width()),
                      static_cast<uint32_t>(raster.height()),
                      static_cast<uint16_t>(raster.bands())},
                     raster.data(), png.empty() ? nullptr : &png);
}

std::vector<uint8_t> EncodeResultFrame(int64_t query_id, int64_t frame_id,
                                       const AssembledFrame& frame,
                                       const std::vector<uint8_t>& png) {
  const FramePreamble p = {query_id, frame_id,
                           static_cast<uint32_t>(frame.width()),
                           static_cast<uint32_t>(frame.height()),
                           static_cast<uint16_t>(frame.bands())};
  // The whole-frame scan takes cell (0, 0)'s bits as the fill pattern.
  // Outside the window that cell holds the frame's fill in every band,
  // so every cell outside the window matches the pattern and only the
  // window's cells need a scan. A window holding cell (0, 0) (the whole
  // frame, say) takes the whole-frame path.
  if (!png.empty()) return EncodeFrame(p, {}, &png);
  const CellRect& window = frame.window;
  if (window.Contains(0, 0)) {
    return EncodeFrame(p, frame.Expanded().data(), nullptr);
  }
  const std::vector<uint64_t> fill(p.bands,
                                   std::bit_cast<uint64_t>(frame.fill));
  FillWindow w = TrimFill(frame.raster.data().data(),
                          static_cast<size_t>(window.width),
                          static_cast<size_t>(window.height), p.bands,
                          fill.data());
  if (w.width != 0) {
    w.col0 += static_cast<size_t>(window.col0);
    w.row0 += static_cast<size_t>(window.row0);
  }
  const size_t window_bytes = WindowBodyBytes(w, p.bands);
  const size_t raw_bytes = static_cast<size_t>(frame.lattice.num_cells()) *
                           p.bands * sizeof(double);
  if (window_bytes >= raw_bytes) {
    return EncodeFrame(p, frame.Expanded().data(), nullptr);
  }
  return WriteFrame(p, kFlagWindow, window_bytes,
                    [&](std::vector<uint8_t>& out) {
                      PutWindowBody(out, w, fill, frame.raster.data().data(),
                                    static_cast<size_t>(window.width),
                                    static_cast<size_t>(window.col0),
                                    static_cast<size_t>(window.row0));
                    });
}

Result<CheckedFrame> CheckFrameMessage(const uint8_t* data, size_t len) {
  RecordView view;
  GEOSTREAMS_RETURN_IF_ERROR(
      ValidateHeader(data, len, MessageType::kResultFrame, &view));
  const uint8_t* payload = view.payload;
  const uint32_t payload_len = view.payload_len;
  if (payload_len < kFramePreambleSize) {
    return Status::InvalidArgument(StringPrintf(
        "frame payload too short for preamble: %u bytes", payload_len));
  }

  CheckedFrame frame;
  frame.query_id = static_cast<int64_t>(GetU64(payload));
  frame.frame_id = static_cast<int64_t>(GetU64(payload + 8));
  frame.width = GetU32(payload + 16);
  frame.height = GetU32(payload + 20);
  frame.bands = GetU16(payload + 24);
  frame.flags = view.flags;
  frame.message = data;
  frame.size = len;
  const uint8_t* body = payload + kFramePreambleSize;
  const size_t body_len = payload_len - kFramePreambleSize;
  if ((view.flags & kFlagPng) != 0) {
    if ((view.flags & kFlagWindow) != 0) {
      return Status::InvalidArgument("PNG frame carries the window flag");
    }
    return frame;
  }
  if ((view.flags & kFlagWindow) != 0) {
    GEOSTREAMS_RETURN_IF_ERROR(CheckWindowBody(body, body_len, frame.width,
                                               frame.height, frame.bands));
    return frame;
  }
  uint64_t expected = 0;
  if (!FrameSampleCount(frame.width, frame.height, frame.bands, &expected) ||
      body_len != expected * sizeof(double)) {
    return Status::InvalidArgument(StringPrintf(
        "frame body holds %zu bytes, not the %ux%ux%u samples its header "
        "declares",
        body_len, frame.width, frame.height, frame.bands));
  }
  return frame;
}

FrameMessage CheckedFrame::Expand() const {
  FrameMessage out;
  out.query_id = query_id;
  out.frame_id = frame_id;
  out.width = width;
  out.height = height;
  out.bands = bands;
  out.png = (flags & kFlagPng) != 0;
  const uint8_t* body = message + kWireHeaderSize + kFramePreambleSize;
  const size_t body_len = size - kWireHeaderSize - kFramePreambleSize;
  if (out.png) {
    out.png_bytes.assign(body, body + body_len);
  } else if ((flags & kFlagWindow) != 0) {
    ExpandWindowBody(body, &out);
  } else {
    out.samples.resize(body_len / sizeof(double));
    GetArray(body, out.samples.data(), out.samples.size());
  }
  return out;
}

Result<FrameMessage> DecodeFrameMessage(const uint8_t* data, size_t len) {
  GEOSTREAMS_ASSIGN_OR_RETURN(CheckedFrame frame, CheckFrameMessage(data, len));
  return frame.Expand();
}

std::vector<uint8_t> EncodeIngestMessage(const IngestMessage& message) {
  std::vector<uint8_t> out;
  const StreamEvent& event = message.event;
  size_t body_hint = 64;
  if (event.kind == EventKind::kPointBatch && event.batch) {
    body_hint += event.batch->size() *
                 (sizeof(int32_t) * 2 + sizeof(int64_t) +
                  sizeof(double) * static_cast<size_t>(
                                       event.batch->band_count));
  }
  out.reserve(kWireHeaderSize + message.source.size() + body_hint);
  const size_t start = BeginRecord(out);
  PutString(out, message.source);
  PutU64(out, message.seq);
  uint8_t flags = 0;
  if (message.capture_wall_us != 0) {
    flags |= kFlagCaptureTs;
    PutU64(out, message.capture_wall_us);
  }
  out.push_back(static_cast<uint8_t>(event.kind));
  switch (event.kind) {
    case EventKind::kFrameBegin:
    case EventKind::kFrameEnd:
      PutU64(out, static_cast<uint64_t>(event.frame.frame_id));
      PutU64(out, static_cast<uint64_t>(event.frame.expected_points));
      PutLattice(out, event.frame.lattice);
      break;
    case EventKind::kPointBatch: {
      static const PointBatch kEmpty;
      const PointBatch& batch = event.batch ? *event.batch : kEmpty;
      PutU64(out, static_cast<uint64_t>(batch.frame_id));
      PutU32(out, static_cast<uint32_t>(batch.band_count));
      PutU64(out, batch.checksum);
      PutU32(out, static_cast<uint32_t>(batch.size()));
      PutArray(out, batch.cols.data(), batch.cols.size());
      PutArray(out, batch.rows.data(), batch.rows.size());
      PutArray(out, batch.timestamps.data(), batch.timestamps.size());
      PutArray(out, batch.values.data(), batch.values.size());
      break;
    }
    case EventKind::kStreamEnd:
      break;
  }
  SealRecord(kWireFormat, static_cast<uint8_t>(MessageType::kIngest), flags,
             start, out);
  return out;
}

Result<IngestMessage> DecodeIngestMessage(const uint8_t* data, size_t len) {
  RecordView view;
  GEOSTREAMS_RETURN_IF_ERROR(
      ValidateHeader(data, len, MessageType::kIngest, &view));
  return DecodeIngestPayload(view);
}

Result<IngestMessage> DecodeIngestPayload(const RecordView& view) {
  PayloadReader reader{view.payload, view.payload_len};
  const uint8_t flags = view.flags;

  IngestMessage message;
  const uint16_t source_len = reader.U16();
  if (source_len > kMaxIngestSourceLen) {
    return Status::InvalidArgument(StringPrintf(
        "ingest source name length %u exceeds %zu", source_len,
        kMaxIngestSourceLen));
  }
  message.source = reader.String(source_len);
  message.seq = reader.U64();
  if ((flags & kFlagCaptureTs) != 0) {
    message.capture_wall_us = reader.U64();
  }
  const uint8_t kind = reader.U8();
  if (!reader.ok) {
    return Status::InvalidArgument("ingest preamble truncated");
  }
  if (message.source.empty()) {
    return Status::InvalidArgument("ingest message lacks a source name");
  }
  switch (static_cast<EventKind>(kind)) {
    case EventKind::kFrameBegin:
    case EventKind::kFrameEnd: {
      FrameInfo info;
      info.frame_id = reader.I64();
      info.expected_points = reader.I64();
      GEOSTREAMS_ASSIGN_OR_RETURN(info.lattice, GetLattice(reader));
      message.event = static_cast<EventKind>(kind) == EventKind::kFrameBegin
                          ? StreamEvent::FrameBegin(std::move(info))
                          : StreamEvent::FrameEnd(std::move(info));
      break;
    }
    case EventKind::kPointBatch: {
      auto batch = std::make_shared<PointBatch>();
      batch->frame_id = reader.I64();
      const uint32_t band_count = reader.U32();
      batch->checksum = reader.U64();
      const uint32_t n = reader.U32();
      if (!reader.ok) {
        return Status::InvalidArgument("ingest batch preamble truncated");
      }
      if (band_count == 0 || band_count > 4096) {
        return Status::InvalidArgument(
            StringPrintf("ingest batch band_count %u out of range",
                         band_count));
      }
      // Sized up front so a lying count cannot drive allocation past
      // the (already CRC-validated) payload length.
      const uint64_t need =
          static_cast<uint64_t>(n) * (4 + 4 + 8) +
          static_cast<uint64_t>(n) * band_count * 8;
      if (need != reader.remaining) {
        return Status::InvalidArgument(StringPrintf(
            "ingest batch body holds %zu bytes, %u points x %u bands "
            "need %llu",
            reader.remaining, n, band_count,
            static_cast<unsigned long long>(need)));
      }
      batch->band_count = static_cast<int>(band_count);
      batch->cols.resize(n);
      batch->rows.resize(n);
      batch->timestamps.resize(n);
      batch->values.resize(static_cast<size_t>(n) * band_count);
      reader.Array(batch->cols);
      reader.Array(batch->rows);
      reader.Array(batch->timestamps);
      reader.Array(batch->values);
      message.event = StreamEvent::Batch(std::move(batch));
      break;
    }
    case EventKind::kStreamEnd:
      message.event = StreamEvent::StreamEnd();
      break;
    default:
      return Status::InvalidArgument(
          StringPrintf("ingest message carries unknown event kind %u",
                       kind));
  }
  if (!reader.ok) {
    return Status::InvalidArgument("ingest event body truncated");
  }
  if (reader.remaining != 0) {
    return Status::InvalidArgument(StringPrintf(
        "ingest event body has %zu trailing bytes", reader.remaining));
  }
  return message;
}

void FrameDecoder::Feed(const uint8_t* data, size_t len) {
  if (len == 0) return;
  std::memcpy(PrepareFeed(len).data, data, len);
  CommitFeed(len);
}

FrameDecoder::Room FrameDecoder::PrepareFeed(size_t min_bytes) {
  if (buffer_.size() - end_ < min_bytes && begin_ > 0) {
    // Slide the undecoded bytes to the front before growing.
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (buffer_.size() - end_ < min_bytes) buffer_.resize(end_ + min_bytes);
  return Room{buffer_.data() + end_, buffer_.size() - end_};
}

void FrameDecoder::CommitFeed(size_t len) { end_ += len; }

void FrameDecoder::Consume(size_t len) {
  begin_ += len;
  if (begin_ == end_) begin_ = end_ = 0;
}

Result<std::optional<FrameDecoder::Unit>> FrameDecoder::Next() {
  if (!poisoned_.ok()) return poisoned_;
  const uint8_t* data = buffer_.data() + begin_;
  const size_t avail = end_ - begin_;
  if (avail == 0) return std::optional<Unit>{};
  // A unit is binary only when it opens with the full GSF1 magic.
  // Comparing just the bytes on hand keeps 'G'-leading text lines
  // ("GET /metrics", a future verb) on the line path instead of
  // poisoning the stream; a true binary header always completes.
  bool binary = false;
  if (data[0] == static_cast<uint8_t>(kWireMagic[0])) {
    const size_t prefix = avail < 4 ? avail : 4;
    if (std::memcmp(data, kWireMagic, prefix) == 0) {
      if (avail < 4) return std::optional<Unit>{};  // magic undecided
      binary = true;
    }
  }
  if (binary) {
    // Binary message. Wait for the header, validate its length field,
    // then wait for the payload.
    if (avail < kWireHeaderSize) return std::optional<Unit>{};
    const uint32_t payload_len = GetU32(data + 8);
    if (payload_len > kMaxWirePayload) {
      poisoned_ = Status::InvalidArgument(StringPrintf(
          "wire payload length %u exceeds limit %u (desynchronized?)",
          payload_len, kMaxWirePayload));
      return poisoned_;
    }
    const size_t total = kWireHeaderSize + payload_len;
    if (avail < total) return std::optional<Unit>{};
    Unit unit;
    if (data[4] == static_cast<uint8_t>(MessageType::kIngest)) {
      Result<IngestMessage> decoded = DecodeIngestMessage(data, total);
      if (!decoded.ok()) {
        poisoned_ = decoded.status();
        return poisoned_;
      }
      unit.ingest = std::move(decoded).value();
    } else {
      Result<CheckedFrame> checked = CheckFrameMessage(data, total);
      if (!checked.ok()) {
        poisoned_ = checked.status();
        return poisoned_;
      }
      unit.frame = *checked;
    }
    Consume(total);
    return std::optional<Unit>(std::move(unit));
  }
  // Text line.
  for (size_t i = 0; i < avail; ++i) {
    if (data[i] == '\n') {
      size_t end = i;
      while (end > 0 && data[end - 1] == '\r') --end;
      Unit unit;
      unit.line = std::string(reinterpret_cast<const char*>(data), end);
      Consume(i + 1);
      return std::optional<Unit>(std::move(unit));
    }
  }
  return std::optional<Unit>{};
}

}  // namespace geostreams
