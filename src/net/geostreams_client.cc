#include "net/geostreams_client.h"

#include <algorithm>
#include <chrono>

#include "net/socket_util.h"

namespace geostreams {

namespace {

/// Every read asks the socket for at least this much, straight into
/// the decoder's buffer: a 512 KiB result frame arrives in a handful
/// of reads and is never copied before it is decoded.
constexpr size_t kMinReadBytes = 64 << 10;

}  // namespace

GeoStreamsClient::~GeoStreamsClient() { Close(); }

Status GeoStreamsClient::Connect(const std::string& host, uint16_t port,
                                 int timeout_ms) {
  if (fd_ >= 0) return Status::FailedPrecondition("already connected");
  GEOSTREAMS_ASSIGN_OR_RETURN(fd_, ConnectTcp(host, port, timeout_ms));
  return Status::OK();
}

void GeoStreamsClient::Close() {
  CloseFd(fd_);
  fd_ = -1;
}

Status GeoStreamsClient::Send(const std::string& line) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  std::string wire = line;
  wire.push_back('\n');
  return WriteAll(fd_, reinterpret_cast<const uint8_t*>(wire.data()),
                  wire.size());
}

Result<FrameDecoder::Unit> GeoStreamsClient::ReadUnitUntil(Deadline deadline,
                                                           bool* eof) {
  *eof = false;
  for (;;) {
    GEOSTREAMS_ASSIGN_OR_RETURN(std::optional<FrameDecoder::Unit> unit,
                                decoder_.Next());
    if (unit) return std::move(*unit);
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::Unavailable("timed out waiting for server data");
    }
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    GEOSTREAMS_ASSIGN_OR_RETURN(bool readable,
                                PollReadable(fd_, std::max(wait_ms, 1)));
    if (!readable) continue;
    const FrameDecoder::Room room = decoder_.PrepareFeed(kMinReadBytes);
    GEOSTREAMS_ASSIGN_OR_RETURN(size_t n, ReadSome(fd_, room.data, room.size));
    if (n == 0) {
      *eof = true;
      return FrameDecoder::Unit{};
    }
    decoder_.CommitFeed(n);
  }
}

Result<GeoStreamsClient::Incoming> GeoStreamsClient::ReadNext(
    int timeout_ms) {
  Incoming incoming;
  if (!parked_frames_.empty()) {
    incoming.frame = TakeParked();
    return incoming;
  }
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  bool eof = false;
  GEOSTREAMS_ASSIGN_OR_RETURN(FrameDecoder::Unit unit,
                              ReadUnitUntil(After(timeout_ms), &eof));
  incoming.eof = eof;
  incoming.line = std::move(unit.line);
  if (unit.frame) incoming.frame = unit.frame->Expand();
  return incoming;
}

Result<std::string> GeoStreamsClient::Command(const std::string& line,
                                              int timeout_ms) {
  GEOSTREAMS_RETURN_IF_ERROR(Send(line));
  const Deadline deadline = After(timeout_ms);
  for (;;) {
    bool eof = false;
    GEOSTREAMS_ASSIGN_OR_RETURN(FrameDecoder::Unit unit,
                                ReadUnitUntil(deadline, &eof));
    if (eof) {
      return Status::Unavailable("connection closed awaiting response");
    }
    if (unit.line) return std::move(*unit.line);
    if (unit.frame) {
      // The bytes leave the decoder's buffer before the next read.
      const CheckedFrame& checked = *unit.frame;
      ParkedFrame& parked = parked_frames_.emplace_back();
      parked.bytes.assign(checked.message, checked.message + checked.size);
      parked.frame = checked;
      parked.frame.message = parked.bytes.data();
    }
    // `unit.ingest` cannot arrive here (servers do not send it), and
    // either way the shared deadline still bounds the wait.
  }
}

FrameMessage GeoStreamsClient::TakeParked() {
  // Moving the vector keeps its buffer, so `message` stays valid.
  const ParkedFrame parked = std::move(parked_frames_.front());
  parked_frames_.pop_front();
  return parked.frame.Expand();
}

Result<FrameMessage> GeoStreamsClient::ReadFrame(int timeout_ms) {
  if (!parked_frames_.empty()) return TakeParked();
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const Deadline deadline = After(timeout_ms);
  for (;;) {
    bool eof = false;
    GEOSTREAMS_ASSIGN_OR_RETURN(FrameDecoder::Unit unit,
                                ReadUnitUntil(deadline, &eof));
    if (eof) {
      return Status::Unavailable("connection closed awaiting frame");
    }
    if (unit.frame) return unit.frame->Expand();
    // A stray text line (e.g. a late response) is skipped — against
    // the same deadline, so a line trickle cannot stall us forever.
  }
}

}  // namespace geostreams
