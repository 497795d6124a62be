// Minimal synchronous client for the network protocol — the test
// harness's and example tooling's view of a NetServer. One thread,
// one socket: Send() writes command lines, ReadNext() demultiplexes
// whatever arrives (text response or binary result frame) via
// FrameDecoder, and Command() pairs the two while parking any frames
// that stream in between.
//
// A parked frame has passed every check DecodeFrameMessage makes (a
// malformed one fails Command() and poisons the connection), but it
// is kept as its wire bytes: a windowed frame parks only its window.
// It is expanded to a FrameMessage when ReadFrame()/ReadNext() hands
// it out, so at most one expanded frame is alive per call, however
// many frames a SINCE replay parks.

#ifndef GEOSTREAMS_NET_GEOSTREAMS_CLIENT_H_
#define GEOSTREAMS_NET_GEOSTREAMS_CLIENT_H_

#include <chrono>
#include <deque>
#include <string>
#include <vector>

#include "net/wire_protocol.h"

namespace geostreams {

class GeoStreamsClient {
 public:
  GeoStreamsClient() = default;
  ~GeoStreamsClient();

  GeoStreamsClient(const GeoStreamsClient&) = delete;
  GeoStreamsClient& operator=(const GeoStreamsClient&) = delete;

  /// `host` may be a hostname or a numeric IPv4/IPv6 address
  /// (socket_util's ConnectTcp). `timeout_ms` bounds the connect so a
  /// black-holed server cannot hang the caller; <= 0 blocks.
  Status Connect(const std::string& host, uint16_t port,
                 int timeout_ms = -1);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Writes one command line (newline appended).
  Status Send(const std::string& line);

  /// Next unit from the connection, in arrival order. Frames parked
  /// by Command() are returned first. `line` empty + `frame` empty
  /// means EOF. Unavailable on timeout.
  struct Incoming {
    std::optional<std::string> line;
    std::optional<FrameMessage> frame;
    bool eof = false;
  };
  Result<Incoming> ReadNext(int timeout_ms = 5000);

  /// Sends `line` and returns the first response line, parking result
  /// frames that arrive in between (drain them with ReadFrame).
  /// `timeout_ms` is one overall deadline — frames trickling in do
  /// not extend it.
  Result<std::string> Command(const std::string& line,
                              int timeout_ms = 5000);

  /// Reads until a frame arrives (parked or fresh). One overall
  /// deadline: skipped text lines do not extend it.
  Result<FrameMessage> ReadFrame(int timeout_ms = 5000);

  size_t pending_frames() const { return parked_frames_.size(); }

 private:
  using Deadline = std::chrono::steady_clock::time_point;
  static Deadline After(int timeout_ms) {
    return std::chrono::steady_clock::now() +
           std::chrono::milliseconds(timeout_ms);
  }

  /// Blocks until `deadline` for one decoded unit straight off the
  /// wire (ignores the parked queue). Every multi-read loop in this
  /// client shares one deadline through here, so a peer trickling
  /// bytes (or interleaving other units) cannot stretch a 5-second
  /// timeout into forever.
  Result<FrameDecoder::Unit> ReadUnitUntil(Deadline deadline, bool* eof);

  /// A checked frame whose `message` points into its own `bytes`.
  struct ParkedFrame {
    std::vector<uint8_t> bytes;
    CheckedFrame frame;
  };

  /// Expands and drops the oldest parked frame.
  FrameMessage TakeParked();

  int fd_ = -1;
  FrameDecoder decoder_;
  std::deque<ParkedFrame> parked_frames_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_NET_GEOSTREAMS_CLIENT_H_
