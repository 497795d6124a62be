#include "net/client_session.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "net/socket_util.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace geostreams {

namespace {

AdaptiveSheddingOptions DeriveShedding(const ClientSessionOptions& options) {
  AdaptiveSheddingOptions shed;
  shed.high_watermark = options.shed_high_watermark != 0
                            ? options.shed_high_watermark
                            : std::max<size_t>(1, options.max_queue_events / 2);
  shed.low_watermark = options.shed_low_watermark != 0
                           ? options.shed_low_watermark
                           : std::max<size_t>(1, options.max_queue_events / 8);
  return shed;
}

}  // namespace

ClientSession::ClientSession(int fd, uint64_t id,
                             ClientSessionOptions options)
    : id_(id),
      options_(options),
      fd_(fd),
      // The backlog callback runs inside Observe(), which this class
      // only calls while holding mu_ — reading the queue is safe.
      shedding_([this] { return queue_.size(); }, DeriveShedding(options)) {
  if (options_.send_buffer_bytes > 0) {
    SetSendBuffer(fd_, options_.send_buffer_bytes);
  }
  if (options_.metrics != nullptr) {
    m_frames_enqueued_ = options_.metrics->GetCounter(
        "geostreams_client_frames_enqueued_total",
        "Result frames queued for delivery across all client sessions");
    m_frames_shed_ = options_.metrics->GetCounter(
        "geostreams_client_frames_shed_total",
        "Result frames shed by per-client backpressure");
    m_bytes_written_ = options_.metrics->GetCounter(
        "geostreams_client_bytes_written_total",
        "Bytes written to client sockets");
  }
  writer_ = std::thread([this] { WriterLoop(); });
}

ClientSession::~ClientSession() {
  Close();
  if (writer_.joinable()) writer_.join();
  CloseFd(fd_);
  fd_ = -1;
}

Status ClientSession::EnqueueControl(std::string line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    return Status::FailedPrecondition(
        StringPrintf("session %llu is closed",
                     static_cast<unsigned long long>(id_)));
  }
  Outbound item;
  item.control = std::move(line);
  queue_bytes_ += item.bytes();
  queue_.push_back(std::move(item));
  ready_.notify_one();
  return Status::OK();
}

Status ClientSession::EnqueueFrame(
    std::shared_ptr<const std::vector<uint8_t>> frame, FrameStamp stamp) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    return Status::FailedPrecondition(
        StringPrintf("session %llu is closed",
                     static_cast<unsigned long long>(id_)));
  }
  const size_t frame_bytes = frame->size();
  const double keep = shedding_.Observe();
  bool admit = queue_.size() < options_.max_queue_events &&
               queue_bytes_ + frame_bytes <= options_.max_queue_bytes;
  if (admit) {
    keep_carry_ += keep;
    if (keep_carry_ >= 1.0) {
      keep_carry_ -= 1.0;
    } else {
      admit = false;  // shed this frame; the carry earns the next one
    }
  }
  if (!admit) {
    ++frames_dropped_;
    if (m_frames_shed_) m_frames_shed_->Increment();
    if (++consecutive_drops_ >= options_.max_consecutive_drops) {
      GEOSTREAMS_LOG(kWarning)
          << "session " << id_ << ": " << consecutive_drops_
          << " consecutive dropped frames; disconnecting slow consumer";
      if (options_.event_log != nullptr) {
        options_.event_log->Append(
            EventSeverity::kError, "net", "slow-consumer-disconnect",
            StringPrintf("session=%llu consecutive_drops=%llu",
                         static_cast<unsigned long long>(id_),
                         static_cast<unsigned long long>(consecutive_drops_)));
      }
      CloseLocked();
      return Status::ResourceExhausted(StringPrintf(
          "session %llu dropped and disconnected (slow consumer)",
          static_cast<unsigned long long>(id_)));
    }
    return Status::ResourceExhausted(StringPrintf(
        "session %llu shed a frame (queue %zu, keep %.2f)",
        static_cast<unsigned long long>(id_), queue_.size(), keep));
  }
  consecutive_drops_ = 0;
  ++frames_enqueued_;
  if (m_frames_enqueued_) m_frames_enqueued_->Increment();
  Outbound item;
  item.frame = std::move(frame);
  item.stamp = std::move(stamp);
  queue_bytes_ += frame_bytes;
  queue_.push_back(std::move(item));
  ready_.notify_one();
  return Status::OK();
}

void ClientSession::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  CloseLocked();
}

void ClientSession::CloseLocked() {
  if (closed_) return;
  closed_ = true;
  // Half-close wakes both the peer (EOF) and any reader thread
  // blocked on this fd; the fd itself stays open until destruction so
  // no other thread can observe a recycled descriptor.
  ShutdownFd(fd_);
  queue_.clear();
  queue_bytes_ = 0;
  ready_.notify_all();
}

bool ClientSession::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

ClientSession::StatsSnapshot ClientSession::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot snapshot;
  snapshot.frames_enqueued = frames_enqueued_;
  snapshot.frames_dropped = frames_dropped_;
  snapshot.bytes_written = bytes_written_;
  snapshot.consecutive_drops = consecutive_drops_;
  snapshot.queue_depth = queue_.size();
  snapshot.keep = shedding_.current_keep();
  snapshot.closed = closed_;
  return snapshot;
}

std::string ClientSession::StatsLine() const {
  const StatsSnapshot s = Stats();
  return StringPrintf(
      "enqueued=%llu dropped=%llu written_bytes=%llu keep=%.2f queue=%zu",
      static_cast<unsigned long long>(s.frames_enqueued),
      static_cast<unsigned long long>(s.frames_dropped),
      static_cast<unsigned long long>(s.bytes_written), s.keep,
      s.queue_depth);
}

void ClientSession::WriterLoop() {
  for (;;) {
    Outbound item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (closed_) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      queue_bytes_ -= item.bytes();
    }
    Status st;
    size_t written = 0;
    if (item.frame) {
      st = WriteAll(fd_, item.frame->data(), item.frame->size());
      written = item.frame->size();
      if (st.ok() && item.stamp.write_stage != nullptr) {
        const uint64_t now = TraceWallNowUs();
        if (now > item.stamp.delivered_wall_us) {
          ObserveE2eStage(item.stamp.write_stage.get(),
                          now - item.stamp.delivered_wall_us,
                          item.stamp.trace_ordinal, item.stamp.pipeline);
        }
      }
    } else {
      std::string line = item.control;
      line.push_back('\n');
      st = WriteAll(fd_, reinterpret_cast<const uint8_t*>(line.data()),
                    line.size());
      written = line.size();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!st.ok()) {
      if (!closed_) {
        GEOSTREAMS_LOG(kInfo) << "session " << id_
                              << " write failed: " << st.ToString();
      }
      CloseLocked();
      return;
    }
    bytes_written_ += written;
    if (m_bytes_written_) m_bytes_written_->Increment(written);
  }
}

}  // namespace geostreams
