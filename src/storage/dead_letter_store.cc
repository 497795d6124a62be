#include "storage/dead_letter_store.h"

#include <algorithm>
#include <cstring>

#include "common/byte_codec.h"
#include "common/logging.h"
#include "net/wire_protocol.h"
#include "raster/checksum.h"

namespace geostreams {

namespace {

constexpr char kStoreMagic[4] = {'G', 'S', 'D', 'L'};
constexpr size_t kStoreHeaderSize = 12;

std::vector<uint8_t> EncodeLetter(const std::string& source,
                                  const DeadLetter& letter) {
  IngestMessage message;
  message.source = source;
  message.seq = letter.ordinal;
  message.event = letter.event;
  const std::vector<uint8_t> msg = EncodeIngestMessage(message);
  std::vector<uint8_t> payload;
  payload.reserve(16 + letter.error.size() + 4 + msg.size());
  PutU64(payload, letter.ordinal);
  PutU32(payload, static_cast<uint32_t>(letter.error.size()));
  payload.insert(payload.end(), letter.error.begin(), letter.error.end());
  PutU32(payload, static_cast<uint32_t>(msg.size()));
  payload.insert(payload.end(), msg.begin(), msg.end());

  std::vector<uint8_t> record;
  record.reserve(kStoreHeaderSize + payload.size());
  for (char c : kStoreMagic) record.push_back(static_cast<uint8_t>(c));
  PutU32(record, static_cast<uint32_t>(payload.size()));
  PutU32(record, Crc32(payload.data(), payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  return record;
}

Result<DeadLetter> DecodeLetterPayload(const uint8_t* p, size_t len) {
  if (len < 16) return Status::InvalidArgument("payload too short");
  DeadLetter letter;
  letter.ordinal = GetU64(p);
  const uint32_t error_len = GetU32(p + 8);
  size_t off = 12;
  if (off + error_len + 4 > len) {
    return Status::InvalidArgument("error string overruns payload");
  }
  letter.error.assign(reinterpret_cast<const char*>(p + off), error_len);
  off += error_len;
  const uint32_t msg_len = GetU32(p + off);
  off += 4;
  if (off + msg_len != len) {
    return Status::InvalidArgument("event bytes overrun payload");
  }
  GEOSTREAMS_ASSIGN_OR_RETURN(IngestMessage msg,
                              DecodeIngestMessage(p + off, msg_len));
  letter.event = std::move(msg.event);
  return letter;
}

}  // namespace

DeadLetterStore::DeadLetterStore(std::string path,
                                 std::unique_ptr<WritableFile> file)
    : path_(std::move(path)), file_(std::move(file)) {}

Result<std::unique_ptr<DeadLetterStore>> DeadLetterStore::Open(
    const std::string& path, WritableFileFactory factory) {
  std::vector<uint8_t> data;
  const Status read = ReadWholeFile(path, &data);
  // Absent is fine: a fresh store.
  if (!read.ok() && read.code() != StatusCode::kNotFound) return read;

  std::vector<DeadLetter> recovered;
  uint64_t load_errors = 0;
  uint64_t max_ordinal = 0;
  size_t off = 0;
  while (off + kStoreHeaderSize <= data.size()) {
    if (std::memcmp(data.data() + off, kStoreMagic, 4) != 0) break;
    const uint32_t payload_len = GetU32(data.data() + off + 4);
    const uint32_t crc = GetU32(data.data() + off + 8);
    if (off + kStoreHeaderSize + payload_len > data.size()) break;
    const uint8_t* payload = data.data() + off + kStoreHeaderSize;
    if (Crc32(payload, payload_len) != crc) break;
    Result<DeadLetter> letter = DecodeLetterPayload(payload, payload_len);
    if (!letter.ok()) break;
    max_ordinal = std::max(max_ordinal, letter->ordinal);
    recovered.push_back(std::move(*letter));
    off += kStoreHeaderSize + payload_len;
  }
  if (off < data.size()) {
    // Whatever stopped the loop — bad magic, short header, torn
    // payload, CRC or decode failure — is one damaged tail record.
    ++load_errors;
    GEOSTREAMS_LOG(kWarning)
        << "dead-letter store " << path << ": ignoring "
        << (data.size() - off) << " undecodable trailing bytes ("
        << recovered.size() << " letters loaded)";
  }

  if (!factory) factory = OpenPosixWritable;
  GEOSTREAMS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                              factory(path));
  std::unique_ptr<DeadLetterStore> store(
      new DeadLetterStore(path, std::move(file)));
  store->load_errors_ = load_errors;
  store->next_ordinal_ = recovered.empty() ? 0 : max_ordinal + 1;
  store->recovered_ = std::move(recovered);
  return store;
}

Status DeadLetterStore::Append(const std::string& source,
                               const DeadLetter& letter) {
  const std::vector<uint8_t> record = EncodeLetter(source, letter);
  std::lock_guard<std::mutex> lock(mu_);
  GEOSTREAMS_RETURN_IF_ERROR(file_->Append(record.data(), record.size()));
  if (letter.ordinal >= next_ordinal_) next_ordinal_ = letter.ordinal + 1;
  return file_->Sync();
}

Status DeadLetterStore::AppendQuarantine(const std::string& source,
                                         const std::string& error) {
  DeadLetter letter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    letter.ordinal = next_ordinal_;
  }
  letter.error = error;
  letter.event = StreamEvent::StreamEnd();
  return Append(source, letter);
}

uint64_t DeadLetterStore::next_ordinal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_ordinal_;
}

Status DeadLetterStore::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return file_->Sync();
}

}  // namespace geostreams
