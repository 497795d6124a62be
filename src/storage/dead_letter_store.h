// On-disk companion of DeadLetterQueue: an append-only file of
// dead-lettered events, so quarantine evidence survives the crash
// that usually caused it.
//
// Record framing (little-endian, own magic so a stray .gsd file is
// never confused with a journal segment):
//
//   0  magic        "GSDL"
//   4  payload_len  u32
//   8  payload_crc  u32  CRC-32 of the payload
//   12 payload:
//        u64 ordinal
//        u32 error_len,  error bytes
//        u32 msg_len,    msg bytes — a complete GSF1 kIngest message
//                        (EncodeIngestMessage of {source, ordinal,
//                        event}) so the poisoned event itself is
//                        recoverable with the existing decoder
//
// The file itself, the reader and the CRC-32 are the shared storage
// substrate (storage/record_file.h, raster/checksum.h); only this
// 12-byte framing is the store's own. Loading is torn-tail tolerant:
// a bad record ends the load (the tail is ignored, not truncated — the
// store appends past it only after a successful load, which rewrites
// nothing). The store is the persistence hook behind
// DeadLetterQueue::SetPersistHook and the target recovery quarantines
// corrupt journal regions into.

#ifndef GEOSTREAMS_STORAGE_DEAD_LETTER_STORE_H_
#define GEOSTREAMS_STORAGE_DEAD_LETTER_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/record_file.h"
#include "stream/supervisor.h"

namespace geostreams {

class DeadLetterStore {
 public:
  /// Opens (creating if absent) the store at `path`, loading every
  /// decodable record. Damaged tails are tolerated and counted.
  static Result<std::unique_ptr<DeadLetterStore>> Open(
      const std::string& path, WritableFileFactory factory);

  /// Appends one letter as-is (ordinal included — the in-memory queue
  /// assigns ordinals and this store mirrors them).
  Status Append(const std::string& source, const DeadLetter& letter);

  /// Appends a synthetic letter describing a quarantined journal
  /// region (no event survives, so a StreamEnd placeholder stands in,
  /// same as session quarantine). Assigns the next free ordinal.
  Status AppendQuarantine(const std::string& source,
                          const std::string& error);

  /// The letters loaded at Open, oldest first (appends after Open are
  /// not re-read).
  const std::vector<DeadLetter>& recovered() const { return recovered_; }

  /// 1 + the highest ordinal seen (recovered or appended), or 0 when
  /// the store is empty — matching DeadLetterQueue ordinals, which
  /// start at 0. Seeds the queue's counter after a restart.
  uint64_t next_ordinal() const;

  /// Records whose framing/CRC failed during Open (load stopped
  /// there; everything before replayed fine).
  uint64_t load_errors() const { return load_errors_; }

  Status Sync();

 private:
  DeadLetterStore(std::string path, std::unique_ptr<WritableFile> file);

  std::string path_;
  std::vector<DeadLetter> recovered_;
  uint64_t load_errors_ = 0;

  mutable std::mutex mu_;
  std::unique_ptr<WritableFile> file_;
  uint64_t next_ordinal_ = 0;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STORAGE_DEAD_LETTER_STORE_H_
