// The storage substrate every persisted format shares: append-only
// files, the 16-byte record header, per-source directories and the
// positional damage scan. The ingest journal (GSF1 kIngest records in
// seg-*.gsj), the tile store (GST1 records in page-*.gst) and the
// dead-letter store (its own 12-byte GSDL framing, which uses only the
// files and the directory helpers) each pass their format in as
// arguments; nothing here knows which store is calling.
//
// Record header (16 bytes, little-endian; GSF1 and GST1 share it byte
// for byte):
//
//   0   magic        4 bytes ("GSF1", "GST1")
//   4   type         u8
//   5   flags        u8   (GSF1 flags; GST1 pyramid level)
//   6   version      u16
//   8   payload_len  u32
//   12  payload_crc  u32  CRC-32 of the payload bytes
//
// Damage policy (ScanSegments). A source's segments are scanned in
// order; a record is good when its header, length and CRC check out
// and the caller's record callback accepts it. At a bad record the
// scan resyncs at the next offset where a good record starts. The bad
// bytes are then classified by position alone:
//   * nothing good follows them in the LAST segment: a torn tail, the
//     half-written append a crash interrupted. It was never
//     acknowledged, so recovery cuts it off (CutTornTail);
//   * anything else — good records follow in the same segment, or the
//     damage ends a segment that is not the last: a corrupt region.
//     Those bytes were committed once, so the loss is reported and
//     every record around it keeps serving.
//
// Per-source directory layout under a store root:
//
//   <root>/<SourceDirName(source)>/name    original source name + "\n"
//   <root>/<SourceDirName(source)>/<prefix><number><suffix>  segments

#ifndef GEOSTREAMS_STORAGE_RECORD_FILE_H_
#define GEOSTREAMS_STORAGE_RECORD_FILE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace geostreams {

/// Minimal append-only file the stores write through. The indirection
/// exists so tests can inject FaultyFile (short writes, torn records,
/// fail-at-byte-N) under the real store logic.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const uint8_t* data, size_t len) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

using WritableFileFactory =
    std::function<Result<std::unique_ptr<WritableFile>>(
        const std::string& path)>;

/// Opens (create/append) a plain POSIX file. The default factory.
Result<std::unique_ptr<WritableFile>> OpenPosixWritable(
    const std::string& path);

/// Reads all of `path` into `out`. NotFound when the file is absent.
Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out);

// ---------------------------------------------------------------------------
// Record header

inline constexpr size_t kRecordHeaderSize = 16;

/// What distinguishes one record format from another.
struct RecordFormat {
  char magic[4];
  uint16_t version;
  /// Longer payload lengths are garbage (a desynchronized or hostile
  /// writer must not drive allocation).
  uint32_t max_payload;
  /// Names the format in error messages ("wire", "store").
  const char* label;
};

/// A header-, length- and CRC-valid record.
struct RecordView {
  uint8_t type = 0;
  uint8_t flags = 0;
  const uint8_t* payload = nullptr;
  uint32_t payload_len = 0;
  size_t size() const { return kRecordHeaderSize + payload_len; }
};

/// Opens a record at the end of `out` by reserving its header, and
/// returns where the record starts. The caller appends the payload
/// straight into `out`, then seals the record.
size_t BeginRecord(std::vector<uint8_t>& out);

/// Fills in the header of the record opened at `start`, whose payload
/// runs to the end of `out`; the CRC is taken over the payload in place.
void SealRecord(const RecordFormat& format, uint8_t type, uint8_t flags,
                size_t start, std::vector<uint8_t>& out);

/// Appends header + payload to `out`.
void AppendRecord(const RecordFormat& format, uint8_t type, uint8_t flags,
                  const uint8_t* payload, size_t payload_len,
                  std::vector<uint8_t>& out);

/// Validates the record at the front of `data` (`avail` bytes, which
/// may run past the record): magic, version, length cap, payload
/// present, CRC. The type is the caller's to check. InvalidArgument
/// on any failure.
Result<RecordView> ParseRecord(const RecordFormat& format,
                               const uint8_t* data, size_t avail);

// ---------------------------------------------------------------------------
// Per-source directories

/// The directory name holding `source`: the common safe set of
/// characters is kept, anything else becomes '_' and the name gets an
/// FNV-1a suffix so distinct sources stay distinct.
std::string SourceDirName(const std::string& source);

/// Creates <root>/<SourceDirName(source)> with its name marker (if the
/// marker is missing) and returns the directory path.
Result<std::string> CreateSourceDir(const std::string& root,
                                    const std::string& source);

struct SourceDir {
  std::string path;
  /// From the name marker; the directory name when there is none.
  std::string source;
};

/// Every source directory under `root`, sorted by directory name.
Result<std::vector<SourceDir>> ListSourceDirs(const std::string& root);

struct SegmentFile {
  std::string path;
  uint64_t number = 0;  // the digits between prefix and suffix
};

/// The files in `dir` named <prefix><digits><suffix>, by number.
Result<std::vector<SegmentFile>> ListSegments(const std::string& dir,
                                              const std::string& prefix,
                                              const std::string& suffix);

// ---------------------------------------------------------------------------
// Damage scan

/// One good record seen by ScanSegments.
struct ScannedRecord {
  size_t segment = 0;   // index into the scanned segment list
  uint64_t offset = 0;  // of the record start within the segment
  RecordView record;
};

/// Accepts or rejects one header- and CRC-valid record. With `probe`
/// false the callback also consumes it; with `probe` true the scan is
/// only looking for where good records resume after damage, and the
/// callback must have no side effects. A non-OK status makes the
/// record damage; its message becomes the damage reason.
using RecordCallback =
    std::function<Status(const ScannedRecord& record, bool probe)>;

struct DamagedRegion {
  std::string path;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  std::string reason;  // why the first bad record failed
};

struct SegmentScan {
  /// Corrupt regions, in file order.
  std::vector<DamagedRegion> corrupt;
  /// The last segment's torn tail, if any (bytes == 0: none).
  DamagedRegion torn;
  /// Per segment, its length once the torn tail is cut.
  std::vector<uint64_t> good_bytes;

  bool torn_tail() const { return torn.bytes > 0; }
};

/// Scans `segments` in order with the damage policy above, handing
/// every good record to `on_record`. Reads only; see CutTornTail.
Result<SegmentScan> ScanSegments(const RecordFormat& format,
                                 const std::vector<SegmentFile>& segments,
                                 const RecordCallback& on_record);

/// Truncates the scan's torn tail off its segment (no-op without one).
Status CutTornTail(const SegmentScan& scan);

}  // namespace geostreams

#endif  // GEOSTREAMS_STORAGE_RECORD_FILE_H_
