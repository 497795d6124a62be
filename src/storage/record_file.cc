#include "storage/record_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/byte_codec.h"
#include "common/string_util.h"
#include "raster/checksum.h"

namespace geostreams {

namespace fs = std::filesystem;

namespace {

constexpr char kNameFile[] = "name";

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const uint8_t* data, size_t len) override {
    size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd_, data + off, len - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(StringPrintf("write %s: %s", path_.c_str(),
                                            std::strerror(errno)));
      }
      off += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::IoError(StringPrintf("fsync %s: %s", path_.c_str(),
                                          std::strerror(errno)));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) {
      return Status::IoError(StringPrintf("close %s: %s", path_.c_str(),
                                          std::strerror(errno)));
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

/// Parses <prefix><digits><suffix>; false for anything else.
bool ParseSegmentName(const std::string& name, const std::string& prefix,
                      const std::string& suffix, uint64_t* number) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *number = value;
  return true;
}

}  // namespace

Result<std::unique_ptr<WritableFile>> OpenPosixWritable(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError(StringPrintf("open %s: %s", path.c_str(),
                                        std::strerror(errno)));
  }
  return std::unique_ptr<WritableFile>(
      std::make_unique<PosixWritableFile>(fd, path));
}

Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  out->clear();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    const int err = errno;
    const std::string msg =
        StringPrintf("open %s: %s", path.c_str(), std::strerror(err));
    return err == ENOENT ? Status::NotFound(msg) : Status::IoError(msg);
  }
  struct stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    out->reserve(static_cast<size_t>(st.st_size));
  }
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::IoError(
          StringPrintf("read %s: %s", path.c_str(), std::strerror(err)));
    }
    if (n == 0) break;
    out->insert(out->end(), buf, buf + n);
  }
  ::close(fd);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Record header

size_t BeginRecord(std::vector<uint8_t>& out) {
  const size_t start = out.size();
  out.resize(start + kRecordHeaderSize);
  return start;
}

void SealRecord(const RecordFormat& format, uint8_t type, uint8_t flags,
                size_t start, std::vector<uint8_t>& out) {
  const uint8_t* payload = out.data() + start + kRecordHeaderSize;
  const size_t payload_len = out.size() - start - kRecordHeaderSize;
  std::vector<uint8_t> header(format.magic, format.magic + 4);
  header.push_back(type);
  header.push_back(flags);
  PutU16(header, format.version);
  PutU32(header, static_cast<uint32_t>(payload_len));
  PutU32(header, Crc32(payload, payload_len));
  std::copy(header.begin(), header.end(), out.begin() + start);
}

void AppendRecord(const RecordFormat& format, uint8_t type, uint8_t flags,
                  const uint8_t* payload, size_t payload_len,
                  std::vector<uint8_t>& out) {
  const size_t start = BeginRecord(out);
  out.insert(out.end(), payload, payload + payload_len);
  SealRecord(format, type, flags, start, out);
}

Result<RecordView> ParseRecord(const RecordFormat& format,
                               const uint8_t* data, size_t avail) {
  if (avail < kRecordHeaderSize) {
    return Status::InvalidArgument(StringPrintf(
        "%s message truncated: %zu bytes, header needs %zu", format.label,
        avail, kRecordHeaderSize));
  }
  if (std::memcmp(data, format.magic, 4) != 0) {
    return Status::InvalidArgument(StringPrintf(
        "%s message lacks %.4s magic", format.label, format.magic));
  }
  const uint16_t version = GetU16(data + 6);
  if (version != format.version) {
    return Status::InvalidArgument(
        StringPrintf("%s version %u not supported (speak %u)", format.label,
                     version, format.version));
  }
  const uint32_t promised = GetU32(data + 8);
  if (promised > format.max_payload) {
    return Status::InvalidArgument(StringPrintf(
        "%s payload length %u exceeds limit %u (desynchronized?)",
        format.label, promised, format.max_payload));
  }
  if (avail - kRecordHeaderSize < promised) {
    return Status::InvalidArgument(StringPrintf(
        "%s payload truncated: header promises %u bytes, %zu present",
        format.label, promised, avail - kRecordHeaderSize));
  }
  RecordView view;
  view.type = data[4];
  view.flags = data[5];
  view.payload = data + kRecordHeaderSize;
  view.payload_len = promised;
  const uint32_t header_crc = GetU32(data + 12);
  const uint32_t crc = Crc32(view.payload, promised);
  if (crc != header_crc) {
    return Status::InvalidArgument(StringPrintf(
        "%s payload checksum mismatch: header %08x, computed %08x",
        format.label, header_crc, crc));
  }
  return view;
}

// ---------------------------------------------------------------------------
// Per-source directories

std::string SourceDirName(const std::string& source) {
  std::string safe;
  bool mangled = false;
  for (char c : source) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                      c == '_';
    safe.push_back(keep ? c : '_');
    mangled = mangled || !keep;
  }
  if (safe.empty() || mangled) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (char c : source) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    safe += StringPrintf("-%08llx",
                         static_cast<unsigned long long>(h & 0xffffffffull));
  }
  return safe;
}

Result<std::string> CreateSourceDir(const std::string& root,
                                    const std::string& source) {
  const std::string dir = root + "/" + SourceDirName(source);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("create " + dir + ": " + ec.message());
  const std::string name_path = dir + "/" + kNameFile;
  if (!fs::exists(name_path, ec)) {
    GEOSTREAMS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                                OpenPosixWritable(name_path));
    const std::string line = source + "\n";
    GEOSTREAMS_RETURN_IF_ERROR(f->Append(
        reinterpret_cast<const uint8_t*>(line.data()), line.size()));
    GEOSTREAMS_RETURN_IF_ERROR(f->Close());
  }
  return dir;
}

Result<std::vector<SourceDir>> ListSourceDirs(const std::string& root) {
  std::vector<SourceDir> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    SourceDir dir;
    dir.path = entry.path().string();
    dir.source = entry.path().filename().string();
    // The marker holds the original name (directory names are
    // sanitized); directories written by hand have none.
    std::vector<uint8_t> bytes;
    if (ReadWholeFile(dir.path + "/" + kNameFile, &bytes).ok() &&
        !bytes.empty()) {
      dir.source = std::string(StripWhitespace(
          std::string(bytes.begin(), bytes.end())));
    }
    out.push_back(std::move(dir));
  }
  if (ec) return Status::IoError("list " + root + ": " + ec.message());
  std::sort(out.begin(), out.end(),
            [](const SourceDir& a, const SourceDir& b) {
              return a.path < b.path;
            });
  return out;
}

Result<std::vector<SegmentFile>> ListSegments(const std::string& dir,
                                              const std::string& prefix,
                                              const std::string& suffix) {
  std::vector<SegmentFile> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t number = 0;
    if (!ParseSegmentName(entry.path().filename().string(), prefix, suffix,
                          &number)) {
      continue;
    }
    segments.push_back({entry.path().string(), number});
  }
  if (ec) return Status::IoError("list " + dir + ": " + ec.message());
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.number < b.number;
            });
  return segments;
}

// ---------------------------------------------------------------------------
// Damage scan

Result<SegmentScan> ScanSegments(const RecordFormat& format,
                                 const std::vector<SegmentFile>& segments,
                                 const RecordCallback& on_record) {
  SegmentScan out;
  std::vector<uint8_t> data;
  // Status of the record at `off`: header, CRC, then the caller's say.
  auto check = [&](size_t si, size_t off, bool probe,
                   size_t* size) -> Status {
    GEOSTREAMS_ASSIGN_OR_RETURN(
        const RecordView view,
        ParseRecord(format, data.data() + off, data.size() - off));
    GEOSTREAMS_RETURN_IF_ERROR(on_record(ScannedRecord{si, off, view}, probe));
    *size = view.size();
    return Status::OK();
  };
  for (size_t si = 0; si < segments.size(); ++si) {
    const std::string& path = segments[si].path;
    GEOSTREAMS_RETURN_IF_ERROR(ReadWholeFile(path, &data));
    out.good_bytes.push_back(data.size());
    size_t off = 0;
    while (off < data.size()) {
      size_t size = 0;
      const Status st = check(si, off, /*probe=*/false, &size);
      if (st.ok()) {
        off += size;
        continue;
      }
      // Damage at `off`. Resync: the next offset where a good record
      // starts ends the damaged region.
      size_t resync = data.size();
      for (size_t probe = off + 1; probe + kRecordHeaderSize <= data.size();
           ++probe) {
        const void* hit = std::memchr(data.data() + probe, format.magic[0],
                                      data.size() - probe);
        if (hit == nullptr) break;
        probe = static_cast<size_t>(static_cast<const uint8_t*>(hit) -
                                    data.data());
        if (check(si, probe, /*probe=*/true, &size).ok()) {
          resync = probe;
          break;
        }
      }
      DamagedRegion region{path, off, resync - off, st.message()};
      if (resync == data.size() && si + 1 == segments.size()) {
        out.good_bytes.back() = off;
        out.torn = std::move(region);
        break;
      }
      out.corrupt.push_back(std::move(region));
      off = resync;
    }
  }
  return out;
}

Status CutTornTail(const SegmentScan& scan) {
  if (!scan.torn_tail()) return Status::OK();
  std::error_code ec;
  fs::resize_file(scan.torn.path, scan.torn.offset, ec);
  if (ec) {
    return Status::IoError("truncate " + scan.torn.path + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace geostreams
