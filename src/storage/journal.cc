#include "storage/journal.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>

#include "common/logging.h"
#include "common/string_util.h"
#include "storage/dead_letter_store.h"
#include "storage/governor.h"

namespace geostreams {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSegmentPrefix = "seg-";
constexpr const char* kSegmentSuffix = ".gsj";
constexpr const char* kDeadLetterFile = "dead_letters.gsd";
// Compaction staging file: never a valid segment name, so a crash
// mid-compaction leaves it invisible to ListSegments; recovery and
// the next retention pass clean it up.
constexpr const char* kCompactTmpFile = "compact.tmp";

uint64_t ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

Result<std::vector<SegmentFile>> ListJournalSegments(const std::string& dir) {
  return ListSegments(dir, kSegmentPrefix, kSegmentSuffix);
}

std::string SegmentPath(const std::string& dir, uint64_t start_seq) {
  return dir + "/" + kSegmentPrefix +
         StringPrintf("%020llu", static_cast<unsigned long long>(start_seq)) +
         kSegmentSuffix;
}

/// Decodes one header- and CRC-valid journal record of `source`.
Result<IngestMessage> DecodeRecord(const RecordView& record,
                                   const std::string& source) {
  if (record.type != static_cast<uint8_t>(MessageType::kIngest)) {
    return Status::InvalidArgument("not an ingest record");
  }
  GEOSTREAMS_ASSIGN_OR_RETURN(IngestMessage message,
                              DecodeIngestPayload(record));
  if (message.source != source) {
    return Status::InvalidArgument("record names source '" + message.source +
                                   "'");
  }
  return message;
}

struct SourceScan {
  SourceRecovery recovery;
  SegmentScan damage;
};

/// Runs the shared damage scan over one source's segments, delivering
/// committed records (seq-deduplicated) to `fn`. Shared by recovery
/// (which then truncates/quarantines what the scan reports) and Replay
/// (which only reads).
Result<SourceScan> ScanSource(const std::vector<SegmentFile>& segments,
                              const std::string& source,
                              const std::function<void(const IngestMessage&)>&
                                  fn) {
  SourceScan out;
  SourceRecovery& recovery = out.recovery;
  uint64_t max_seq = 0;
  auto on_record = [&](const ScannedRecord& scanned, bool probe) -> Status {
    GEOSTREAMS_ASSIGN_OR_RETURN(IngestMessage message,
                                DecodeRecord(scanned.record, source));
    if (probe) return Status::OK();
    if (message.seq <= max_seq) {
      // A re-append after a NACKed delivery: the first committed copy
      // already replayed.
      ++recovery.duplicate_records;
    } else {
      max_seq = message.seq;
      ++recovery.records_replayed;
      recovery.bytes_replayed += scanned.record.size();
      if (fn) fn(message);
    }
    return Status::OK();
  };
  GEOSTREAMS_ASSIGN_OR_RETURN(out.damage,
                              ScanSegments(kWireFormat, segments, on_record));
  recovery.torn_tail = out.damage.torn_tail();
  recovery.torn_bytes = out.damage.torn.bytes;
  recovery.corrupt_regions = out.damage.corrupt.size();
  for (const DamagedRegion& region : out.damage.corrupt) {
    recovery.corrupt_bytes += region.bytes;
  }
  // An empty (or fully torn) journal still knows its high-water mark
  // from the newest segment's file name: rotation names segments by
  // the next sequence they will hold.
  uint64_t floor_seq = 1;
  if (!segments.empty()) floor_seq = segments.back().number;
  recovery.next_seq = std::max(max_seq + 1, floor_seq);
  return out;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kPerRecord: return "per-record";
    case FsyncPolicy::kGroupCommit: return "group-commit";
    case FsyncPolicy::kOff: return "off";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// SourceJournal

SourceJournal::SourceJournal(IngestJournal* owner, std::string source,
                             std::string dir, SourceRecovery recovered)
    : owner_(owner), source_(std::move(source)), dir_(std::move(dir)) {
  next_seq_ = recovered.next_seq;
  stats_.recovered_records = recovered.records_replayed;
  stats_.next_seq = next_seq_;
}

uint64_t SourceJournal::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

SourceJournalStats SourceJournal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SourceJournalStats out = stats_;
  out.active_segment_bytes = active_bytes_;
  out.next_seq = next_seq_;
  out.retain_floor = retain_floor_;
  return out;
}

Status SourceJournal::EnsureOpenLocked() {
  if (active_ != nullptr) return Status::OK();
  // A failed append may have left a torn partial record past the last
  // committed byte (ENOSPC persists what fit, then fails). Shrinking
  // needs no disk space, so this repair works even while the disk is
  // still full — without it, a disk that heals mid-incarnation would
  // append good records after mid-file garbage, and recovery would
  // quarantine everything past the tear.
  if (resume_truncate_ && !active_path_.empty()) {
    std::error_code ec;
    const uint64_t size = fs::file_size(active_path_, ec);
    if (!ec && size > active_bytes_) {
      fs::resize_file(active_path_, active_bytes_, ec);
      if (ec) {
        return Status::IoError("truncate torn tail of " + active_path_ +
                               ": " + ec.message());
      }
    }
    resume_truncate_ = false;
  }
  // Resume the newest recovered segment when there is one (recovery
  // already truncated any torn tail off it); otherwise start a fresh
  // segment named by the next sequence number it will hold.
  GEOSTREAMS_ASSIGN_OR_RETURN(std::vector<SegmentFile> segments,
                              ListJournalSegments(dir_));
  if (!segments.empty()) {
    std::error_code ec;
    const uint64_t size = fs::file_size(segments.back().path, ec);
    if (!ec && size < owner_->options_.segment_max_bytes) {
      active_path_ = segments.back().path;
      active_bytes_ = size;
      GEOSTREAMS_ASSIGN_OR_RETURN(active_, owner_->OpenFile(active_path_));
      return Status::OK();
    }
  }
  active_path_ = SegmentPath(dir_, next_seq_);
  active_bytes_ = 0;
  GEOSTREAMS_ASSIGN_OR_RETURN(active_, owner_->OpenFile(active_path_));
  return Status::OK();
}

void SourceJournal::CountFsyncLocked(uint64_t us) {
  ++stats_.fsyncs;
  if (owner_->fsync_latency_us_) owner_->fsync_latency_us_->Observe(us);
}

Status SourceJournal::SyncLocked() {
  if (active_ == nullptr || !dirty_) return Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  GEOSTREAMS_RETURN_IF_ERROR(active_->Sync());
  dirty_ = false;
  CountFsyncLocked(ElapsedUs(t0));
  return Status::OK();
}

Status SourceJournal::RotateLocked() {
  // Seal the segment, then drop this reference to it. The handle is
  // shared: an unlocked Sync() still holding it keeps the file open
  // until its fsync returns.
  GEOSTREAMS_RETURN_IF_ERROR(SyncLocked());
  active_.reset();
  active_bytes_ = 0;
  ++stats_.rotations;
  ApplyRetentionLocked();
  return EnsureOpenLocked();
}

void SourceJournal::SetRetainFloor(uint64_t settled_upto) {
  std::lock_guard<std::mutex> lock(mu_);
  if (settled_upto > retain_floor_) retain_floor_ = settled_upto;
}

uint64_t SourceJournal::RetireSegmentLocked(const std::string& path,
                                            uint64_t file_bytes,
                                            uint64_t* kept_cursor) {
  // Split the segment into settled records (seq < retain floor: acked
  // AND delivered — they die with the file) and live ones (journaled
  // but awaiting a producer retry — they must survive). The scan
  // stops at the first undecodable byte: bytes past damage either
  // get re-sent by the producer (live) or were already quarantined
  // loudly at recovery (settled).
  std::vector<uint8_t> data;
  std::vector<uint8_t> live;
  uint64_t live_records = 0;
  uint64_t first_live = 0;
  if (ReadWholeFile(path, &data).ok()) {
    size_t off = 0;
    while (off < data.size()) {
      Result<RecordView> record =
          ParseRecord(kWireFormat, data.data() + off, data.size() - off);
      if (!record.ok()) break;
      const size_t len = record->size();
      Result<IngestMessage> decoded = DecodeRecord(*record, source_);
      if (!decoded.ok()) break;
      if (decoded->seq >= retain_floor_ && decoded->seq > *kept_cursor) {
        first_live = live.empty() ? decoded->seq
                                  : std::min(first_live, decoded->seq);
        live.insert(live.end(), data.begin() + off, data.begin() + off + len);
        ++live_records;
        *kept_cursor = decoded->seq;
      }
      off += len;
    }
  }
  std::error_code ec;
  if (live.empty()) {
    // Everything settled: the PR 7 fast path — drop the whole file.
    if (!fs::remove(path, ec) || ec) return 0;
    ++stats_.segments_retired;
    return file_bytes;
  }
  if (live.size() >= file_bytes) {
    // Nothing to reclaim (the whole segment is live): keep it as is
    // rather than burning IO on a byte-identical rewrite.
    return 0;
  }
  // Kill-safe rewrite: stage into compact.tmp, fsync, atomically
  // rename to seg-<first-live-seq>.gsj, then remove the original. A
  // crash before the rename leaves only the invisible tmp; a crash
  // between rename and remove leaves duplicate live records that
  // recovery's seq dedup collapses. Either way no live record is lost
  // and no settled record resurfaces.
  const std::string tmp = dir_ + "/" + kCompactTmpFile;
  fs::remove(tmp, ec);
  auto open = owner_->OpenFile(tmp);
  if (!open.ok()) return 0;
  std::unique_ptr<WritableFile> file = std::move(*open);
  Status st = file->Append(live.data(), live.size());
  if (st.ok()) st = file->Sync();
  const Status closed = file->Close();
  if (st.ok()) st = closed;
  if (!st.ok()) {
    fs::remove(tmp, ec);
    return 0;
  }
  const std::string target = SegmentPath(dir_, first_live);
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return 0;
  }
  if (target != path) fs::remove(path, ec);
  ++stats_.segments_retired;
  ++stats_.segments_compacted;
  stats_.records_compacted += live_records;
  stats_.compacted_bytes += live.size();
  return file_bytes - live.size();
}

void SourceJournal::ApplyRetentionLocked() {
  const uint64_t max_bytes = owner_->options_.retention_max_bytes;
  const uint64_t max_age_ms = owner_->options_.retention_max_age_ms;
  if (max_bytes == 0 && max_age_ms == 0) return;
  {
    std::error_code ec;
    fs::remove(dir_ + "/" + kCompactTmpFile, ec);  // stale crash leftover
  }
  Result<std::vector<SegmentFile>> segments = ListJournalSegments(dir_);
  if (!segments.ok()) return;
  uint64_t total = 0;
  std::vector<uint64_t> sizes(segments->size(), 0);
  std::vector<int64_t> age_ms(segments->size(), 0);
  const time_t now = ::time(nullptr);
  for (size_t i = 0; i < segments->size(); ++i) {
    struct stat st{};
    if (::stat((*segments)[i].path.c_str(), &st) == 0) {
      sizes[i] = static_cast<uint64_t>(st.st_size);
      age_ms[i] = static_cast<int64_t>(now - st.st_mtime) * 1000;
    }
    total += sizes[i];
  }
  // Oldest first; the newest segment (the active one) never retires —
  // its name is what preserves the seq high-water mark.
  uint64_t kept_cursor = 0;
  uint64_t reclaimed_total = 0;
  for (size_t i = 0; i + 1 < segments->size(); ++i) {
    const bool over_bytes = max_bytes > 0 && total > max_bytes;
    const bool over_age =
        max_age_ms > 0 && age_ms[i] > static_cast<int64_t>(max_age_ms);
    if (!over_bytes && !over_age) continue;
    const uint64_t reclaimed =
        RetireSegmentLocked((*segments)[i].path, sizes[i], &kept_cursor);
    total -= std::min(total, reclaimed);
    reclaimed_total += reclaimed;
  }
  stats_.reclaimed_bytes += reclaimed_total;
  StorageGovernor* gov = owner_->options_.governor;
  if (gov != nullptr && reclaimed_total > 0) {
    gov->AddUsage("journal", -static_cast<int64_t>(reclaimed_total));
  }
}

Status SourceJournal::Append(const IngestMessage& message) {
  std::lock_guard<std::mutex> lock(mu_);
  StorageGovernor* gov = owner_->options_.governor;
  if (gov != nullptr) {
    // Degraded-mode admission: refuse up front so the session NACKs
    // the producer instead of faking durability. The refusal itself
    // drives the governor's self-heal probe, so retries are what
    // eventually flip the plane healthy again.
    Status admit = gov->Admit("journal");
    if (!admit.ok()) {
      ++stats_.append_errors;
      return admit;
    }
  }
  Status st = EnsureOpenLocked();
  if (st.ok() && active_bytes_ >= owner_->options_.segment_max_bytes) {
    st = RotateLocked();
  }
  if (st.ok()) {
    const std::vector<uint8_t> record = EncodeIngestMessage(message);
    st = active_->Append(record.data(), record.size());
    if (st.ok()) {
      dirty_ = true;
      active_bytes_ += record.size();
      ++stats_.appends;
      stats_.append_bytes += record.size();
      if (gov != nullptr) {
        gov->AddUsage("journal", static_cast<int64_t>(record.size()));
      }
      switch (owner_->options_.fsync) {
        case FsyncPolicy::kPerRecord:
          st = SyncLocked();
          break;
        case FsyncPolicy::kGroupCommit:
          // Nothing on the append path: the record is dirty_ and the
          // owner's background flusher fsyncs it within the interval.
          // The ack that follows promises "journaled", with a loss
          // window bounded by group_commit_interval_ms on power
          // failure — exactly the policy's contract, minus the disk
          // stall every interval-th producer used to pay inline.
          break;
        case FsyncPolicy::kOff:
          break;
      }
    }
  }
  if (gov != nullptr) gov->RecordWriteResult("journal", st);
  if (!st.ok()) {
    ++stats_.append_errors;
    // The write may have landed partially. Drop the handle and mark
    // the tail suspect: the next append truncates back to the last
    // known-good byte before resuming (EnsureOpenLocked), and the
    // record is re-appended whole when the producer retries. If no
    // append ever follows, startup recovery truncates the torn tail.
    if (active_ != nullptr) {
      active_.reset();
      resume_truncate_ = true;
    }
    return st;
  }
  if (message.seq >= next_seq_) next_seq_ = message.seq + 1;
  return Status::OK();
}

Status SourceJournal::Sync() {
  std::shared_ptr<WritableFile> file;
  uint64_t appends = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (active_ == nullptr || !dirty_) return Status::OK();
    file = active_;
    appends = stats_.appends;
  }
  // The fsync runs without mu_, so appends to this source never wait
  // on the disk. The shared handle keeps the file open even if an
  // append meanwhile rotates the segment or drops it after an error.
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = file->Sync();
  const uint64_t us = ElapsedUs(t0);
  std::lock_guard<std::mutex> lock(mu_);
  if (!st.ok()) return st;
  // Records appended during the fsync may not be covered by it; they
  // keep the source dirty for the next one.
  if (stats_.appends == appends && active_ == file) dirty_ = false;
  CountFsyncLocked(us);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IngestJournal

IngestJournal::IngestJournal(JournalOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    fsync_latency_us_ = options_.metrics->GetHistogram(
        "geostreams_journal_fsync_latency_us",
        "Latency of journal fsync calls (gates acks under kPerRecord)");
  }
}

void IngestJournal::RegisterCollector() {
  if (options_.metrics == nullptr) return;
  MetricsRegistry& reg = *options_.metrics;
  auto counter = [&reg](const char* name, const char* help) {
    return reg.GetCounter(name, help);
  };
  Counter* appends = counter("geostreams_journal_appends_total",
                             "Records appended to the ingest journal");
  Counter* append_bytes = counter("geostreams_journal_append_bytes_total",
                                  "Bytes appended to the ingest journal");
  Counter* append_errors = counter(
      "geostreams_journal_append_errors_total",
      "Journal appends that failed (the batch was NACKed, not acked)");
  Counter* fsyncs = counter("geostreams_journal_fsyncs_total",
                            "fsync calls issued by the journal");
  Counter* rotations =
      counter("geostreams_journal_rotations_total", "Segment rotations");
  Counter* retired = counter("geostreams_journal_segments_retired_total",
                             "Closed segments deleted by byte/age retention");
  Counter* compacted_segments = counter(
      "geostreams_journal_segments_compacted_total",
      "Retired segments whose live records were rewritten forward");
  Counter* compacted_records = counter(
      "geostreams_journal_records_compacted_total",
      "Still-unacked records carried across segment retirement");
  Counter* reclaimed_bytes =
      counter("geostreams_journal_reclaimed_bytes_total",
              "On-disk bytes freed by retention/compaction");
  Counter* recovered_records =
      counter("geostreams_journal_recovered_records_total",
              "Committed records replayed by startup recovery");
  Counter* recovered_duplicates =
      counter("geostreams_journal_recovered_duplicates_total",
              "Duplicate sequence numbers skipped by startup recovery");
  Counter* torn_tails =
      counter("geostreams_journal_torn_tails_total",
              "Half-written tail records truncated by startup recovery");
  Counter* torn_bytes = counter("geostreams_journal_torn_bytes_total",
                                "Bytes truncated off torn journal tails");
  Counter* corrupt_regions = counter(
      "geostreams_journal_corrupt_regions_total",
      "Mid-file corrupt regions quarantined into dead-letter stores");
  collector_ = reg.AddCollector([=, this] {
    const SourceJournalStats s = TotalStats();
    appends->Set(s.appends);
    append_bytes->Set(s.append_bytes);
    append_errors->Set(s.append_errors);
    fsyncs->Set(s.fsyncs);
    rotations->Set(s.rotations);
    retired->Set(s.segments_retired);
    compacted_segments->Set(s.segments_compacted);
    compacted_records->Set(s.records_compacted);
    reclaimed_bytes->Set(s.reclaimed_bytes);
    // Fixed once Open returns.
    recovered_records->Set(recovery_.records_replayed);
    recovered_duplicates->Set(recovery_.duplicate_records);
    torn_tails->Set(recovery_.torn_tails);
    torn_bytes->Set(recovery_.torn_bytes);
    corrupt_regions->Set(recovery_.corrupt_regions);
  });
}

IngestJournal::~IngestJournal() {
  StopFlusher();
  Status ignored = SyncAll();
  (void)ignored;
}

void IngestJournal::FlusherLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.group_commit_interval_ms == 0
                                    ? 1
                                    : options_.group_commit_interval_ms);
  std::unique_lock<std::mutex> lock(flusher_mu_);
  while (!flusher_stop_) {
    flusher_cv_.wait_for(lock, interval,
                         [this] { return flusher_stop_; });
    if (flusher_stop_) break;
    lock.unlock();
    // SyncLocked inside skips sources with nothing dirty, so an idle
    // journal costs a map walk, not an fsync storm.
    Status st = SyncAll();
    if (!st.ok()) {
      GEOSTREAMS_LOG(kWarning)
          << "journal group-commit flush failed: " << st.ToString();
    }
    lock.lock();
  }
}

void IngestJournal::StopFlusher() {
  {
    std::lock_guard<std::mutex> lock(flusher_mu_);
    if (flusher_stop_) return;
    flusher_stop_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

Result<std::unique_ptr<WritableFile>> IngestJournal::OpenFile(
    const std::string& path) {
  if (options_.file_factory) return options_.file_factory(path);
  return OpenPosixWritable(path);
}

Result<std::unique_ptr<IngestJournal>> IngestJournal::Open(
    JournalOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("journal directory must be non-empty");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("create " + options.dir + ": " + ec.message());
  }
  std::unique_ptr<IngestJournal> journal(
      new IngestJournal(std::move(options)));
  GEOSTREAMS_RETURN_IF_ERROR(journal->RecoverAll());
  journal->RegisterCollector();
  if (journal->options_.fsync == FsyncPolicy::kGroupCommit) {
    // Interval fsyncs happen here, off every append path.
    IngestJournal* raw = journal.get();
    journal->flusher_ = std::thread([raw] { raw->FlusherLoop(); });
  }
  return journal;
}

Status IngestJournal::RecoverAll() {
  GEOSTREAMS_ASSIGN_OR_RETURN(std::vector<SourceDir> source_dirs,
                              ListSourceDirs(options_.dir));
  for (const SourceDir& dir : source_dirs) {
    GEOSTREAMS_RETURN_IF_ERROR(RecoverSource(dir));
  }
  if (options_.governor != nullptr) {
    // Seed the governor's byte accounting with what is actually on
    // disk, so budgets bind from the first post-restart append.
    uint64_t on_disk = 0;
    std::error_code walk_ec;
    for (const auto& entry :
         fs::recursive_directory_iterator(options_.dir, walk_ec)) {
      if (!entry.is_regular_file(walk_ec)) continue;
      if (entry.path().extension() == kSegmentSuffix) {
        on_disk += entry.file_size(walk_ec);
      }
    }
    options_.governor->SetUsage("journal", on_disk);
  }
  return Status::OK();
}

Status IngestJournal::RecoverSource(const SourceDir& dir) {
  const std::string& source = dir.source;
  {
    // A crash mid-compaction leaves the staging file; the rename
    // never happened, so the original segment is intact and the tmp
    // is garbage.
    std::error_code ec;
    fs::remove(dir.path + "/" + kCompactTmpFile, ec);
  }
  GEOSTREAMS_ASSIGN_OR_RETURN(std::vector<SegmentFile> segments,
                              ListJournalSegments(dir.path));
  GEOSTREAMS_ASSIGN_OR_RETURN(SourceScan scan,
                              ScanSource(segments, source, nullptr));
  if (scan.damage.torn_tail()) {
    // Nothing valid follows in the whole journal: the half-written
    // append the crash interrupted. It was never acked, so cutting it
    // loses nothing.
    GEOSTREAMS_RETURN_IF_ERROR(CutTornTail(scan.damage));
    ++recovery_.torn_tails;
    GEOSTREAMS_LOG(kWarning)
        << "journal source '" << source << "': truncated torn tail of "
        << scan.damage.torn.bytes << " bytes at offset "
        << scan.damage.torn.offset << " of " << scan.damage.torn.path;
  }
  for (const DamagedRegion& region : scan.damage.corrupt) {
    // The region WAS acked once and is now unreadable: quarantine it,
    // loudly, while every surviving record keeps replaying.
    const std::string file_name = fs::path(region.path).filename().string();
    const std::string reason = StringPrintf(
        "journal %s corrupt at offset %llu (%llu bytes quarantined): %s",
        file_name.c_str(), static_cast<unsigned long long>(region.offset),
        static_cast<unsigned long long>(region.bytes), region.reason.c_str());
    GEOSTREAMS_LOG(kError) << "journal source '" << source << "': " << reason;
    Result<DeadLetterStore*> store = DeadLettersFor(source);
    if (store.ok()) {
      Status st = (*store)->AppendQuarantine(source, reason);
      if (!st.ok()) {
        GEOSTREAMS_LOG(kWarning)
            << "could not persist quarantine record: " << st.ToString();
      }
    }
  }
  recovery_.records_replayed += scan.recovery.records_replayed;
  recovery_.duplicate_records += scan.recovery.duplicate_records;
  recovery_.torn_bytes += scan.recovery.torn_bytes;
  recovery_.corrupt_regions += scan.recovery.corrupt_regions;
  recovery_.sources[source] = scan.recovery;
  return Status::OK();
}

Result<SourceJournal*> IngestJournal::SourceFor(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(source);
  if (it != sources_.end()) return it->second.get();
  GEOSTREAMS_ASSIGN_OR_RETURN(const std::string dir,
                              CreateSourceDir(options_.dir, source));
  SourceRecovery recovered;
  auto rec_it = recovery_.sources.find(source);
  if (rec_it != recovery_.sources.end()) recovered = rec_it->second;
  std::unique_ptr<SourceJournal> journal(
      new SourceJournal(this, source, dir, recovered));
  SourceJournal* out = journal.get();
  sources_.emplace(source, std::move(journal));
  return out;
}

Result<DeadLetterStore*> IngestJournal::DeadLettersFor(
    const std::string& source) {
  // Note: called from RecoverSource (single-threaded, inside Open)
  // and from RegisterStream later; mu_ is not held on either path.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dead_letters_.find(source);
  if (it != dead_letters_.end()) return it->second.get();
  GEOSTREAMS_ASSIGN_OR_RETURN(const std::string dir,
                              CreateSourceDir(options_.dir, source));
  WritableFileFactory factory = options_.file_factory;
  if (!factory) factory = OpenPosixWritable;
  GEOSTREAMS_ASSIGN_OR_RETURN(
      std::unique_ptr<DeadLetterStore> store,
      DeadLetterStore::Open(dir + "/" + kDeadLetterFile, factory));
  DeadLetterStore* out = store.get();
  dead_letters_.emplace(source, std::move(store));
  return out;
}

Status IngestJournal::Replay(
    const std::string& source,
    const std::function<void(const IngestMessage&)>& fn) const {
  const std::string dir = options_.dir + "/" + SourceDirName(source);
  std::error_code ec;
  if (!fs::exists(dir, ec)) {
    return Status::NotFound("no journal for source " + source);
  }
  GEOSTREAMS_ASSIGN_OR_RETURN(std::vector<SegmentFile> segments,
                              ListJournalSegments(dir));
  return ScanSource(segments, source, fn).status();
}

SourceJournalStats IngestJournal::TotalStats() const {
  std::vector<SourceJournal*> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources.reserve(sources_.size());
    for (const auto& [name, journal] : sources_) {
      sources.push_back(journal.get());
    }
  }
  SourceJournalStats total;
  total.next_seq = 0;
  for (SourceJournal* journal : sources) {
    const SourceJournalStats s = journal->stats();
    total.appends += s.appends;
    total.append_bytes += s.append_bytes;
    total.append_errors += s.append_errors;
    total.fsyncs += s.fsyncs;
    total.rotations += s.rotations;
    total.segments_retired += s.segments_retired;
    total.segments_compacted += s.segments_compacted;
    total.records_compacted += s.records_compacted;
    total.compacted_bytes += s.compacted_bytes;
    total.reclaimed_bytes += s.reclaimed_bytes;
    total.active_segment_bytes += s.active_segment_bytes;
    total.recovered_records += s.recovered_records;
  }
  return total;
}

Status IngestJournal::SyncAll() {
  std::vector<SourceJournal*> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources.reserve(sources_.size());
    for (const auto& [name, journal] : sources_) {
      sources.push_back(journal.get());
    }
  }
  Status first = Status::OK();
  for (SourceJournal* journal : sources) {
    Status st = journal->Sync();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

}  // namespace geostreams
