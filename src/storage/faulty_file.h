// Fault injection at the storage boundary — the disk half of the
// chaos-testing harness (FlakySocket covers the network half).
//
// A FaultyFileInjector builds a WritableFileFactory whose files
// misbehave on a deterministic schedule derived from a seed and a
// shared operation counter, so every failure a test provokes
// reproduces from the same seed:
//
//   * short writes — an Append persists only a prefix of the record
//     and reports an I/O error, leaving a torn record on disk exactly
//     like a power cut mid-write; recovery must truncate it;
//   * bit flips — one byte of the buffer is flipped before it reaches
//     the real file, modelling silent media corruption; the record's
//     CRC-32 must catch it at recovery;
//   * sync failures — fsync reports an error without the bytes being
//     made durable, exercising the ack gate's failure path;
//   * fail-at-byte-N — a lifetime byte budget across every file the
//     factory opens; the write that crosses it persists only the
//     bytes up to the limit (a torn prefix) and fails. Kill-point
//     schedules sweep N to place a crash inside every record of a
//     run.
//
// Probabilities are evaluated with a counter-indexed hash (no shared
// RNG state). A default-constructed options struct injects nothing —
// the factory then behaves like OpenPosixWritable.

#ifndef GEOSTREAMS_STORAGE_FAULTY_FILE_H_
#define GEOSTREAMS_STORAGE_FAULTY_FILE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "storage/record_file.h"

namespace geostreams {

struct FaultyFileOptions {
  /// Seed for the deterministic fault schedule.
  uint64_t seed = 1;
  /// Probability an Append persists a torn prefix and fails.
  double short_write_p = 0.0;
  /// Probability an Append flips one byte before persisting.
  double bit_flip_p = 0.0;
  /// Probability a Sync fails (bytes stay volatile).
  double sync_fail_p = 0.0;
  /// Lifetime byte budget across all files from this injector:
  /// 0 = unlimited; otherwise the append that crosses the budget
  /// persists only up to it and fails. Models kill -9 at byte N.
  uint64_t fail_at_byte = 0;
  /// Shared space quota across all files (0 = unlimited): an append
  /// that would push lifetime bytes_written past the quota persists
  /// only the bytes that fit (a torn record, like real ENOSPC) and
  /// fails with a ResourceExhausted "no space" error. Unlike
  /// fail_at_byte the disk stays alive — syncs keep working and
  /// raising the quota (SetSpaceQuota) models space being freed, so
  /// degraded -> healthy self-healing is testable deterministically.
  uint64_t space_quota_bytes = 0;
};

/// What the injector actually did — asserted against in chaos tests
/// so a "passing" run provably exercised the faults it configured.
struct FaultyFileStats {
  uint64_t appends = 0;
  uint64_t short_writes = 0;
  uint64_t bit_flips = 0;
  uint64_t sync_failures = 0;
  uint64_t bytes_written = 0;  // bytes actually persisted
  uint64_t enospc_failures = 0;  // appends refused by the space quota
  bool budget_exhausted = false;
};

/// Shared fault state for every file opened through Factory(). Thread
/// safe; outlive any journal using the factory.
class FaultyFileInjector {
 public:
  explicit FaultyFileInjector(FaultyFileOptions options = {});

  /// A WritableFileFactory wrapping OpenPosixWritable with this
  /// injector's fault schedule. The injector must outlive every file.
  WritableFileFactory Factory();

  FaultyFileStats stats() const;

  /// Disarms every fault (recovery phases of a chaos test run clean).
  void Disarm();

  /// Adjusts the shared space quota at runtime (0 = unlimited).
  /// Raising it past bytes_written models an operator freeing disk
  /// space: the next append — and the governor's write probe —
  /// succeeds again.
  void SetSpaceQuota(uint64_t bytes);

 private:
  friend class FaultyFile;

  mutable std::mutex mu_;
  FaultyFileOptions options_;
  FaultyFileStats stats_;
  uint64_t op_counter_ = 0;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STORAGE_FAULTY_FILE_H_
