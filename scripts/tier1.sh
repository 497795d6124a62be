#!/usr/bin/env bash
# Tier-1 verification: full build + ctest, then the concurrency-
# sensitive tests (scheduler / server / multiband / net / storage)
# rebuilt and run under ThreadSanitizer and ASan+UBSan in separate
# build trees.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "== tier-1: crash-recovery lane (journal + tile-store kill points) =="
# The chaos audit: 200 seeded server crash/restart cycles against one
# journal directory, the recovery fuzzers (truncation at every offset,
# random bit flips), and the tile store's byte-budget sweep through
# every tile-page write. Seeds are fixed inside the tests, so a
# failure here reproduces deterministically. The shared storage
# substrate's own suites ride along: the on-disk format pins, the
# damage classification both stores run, and the unlocked fsync.
cmake --build build -j "${JOBS}" \
      --target journal_test journal_killpoint_test journal_compaction_test \
               tile_store_test tile_store_retention_test \
               storage_format_test record_file_test journal_sync_test
(cd build && \
 ctest --output-on-failure -j "${JOBS}" \
       -R '^(JournalTest|JournalRecoveryTest|JournalFaultTest|JournalFuzzTest|DeadLetterStoreTest|JournalKillPointTest|JournalCompactionTest|TileStoreTest|TileStoreRecoveryTest|TileStoreKillPointTest|TileStoreRetentionTest|StorageFormatTest|RecordFileTest|BothStores/DamageClassificationTest|JournalSyncTest)')

echo "== tier-1: disk-pressure chaos lane (ENOSPC incidents + governor self-heal) =="
# 200 seeded crash/restart cycles where the injected failures are
# space failures: the disk fills mid-record, the journal NACKs the
# producer at admission, the governor degrades, space frees, and the
# SAME incarnation must heal end to end with zero lost acked records
# (exactly-once delivery + contiguous journal audit). Plus the
# governor state machine, the byte-budget/compaction suites, and the
# live-server ENOSPC e2e (HEALTH/ISTATS DEGRADED, producer NACKs,
# live queries and stored reads keep serving, self-heal).
cmake --build build -j "${JOBS}" \
      --target storage_governor_test disk_pressure_killpoint_test \
               disk_pressure_e2e_test
(cd build && \
 ctest --output-on-failure -j "${JOBS}" \
       -R '^(StorageGovernorTest|DiskPressureKillPointTest|DiskPressureE2eTest)')

echo "== tier-1: TSan lane (scheduler/supervision/server/pipeline/multiband/net/ingest/obs) =="
cmake -B build-tsan -S . -DGEOSTREAMS_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j "${JOBS}" \
      --target scheduler_test supervisor_test failure_test server_test \
               pipeline_test multiband_test net_test ingest_test obs_test \
               kernels_test journal_test journal_killpoint_test \
               journal_compaction_test tile_store_test \
               tile_store_retention_test tile_store_churn_test \
               storage_governor_test catchup_test registration_test \
               storage_format_test record_file_test journal_sync_test \
               metrics_mirror_test
(cd build-tsan && \
 ctest --output-on-failure -j "${JOBS}" \
       -R '^(SchedulerTest|SupervisorTest|SchedulerSupervisionTest|FaultInjectorTest|FaultInjectionE2eTest|FailureTest|DsmsServerTest|PipelineTest|MultibandTest|WireProtocolTest|FrameDecoderTest|CommandDispatchTest|ClientSessionTest|NetServerE2eTest|IngestChecksumTest|ServerDlqTest|DeadLetterQueueTest|GeoStreamsClientTest|SocketUtilTest|IngestWireTest|IngestSessionTest|FlakySocketTest|ProducerE2eTest|ProducerAuthTest|JournalTest|JournalRecoveryTest|JournalFaultTest|DeadLetterStoreTest|CounterTest|MetricHistogramTest|MetricsRegistryTest|TraceTest|TraceRingTest|ObsIngestTest|ObsE2eTest|ObsSummaryTest|ObserveE2eStageTest|EventLogTest|LatencyPlaneE2eTest|KernelParityTest|FilterBatchTest|OperatorParityTest|SimdDispatchTest|TileStoreTest|TileStoreRecoveryTest|TileStoreRetentionTest|TileStoreChurnTest|StorageGovernorTest|CatchUpTest|WorkersAndPlans/CatchUpConcurrentIngestTest|RegistrationTest|WorkersAndStore/MidFrameRegistrationTest|WorkersAndStore/ConcurrentRegistrationTest|Workers/RestartRegistrationTest|JournalCompactionTest|StorageFormatTest|RecordFileTest|BothStores/DamageClassificationTest|JournalSyncTest|MetricsMirrorTest)')

echo "== tier-1: ASan+UBSan lane (same concurrency/supervision set, plus the byte-plane codec, replay, windowed-assembly and cascade-tree suites) =="
# codec_parity_test rides along: the bulk column copies, both CRC
# paths (the PCLMULQDQ kernel's unaligned 16-byte loads and the
# slicing-by-8 tables) and the fill-window codec read and write at
# unaligned offsets. GeoStreamsClientTest covers the client's parked
# wire bytes, which it expands through pointers into its own copies. So does replay_parity_test: the store scan walks
# bitmap runs and bulk-copies samples out of tile pages, and reduce
# indexes dense row slabs by point coordinates. So does
# windowed_assembly_parity_test: the assembler, the gathers and the
# encoder index window rows by support offsets. So does mqo_test:
# the cascade tree's RemoveRec prunes children while it recurses, and
# the depth and routing parity suites insert and remove at every
# depth.
cmake -B build-asan -S . "-DGEOSTREAMS_SANITIZE=address,undefined" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "${JOBS}" \
      --target scheduler_test supervisor_test failure_test server_test \
               pipeline_test multiband_test net_test ingest_test obs_test \
               kernels_test journal_test journal_killpoint_test \
               journal_compaction_test tile_store_test \
               tile_store_retention_test tile_store_churn_test \
               storage_governor_test disk_pressure_e2e_test catchup_test \
               registration_test storage_format_test record_file_test journal_sync_test \
               metrics_mirror_test codec_parity_test replay_parity_test \
               windowed_assembly_parity_test mqo_test
(cd build-asan && \
 ctest --output-on-failure -j "${JOBS}" \
       -R '^(SchedulerTest|SupervisorTest|SchedulerSupervisionTest|FaultInjectorTest|FaultInjectionE2eTest|FailureTest|DsmsServerTest|PipelineTest|MultibandTest|WireProtocolTest|FrameDecoderTest|CommandDispatchTest|ClientSessionTest|NetServerE2eTest|IngestChecksumTest|ServerDlqTest|DeadLetterQueueTest|GeoStreamsClientTest|SocketUtilTest|IngestWireTest|IngestSessionTest|FlakySocketTest|ProducerE2eTest|ProducerAuthTest|JournalTest|JournalRecoveryTest|JournalFaultTest|DeadLetterStoreTest|CounterTest|MetricHistogramTest|MetricsRegistryTest|TraceTest|TraceRingTest|ObsIngestTest|ObsE2eTest|ObsSummaryTest|ObserveE2eStageTest|EventLogTest|LatencyPlaneE2eTest|KernelParityTest|FilterBatchTest|OperatorParityTest|SimdDispatchTest|TileStoreTest|TileStoreRecoveryTest|TileStoreRetentionTest|TileStoreChurnTest|StorageGovernorTest|JournalCompactionTest|DiskPressureE2eTest|CatchUpTest|WorkersAndPlans/CatchUpConcurrentIngestTest|RegistrationTest|WorkersAndStore/MidFrameRegistrationTest|WorkersAndStore/ConcurrentRegistrationTest|Workers/RestartRegistrationTest|StorageFormatTest|RecordFileTest|BothStores/DamageClassificationTest|JournalSyncTest|MetricsMirrorTest|CrcParityTest|ByteCodecParityTest|ResultFrameParityTest|IngestParityTest|StoreScanParityTest|ReduceParityTest|WindowedAssemblyParityTest|CascadeTreeTest|Sweep/IndexEquivalence|Depth/IndexEquivalenceAtDepth|SharedRestrictionTest)')

echo "== tier-1: caller-runs stress lane (workers=0 scheduler, TSan) =="
# Four producers run one caller-runs scheduler on their own threads;
# the claim must keep every pipeline on one thread at a time and in
# enqueue order. A race shows up only in some interleavings, so
# repeat it under TSan.
./build-tsan/tests/scheduler_test --gtest_repeat=200 --gtest_brief=1 \
    --gtest_filter='SchedulerTest.CallerRunsKeepsPerPipelineOrderWithConcurrentProducers'

echo "== tier-1: unlocked-fsync stress lane (journal appends vs group commit, TSan) =="
# The group-commit fsync runs outside the source's append lock while
# appends, rotation and the retention pass keep using the segment
# handle; a lifetime or publication race shows up only in some
# interleavings, so repeat it under TSan.
./build-tsan/tests/journal_sync_test --gtest_repeat=200 --gtest_brief=1

echo "== tier-1: catch-up seam stress lane (SINCE replay vs concurrent ingest, TSan) =="
# A producer pushes live frames and a StreamEnd while a SINCE
# registration replays the store and arms its gates; a lost,
# duplicated or racy frame shows up only in some interleavings, so
# repeat it under TSan.
./build-tsan/tests/catchup_test --gtest_repeat=200 --gtest_brief=1 \
    --gtest_filter='WorkersAndPlans/CatchUpConcurrentIngestTest.*'

echo "== tier-1: mid-stream registration stress lane (live queries vs concurrent ingest, TSan) =="
# Two producers keep ingesting while live queries register over and
# over, each at an arbitrary point of some frame, and a StreamEnd
# races each registration's arming; a torn frame, a gap, a lost end or
# a racy gate shows up only in some interleavings, so repeat the
# worker-pool cases under TSan.
./build-tsan/tests/registration_test --gtest_repeat=200 --gtest_brief=1 \
    --gtest_filter='WorkersAndStore/ConcurrentRegistrationTest.*/Workers2*'

echo "== tier-1: metrics-mirror teardown stress lane (scrapes vs subsystem teardown, TSan) =="
# A scrape loop keeps running while a governor, journal, store and
# NetServer that registered collectors are built and torn down; a
# collector outliving its subsystem shows up only in some
# interleavings, so repeat it under TSan.
./build-tsan/tests/metrics_mirror_test --gtest_repeat=200 --gtest_brief=1 \
    --gtest_filter='MetricsMirrorTest.ScrapesRaceSubsystemTeardown'

echo "== tier-1: churn stress lane (tile-store readers vs retention GC) =="
# One churn run races a writer, a retention storm and three readers;
# a lifetime race shows up only in some interleavings, so repeat it:
# 1000 times in the default build, 200 under TSan.
./build/tests/tile_store_churn_test --gtest_repeat=1000 --gtest_brief=1
./build-tsan/tests/tile_store_churn_test --gtest_repeat=200 --gtest_brief=1

echo "== tier-1: scalar-only lane (GEOSTREAMS_SIMD=OFF) =="
# The portable fallback must pass the same kernel/operator suites it
# shares with the AVX2 build (non-x86 targets compile exactly this).
# The CRC parity suite runs here on the slicing-by-8 tables alone (no
# PCLMULQDQ kernel is built), and the reduce parity suite with it.
cmake -B build-scalar -S . -DGEOSTREAMS_SIMD=OFF >/dev/null
cmake --build build-scalar -j "${JOBS}" \
      --target kernels_test restriction_ops_test transform_ops_test \
               compose_test planner_test codec_parity_test \
               replay_parity_test
(cd build-scalar && \
 ctest --output-on-failure -j "${JOBS}" \
       -R '^(KernelParityTest|FilterBatchTest|OperatorParityTest|SimdDispatchTest|SpatialRestrictionTest|TemporalRestrictionTest|ValueRestrictionTest|RestrictionsTest|ValueTransformTest|StretchTransformTest|AffineTest|MagnifyTest|ReduceTest|ComposeTest|NdviMacroTest|MacroOpsTest|PlannerTest|CrcParityTest|ReduceParityTest)')

echo "== tier-1: metrics exposition lint (live /metrics scrape) =="
# A malformed exposition fails silently (Prometheus drops the whole
# scrape), so a strict parse of a real GET /metrics body — duplicate
# series, label escaping, le ordering, bucket monotonicity, exemplar
# syntax — gates the build.
(cd build && \
 ctest --output-on-failure \
       -R '^NetServerE2eTest.MetricsExpositionLintPasses$')

echo "== tier-1: tracing overhead microbench (sampling off vs on) =="
# Informational: the sample_every=0 row must sit within run-to-run
# noise of the traced rows (the disabled path is one thread-local
# load + branch per operator); the exemplar/event-log rows price the
# latency plane's primitives.
cmake --build build -j "${JOBS}" --target bench_tracing
./build/bench/bench_tracing --benchmark_min_time=0.2 \
    --benchmark_filter='BM_Tracing_(EndToEnd|UntracedBranch|HistogramObserve|HistogramObserveExemplar|EventLogAppend)' || true

echo "tier-1 OK"
