#include "stream/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ops/restriction_ops.h"
#include "stream/pipeline.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::LatLonLattice;
using testing_util::PushFrame;

StreamEvent OnePointBatch(int64_t frame, int32_t col) {
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = frame;
  batch->band_count = 1;
  batch->Append1(col, 0, frame, 1.0);
  return StreamEvent::Batch(batch);
}

TEST(SchedulerTest, DeliversToAllPipelines) {
  CollectingSink a, b;
  QueryScheduler scheduler(SchedulingPolicy::kRoundRobin);
  EventSink* in_a = scheduler.AddPipeline("a", &a);
  EventSink* in_b = scheduler.AddPipeline("b", &b);
  GS_ASSERT_OK(scheduler.Start());
  GridLattice lattice = LatLonLattice(6, 4);
  GS_ASSERT_OK(PushFrame(in_a, lattice, 0));
  GS_ASSERT_OK(PushFrame(in_b, lattice, 0));
  GS_ASSERT_OK(scheduler.Stop());
  EXPECT_EQ(a.TotalPoints(), 24u);
  EXPECT_EQ(b.TotalPoints(), 24u);
  EXPECT_TRUE(testing_util::WellFormedFrames(a.events()));
}

TEST(SchedulerTest, PerQueueOrderPreserved) {
  CollectingSink sink;
  QueryScheduler scheduler(SchedulingPolicy::kRoundRobin);
  EventSink* in = scheduler.AddPipeline("q", &sink);
  GS_ASSERT_OK(scheduler.Start());
  for (int i = 0; i < 200; ++i) {
    GS_ASSERT_OK(in->Consume(OnePointBatch(0, i)));
  }
  GS_ASSERT_OK(scheduler.Stop());
  ASSERT_EQ(sink.events().size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(sink.events()[static_cast<size_t>(i)].batch->cols[0], i);
  }
}

TEST(SchedulerTest, OverflowShedsBatchesButNeverControlEvents) {
  // A pipeline that can never drain (scheduler not started yet can't
  // be used; instead use a tiny capacity and burst before the worker
  // catches up is racy) — so test the bound directly: enqueue from the
  // worker's own perspective by using capacity 4 and a slow consumer.
  class SlowSink : public EventSink {
   public:
    Status Consume(const StreamEvent& event) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++consumed_;
      if (event.kind != EventKind::kPointBatch) ++control_;
      return Status::OK();
    }
    std::atomic<int> consumed_{0};
    std::atomic<int> control_{0};
  };
  SlowSink slow;
  QueryScheduler scheduler(SchedulingPolicy::kRoundRobin,
                           /*queue_capacity=*/4);
  EventSink* in = scheduler.AddPipeline("slow", &slow);
  GS_ASSERT_OK(scheduler.Start());
  GridLattice lattice = LatLonLattice(4, 4);
  // Burst far more than capacity.
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = lattice;
  GS_ASSERT_OK(in->Consume(StreamEvent::FrameBegin(info)));
  for (int i = 0; i < 200; ++i) {
    GS_ASSERT_OK(in->Consume(OnePointBatch(0, i % 4)));
  }
  GS_ASSERT_OK(in->Consume(StreamEvent::FrameEnd(info)));
  GS_ASSERT_OK(scheduler.Stop());
  auto stats = scheduler.Stats();
  ASSERT_EQ(stats.size(), 1u);
  // No double accounting: a shed event is counted in dropped only, so
  // enqueued + dropped is the total offered and a full drain leaves
  // processed == enqueued.
  EXPECT_GT(stats[0].dropped, 0u);
  EXPECT_EQ(stats[0].enqueued + stats[0].dropped, 202u);
  EXPECT_EQ(stats[0].processed, stats[0].enqueued);
  // Frame metadata survived the shedding.
  EXPECT_EQ(slow.control_.load(), 2);
}

TEST(SchedulerTest, ReportDropsSurfacesShedding) {
  // With report_drops, a producer can tell a shed batch (capacity 0
  // means every batch overflows) from a delivered one.
  CollectingSink sink;
  SchedulerOptions options;
  options.queue_capacity = 0;
  options.report_drops = true;
  QueryScheduler scheduler(options);
  EventSink* in = scheduler.AddPipeline("q", &sink);
  GS_ASSERT_OK(scheduler.Start());
  EXPECT_EQ(in->Consume(OnePointBatch(0, 0)).code(),
            StatusCode::kResourceExhausted);
  // Control events are still admitted (and the overshoot counted).
  FrameInfo info;
  info.frame_id = 0;
  info.lattice = LatLonLattice(4, 4);
  GS_ASSERT_OK(in->Consume(StreamEvent::FrameBegin(info)));
  GS_ASSERT_OK(in->Consume(StreamEvent::FrameEnd(info)));
  GS_ASSERT_OK(scheduler.Stop());
  auto stats = scheduler.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].dropped, 1u);
  EXPECT_EQ(stats[0].enqueued, 2u);
  EXPECT_GE(stats[0].control_overflow, 1u);
}

TEST(SchedulerTest, LongestQueueFirstDrainsBacklog) {
  CollectingSink a, b;
  QueryScheduler scheduler(SchedulingPolicy::kLongestQueueFirst);
  EventSink* in_a = scheduler.AddPipeline("a", &a);
  EventSink* in_b = scheduler.AddPipeline("b", &b);
  GS_ASSERT_OK(scheduler.Start());
  for (int i = 0; i < 50; ++i) {
    GS_ASSERT_OK(in_a->Consume(OnePointBatch(0, i)));
    if (i % 10 == 0) {
      GS_ASSERT_OK(in_b->Consume(OnePointBatch(0, i)));
    }
  }
  GS_ASSERT_OK(scheduler.Stop());
  EXPECT_EQ(a.TotalPoints(), 50u);
  EXPECT_EQ(b.TotalPoints(), 5u);
}

TEST(SchedulerTest, RunsRealPipelines) {
  // Scheduler feeding an actual operator chain.
  Pipeline pipeline;
  pipeline.Add(std::make_unique<SpatialRestrictionOp>(
      "r", MakeBBoxRegion(-125.0, 40.0, -123.9, 45.0)));
  CollectingSink sink;
  GS_ASSERT_OK(pipeline.Finish(&sink));
  QueryScheduler scheduler(SchedulingPolicy::kRoundRobin);
  EventSink* in = scheduler.AddPipeline("restricted", &pipeline);
  GS_ASSERT_OK(scheduler.Start());
  GridLattice lattice = LatLonLattice(10, 8);
  GS_ASSERT_OK(PushFrame(in, lattice, 0));
  GS_ASSERT_OK(scheduler.Stop());
  EXPECT_EQ(sink.TotalPoints(), 2u * 8u);
}

TEST(SchedulerTest, Lifecycle) {
  CollectingSink sink;
  QueryScheduler scheduler(SchedulingPolicy::kRoundRobin);
  EventSink* in = scheduler.AddPipeline("q", &sink);
  // Enqueue before Start is rejected.
  EXPECT_EQ(in->Consume(OnePointBatch(0, 0)).code(),
            StatusCode::kFailedPrecondition);
  GS_ASSERT_OK(scheduler.Start());
  EXPECT_EQ(scheduler.Start().code(), StatusCode::kFailedPrecondition);
  GS_ASSERT_OK(in->Consume(OnePointBatch(0, 0)));
  GS_ASSERT_OK(scheduler.Stop());
  // Stop is idempotent.
  GS_ASSERT_OK(scheduler.Stop());
  EXPECT_EQ(sink.TotalPoints(), 1u);
}

TEST(SchedulerTest, PermanentErrorQuarantinesPipeline) {
  // A permanent (unclassified) error quarantines the pipeline: the
  // error is recorded and retrievable, but the pool itself stays
  // healthy — Stop() and WaitIdle() return OK.
  class FailingSink : public EventSink {
   public:
    Status Consume(const StreamEvent&) override {
      return Status::Internal("boom");
    }
  };
  FailingSink failing;
  QueryScheduler scheduler(SchedulingPolicy::kRoundRobin);
  const size_t pipeline = scheduler.AddPipelineGroup("failing");
  EventSink* in = scheduler.AddPipelineInput(pipeline, &failing);
  GS_ASSERT_OK(scheduler.Start());
  GS_ASSERT_OK(in->Consume(OnePointBatch(0, 0)));
  GS_ASSERT_OK(scheduler.WaitIdle());
  EXPECT_EQ(scheduler.Health(pipeline), PipelineHealth::kQuarantined);
  EXPECT_EQ(scheduler.PipelineError(pipeline).code(), StatusCode::kInternal);
  EXPECT_EQ(scheduler.FirstPipelineError().code(), StatusCode::kInternal);
  GS_ASSERT_OK(scheduler.Stop());
}

// --- Worker pool ------------------------------------------------------------

/// Records the cols of every batch it sees. Deliberately NOT locked:
/// the scheduler's claim invariant promises at most one worker inside
/// a pipeline at a time (with mutex handoff between workers), so TSan
/// on this test doubles as a check of that invariant.
class RecordingSink : public EventSink {
 public:
  Status Consume(const StreamEvent& event) override {
    if (event.kind == EventKind::kPointBatch) {
      cols_.push_back(event.batch->cols[0]);
    }
    return Status::OK();
  }
  const std::vector<int32_t>& cols() const { return cols_; }

 private:
  std::vector<int32_t> cols_;
};

TEST(SchedulerTest, WorkerPoolPreservesPerPipelineOrderUnderLoad) {
  constexpr int kPipelines = 8;
  constexpr int kEvents = 400;
  SchedulerOptions options;
  options.workers = 4;
  options.queue_capacity = kPipelines * kEvents;  // never shed
  QueryScheduler scheduler(options);
  std::vector<std::unique_ptr<RecordingSink>> sinks;
  std::vector<EventSink*> inputs;
  for (int p = 0; p < kPipelines; ++p) {
    sinks.push_back(std::make_unique<RecordingSink>());
    inputs.push_back(scheduler.AddPipeline("q" + std::to_string(p),
                                           sinks.back().get()));
  }
  GS_ASSERT_OK(scheduler.Start());
  EXPECT_EQ(scheduler.num_workers(), 4u);
  // Interleave enqueues across pipelines while workers drain them.
  for (int i = 0; i < kEvents; ++i) {
    for (int p = 0; p < kPipelines; ++p) {
      GS_ASSERT_OK(inputs[static_cast<size_t>(p)]->Consume(
          OnePointBatch(0, i)));
    }
  }
  GS_ASSERT_OK(scheduler.Stop());
  for (int p = 0; p < kPipelines; ++p) {
    const auto& cols = sinks[static_cast<size_t>(p)]->cols();
    ASSERT_EQ(cols.size(), static_cast<size_t>(kEvents)) << "pipeline " << p;
    for (int i = 0; i < kEvents; ++i) {
      ASSERT_EQ(cols[static_cast<size_t>(i)], i) << "pipeline " << p;
    }
  }
  for (const auto& stat : scheduler.Stats()) {
    EXPECT_EQ(stat.processed, stat.enqueued);
    EXPECT_EQ(stat.dropped, 0u);
  }
}

TEST(SchedulerTest, MultiInputPipelineStaysSerialized) {
  // Two inputs of one pipeline fed from two producer threads: the
  // downstream sink must never run concurrently (unlocked sink +
  // TSan verifies) and must see every event.
  SchedulerOptions options;
  options.workers = 4;
  options.queue_capacity = 1 << 16;
  QueryScheduler scheduler(options);
  RecordingSink left_sink, right_sink;
  const size_t pipeline = scheduler.AddPipelineGroup("binary");
  EventSink* left = scheduler.AddPipelineInput(pipeline, &left_sink);
  EventSink* right = scheduler.AddPipelineInput(pipeline, &right_sink);
  GS_ASSERT_OK(scheduler.Start());
  constexpr int kPerSide = 500;
  auto produce = [](EventSink* in, int32_t base) {
    for (int i = 0; i < kPerSide; ++i) {
      Status st = in->Consume(OnePointBatch(0, base + i));
      EXPECT_TRUE(st.ok());
    }
  };
  std::thread t1(produce, left, 0);
  std::thread t2(produce, right, 1000);
  t1.join();
  t2.join();
  GS_ASSERT_OK(scheduler.Stop());
  EXPECT_EQ(left_sink.cols().size(), static_cast<size_t>(kPerSide));
  EXPECT_EQ(right_sink.cols().size(), static_cast<size_t>(kPerSide));
  // Per-input order is the enqueue order.
  for (int i = 0; i < kPerSide; ++i) {
    EXPECT_EQ(left_sink.cols()[static_cast<size_t>(i)], i);
    EXPECT_EQ(right_sink.cols()[static_cast<size_t>(i)], 1000 + i);
  }
}

TEST(SchedulerTest, FailureIsIsolatedToOnePipeline) {
  // The old pool killed every worker on the first error; pipelines are
  // now independent failure domains. The failed pipeline rejects new
  // events with ITS OWN status, the healthy one keeps accepting and
  // processing everything.
  class FailingSink : public EventSink {
   public:
    Status Consume(const StreamEvent&) override {
      return Status::Internal("boom");
    }
  };
  class CountingSink : public EventSink {
   public:
    Status Consume(const StreamEvent&) override {
      count_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    std::atomic<uint64_t> count_{0};
  };
  SchedulerOptions options;
  options.workers = 4;
  QueryScheduler scheduler(options);
  FailingSink failing;
  CountingSink healthy;
  const size_t bad_id = scheduler.AddPipelineGroup("bad");
  EventSink* bad = scheduler.AddPipelineInput(bad_id, &failing);
  const size_t good_id = scheduler.AddPipelineGroup("good");
  EventSink* good = scheduler.AddPipelineInput(good_id, &healthy);
  GS_ASSERT_OK(scheduler.Start());
  GS_ASSERT_OK(bad->Consume(OnePointBatch(0, 0)));
  GS_ASSERT_OK(scheduler.WaitIdle());
  EXPECT_EQ(scheduler.Health(bad_id), PipelineHealth::kQuarantined);
  // Enqueue on the quarantined pipeline returns that pipeline's error.
  EXPECT_EQ(bad->Consume(OnePointBatch(0, 1)).code(), StatusCode::kInternal);
  // Enqueue on the healthy pipeline keeps succeeding — never the
  // stale first error of the old pool-wide abort.
  for (int i = 0; i < 1000; ++i) {
    GS_ASSERT_OK(good->Consume(OnePointBatch(0, i)));
  }
  GS_ASSERT_OK(scheduler.WaitIdle());
  EXPECT_EQ(scheduler.Health(good_id), PipelineHealth::kRunning);
  EXPECT_EQ(healthy.count_.load(), 1000u);
  GS_ASSERT_OK(scheduler.Stop());
  auto stats = scheduler.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].rejected, 1u);
  EXPECT_FALSE(stats[0].error.empty());
  EXPECT_EQ(stats[1].processed, stats[1].enqueued);
}

TEST(SchedulerTest, DropAccountingSumsUnderContention) {
  class SlowSink : public EventSink {
   public:
    Status Consume(const StreamEvent&) override {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return Status::OK();
    }
  };
  SchedulerOptions options;
  options.workers = 2;
  options.queue_capacity = 8;
  QueryScheduler scheduler(options);
  SlowSink slow_a, slow_b;
  EventSink* in_a = scheduler.AddPipeline("a", &slow_a);
  EventSink* in_b = scheduler.AddPipeline("b", &slow_b);
  GS_ASSERT_OK(scheduler.Start());
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      EventSink* in = (t % 2 == 0) ? in_a : in_b;
      for (int i = 0; i < kPerProducer; ++i) {
        Status st = in->Consume(OnePointBatch(0, i));
        EXPECT_TRUE(st.ok());  // silent shedding: drops are stats-only
      }
    });
  }
  for (auto& t : producers) t.join();
  GS_ASSERT_OK(scheduler.Stop());
  uint64_t offered = 0;
  for (const auto& stat : scheduler.Stats()) {
    EXPECT_EQ(stat.processed, stat.enqueued);
    EXPECT_LE(stat.queue_high_water, 8u);
    offered += stat.enqueued + stat.dropped;
  }
  // Every offered event is accounted exactly once.
  EXPECT_EQ(offered, static_cast<uint64_t>(kProducers) * kPerProducer);
}

TEST(SchedulerTest, RoundRobinRotationIsExact) {
  // Fairness regression test. A previous implementation advanced the
  // round-robin cursor inside the condvar wait *predicate*, so every
  // wakeup (spurious or not) skewed the rotation without dequeuing.
  // Selection is now const and the cursor moves only on a claim; with
  // one worker the rotation over backlogged queues is deterministic.
  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    bool gate_entered = false;
    bool gate_released = false;
    std::vector<int32_t> order;  // cols in global consumption order
  };
  Shared shared;
  class GateSink : public EventSink {
   public:
    explicit GateSink(Shared* s) : s_(s) {}
    Status Consume(const StreamEvent&) override {
      std::unique_lock<std::mutex> lock(s_->mutex);
      s_->gate_entered = true;
      s_->cv.notify_all();
      s_->cv.wait(lock, [this] { return s_->gate_released; });
      return Status::OK();
    }

   private:
    Shared* s_;
  };
  class OrderSink : public EventSink {
   public:
    explicit OrderSink(Shared* s) : s_(s) {}
    Status Consume(const StreamEvent& event) override {
      std::lock_guard<std::mutex> lock(s_->mutex);
      s_->order.push_back(event.batch->cols[0]);
      return Status::OK();
    }

   private:
    Shared* s_;
  };
  GateSink gate_sink(&shared);
  OrderSink order_sink(&shared);
  SchedulerOptions options;  // one worker: rotation fully determined
  QueryScheduler scheduler(options);
  EventSink* gate = scheduler.AddPipeline("gate", &gate_sink);
  std::vector<EventSink*> inputs;
  for (int q = 0; q < 3; ++q) {
    inputs.push_back(
        scheduler.AddPipeline("q" + std::to_string(q), &order_sink));
  }
  GS_ASSERT_OK(scheduler.Start());
  GS_ASSERT_OK(gate->Consume(OnePointBatch(0, 999)));
  {
    // Wait for the worker to be parked inside the gate sink, then
    // backlog all three queues in *reverse* queue order.
    std::unique_lock<std::mutex> lock(shared.mutex);
    shared.cv.wait(lock, [&shared] { return shared.gate_entered; });
  }
  for (int round = 0; round < 2; ++round) {
    for (int q = 2; q >= 0; --q) {
      GS_ASSERT_OK(inputs[static_cast<size_t>(q)]->Consume(
          OnePointBatch(0, q * 10 + round)));
    }
  }
  {
    std::lock_guard<std::mutex> lock(shared.mutex);
    shared.gate_released = true;
  }
  shared.cv.notify_all();
  GS_ASSERT_OK(scheduler.Stop());
  // Cursor sits after the gate queue, so the drain visits q0, q1, q2,
  // q0, q1, q2 — strict rotation, independent of enqueue order.
  const std::vector<int32_t> expected = {0, 10, 20, 1, 11, 21};
  EXPECT_EQ(shared.order, expected);
}

TEST(SchedulerTest, WaitIdleAndDynamicPipelines) {
  CollectingSink sink_a;
  SchedulerOptions options;
  options.workers = 2;
  QueryScheduler scheduler(options);
  EventSink* in_a = scheduler.AddPipeline("a", &sink_a);
  GS_ASSERT_OK(scheduler.Start());
  for (int i = 0; i < 100; ++i) {
    GS_ASSERT_OK(in_a->Consume(OnePointBatch(0, i)));
  }
  GS_ASSERT_OK(scheduler.WaitIdle());
  auto stats = scheduler.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].processed, 100u);
  // Pipelines can join a running pool.
  CollectingSink sink_b;
  EventSink* in_b = scheduler.AddPipeline("late", &sink_b);
  GS_ASSERT_OK(in_b->Consume(OnePointBatch(0, 7)));
  GS_ASSERT_OK(scheduler.WaitIdle());
  EXPECT_EQ(sink_b.TotalPoints(), 1u);
  GS_ASSERT_OK(scheduler.Stop());
}

// --- Caller-runs mode (workers = 0) -----------------------------------------

size_t ProcessThreadCount() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(SchedulerTest, CallerRunsStartsNoThread) {
  // workers = 0: Start() spawns nothing; events wait in their queue
  // until a caller runs them, on the caller's own thread.
  class ThreadSink : public EventSink {
   public:
    Status Consume(const StreamEvent&) override {
      threads.push_back(std::this_thread::get_id());
      return Status::OK();
    }
    std::vector<std::thread::id> threads;
  };
  ThreadSink sink;
  SchedulerOptions options;
  options.workers = 0;
  const size_t threads_before = ProcessThreadCount();
  QueryScheduler scheduler(options);
  EventSink* in = scheduler.AddPipeline("q", &sink);
  GS_ASSERT_OK(scheduler.Start());
  EXPECT_EQ(scheduler.num_workers(), 0u);
  EXPECT_EQ(ProcessThreadCount(), threads_before);

  GS_ASSERT_OK(in->Consume(OnePointBatch(0, 0)));
  GS_ASSERT_OK(in->Consume(OnePointBatch(0, 1)));
  EXPECT_TRUE(sink.threads.empty());  // queued, not yet run
  scheduler.RunPending();
  ASSERT_EQ(sink.threads.size(), 2u);
  for (const std::thread::id& id : sink.threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  auto stats = scheduler.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].processed, 2u);
  EXPECT_EQ(stats[0].queued, 0u);
  GS_ASSERT_OK(scheduler.Stop());
}

TEST(SchedulerTest, CallerRunsKeepsPerPipelineOrderWithConcurrentProducers) {
  // Four producers each feed every pipeline and run pending work
  // themselves. The claim keeps each pipeline on one thread at a time
  // (the sinks are deliberately unsynchronized; TSan checks that), and
  // each producer's events reach every pipeline in enqueue order.
  constexpr int kProducers = 4;
  constexpr size_t kPipelines = 3;
  constexpr int kEvents = 500;
  class OrderSink : public EventSink {
   public:
    Status Consume(const StreamEvent& event) override {
      EXPECT_EQ(in_flight.fetch_add(1), 0);
      events.emplace_back(event.batch->frame_id, event.batch->cols[0]);
      std::this_thread::yield();  // widen the window for an overlap
      in_flight.fetch_sub(1);
      return Status::OK();
    }
    std::atomic<int> in_flight{0};
    std::vector<std::pair<int64_t, int32_t>> events;  // (producer, seq)
  };
  OrderSink sinks[kPipelines];
  SchedulerOptions options;
  options.workers = 0;
  // While one producer holds a pipeline's claim, the others keep
  // enqueueing into it, so its queue can hold every event at once.
  // Enqueue never blocks and sheds beyond capacity, so size the queue
  // to never shed: this test checks ordering, not the overload policy.
  options.queue_capacity = kProducers * kEvents;
  QueryScheduler scheduler(options);
  EventSink* inputs[kPipelines];
  for (size_t q = 0; q < kPipelines; ++q) {
    inputs[q] = scheduler.AddPipeline("q" + std::to_string(q), &sinks[q]);
  }
  GS_ASSERT_OK(scheduler.Start());
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kEvents; ++i) {
        for (EventSink* in : inputs) {
          Status st = in->Consume(OnePointBatch(p, i));
          EXPECT_TRUE(st.ok()) << st.ToString();
        }
        scheduler.RunPending();
      }
    });
  }
  go.store(true);
  for (std::thread& t : producers) t.join();

  // Each RunPending returns only when nothing is claimable, and a
  // claimed pipeline is drained by its holder, so once every producer
  // has returned nothing is left, without a WaitIdle.
  for (const ScheduledQueueStats& stats : scheduler.Stats()) {
    EXPECT_EQ(stats.queued, 0u) << stats.name;
    EXPECT_EQ(stats.dropped, 0u) << stats.name;
    EXPECT_EQ(stats.processed, uint64_t{kProducers * kEvents})
        << stats.name << " dropped " << stats.dropped;
  }
  for (const OrderSink& sink : sinks) {
    ASSERT_EQ(sink.events.size(), size_t{kProducers * kEvents});
    std::vector<int32_t> next(kProducers, 0);
    for (const auto& [producer, seq] : sink.events) {
      EXPECT_EQ(seq, next[static_cast<size_t>(producer)]++);
    }
  }
  GS_ASSERT_OK(scheduler.Stop());
}

TEST(SchedulerTest, CallerRunsWaitIdleHonoursRetryBackoff) {
  // A transient fault puts the pipeline into a 50 ms backoff.
  // RunPending does not wait it out (ingest must not block on one
  // query's retry); WaitIdle does, and then redelivers.
  class FlakySink : public EventSink {
   public:
    Status Consume(const StreamEvent&) override {
      if (failures_left > 0) {
        --failures_left;
        return Status::Unavailable("downlink glitch");
      }
      ++delivered;
      return Status::OK();
    }
    int failures_left = 1;
    int delivered = 0;
  };
  FlakySink sink;
  SchedulerOptions options;
  options.workers = 0;
  options.supervisor.backoff_initial_ms = 50;
  options.supervisor.backoff_max_ms = 50;
  options.supervisor.backoff_jitter_ms = 0;
  QueryScheduler scheduler(options);
  EventSink* in = scheduler.AddPipeline("flaky", &sink);
  GS_ASSERT_OK(scheduler.Start());

  const auto t0 = std::chrono::steady_clock::now();
  GS_ASSERT_OK(in->Consume(OnePointBatch(0, 0)));
  scheduler.RunPending();
  EXPECT_EQ(sink.delivered, 0);
  auto stats = scheduler.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].health, PipelineHealth::kDegraded);
  EXPECT_EQ(stats[0].queued, 1u);
  EXPECT_EQ(stats[0].restarts, 1u);

  GS_ASSERT_OK(scheduler.WaitIdle());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(50));
  EXPECT_EQ(sink.delivered, 1);
  stats = scheduler.Stats();
  EXPECT_EQ(stats[0].health, PipelineHealth::kRunning);
  EXPECT_EQ(stats[0].processed, 1u);
  EXPECT_EQ(stats[0].queued, 0u);
  GS_ASSERT_OK(scheduler.Stop());
}

TEST(SchedulerTest, CallerRunsNestedRunPendingLeavesWorkToOuterLoop) {
  // A sink that feeds the scheduler again (a derived stream) calls
  // RunPending from inside a delivery. The nested call returns at
  // once; the outer loop delivers the new event after the current
  // one completes, before the outer RunPending returns.
  std::vector<std::string> log;
  class LogSink : public EventSink {
   public:
    explicit LogSink(std::vector<std::string>* log) : log_(log) {}
    Status Consume(const StreamEvent&) override {
      log_->push_back("downstream");
      return Status::OK();
    }

   private:
    std::vector<std::string>* log_;
  };
  class FeedSink : public EventSink {
   public:
    FeedSink(std::vector<std::string>* log, QueryScheduler* scheduler)
        : log_(log), scheduler_(scheduler) {}
    Status Consume(const StreamEvent& event) override {
      GEOSTREAMS_RETURN_IF_ERROR(next->Consume(event));
      scheduler_->RunPending();
      log_->push_back("upstream done");
      return Status::OK();
    }
    EventSink* next = nullptr;

   private:
    std::vector<std::string>* log_;
    QueryScheduler* scheduler_;
  };
  SchedulerOptions options;
  options.workers = 0;
  QueryScheduler scheduler(options);
  LogSink downstream(&log);
  FeedSink upstream(&log, &scheduler);
  EventSink* in = scheduler.AddPipeline("view", &upstream);
  upstream.next = scheduler.AddPipeline("reader", &downstream);
  GS_ASSERT_OK(scheduler.Start());
  GS_ASSERT_OK(in->Consume(OnePointBatch(0, 0)));
  scheduler.RunPending();
  const std::vector<std::string> expected = {"upstream done", "downstream"};
  EXPECT_EQ(log, expected);
  GS_ASSERT_OK(scheduler.Stop());
}

TEST(SchedulerTest, PolicyNames) {
  EXPECT_STREQ(SchedulingPolicyName(SchedulingPolicy::kRoundRobin),
               "round-robin");
  EXPECT_STREQ(SchedulingPolicyName(SchedulingPolicy::kLongestQueueFirst),
               "longest-queue-first");
}

}  // namespace
}  // namespace geostreams
