// RetrainWorker (the retrain lane) and the stale-while-revalidate
// ObserveWindow path: lifecycle edges (stop-before-start, stop with a retrain
// in flight), per-key coalescing of duplicate requests into one GA run (a
// task whose bucket the table already holds counts as coalesced, not as a
// run), a pool that runs distinct keys at once but never one key twice, one
// bucket routed to two shards still costing one retrain task, the
// stale-then-fresh window sequence under an injected clock, a retrain that
// mints no snapshot version (before or after the first publish), tuned
// configs kept across full publishes, the GA running at the bucket centre,
// the tuned table's bucket clamp, and the tuner's internal synchronization
// under concurrent on_window/prefetch callers (a tsan probe).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "core/rafiki.h"
#include "engine/params.h"
#include "serve/retrain.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace rafiki::serve {
namespace {

// ---------------------------------------------------------------------------
// RetrainWorker alone, driven by an instrumented RunFn.

class WorkerHarness {
 public:
  /// Counts finished runs per key, and how many runs of one key were ever in
  /// progress at once (a double run reads 2).
  RetrainWorker::RunFn fn() {
    return [this](std::uint64_t key) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++running_total_;
        most_at_once_same_key_ = std::max(most_at_once_same_key_, ++running_[key]);
      }
      std::this_thread::yield();  // widen the window a double run would need
      gate_.wait();
      std::lock_guard<std::mutex> lock(mutex_);
      --running_[key];
      --running_total_;
      ++runs_[key];
      return true;
    };
  }

  /// Blocks every run until release() — keeps tasks deterministically
  /// queued/in-flight while the test enqueues more.
  void hold() { gate_.close(); }
  void release() { gate_.open(); }

  int runs(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mutex_);
    return runs_[key];
  }
  int total_runs() {
    std::lock_guard<std::mutex> lock(mutex_);
    int total = 0;
    for (const auto& [key, count] : runs_) total += count;
    return total;
  }
  /// Runs in progress right now (started, not yet returned).
  int running() {
    std::lock_guard<std::mutex> lock(mutex_);
    return running_total_;
  }
  int most_at_once_same_key() {
    std::lock_guard<std::mutex> lock(mutex_);
    return most_at_once_same_key_;
  }

 private:
  class Gate {
   public:
    void close() {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = false;
    }
    void open() {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        open_ = true;
      }
      cv_.notify_all();
    }
    void wait() {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return open_; });
    }

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool open_ = true;
  };

  Gate gate_;
  std::mutex mutex_;
  std::map<std::uint64_t, int> runs_;
  std::map<std::uint64_t, int> running_;
  int running_total_ = 0;
  int most_at_once_same_key_ = 0;
};

TEST(RetrainWorker, StopBeforeStartCancelsBacklogWithoutLosingFutures) {
  WorkerHarness harness;
  ServiceStats stats;
  RetrainWorker worker(harness.fn(), 1, &stats);

  ASSERT_EQ(worker.enqueue(1), RetrainEnqueue::kEnqueued);
  ASSERT_EQ(worker.enqueue(2), RetrainEnqueue::kEnqueued);
  EXPECT_EQ(worker.depth(), 2u);

  worker.stop();  // never started: nothing may hang
  EXPECT_EQ(worker.depth(), 0u);
  EXPECT_EQ(harness.total_runs(), 0);
  EXPECT_EQ(stats.retrain_counters().cancelled, 2u);
  EXPECT_EQ(stats.retrain_counters().runs, 0u);

  // After stop, enqueues report kStopped and queue nothing.
  EXPECT_EQ(worker.enqueue(3), RetrainEnqueue::kStopped);
  EXPECT_EQ(worker.depth(), 0u);
  worker.start();      // no-op after stop
  worker.wait_idle();  // returns immediately on a stopped lane
  EXPECT_EQ(harness.total_runs(), 0);
}

TEST(RetrainWorker, CancelStopFinishesInFlightTaskButDropsQueued) {
  WorkerHarness harness;
  harness.hold();
  ServiceStats stats;
  RetrainWorker worker(harness.fn(), 1, &stats);
  worker.start();

  ASSERT_EQ(worker.enqueue(1), RetrainEnqueue::kEnqueued);
  // Wait until the pool thread is running task 1 (blocked on the gate), then
  // queue a second key behind it.
  while (harness.running() != 1) std::this_thread::yield();
  ASSERT_EQ(worker.enqueue(2), RetrainEnqueue::kEnqueued);

  std::thread stopper([&] { worker.stop(); });
  // Only open the gate once the stop request is registered — otherwise the
  // pool could finish task 1 and legitimately pick task 2 up before the
  // cancel lands. Key 2 stays pending (and coalesces) until then.
  while (worker.enqueue(2) != RetrainEnqueue::kStopped) std::this_thread::yield();
  harness.release();
  stopper.join();

  // The in-flight run always completes; the queued one is cancelled.
  EXPECT_EQ(harness.runs(1), 1);
  EXPECT_EQ(harness.runs(2), 0);
  const auto counters = stats.retrain_counters();
  EXPECT_EQ(counters.runs, 1u);
  EXPECT_EQ(counters.cancelled, 1u);
}

TEST(RetrainWorker, SameBucketRequestsCoalesceIntoOneRun) {
  WorkerHarness harness;
  harness.hold();  // nothing completes until every enqueue landed
  ServiceStats stats;
  RetrainWorker worker(harness.fn(), 1, &stats);
  worker.start();

  ASSERT_EQ(worker.enqueue(7), RetrainEnqueue::kEnqueued);
  EXPECT_EQ(worker.enqueue(7), RetrainEnqueue::kCoalesced);
  EXPECT_EQ(worker.enqueue(7), RetrainEnqueue::kCoalesced);
  ASSERT_EQ(worker.enqueue(8), RetrainEnqueue::kEnqueued);
  EXPECT_EQ(worker.enqueue(8), RetrainEnqueue::kCoalesced);

  harness.release();
  worker.wait_idle();
  // N same-key requests -> one run per key.
  EXPECT_EQ(harness.runs(7), 1);
  EXPECT_EQ(harness.runs(8), 1);
  EXPECT_EQ(worker.depth(), 0u);
  EXPECT_EQ(stats.retrain_counters().runs, 2u);
  EXPECT_EQ(stats.retrain_counters().coalesced, 3u);
  worker.stop();
  EXPECT_EQ(stats.retrain_counters().cancelled, 0u);
}

TEST(RetrainWorker, RunThatFindsTheWorkDoneCountsAsCoalescedNotRun) {
  // A task can start after a run for its bucket already finished (enqueued
  // just after that run cleared its pending key); the run function then
  // reports that no optimization ran — the tuned table held the bucket.
  ServiceStats stats;
  RetrainWorker worker([](std::uint64_t key) { return key != 2; }, 1, &stats);
  ASSERT_EQ(worker.enqueue(1), RetrainEnqueue::kEnqueued);
  ASSERT_EQ(worker.enqueue(2), RetrainEnqueue::kEnqueued);
  worker.start();
  worker.wait_idle();

  const auto counters = stats.retrain_counters();
  EXPECT_EQ(counters.runs, 1u);
  EXPECT_EQ(counters.coalesced, 1u);
  EXPECT_EQ(counters.cancelled, 0u);
  worker.stop();
}

TEST(RetrainWorker, FullQueueRejectsButCoalescingStillWins) {
  WorkerHarness harness;
  ServiceStats stats;
  RetrainWorker worker(harness.fn(), 1, &stats);  // never started
  constexpr std::size_t kBound = RetrainWorker::kQueuePerThread;  // one thread

  for (std::uint64_t key = 1; key <= kBound; ++key) {
    ASSERT_EQ(worker.enqueue(key), RetrainEnqueue::kEnqueued);
  }
  EXPECT_EQ(worker.depth(), kBound);
  // Queue full: a *new* key is rejected and nothing is queued…
  EXPECT_EQ(worker.enqueue(kBound + 1), RetrainEnqueue::kRejected);
  EXPECT_EQ(worker.depth(), kBound);
  // …but a duplicate of a pending key still coalesces — it needs no slot.
  EXPECT_EQ(worker.enqueue(1), RetrainEnqueue::kCoalesced);
  const auto counters = stats.retrain_counters();
  EXPECT_EQ(counters.rejected, 1u);
  EXPECT_EQ(counters.coalesced, 1u);
  worker.stop();
  EXPECT_EQ(stats.retrain_counters().cancelled, kBound);
}

TEST(RetrainWorker, PoolRunsDistinctKeysAtOnceButOneKeyNeverTwice) {
  WorkerHarness harness;
  harness.hold();
  ServiceStats stats;
  RetrainWorker worker(harness.fn(), 4, &stats);
  worker.start();

  // Four distinct keys occupy all four pool threads at once.
  for (std::uint64_t key = 1; key <= 4; ++key) {
    ASSERT_EQ(worker.enqueue(key), RetrainEnqueue::kEnqueued);
  }
  while (harness.running() != 4) std::this_thread::yield();
  EXPECT_EQ(worker.depth(), 0u);
  // A running key is still pending: re-enqueueing it coalesces instead of
  // queueing a second run of it behind the first.
  for (std::uint64_t key = 1; key <= 4; ++key) {
    EXPECT_EQ(worker.enqueue(key), RetrainEnqueue::kCoalesced);
  }
  EXPECT_EQ(worker.depth(), 0u);
  harness.release();
  worker.wait_idle();
  for (std::uint64_t key = 1; key <= 4; ++key) EXPECT_EQ(harness.runs(key), 1);

  // Under fire: producers re-request a small key set while the pool runs it.
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&worker] {
      for (int i = 0; i < 300; ++i) {
        worker.enqueue(static_cast<std::uint64_t>(i % 6));
      }
    });
  }
  for (auto& producer : producers) producer.join();
  worker.wait_idle();
  EXPECT_EQ(harness.most_at_once_same_key(), 1);
  const auto counters = stats.retrain_counters();
  EXPECT_EQ(static_cast<int>(counters.runs), harness.total_runs());
  EXPECT_EQ(counters.runs + counters.coalesced + counters.rejected, 8u + 4u * 300u);
  worker.stop();
}

// ---------------------------------------------------------------------------
// Service-level: stale-while-revalidate against a real trained pipeline.

class ServeRetrain : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::RafikiOptions options;
    options.workload_grid = {0.2, 0.8};
    options.n_configs = 5;
    options.collect.measure.ops = 3000;
    options.collect.measure.warmup_ops = 300;
    options.ensemble.n_nets = 3;
    options.ensemble.train.max_epochs = 30;
    options.ga.generations = 6;
    options.ga.population = 10;
    rafiki_ = new core::Rafiki(options);
    rafiki_->set_key_params(engine::key_params());
    rafiki_->train(rafiki_->collect());
    ASSERT_TRUE(rafiki_->trained());
  }

  static void TearDownTestSuite() {
    delete rafiki_;
    rafiki_ = nullptr;
  }

  static Request window_request(double read_ratio) {
    Request request;
    request.endpoint = Endpoint::kObserveWindow;
    request.read_ratio = read_ratio;
    return request;
  }

  static core::Rafiki* rafiki_;
};

core::Rafiki* ServeRetrain::rafiki_ = nullptr;

TEST_F(ServeRetrain, StaleThenFreshSequenceUnderInjectedClock) {
  auto clock = std::make_shared<std::atomic<Tick>>(0);
  ServiceOptions options;
  options.workers = 1;
  options.clock_fn = [clock] { return clock->load(); };
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(tuner);
  service.start();

  // t=0: cache miss — served stale, instantly, within its deadline.
  auto request = window_request(0.8);
  request.deadline = 5;
  const auto stale = service.call(request);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.stale);
  EXPECT_FALSE(stale.reconfigured);
  EXPECT_EQ(stale.config, engine::Config::defaults());

  // The same request past its virtual deadline is expired before any tuner
  // work — deadline triage still runs ahead of the observe path.
  clock->store(6);
  EXPECT_EQ(service.call(request).status, Status::kDeadlineExceeded);

  // Background optimization lands in the table; the next window is fresh
  // and adopts the tuned config under the same snapshot version.
  service.wait_retrain_idle();
  const auto fresh = service.call(window_request(0.8));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.stale);
  EXPECT_TRUE(fresh.reconfigured);
  EXPECT_EQ(fresh.model_version, 1u);
  const auto tuned = tuner.table()->find(tuner.bucket_for(0.8));
  ASSERT_TRUE(tuned.has_value());
  EXPECT_EQ(fresh.config, tuned->config);
  EXPECT_EQ(tuner.optimizer_runs(), 1u);
  service.stop();
}

TEST_F(ServeRetrain, SameBucketWindowsCoalesceIntoOneGaRun) {
  ServiceOptions options;
  options.workers = 2;
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(tuner);

  // Queue a burst of same-bucket windows before any worker runs, then start:
  // however the request workers interleave, the bucket is optimized exactly
  // once (pending-task coalescing, or the memo cache once it landed).
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.submit(window_request(0.8)));
  service.start();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());

  service.wait_retrain_idle();
  EXPECT_EQ(tuner.optimizer_runs(), 1u);
  EXPECT_EQ(service.stats().retrain_counters().runs, 1u);
  const auto final_window = service.call(window_request(0.8));
  EXPECT_FALSE(final_window.stale);
  service.stop();
}

TEST_F(ServeRetrain, RetrainMintsNoVersion) {
  ServiceOptions options;
  options.workers = 1;
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(tuner);
  service.start();

  // The lane's task ends at the tuned table: versions count publish() calls
  // only, so a GA leaves the version where the publish put it.
  ASSERT_TRUE(service.call(window_request(0.8)).stale);
  EXPECT_EQ(service.model_version(), 1u);
  service.wait_retrain_idle();
  EXPECT_EQ(service.stats().retrain_counters().runs, 1u);
  EXPECT_EQ(service.model_version(), 1u);

  // The result is served all the same: the next window is fresh.
  const auto fresh = service.call(window_request(0.8));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(fresh.model_version, 1u);
  service.stop();
}

TEST_F(ServeRetrain, RetrainBeforeFirstPublishMintsNoVersion) {
  ServiceOptions options;
  options.workers = 1;
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.attach_tuner(tuner);  // note: nothing published yet
  service.start();

  // ObserveWindow works off the tuner's own pipeline, so it serves (stale)
  // even with no snapshot; the background optimization completes…
  const auto stale = service.call(window_request(0.2));
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.stale);
  service.wait_retrain_idle();
  EXPECT_EQ(tuner.optimizer_runs(), 1u);

  // …but no version was minted around an untrained default snapshot.
  EXPECT_EQ(service.model_version(), 0u);
  EXPECT_EQ(service.snapshot(), nullptr);

  // The first real publish is version 1, and the tuned config is already
  // waiting in the table: the next window is fresh.
  EXPECT_EQ(service.publish(make_snapshot(*rafiki_)), 1u);
  const auto fresh = service.call(window_request(0.2));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(fresh.model_version, 1u);
  service.stop();
}

TEST_F(ServeRetrain, FullPublishKeepsTheTenantsTunedEntries) {
  ServiceOptions options;
  options.workers = 1;
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(tuner);
  service.start();

  // Tune bucket 0.8 in the background: the entry lands in the table.
  ASSERT_TRUE(service.call(window_request(0.8)).stale);
  service.wait_retrain_idle();
  const auto tuned = tuner.table()->find(tuner.bucket_for(0.8));
  ASSERT_TRUE(tuned.has_value());

  // A full republish (the model-refresh path) must not drop it: the next
  // window is fresh and carries the table's config.
  EXPECT_EQ(service.publish(make_snapshot(*rafiki_)), 2u);
  const auto window = service.call(window_request(0.8));
  ASSERT_TRUE(window.ok());
  EXPECT_FALSE(window.stale);
  EXPECT_EQ(window.config, tuned->config);
  EXPECT_EQ(window.predicted_throughput, tuned->predicted_throughput);
  EXPECT_EQ(window.model_version, 2u);
  EXPECT_EQ(tuner.optimizer_runs(), 1u);
  service.stop();
}

TEST_F(ServeRetrain, PrefetchRoutesThroughTheRetrainWorker) {
  ServiceOptions options;
  options.workers = 1;
  core::OnlineTuner tuner(*rafiki_);
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(tuner);
  service.start();

  // prefetch() with the async hook set enqueues instead of optimizing on the
  // calling thread; the result lands in the table exactly like an observe
  // miss's.
  tuner.prefetch(0.8);
  service.wait_retrain_idle();
  EXPECT_TRUE(tuner.cached(0.8));
  EXPECT_EQ(tuner.optimizer_runs(), 1u);
  EXPECT_EQ(service.model_version(), 1u);

  // The prefetched regime's first window is already fresh.
  const auto window = service.call(window_request(0.8));
  ASSERT_TRUE(window.ok());
  EXPECT_FALSE(window.stale);
  EXPECT_TRUE(window.reconfigured);

  // A re-prefetch of a cached bucket is a no-op, not a new retrain.
  tuner.prefetch(0.8);
  service.wait_retrain_idle();
  EXPECT_EQ(tuner.optimizer_runs(), 1u);
  service.stop();
}

TEST_F(ServeRetrain, OneBucketRoutedToTwoShardsIsOneRetrainTask) {
  // Routing bands are 1 % wide and tuner buckets 10 %: 0.76 and 0.84 share
  // bucket 8 but are pinned to different shards. The service's one lane
  // still sees both misses as one key.
  ShardOptions options;
  options.shards = 2;
  options.service.workers = 1;
  core::OnlineTuner tuner(*rafiki_);
  ASSERT_EQ(tuner.bucket_for(0.76), tuner.bucket_for(0.84));
  TuningService service(options);
  service.route_band(TuningService::band_of(0.76), 0);
  service.route_band(TuningService::band_of(0.84), 1);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(tuner);

  tuner.prefetch(0.76);
  tuner.prefetch(0.84);  // before start(): the first task is still queued
  EXPECT_EQ(service.retrain_counters().coalesced, 1u);

  service.start();
  service.wait_retrain_idle();
  EXPECT_EQ(tuner.optimizer_runs(), 1u);
  EXPECT_EQ(service.retrain_counters().runs, 1u);
  EXPECT_TRUE(tuner.cached(0.84));
  service.stop();
}

TEST_F(ServeRetrain, TunedConfigIsTheOptimumAtTheBucketCentre) {
  // A bucket's GA runs at its centre, so what it tunes depends only on the
  // model and the bucket, not on which read ratio missed first: 0.76 and
  // 0.84 both get the bucket-8 optimum, standalone or through the lane.
  const auto expected = rafiki_->optimize(0.1 * 8);
  core::OnlineTuner standalone(*rafiki_);
  const auto inline_decision = standalone.on_window(0.76);
  EXPECT_EQ(inline_decision.config, expected.config);
  EXPECT_EQ(inline_decision.predicted_throughput, expected.predicted_throughput);

  ServiceOptions options;
  options.workers = 1;
  core::OnlineTuner served(*rafiki_);
  TuningService service(options);
  service.publish(make_snapshot(*rafiki_));
  service.attach_tuner(served);
  service.start();
  ASSERT_TRUE(service.call(window_request(0.84)).stale);
  service.wait_retrain_idle();
  const auto tuned = served.table()->find(8);
  ASSERT_TRUE(tuned.has_value());
  EXPECT_EQ(tuned->config, expected.config);
  EXPECT_EQ(tuned->predicted_throughput, expected.predicted_throughput);
  const auto window = service.call(window_request(0.84));
  EXPECT_FALSE(window.stale);
  EXPECT_EQ(window.config, expected.config);
  service.stop();
}

TEST_F(ServeRetrain, ConcurrentOnWindowAndPrefetchAreRaceFree) {
  // Satellite regression (tsan probe): standalone tuner — no service, no
  // async hook, so misses optimize inline — hammered by concurrent
  // on_window and prefetch callers. Before the tuner was internally
  // synchronized this raced on cache_/optimizer_runs_.
  core::OnlineTuner tuner(*rafiki_);
  const std::vector<double> ratios = {0.15, 0.45, 0.85};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 9; ++i) tuner.on_window(ratios[static_cast<std::size_t>(i) % 3]);
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 9; ++i) tuner.prefetch(ratios[static_cast<std::size_t>(i) % 3]);
    });
  }
  for (auto& thread : threads) thread.join();

  // Every regime ended up cached. Concurrent inline misses on one bucket
  // may each run the GA (the first result is kept); one run per bucket is
  // the retrain lane's guarantee (OneBucketRoutedToTwoShardsIsOneRetrainTask).
  for (double rr : ratios) EXPECT_TRUE(tuner.cached(rr));
  EXPECT_GE(tuner.optimizer_runs(), 1u);
}

// ---------------------------------------------------------------------------
// core::TunedTable, the one memo every tuner of a model reads.

class TunedTable : public ServeRetrain {};

TEST_F(TunedTable, TunesEachBucketOnceAtItsCentre) {
  core::TunedTable table(*rafiki_);
  EXPECT_EQ(table.bucket_for(0.76), 8);
  EXPECT_EQ(table.centre(8), 0.1 * 8);
  EXPECT_FALSE(table.contains(8));

  EXPECT_TRUE(table.tune(8));
  const auto held = table.find(8);
  ASSERT_TRUE(held.has_value());
  const auto expected = rafiki_->optimize(0.1 * 8);
  EXPECT_EQ(held->config, expected.config);
  EXPECT_EQ(held->predicted_throughput, expected.predicted_throughput);

  // A held bucket runs nothing.
  EXPECT_FALSE(table.tune(8));
  EXPECT_TRUE(table.contains(8));
  EXPECT_FALSE(table.find(7).has_value());
}

TEST_F(TunedTable, BucketForClampsTheReadRatioIntoUnitRange) {
  // A wire client may send any finite read ratio. Each must land in a
  // bucket of [0, 1], so the GA never runs outside it and the table stays
  // bounded; 1e300 / 0.1 would overflow the int conversion.
  core::TunedTable table(*rafiki_);
  EXPECT_EQ(table.bucket_for(-0.5), 0);
  EXPECT_EQ(table.bucket_for(1.7), 10);
  EXPECT_EQ(table.bucket_for(1e300), 10);
  EXPECT_EQ(table.bucket_for(-1e300), 0);
  EXPECT_EQ(table.bucket_for(1.0), 10);
  EXPECT_EQ(table.bucket_for(0.0), 0);
}

TEST_F(TunedTable, TunersSharingOneTableAreRaceFreeAndAgree) {
  // The tsan probe for the shared table: standalone tuners of one model
  // (misses tune inline) hammered by concurrent on_window and prefetch
  // callers. Every tuner ends up serving the same config per bucket.
  const auto table = std::make_shared<core::TunedTable>(*rafiki_);
  std::vector<std::unique_ptr<core::OnlineTuner>> tuners;
  for (int t = 0; t < 4; ++t) tuners.push_back(std::make_unique<core::OnlineTuner>(table));
  const std::vector<double> ratios = {0.15, 0.45, 0.85};
  std::vector<std::thread> threads;
  for (auto& tuner : tuners) {
    threads.emplace_back([&ratios, t = tuner.get()] {
      for (int i = 0; i < 9; ++i) t->on_window(ratios[static_cast<std::size_t>(i) % 3]);
    });
    threads.emplace_back([&ratios, t = tuner.get()] {
      for (int i = 0; i < 9; ++i) t->prefetch(ratios[static_cast<std::size_t>(i) % 3]);
    });
  }
  for (auto& thread : threads) thread.join();

  for (const double rr : ratios) {
    const auto held = table->find(table->bucket_for(rr));
    ASSERT_TRUE(held.has_value()) << rr;
    for (auto& tuner : tuners) EXPECT_TRUE(tuner->cached(rr)) << rr;
    // A tuner that joins later adopts the held entry on its first window.
    core::OnlineTuner late(table);
    const auto decision = late.on_window(rr);
    EXPECT_FALSE(decision.stale) << rr;
    EXPECT_EQ(decision.config, held->config) << rr;
  }
  for (auto& tuner : tuners) EXPECT_EQ(tuner->optimizer_runs(), 3u);
}

}  // namespace
}  // namespace rafiki::serve
