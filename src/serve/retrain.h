// Background retrain lane: the serve layer's guarantee that no GA (or,
// later, collect+train) ever runs on a request-path thread. ObserveWindow's
// stale-while-revalidate misses, and OnlineTuner::prefetch, enqueue
// (model, bucket) tasks here; a small pool of dedicated threads runs them
// and installs each result in the model's tuned table, where every tuner of
// the model reads it — so a regime change costs the request path one queue
// push, never an optimizer spike, and a bucket costs one GA however many
// tenants ask. A task publishes no snapshot and mints no version. A
// TuningService owns exactly one lane, with one pool thread per shard.
//
//   * Bounded task queue — kQueuePerThread tasks per pool thread; a full
//     backlog rejects the newest key (retrying is free: the next stale
//     window re-enqueues) instead of growing unboundedly.
//   * One pending-key set — a key is pending from enqueue until its run
//     returns, queued or running. A request for a pending key coalesces into
//     that task, so N same-bucket stale windows of any tenants of one model
//     cost one GA run, and no key is ever optimized on two pool threads at
//     once. A task whose run function reports that no GA ran (the table
//     already held the bucket) counts as coalesced too, so `runs` counts
//     real GA runs. Nothing waits on another thread's GA: the run that
//     lands answers every tenant through the table.
//   * Cancel on stop — stop() drops the queued backlog (nobody waits on it
//     once the service goes down; a restart re-enqueues on the next stale
//     window); a task already running always completes.
//   * Telemetry — queue depth, per-task latency histogram, and
//     runs/coalesced/rejected/cancelled counters in ServiceStats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "serve/stats.h"
#include "util/sync.h"

namespace rafiki::serve {

/// Composes the retrain coalescing key from a model (the service's index of
/// a tuned table) and a read-ratio bucket. Every tenant of one model shares
/// its key-space, so their misses for one bucket coalesce into one GA run;
/// tenants over different models never coalesce, because their keys differ
/// in the high word.
constexpr std::uint64_t retrain_key(std::uint32_t model, int bucket) noexcept {
  return (static_cast<std::uint64_t>(model) << 32) | static_cast<std::uint32_t>(bucket);
}
constexpr std::uint32_t retrain_key_model(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(key >> 32);
}
constexpr int retrain_key_bucket(std::uint64_t key) noexcept {
  return static_cast<int>(static_cast<std::uint32_t>(key));
}

/// How an enqueue was disposed of, decided atomically under the lane lock.
enum class RetrainEnqueue : std::uint8_t {
  /// A new task was queued for this key.
  kEnqueued = 0,
  /// A task for this key was already pending (queued or running).
  kCoalesced,
  /// The retrain queue was full; nothing was queued.
  kRejected,
  /// The lane was stopping or stopped; nothing was queued.
  kStopped,
};

class RetrainWorker {
 public:
  /// Runs one background optimization and returns whether it actually ran
  /// one: false means the work was already done (recorded as coalesced, not
  /// as a run). Invoked on a pool thread with no lane lock held, never for
  /// the same key on two threads at once. `key` is the coalescing key,
  /// retrain_key(model, bucket). (The serve layer points this at
  /// core::TunedTable::tune, which runs nothing for a bucket it holds.)
  using RunFn = std::function<bool(std::uint64_t key)>;

  /// Queued-task bound per pool thread.
  static constexpr std::size_t kQueuePerThread = 64;

  /// `threads` pool threads (0 is normalized to 1) over one queue bounded at
  /// kQueuePerThread * threads. `stats` may be null (no telemetry); when set
  /// it must outlive the lane.
  RetrainWorker(RunFn run, std::size_t threads, ServiceStats* stats);
  ~RetrainWorker();

  RetrainWorker(const RetrainWorker&) = delete;
  RetrainWorker& operator=(const RetrainWorker&) = delete;

  /// Requests a background optimization for this coalescing key. Never
  /// blocks and never runs the optimizer on the calling thread.
  RetrainEnqueue enqueue(std::uint64_t key);

  /// Spawns the pool (idempotent; no-op after stop()).
  void start();

  /// Stops the pool and cancels the queued backlog; tasks already running
  /// complete first. Idempotent; safe before start().
  void stop();

  /// Queued tasks not yet picked up by a pool thread.
  std::size_t depth() const;
  /// Blocks until no task is queued or running (or the lane stopped) — the
  /// "background tuning has settled" barrier tests and benches need.
  void wait_idle();

 private:
  void loop();

  RunFn run_;
  const std::size_t thread_count_;
  const std::size_t capacity_;
  ServiceStats* stats_;

  mutable Mutex mutex_;
  CondVar ready_;
  CondVar idle_;
  /// Queued keys, oldest first.
  std::deque<std::uint64_t> tasks_ GUARDED_BY(mutex_);
  /// Keys of queued AND running tasks: a key is erased only when its run
  /// returns, so same-key requests coalesce for the task's whole lifetime.
  std::set<std::uint64_t> pending_ GUARDED_BY(mutex_);
  /// Spawned under mutex_ in start(); joined lock-free in stop() after the
  /// stopping_ handshake (joining under the lock would deadlock the loop).
  /// start()/stop() are lifecycle calls — concurrent start+stop is a caller
  /// contract violation.
  std::vector<std::thread> threads_;
  bool started_ GUARDED_BY(mutex_) = false;
  bool stopping_ GUARDED_BY(mutex_) = false;
};

}  // namespace rafiki::serve
