// The concurrent tuning service (the "middleware" in the paper's title, as a
// long-running process): worker threads answer Predict / Optimize /
// ObserveWindow requests from bounded MPMC queues against the currently
// published model snapshot. One TuningService serves one shard or many.
//
//   client ──try_submit──▶ route (tenant, band) ──▶ shard k
//                            │      ▲                  ├─ bounded queue
//                            │      │ rebalance        ├─ workers + batcher
//                            │      │ (hot slot        └─ striped stats
//                            │      │  migration)
//                            └──▶ kOverloaded: spill to shard k+1 ...
//
//      once per service: one snapshot slot and version counter, read by
//      every tenant on every shard; the retrain lane (one pool thread per
//      shard, one pending-key set)
//      per tenant: a tuner pointer (the ObserveWindow binding)
//      per model (one core::TunedTable, read by every tuner over it): the
//      tuned configs, their only copy
//
//   * Admission control — a full queue rejects with Overloaded immediately;
//     producers never block past capacity. Each request carries a deadline
//     in injected-clock ticks, checked before execution.
//   * Micro-batching — a worker coalesces the Predict requests already
//     queued behind the one it popped (up to ServiceOptions::max_batch) into
//     a single batched ensemble evaluation (SurrogateEnsemble::predict_batch),
//     and flushes as soon as the queue is momentarily empty: it never waits
//     for more requests to arrive. Every tenant reads the one snapshot, so a
//     batch that mixes tenants is still one ensemble call.
//   * One shared model — publish() stamps the next version into the one
//     snapshot slot behind an atomic shared_ptr; every tenant and shard reads
//     it, and in-flight requests keep the version they started with.
//     Versions count publish() calls only.
//   * Async retraining — ObserveWindow is stale-while-revalidate: a tuned-
//     table miss answers immediately with the current config
//     (Response::stale set) and enqueues the (model, bucket) key on the
//     service's one retrain lane; the GA never runs on a request-path worker
//     (serve/retrain.h). Its result lands in the model's tuned table, where
//     every tenant's tuner over that table finds it on its next window.
//   * Sharding — requests are routed by a stable fingerprint of their
//     (tenant, read-ratio band) key (band = percent bucket of the read ratio,
//     the tuner's cache quantization) hashed into a fixed table of route
//     slots, after Tuneful's per-workload-signature tuning. The hot path
//     shares nothing across shards: no common queue mutex, no common stats
//     stripe. An Overloaded home shard spills to up to `spill_limit`
//     siblings (every shard reads the same snapshot, so any shard answers
//     identically); rebalance_hottest() migrates the hottest route slot off
//     the most-loaded shard with one atomic store. With one shard there is
//     nothing to route: try_submit goes straight to shard 0.
//   * Telemetry — per-endpoint latency histograms, QPS / rejection /
//     queue-depth counters and batch-size distribution (serve/stats.h), per
//     shard; the merged accessors sum over shards. Shard 0's stats() doubles
//     as the sink for the retrain lane and the wire and fleet counters, so a
//     one-shard service reads exactly like an unsharded one.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "opt/ga.h"
#include "serve/backend.h"
#include "serve/queue.h"
#include "serve/retrain.h"
#include "serve/snapshot.h"
#include "serve/stats.h"
#include "serve/types.h"
#include "util/sync.h"

namespace rafiki::core {
class OnlineTuner;
class TunedTable;
}

namespace rafiki::serve {

struct ServiceOptions {
  /// Tenant namespaces served by this instance (dense ids [0, tenants)).
  /// Every tenant reads the one published snapshot and gets its own tuner
  /// pointer. Tuned configs and retrain keys belong to the tenant's model:
  /// the tuned table its tuner reads, shared by every tenant whose tuner
  /// reads the same table. 1 (the default) is exactly the original
  /// single-tenant service: tenant 0 is the default namespace pre-tenant
  /// callers land in. 0 is normalized to 1.
  std::size_t tenants = 1;
  /// Worker threads spawned by start() for a one-shard service. 0 is valid
  /// (and useful in tests): requests queue deterministically until stop().
  /// Under ShardOptions this sizes the default fleet budget instead — a
  /// shard never sizes its own pool (ShardOptions::worker_budget).
  std::size_t workers = 2;
  /// Bounded request queue capacity per shard; the admission-control limit.
  std::size_t queue_capacity = 256;
  /// Micro-batcher: a Predict batch holds at most this many requests. It
  /// flushes earlier whenever the queue momentarily empties, so under load
  /// batches fill to max_batch and a lone client gets queue-depth-1 latency.
  std::size_t max_batch = 32;
  /// Virtual clock for request deadlines. Deterministic by construction: the
  /// default never advances, so deadlines never expire unless a clock is
  /// injected (tests drive an atomic counter; a deployment would plug in a
  /// coarse ticker).
  std::function<Tick()> clock_fn;
  /// GA budget for the Optimize endpoint.
  opt::GaOptions ga{};
};

struct ShardOptions {
  /// Shard count; clamped to [1, 128]. Every shard gets its own queue,
  /// worker pool, batcher and stats built from `service`, and the service's
  /// one retrain lane gets one pool thread per shard.
  std::size_t shards = 4;
  ServiceOptions service{};
  /// Fleet-level worker budget, divided across shards (shard i gets
  /// budget/N workers, +1 for the first budget%N shards). 0 (the default)
  /// derives the budget from `service.workers` capped by the machine:
  /// min(util::hw_threads(), shards * service.workers), floored at one
  /// worker per shard. This is the de-scaling fix — giving every shard its
  /// own full `service.workers` pool made 8 shards x (2 workers + a retrain
  /// thread) oversubscribe any host with fewer than ~24 hardware threads.
  /// An explicit budget is clamped to at least one worker per shard.
  /// service.workers == 0 keeps every shard at zero workers (test mode).
  std::size_t worker_budget = 0;
  /// Pin each shard's workers to a contiguous slice of the CPUs in the
  /// affinity mask (shard i gets entries [i*H/N, (i+1)*H/N) of the H
  /// allowed CPU ids, util::allowed_cpus()). Off (the default):
  /// the scheduler places threads freely. Linux-only; elsewhere a no-op.
  bool pin_shards = false;
  /// On a home-shard Overloaded verdict, try up to this many sibling shards
  /// (in route order) before reporting Overloaded to the caller. 0 disables
  /// spilling.
  std::size_t spill_limit = 1;
};

class TuningService : public TuningBackend {
  struct Job {
    Request request;
    /// The single completion channel, armed for every job (submit() adapts
    /// its future through a callback; jobs carry no std::promise).
    ResponseCallback done;
    std::chrono::steady_clock::time_point enqueued;
  };

 public:
  /// Read-ratio bands: percent buckets of rr in [0, 1] — the same
  /// quantization as the tuner's per-bucket model cache, so one tuned
  /// workload maps to exactly one band.
  static constexpr std::size_t kBands = 101;
  /// Route-table size: (tenant, band) keys hash into this many slots, each
  /// atomically mapped to a shard. A slot is the unit of migration; distinct
  /// keys sharing a slot move together (ordinary hash-sharding collisions).
  static constexpr std::size_t kRouteSlots = 1024;

  /// Percent band of a read ratio (clamped into [0, kBands)).
  static std::size_t band_of(double read_ratio) noexcept;
  /// Stable fingerprint of a band in the default tenant namespace (tenant
  /// 0): a pure integer mix (splitmix64 finalizer) of the band index — no
  /// pointers, no process state — so band->shard assignment is identical
  /// across restarts and machines for a given shard count.
  static std::uint64_t band_fingerprint(std::size_t band) noexcept;
  /// Stable fingerprint of a (tenant, band) routing key; tenant 0 reduces to
  /// band_fingerprint.
  static std::uint64_t route_fingerprint(TenantId tenant, std::size_t band) noexcept;
  /// Route-table slot of a (tenant, band) key.
  static std::size_t route_slot(TenantId tenant, std::size_t band) noexcept {
    return static_cast<std::size_t>(route_fingerprint(tenant, band) % kRouteSlots);
  }

  /// One shard's private serving state: its bounded queue, worker pool and
  /// striped stats. Only the service mutates it; outside the service a
  /// shard is a telemetry view.
  class Shard {
   public:
    Shard(const ServiceOptions& options, std::size_t workers, std::vector<int> cpus);

    const ServiceStats& stats() const noexcept { return stats_; }
    /// Planned worker-pool size — the number start() spawns.
    std::size_t worker_count() const noexcept { return worker_count_; }
    /// Total CPU time burned by worker threads that have exited, in
    /// microseconds. Exact only after stop() has joined the pool.
    std::uint64_t worker_cpu_us() const noexcept {
      return worker_cpu_us_.load(std::memory_order_relaxed);
    }

   private:
    friend class TuningService;

    /// Moves `done` into the queue ONLY on kOk. On Overloaded / ShuttingDown
    /// the callback is handed back in `done` exactly as passed, so a spill
    /// retries sibling shards with the same callback — no copy per attempt.
    Status offer(const Request& request, ResponseCallback& done);

    BoundedQueue<Job> queue_;
    /// On a cache line of its own: every record_* call reads the stripe
    /// table at the front of the stats, and the queue's tail (its size hint
    /// and waiter count) is written by every push and pop.
    alignas(64) ServiceStats stats_;
    const std::size_t worker_count_;
    /// CPUs worker i pins to (cpus_[i % size]); empty = no pinning.
    const std::vector<int> cpus_;
    /// Spawned in start() under the service's lifecycle mutex; joined in
    /// stop() after the stopped_ handshake (the workers drain the closed
    /// queue, so a join under the lock could wait on threads still serving).
    std::vector<std::thread> threads_;
    /// Summed CPU time of exited workers (relaxed; exact after join).
    std::atomic<std::uint64_t> worker_cpu_us_{0};
  };

  /// A one-shard service that spawns exactly `options.workers` workers.
  explicit TuningService(ServiceOptions options = {});
  /// An N-shard service with a fleet-level worker budget.
  explicit TuningService(ShardOptions options);
  ~TuningService() override;

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// See TuningBackend::publish. Stamps the next version into the one
  /// snapshot slot every tenant reads, and returns it.
  std::uint64_t publish(ModelSnapshot snapshot) override;

  /// The published snapshot (null before the first publish).
  std::shared_ptr<const ModelSnapshot> snapshot() const override { return registry_.get(); }
  std::uint64_t model_version() const override;

  /// Per-tenant views: the one snapshot and version for a served tenant,
  /// null / 0 for a tenant outside [0, tenants).
  std::shared_ptr<const ModelSnapshot> tenant_snapshot(TenantId tenant) const override {
    return serves(tenant) ? snapshot() : nullptr;
  }
  std::uint64_t tenant_model_version(TenantId tenant) const override {
    return serves(tenant) ? model_version() : 0;
  }

  /// Enables the ObserveWindow endpoint for tenant 0; see attach_tenant_tuner.
  void attach_tuner(core::OnlineTuner& tuner) override { attach_tenant_tuner(0, tuner); }
  /// Wires the tuner serving one tenant namespace (it must outlive this
  /// service). The tenant joins the model of the tuner's table: every tenant
  /// whose tuner reads that table. The tuner becomes
  /// stale-while-revalidate: its misses and prefetches enqueue on the
  /// retrain lane under retrain_key(model, bucket), and the lane installs
  /// each result in the table, where every tuner of the model reads it. Call
  /// before start().
  void attach_tenant_tuner(TenantId tenant, core::OnlineTuner& tuner);

  /// See TuningBackend::try_submit. Routes by (tenant, band), spilling to
  /// siblings on Overloaded.
  Status try_submit(Request request, ResponseCallback done) override;

  /// Spawns every shard's worker pool and the retrain lane (idempotent).
  /// Requests submitted before start() wait in their shard's queue.
  void start() override;
  /// Closes admission, drains the backlog, joins workers, then stops the
  /// retrain lane (cancelling its queued backlog; a running GA completes and
  /// still installs its result). Queued requests are still answered (drained
  /// by the workers, or failed with ShuttingDown if no worker ever ran).
  /// Idempotent.
  void stop() override;

  /// Shard 0's stats: the sink the retrain lane and the front-ends
  /// (net::Server, TenantFleet) fold their retrain, wire and fleet telemetry
  /// into. ServiceStats is internally synchronized (lock-free striped
  /// atomics).
  ServiceStats& stats() noexcept override { return shards_.front()->stats_; }
  const ServiceStats& stats() const noexcept override { return shards_.front()->stats_; }

  /// Merged across shards (sums; a spilled request contributes one
  /// Overloaded reject at home and one accept at the sibling — spills()
  /// says how many rejects were absorbed that way).
  Table stats_table() const override;
  ServiceStats::Counters endpoint_counters(Endpoint endpoint) const override;
  ServiceStats::Counters merged_totals() const;
  double endpoint_latency_quantile(Endpoint endpoint, double q) const override;
  /// Request-weighted mean micro-batch size across shards.
  double mean_batch_size() const override;
  /// The retrain lane's counters and mean latency (it records into shard
  /// 0's stats, so these are the service totals).
  ServiceStats::RetrainCounters retrain_counters() const override {
    return stats().retrain_counters();
  }
  double mean_retrain_latency_us() const override { return stats().mean_retrain_latency_us(); }
  /// Summed worker CPU time of every shard (exact after stop()).
  std::uint64_t worker_cpu_us() const noexcept;
  /// Blocks until the retrain lane is idle — the barrier tests and benches
  /// use to observe the tuned tables after background work.
  void wait_retrain_idle() override { retrain_.wait_idle(); }

  std::size_t shard_count() const noexcept { return shards_.size(); }
  const Shard& shard(std::size_t index) const { return *shards_[index]; }
  /// Total worker threads across all shards — the sum of every shard's
  /// worker_count(). Never exceeds max(worker_budget, shards) for an
  /// explicit budget, nor max(min(util::hw_threads(), shards *
  /// service.workers), shards) for the derived one (0 when service.workers
  /// == 0).
  std::size_t resolved_worker_budget() const noexcept;

  /// Current route of a tenant-0 read ratio / band (lock-free relaxed load).
  std::size_t shard_of(double read_ratio) const noexcept;
  std::size_t shard_of_band(std::size_t band) const noexcept;
  /// Current route of a (tenant, band) key.
  std::size_t shard_of_key(TenantId tenant, std::size_t band) const noexcept;
  /// Pins a tenant-0 band to a shard (tests, manual rebalance).
  void route_band(std::size_t band, std::size_t shard_index) noexcept;
  /// Pins a (tenant, band) key's route slot to a shard.
  void route_key(TenantId tenant, std::size_t band, std::size_t shard_index) noexcept;

  /// Migrates the hottest route slot of the most-loaded shard (by routed
  /// request count) to the least-loaded shard. Returns false when there is
  /// nothing to move (uniform load, single shard, or no traffic). In-flight
  /// requests finish on the shard that admitted them; nothing is dropped.
  bool rebalance_hottest();

  /// Requests absorbed by a sibling shard after a home-shard Overloaded.
  std::uint64_t spills() const noexcept { return spills_.load(std::memory_order_relaxed); }
  /// Successful rebalance_hottest() migrations.
  std::uint64_t rebalances() const noexcept {
    return rebalances_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(Shard& shard, std::size_t worker_index);
  void run_single(Shard& shard, Job job);
  void run_predict_batch(Shard& shard, std::vector<Job> batch);
  static void finish(Shard& shard, Job& job, Response response);
  ServiceStats::EndpointAggregate merged_aggregate(Endpoint endpoint) const;
  Tick now_tick() const { return options_.service.clock_fn ? options_.service.clock_fn() : 0; }
  static bool expired(const Request& request, Tick now) {
    return request.deadline != kNoDeadline && now > request.deadline;
  }
  bool serves(TenantId tenant) const noexcept { return tenant < tuners_.size(); }
  core::OnlineTuner* tuner_for(TenantId tenant) const noexcept {
    return serves(tenant) ? tuners_[tenant].load(std::memory_order_acquire) : nullptr;
  }
  /// The retrain lane's task: tunes one bucket of one model's table.
  /// Returns whether a GA ran.
  bool run_retrain(std::uint32_t model, int bucket);

  ShardOptions options_;
  /// The one snapshot slot. Writers serialize on publish_mutex_; readers
  /// are lock-free.
  SnapshotRegistry registry_;
  Mutex publish_mutex_;
  /// Versions stamped so far: one per publish().
  std::uint64_t version_ GUARDED_BY(publish_mutex_) = 0;
  /// The models, indexed by the high word of a retrain key: one entry per
  /// distinct tuned table, appended by attach_tenant_tuner and never
  /// removed, so a task queued before a re-attach still finds its table.
  std::vector<std::shared_ptr<core::TunedTable>> models_ GUARDED_BY(publish_mutex_);
  /// Per-tenant tuner pointers, indexed by TenantId; null until attached.
  std::deque<std::atomic<core::OnlineTuner*>> tuners_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// The one retrain lane: ObserveWindow misses and tuner prefetches of
  /// every model, recording into shard 0's stats. Declared after shards_,
  /// so it is destroyed (stopped) first.
  RetrainWorker retrain_;
  /// route slot -> shard index. uint8 caps shards at 128 (clamped in the
  /// ctor); reads are relaxed atomic loads on the submit path, writes only
  /// from route_key / rebalance_hottest.
  std::array<std::atomic<std::uint8_t>, kRouteSlots> route_{};
  /// Per-route-slot routed-request counters (relaxed); rebalance input.
  std::array<std::atomic<std::uint64_t>, kRouteSlots> slot_hits_{};
  std::atomic<std::uint64_t> spills_{0};
  std::atomic<std::uint64_t> rebalances_{0};
  /// Serializes route-table rewrites (the route_ slots themselves are
  /// atomics, so they carry no GUARDED_BY — the mutex only orders writers).
  Mutex rebalance_mutex_;

  Mutex lifecycle_mutex_;
  bool started_ GUARDED_BY(lifecycle_mutex_) = false;
  bool stopped_ GUARDED_BY(lifecycle_mutex_) = false;
};

}  // namespace rafiki::serve
