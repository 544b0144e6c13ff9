#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <time.h>
#endif

#include "core/online.h"
#include "util/cpu.h"

namespace rafiki::serve {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

double elapsed_us(std::chrono::steady_clock::time_point since,
                  std::chrono::steady_clock::time_point until) {
  return std::chrono::duration<double, std::micro>(until - since).count();
}

ShardOptions sanitize(ShardOptions options) {
  if (options.service.tenants == 0) options.service.tenants = 1;
  options.shards = std::clamp<std::size_t>(options.shards, 1, 128);
  return options;
}

/// A one-shard service whose budget is exactly its `workers`.
ShardOptions one_shard(ServiceOptions service) {
  ShardOptions options;
  options.shards = 1;
  options.worker_budget = service.workers;
  options.service = std::move(service);
  return options;
}

/// Fleet worker budget for N shards. An explicit budget is taken as given
/// (floored at one worker per shard so no shard deadlocks its queue); the
/// derived budget caps the legacy shards*workers sizing at the machine's
/// hardware threads — the oversubscription that made 8 shards slower than 1.
std::size_t resolve_budget(const ShardOptions& options) noexcept {
  if (options.worker_budget > 0) return std::max(options.worker_budget, options.shards);
  if (options.service.workers == 0) return 0;  // test mode: no workers anywhere
  const std::size_t requested = options.shards * options.service.workers;
  return std::max(options.shards, std::min(util::hw_threads(), requested));
}

/// Contiguous slice of the H allowed CPUs for shard i of n: entries
/// [i*H/n, (i+1)*H/n) of the affinity mask's ids. With more shards than
/// CPUs the slice is empty — fall back to a single shared CPU (entry i % H)
/// so pinning still separates shards as far as the mask allows.
std::vector<int> shard_cpu_slice(std::size_t shard, std::size_t shards) {
  const std::vector<int> allowed = util::allowed_cpus();
  const std::size_t hw = allowed.size();
  std::vector<int> cpus(allowed.begin() + static_cast<std::ptrdiff_t>(shard * hw / shards),
                        allowed.begin() + static_cast<std::ptrdiff_t>((shard + 1) * hw / shards));
  if (cpus.empty()) cpus.push_back(allowed[shard % hw]);
  return cpus;
}

/// Pins the calling thread to one CPU (no-op off Linux or on failure —
/// affinity is a performance hint, never a correctness requirement).
void pin_current_thread(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

/// CPU time this thread has burned so far, in microseconds (telemetry only).
std::uint64_t thread_cpu_us() {
#if defined(__linux__)
  timespec ts{};
  // det:ok(wall-clock): per-thread CPU-time telemetry; no result depends on it
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ull;
#else
  return 0;
#endif
}

/// The shards of a service, with the fleet worker budget divided across
/// them.
std::vector<std::unique_ptr<TuningService::Shard>> make_shards(const ShardOptions& options) {
  // Divide the budget across shards: budget/N each, +1 for the first
  // budget%N shards, so the division is deterministic for a given (budget,
  // shards) and the total never exceeds the budget.
  const std::size_t n = options.shards;
  const std::size_t budget = resolve_budget(options);
  std::vector<std::unique_ptr<TuningService::Shard>> shards;
  shards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards.push_back(std::make_unique<TuningService::Shard>(
        options.service, budget / n + (i < budget % n ? 1 : 0),
        options.pin_shards ? shard_cpu_slice(i, n) : std::vector<int>{}));
  }
  return shards;
}

}  // namespace

// --- routing ------------------------------------------------------------------

std::size_t TuningService::band_of(double read_ratio) noexcept {
  const long scaled = std::lround(read_ratio * 100.0);
  return static_cast<std::size_t>(
      std::clamp<long>(scaled, 0, static_cast<long>(kBands - 1)));
}

std::uint64_t TuningService::band_fingerprint(std::size_t band) noexcept {
  return route_fingerprint(0, band);
}

std::uint64_t TuningService::route_fingerprint(TenantId tenant, std::size_t band) noexcept {
  // splitmix64 finalizer over the packed (tenant, band) key: a pure integer
  // mix — no pointers, no process state — so key->slot->shard assignment is
  // reproducible across restarts for a fixed shard count. Bands fit in 7
  // bits (kBands = 101), so the packing is collision-free, and tenant 0
  // reduces to the original per-band fingerprint.
  std::uint64_t z = ((static_cast<std::uint64_t>(tenant) << 7) |
                     static_cast<std::uint64_t>(band)) +
                    0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t TuningService::shard_of_key(TenantId tenant, std::size_t band) const noexcept {
  return route_[route_slot(tenant, std::min(band, kBands - 1))].load(kRelaxed) %
         shards_.size();
}

std::size_t TuningService::shard_of_band(std::size_t band) const noexcept {
  return shard_of_key(0, band);
}

std::size_t TuningService::shard_of(double read_ratio) const noexcept {
  return shard_of_key(0, band_of(read_ratio));
}

void TuningService::route_band(std::size_t band, std::size_t shard_index) noexcept {
  route_key(0, band, shard_index);
}

void TuningService::route_key(TenantId tenant, std::size_t band,
                              std::size_t shard_index) noexcept {
  if (band >= kBands || shard_index >= shards_.size()) return;
  route_[route_slot(tenant, band)].store(static_cast<std::uint8_t>(shard_index), kRelaxed);
}

// --- construction and lifecycle -------------------------------------------------

TuningService::Shard::Shard(const ServiceOptions& options, std::size_t workers,
                            std::vector<int> cpus)
    : queue_(options.queue_capacity),
      worker_count_(workers),
      cpus_(std::move(cpus)) {}

TuningService::TuningService(ServiceOptions options)
    : TuningService(one_shard(std::move(options))) {}

TuningService::TuningService(ShardOptions options)
    : options_(sanitize(std::move(options))),
      tuners_(options_.service.tenants),
      shards_(make_shards(options_)),
      retrain_(
          [this](std::uint64_t key) {
            return run_retrain(retrain_key_model(key), retrain_key_bucket(key));
          },
          shards_.size(), &shards_.front()->stats_) {
  const std::size_t n = shards_.size();
  for (std::size_t slot = 0; slot < kRouteSlots; ++slot) {
    // Initial slot->shard spread reuses the same pure mix (of the slot
    // index), keeping the table identical across restarts.
    route_[slot].store(static_cast<std::uint8_t>(band_fingerprint(slot) % n), kRelaxed);
  }
}

TuningService::~TuningService() { stop(); }

void TuningService::start() {
  MutexLock lock(lifecycle_mutex_);
  if (started_ || stopped_) return;
  started_ = true;
  retrain_.start();
  for (auto& shard : shards_) {
    shard->threads_.reserve(shard->worker_count_);
    for (std::size_t i = 0; i < shard->worker_count_; ++i) {
      shard->threads_.emplace_back([this, s = shard.get(), i] { worker_loop(*s, i); });
    }
  }
}

void TuningService::stop() {
  {
    MutexLock lock(lifecycle_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  for (auto& shard : shards_) shard->queue_.close();
  for (auto& shard : shards_) {
    for (auto& thread : shard->threads_) {
      if (thread.joinable()) thread.join();
    }
    shard->threads_.clear();
  }
  // Request workers are gone, so nothing can enqueue retrains anymore; the
  // queued backlog is cancelled, and an in-flight GA always completes and
  // still installs its result in the table.
  retrain_.stop();
  for (auto& shard : shards_) {
    // No worker ever consumed these (workers == 0, or stop before start):
    // fail them instead of leaving their callbacks unanswered.
    while (auto job = shard->queue_.try_pop()) {
      Response response;
      response.status = Status::kShuttingDown;
      finish(*shard, *job, response);
    }
  }
}

bool TuningService::rebalance_hottest() {
  MutexLock lock(rebalance_mutex_);
  const std::size_t n = shards_.size();
  if (n < 2) return false;

  // Shard load = routed hits of the slots it currently owns; also track each
  // shard's hottest slot so the migration victim falls out of the same scan.
  std::vector<std::uint64_t> load(n, 0);
  std::vector<std::size_t> hottest_slot(n, kRouteSlots);
  std::vector<std::uint64_t> hottest_hits(n, 0);
  for (std::size_t slot = 0; slot < kRouteSlots; ++slot) {
    const std::size_t owner = route_[slot].load(kRelaxed) % n;
    const std::uint64_t hits = slot_hits_[slot].load(kRelaxed);
    load[owner] += hits;
    if (hits > hottest_hits[owner]) {
      hottest_hits[owner] = hits;
      hottest_slot[owner] = slot;
    }
  }

  std::size_t most = 0;
  std::size_t least = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (load[i] > load[most]) most = i;
    if (load[i] < load[least]) least = i;
  }
  if (most == least || hottest_slot[most] == kRouteSlots) return false;
  // Greedy improvement check: migrate only if the receiver stays below the
  // donor's current load, otherwise the move just swaps the hot spot.
  const std::uint64_t moved = hottest_hits[most];
  if (moved == 0 || load[least] + moved >= load[most]) return false;

  route_[hottest_slot[most]].store(static_cast<std::uint8_t>(least), kRelaxed);
  rebalances_.fetch_add(1, kRelaxed);
  return true;
}

// --- publication ------------------------------------------------------------------

std::uint64_t TuningService::publish(ModelSnapshot snapshot) {
  MutexLock lock(publish_mutex_);
  // One slot for every tenant and shard: a publish copies nothing, whatever
  // the tenant count.
  snapshot.version = ++version_;
  registry_.set(std::make_shared<const ModelSnapshot>(std::move(snapshot)));
  return version_;
}

std::uint64_t TuningService::model_version() const {
  const auto published = snapshot();
  return published ? published->version : 0;
}

void TuningService::attach_tenant_tuner(TenantId tenant, core::OnlineTuner& tuner) {
  if (!serves(tenant)) return;
  const std::shared_ptr<core::TunedTable>& table = tuner.table();
  std::uint32_t model = 0;
  {
    MutexLock lock(publish_mutex_);
    const auto it = std::find(models_.begin(), models_.end(), table);
    model = static_cast<std::uint32_t>(it - models_.begin());
    if (it == models_.end()) models_.push_back(table);
  }
  // Route the tuner's misses (ObserveWindow staleness, prefetch) to the one
  // retrain lane, whose pending-key set sees every request for a (model,
  // bucket): no GA ever runs on a request-path thread, a bucket is never
  // optimized twice at once, and the tenants of one model share each run.
  tuner.set_async_optimize_hook([this, model](int bucket) {
    retrain_.enqueue(retrain_key(model, bucket));
  });
  tuners_[tenant].store(&tuner, std::memory_order_release);
}

bool TuningService::run_retrain(std::uint32_t model, int bucket) {
  std::shared_ptr<core::TunedTable> table;
  {
    MutexLock lock(publish_mutex_);
    table = models_[model];
  }
  // The task ends at the table: every tuner of the model adopts the result
  // on its next window. No thread waits on this GA — a tenant that missed
  // meanwhile coalesced here — and it publishes nothing.
  return table->tune(bucket);
}

// --- admission --------------------------------------------------------------------

Status TuningService::Shard::offer(const Request& request, ResponseCallback& done) {
  Job job;
  job.request = request;
  job.done = std::move(done);
  // det:ok(wall-clock): reporting-only latency timestamp; results never depend on it
  job.enqueued = std::chrono::steady_clock::now();

  const Endpoint endpoint = request.endpoint;
  const PushResult pushed = queue_.try_push(std::move(job));
  if (pushed != PushResult::kOk) {
    // The push itself reports why it failed — atomically, under the queue
    // lock — so a concurrent close() can never turn a full-queue rejection
    // into a spurious kShuttingDown. The rejected job is intact (try_push
    // moves only on kOk): hand the callback back for a spill retry.
    done = std::move(job.done);
    const Status reason =
        pushed == PushResult::kClosed ? Status::kShuttingDown : Status::kOverloaded;
    stats_.record_reject(endpoint, reason);
    return reason;
  }
  // Depth is sampled from the lock-free hint: the exact size() re-took the
  // queue mutex once per accepted request just for telemetry.
  stats_.record_accept(endpoint, queue_.approx_size());
  return Status::kOk;
}

Status TuningService::try_submit(Request request, ResponseCallback done) {
  // One shard: nothing to route, count or rebalance.
  if (shards_.size() == 1) return shards_.front()->offer(request, done);

  const std::size_t slot = route_slot(request.tenant, band_of(request.read_ratio));
  slot_hits_[slot].fetch_add(1, kRelaxed);
  const std::size_t home = route_[slot].load(kRelaxed) % shards_.size();
  Status verdict = shards_[home]->offer(request, done);
  if (verdict != Status::kOverloaded) return verdict;

  // offer() hands `done` back intact on rejection, so every spill retry
  // reuses the one callback.
  const std::size_t tries = std::min(options_.spill_limit, shards_.size() - 1);
  for (std::size_t i = 1; i <= tries; ++i) {
    verdict = shards_[(home + i) % shards_.size()]->offer(request, done);
    if (verdict == Status::kOk) {
      spills_.fetch_add(1, kRelaxed);
      return verdict;
    }
    if (verdict == Status::kShuttingDown) return verdict;
  }
  return verdict;
}

// --- execution --------------------------------------------------------------------

void TuningService::worker_loop(Shard& shard, std::size_t worker_index) {
  if (!shard.cpus_.empty()) pin_current_thread(shard.cpus_[worker_index % shard.cpus_.size()]);
  const std::size_t max_batch = options_.service.max_batch;
  while (auto job = shard.queue_.pop()) {
    if (job->request.endpoint != Endpoint::kPredict) {
      run_single(shard, std::move(*job));
      continue;
    }

    // Micro-batcher: coalesce the Predict requests already queued behind
    // this one, up to max_batch. An empty queue means no co-arriving
    // requests to coalesce, so the batch runs at once instead of waiting for
    // more. A non-Predict request popped while draining terminates the batch
    // and runs right after it.
    std::vector<Job> batch;
    batch.push_back(std::move(*job));
    std::optional<Job> carry;
    while (batch.size() < max_batch) {
      auto next = shard.queue_.try_pop();
      if (!next) break;
      if (next->request.endpoint == Endpoint::kPredict) {
        batch.push_back(std::move(*next));
      } else {
        carry = std::move(*next);
        break;
      }
    }
    run_predict_batch(shard, std::move(batch));
    if (carry) run_single(shard, std::move(*carry));
  }
  shard.worker_cpu_us_.fetch_add(thread_cpu_us(), kRelaxed);
}

void TuningService::finish(Shard& shard, Job& job, Response response) {
  // det:ok(wall-clock): reporting-only latency measurement
  const auto now = std::chrono::steady_clock::now();
  shard.stats_.record_done(job.request.endpoint, response.status, elapsed_us(job.enqueued, now));
  job.done(std::move(response));
}

void TuningService::run_predict_batch(Shard& shard, std::vector<Job> batch) {
  const Tick now = now_tick();
  // Every tenant reads the one snapshot, so the whole batch is one ensemble
  // call. Expired jobs, and every job while no trained model is published or
  // whose tenant is outside the service, are answered one by one; the rest
  // keep arrival order.
  const auto published = snapshot();
  const bool ready = published && published->ensemble.trained();
  std::vector<Job> live;
  live.reserve(batch.size());
  for (auto& job : batch) {
    Response response;
    if (expired(job.request, now)) {
      response.status = Status::kDeadlineExceeded;
    } else if (!ready || !serves(job.request.tenant)) {
      response.status = Status::kNotReady;
    } else {
      live.push_back(std::move(job));
      continue;
    }
    finish(shard, job, response);
  }
  if (live.empty()) return;

  std::vector<std::vector<double>> rows;
  rows.reserve(live.size());
  for (const auto& job : live) {
    rows.push_back(published->feature_row(job.request.read_ratio, job.request.config));
  }
  const auto predictions = published->ensemble.predict_batch_with_uncertainty(rows);
  shard.stats_.record_batch(live.size());

  for (std::size_t i = 0; i < live.size(); ++i) {
    Response response;
    response.status = Status::kOk;
    response.model_version = published->version;
    response.mean = predictions[i].mean;
    response.stddev = predictions[i].stddev;
    response.batch_size = live.size();
    finish(shard, live[i], response);
  }
}

void TuningService::run_single(Shard& shard, Job job) {
  Response response;
  if (expired(job.request, now_tick())) {
    response.status = Status::kDeadlineExceeded;
    finish(shard, job, response);
    return;
  }

  switch (job.request.endpoint) {
    case Endpoint::kPredict: {
      // Unreachable through worker_loop (predicts go through the batcher),
      // but kept correct for direct use: a batch of one.
      std::vector<Job> batch;
      batch.push_back(std::move(job));
      run_predict_batch(shard, std::move(batch));
      return;
    }
    case Endpoint::kOptimize: {
      const auto snapshot = tenant_snapshot(job.request.tenant);
      if (!snapshot || !snapshot->ensemble.trained() || !snapshot->space) {
        response.status = Status::kNotReady;
        break;
      }
      const double read_ratio = job.request.read_ratio;
      const auto objective = [&](const std::vector<std::vector<double>>& points) {
        std::vector<std::vector<double>> rows;
        rows.reserve(points.size());
        for (const auto& point : points) {
          std::vector<double> features;
          features.reserve(point.size() + 1);
          features.push_back(read_ratio);
          features.insert(features.end(), point.begin(), point.end());
          rows.push_back(std::move(features));
        }
        return snapshot->ensemble.predict_batch(rows);
      };
      const auto ga = opt::ga_optimize_batched(*snapshot->space, objective, options_.service.ga);
      response.status = Status::kOk;
      response.model_version = snapshot->version;
      response.config = engine::Config::from_vector(snapshot->key_params, ga.best_point);
      response.predicted_throughput = ga.best_fitness;
      response.surrogate_evaluations = ga.evaluations;
      break;
    }
    case Endpoint::kObserveWindow: {
      auto* tuner = tuner_for(job.request.tenant);
      if (tuner == nullptr) {
        response.status = Status::kNotReady;
        break;
      }
      // The tuner is internally synchronized. With the async-optimize hook
      // attached (attach_tenant_tuner), a table miss returns immediately
      // with a stale-marked decision and the bucket lands on the retrain
      // lane, which installs the tuned config in the model's table once the
      // background GA completes.
      const auto decision = tuner->on_window(job.request.read_ratio);
      response.status = Status::kOk;
      response.model_version = tenant_model_version(job.request.tenant);
      response.config = decision.config;
      response.reconfigured = decision.reconfigured;
      response.stale = decision.stale;
      response.predicted_throughput = decision.predicted_throughput;
      if (decision.stale) shard.stats_.record_stale(Endpoint::kObserveWindow);
      break;
    }
  }
  finish(shard, job, response);
}

// --- merged telemetry -------------------------------------------------------------

ServiceStats::EndpointAggregate TuningService::merged_aggregate(Endpoint endpoint) const {
  auto agg = shards_.front()->stats_.endpoint_aggregate(endpoint);
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    agg.merge(shards_[i]->stats_.endpoint_aggregate(endpoint));
  }
  return agg;
}

Table TuningService::stats_table() const {
  std::vector<ServiceStats::EndpointAggregate> aggs;
  aggs.reserve(kEndpointCount);
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    aggs.push_back(merged_aggregate(static_cast<Endpoint>(i)));
  }
  return ServiceStats::table_of(aggs);
}

ServiceStats::Counters TuningService::endpoint_counters(Endpoint endpoint) const {
  ServiceStats::Counters sum;
  for (const auto& shard : shards_) sum.merge(shard->stats_.counters(endpoint));
  return sum;
}

ServiceStats::Counters TuningService::merged_totals() const {
  ServiceStats::Counters sum;
  for (const auto& shard : shards_) sum.merge(shard->stats_.totals());
  return sum;
}

double TuningService::endpoint_latency_quantile(Endpoint endpoint, double q) const {
  return merged_aggregate(endpoint).latency.quantile(q);
}

double TuningService::mean_batch_size() const {
  // Weight each shard's mean by its batch count: total predicted rows over
  // total batches, the same definition as one shard's counter.
  double rows = 0.0;
  double batches = 0.0;
  for (const auto& shard : shards_) {
    const auto n = static_cast<double>(shard->stats_.batches());
    rows += shard->stats_.mean_batch_size() * n;
    batches += n;
  }
  return batches > 0.0 ? rows / batches : 0.0;
}

std::uint64_t TuningService::worker_cpu_us() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->worker_cpu_us();
  return total;
}

std::size_t TuningService::resolved_worker_budget() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->worker_count();
  return total;
}

}  // namespace rafiki::serve
