#include "collect/runner.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>

#include "engine/scylla.h"
#include "util/cpu.h"
#include "util/parallel.h"
#include "util/sync.h"
#include "workload/generator.h"

namespace rafiki::collect {
namespace {

/// Everything a measurement's preloaded tables depend on: the table spec of
/// the configuration its engine runs, and the preload keys, which are always
/// 0 .. initial_keys - 1 (workload::Generator::preload_keys).
struct StoreKey {
  engine::TableSet::Spec spec;
  std::size_t initial_keys = 0;
  bool operator==(const StoreKey&) const = default;
};

StoreKey store_key(const Measurement& m) {
  // The ScyllaDB model runs the engine on its effective configuration.
  const engine::Config config =
      m.options.scylla ? engine::ScyllaServer::effective_config(m.config, m.options.hardware)
                       : m.config;
  return {engine::Server::table_spec(config, m.options.hardware, m.workload.value_bytes,
                                     m.options.version_dup),
          m.workload.initial_keys};
}

/// One distinct table set of a plan: built by the first of its runs to load
/// it, dropped once the last of them has loaded it.
class Store {
 public:
  Store(StoreKey key, std::size_t runs) : key_(key), pending_(runs) {}

  std::shared_ptr<const engine::TableSet> acquire(const workload::Generator& generator)
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (!tables_) {
      tables_ = std::make_shared<const engine::TableSet>(
          engine::Server::build_tables(key_.spec, generator.preload_keys()));
    }
    return tables_;
  }

  void release() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (--pending_ == 0) tables_.reset();
  }

 private:
  const StoreKey key_;
  Mutex mutex_;
  std::size_t pending_ GUARDED_BY(mutex_);
  std::shared_ptr<const engine::TableSet> tables_ GUARDED_BY(mutex_);
};

engine::RunStats drive(engine::Server& server, const Measurement& m, Store& store) {
  const workload::WorkloadSpec& workload = m.workload;
  const MeasureOptions& options = m.options;
  workload::Generator generator(workload, options.seed);
  // det:ok(memory-order): engine::Server::load installs tables; no atomic
  server.load(*store.acquire(generator));
  store.release();  // the server shares the runs it loaded

  if (options.warmup_ops > 0) {
    workload::WorkloadSpec warm = workload;
    warm.read_ratio = options.warmup_read_ratio;
    workload::Generator warm_generator(warm, options.seed ^ 0x5eed5eedull);
    engine::RunOptions warm_opts;
    warm_opts.ops = options.warmup_ops;
    warm_opts.seed = options.seed ^ 1;
    server.run(warm_generator, warm_opts);
  }

  engine::RunOptions run_opts;
  run_opts.ops = options.ops;
  run_opts.seed = options.seed;
  run_opts.measurement_noise_sd = options.noise_sd;
  run_opts.record_windows = options.record_windows;
  run_opts.window_s = options.window_s;
  return server.run(generator, run_opts);
}

engine::RunStats measure_with(const Measurement& m, Store& store) {
  if (m.options.scylla) {
    engine::ScyllaServer server(m.config, m.options.hardware,
                                /*fluctuation_seed=*/m.options.seed);
    return drive(server.server(), m, store);
  }
  engine::Server server(m.config, m.options.hardware);
  return drive(server, m, store);
}

}  // namespace

std::vector<engine::RunStats> measure_plan(std::span<const Measurement> plan,
                                           std::size_t threads) {
  // Group the runs by table set, sets in order of first use.
  std::vector<StoreKey> keys;
  std::vector<std::size_t> runs_per_store;
  std::vector<std::size_t> store_of(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const StoreKey key = store_key(plan[i]);
    const auto found = std::find(keys.begin(), keys.end(), key);
    store_of[i] = static_cast<std::size_t>(found - keys.begin());
    if (found == keys.end()) {
      keys.push_back(key);
      runs_per_store.push_back(0);
    }
    ++runs_per_store[store_of[i]];
  }
  std::deque<Store> stores;  // Store holds a mutex: built in place, never moved
  for (std::size_t s = 0; s < keys.size(); ++s) stores.emplace_back(keys[s], runs_per_store[s]);

  // Runs claim indices in ascending order, so running them store by store
  // keeps only the stores of the runs in flight alive.
  std::vector<std::size_t> order(plan.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return store_of[a] < store_of[b];
  });

  const std::size_t workers = std::min(threads ? threads : util::hw_threads(), plan.size());
  std::vector<engine::RunStats> stats(plan.size());
  util::parallel_for(order.size(), workers, [&](std::size_t k) {
    const std::size_t i = order[k];
    stats[i] = measure_with(plan[i], stores[store_of[i]]);
  });
#if defined(__GLIBC__)
  // glibc keeps an arena per worker thread, holding the pages of the
  // servers and table sets its runs freed, and later threads reuse those
  // arenas; handing the free pages back keeps a parallel plan from raising
  // the process's resident set for good (perfbench regime_fleet's own peak
  // over 20 s: 14.8 MB without the trim, 12.6-14.0 MB with it).
  if (workers > 1) malloc_trim(0);
#endif
  return stats;
}

engine::RunStats measure(const engine::Config& config, const workload::WorkloadSpec& workload,
                         const MeasureOptions& options) {
  const Measurement m{config, workload, options};
  return measure_plan({&m, 1}, 1).front();
}

double measure_throughput(const engine::Config& config,
                          const workload::WorkloadSpec& workload,
                          const MeasureOptions& options) {
  return measure(config, workload, options).throughput_ops;
}

}  // namespace rafiki::collect
