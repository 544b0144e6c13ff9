// The simulated Cassandra-like storage server.
//
// Real LSM mechanics over a virtual clock: writes append to a commit log and
// a memtable; memtables freeze and flush into SSTables (real sorted key runs
// with real Bloom filters); compaction strategies merge SSTables in the
// background while sharing CPU and disk with foreground traffic. Throughput
// is operations per virtual second.
//
// Simulation scheme: operations execute structurally one at a time, grouped
// into small epochs (~256 ops). At each epoch boundary the engine solves for
// elapsed virtual time from the accumulated resource demands —
//   T = max(cpu/cores, disk_read/channels, disk_write/channels,
//           latency-derived concurrency caps) + write-stall time —
// then grants background flush/compaction work the residual capacity. This
// keeps the model fast while letting the phenomena Rafiki tunes for
// (compaction debt, flush backpressure, cache hit rates, read amplification)
// emerge from actual state.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "engine/cache.h"
#include "engine/compaction.h"
#include "engine/config.h"
#include "engine/hardware.h"
#include "engine/memtable.h"
#include "engine/sstable.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace rafiki::engine {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Operations per measurement; stands in for the paper's 5-minute
  /// benchmark window (see Hardware::mem_scale for the scale-down scheme).
  std::size_t ops = 60000;
  /// Multiplicative Gaussian noise applied to the reported mean throughput,
  /// modelling benchmark-harness measurement error.
  double measurement_noise_sd = 0.0;
  /// When set, RunStats::window_throughput holds mean throughput per
  /// `window_s` virtual seconds (used for Figure 10).
  bool record_windows = false;
  double window_s = 10.0;
};

struct RunStats {
  double throughput_ops = 0.0;  ///< mean operations per virtual second
  double virtual_seconds = 0.0;
  /// Mean per-operation latencies (Section 2.3 discusses why MG-RAST tunes
  /// for throughput; the latencies are reported for completeness).
  double mean_read_latency_us = 0.0;
  double mean_write_latency_us = 0.0;
  std::size_t ops = 0;
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::size_t flushes = 0;
  std::size_t compactions = 0;
  double compacted_kb = 0.0;
  double avg_sstables_probed = 0.0;  ///< read amplification actually paid
  double file_cache_hit_rate = 0.0;
  double os_cache_hit_rate = 0.0;
  std::size_t disk_random_reads = 0;
  double write_stall_s = 0.0;
  std::size_t final_sstable_count = 0;
  std::size_t max_sstable_count = 0;
  std::size_t tombstones_purged = 0;  ///< deletion markers evicted by compaction
  std::vector<double> window_throughput;
  /// Fraction of epochs bound by each resource, for calibration diagnosis:
  /// {cpu, disk_read, disk_write, read_latency, write_latency}.
  std::array<double, 5> binding_fractions{};
};

/// The tables a bulk load installs (Server::preload): a pure function of a
/// Spec and the loaded keys. The tables share their runs with every copy,
/// so a set built once can be loaded by any number of servers, from any
/// number of threads.
struct TableSet {
  /// Everything the loaded tables depend on besides the keys. The chunk
  /// size and the cache capacities only change which pages load() warms.
  struct Spec {
    bool leveled = false;
    double sstable_target_bytes = 0.0;  ///< leveled only; 0 for size-tiered
    double bloom_fp_chance = 0.0;
    std::uint32_t value_bytes = 0;
    double version_dup = 0.0;
    bool operator==(const Spec&) const = default;
  };

  std::vector<SSTable> tables;  ///< in load order, ids 1 .. next_id - 1
  std::uint32_t next_id = 1;
};

class Server {
 public:
  explicit Server(Config config, Hardware hardware = {}, CostModel costs = {});

  /// Bulk-loads pre-existing data as SSTables arranged the way a store under
  /// sustained operation looks for the configured compaction strategy:
  /// overlapping runs for size-tiered, striped levels for leveled.
  ///
  /// `version_dup` is the expected number of *extra* row versions per key
  /// accumulated from the update history since the last full compaction.
  /// Size-tiered spreads them across its overlapping tables (the
  /// read-amplification the paper attributes to STCS, Section 2.2.2);
  /// leveled compaction continuously folds versions in, so only a quarter of
  /// them survive, parked in a recent L0 run. Must precede run()/step().
  /// Same as load(build_tables(table_spec(...), keys)).
  void preload(std::span<const std::int64_t> keys, std::uint32_t value_bytes,
               double version_dup = 0.65);

  /// What preload's tables depend on under `config` and `hardware`.
  static TableSet::Spec table_spec(const Config& config, const Hardware& hardware,
                                   std::uint32_t value_bytes, double version_dup);
  /// Builds the tables preload installs for `keys`.
  static TableSet build_tables(const TableSet::Spec& spec,
                               std::span<const std::int64_t> keys);
  /// Installs a built table set exactly as preload does: the same table ids
  /// and order, the same OS page-cache warming, the same counters. The
  /// server shares the set's runs. Throws std::logic_error unless the store
  /// is empty and has never flushed. Must precede run()/step().
  void load(const TableSet& set);

  /// Runs a full measurement: draws opts.ops operations from the generator.
  RunStats run(workload::Generator& generator, const RunOptions& opts);

  /// Executes one epoch of concrete operations and returns the virtual time
  /// elapsed (microseconds). Building block for run(), the cluster wrapper
  /// and white-box tests.
  double step(std::span<const workload::Op> ops);

  /// Time-varying performance modulation hook: multiplies foreground CPU
  /// cost by f(virtual_seconds). Used by the ScyllaDB model to inject its
  /// auto-tuner's throughput fluctuation; identity when unset.
  void set_perf_modulation(std::function<double(double)> modulation) {
    modulation_ = std::move(modulation);
  }

  // --- introspection (tests, stats assembly) ---
  const Config& config() const noexcept { return config_; }
  const Hardware& hardware() const noexcept { return hardware_; }
  const std::vector<SSTable>& sstables() const noexcept { return tables_; }
  std::size_t frozen_memtable_count() const noexcept { return frozen_.size(); }
  std::size_t active_compaction_count() const noexcept { return active_compactions_.size(); }
  double virtual_seconds() const noexcept { return clock_us_ / 1e6; }
  std::size_t flush_count() const noexcept { return flushes_; }
  std::size_t compaction_count() const noexcept { return compactions_; }
  double total_probes() const noexcept { return probes_total_; }
  std::size_t read_count() const noexcept { return reads_; }
  std::size_t write_count() const noexcept { return writes_; }
  double write_stall_us() const noexcept { return stall_us_total_; }
  std::size_t tombstones_purged() const noexcept { return tombstones_purged_; }
  /// Resets measurement counters (not state) so a warmup phase can be
  /// excluded from the reported statistics.
  void reset_counters();

 private:
  struct FlushJob {
    Memtable memtable;
    double total_kb = 0.0;
    double remaining_kb = 0.0;
  };
  struct CompactionJob {
    CompactionPlan plan;
    double total_kb = 0.0;
    double remaining_kb = 0.0;
  };
  /// Per-epoch resource demand accumulator.
  struct Acc {
    double cpu_us = 0.0;
    double read_lat_us = 0.0;
    double write_lat_us = 0.0;
    std::size_t disk_random_reads = 0;
    double commitlog_kb = 0.0;
    double stall_us = 0.0;
    std::size_t reads = 0;
    std::size_t writes = 0;
  };

  void execute_read(std::int64_t key, Acc& acc);
  void execute_write(const workload::Op& op, Acc& acc);
  void freeze_memtable(Acc& acc);
  void complete_flush(FlushJob& job);
  void plan_compactions();
  void complete_compaction(const CompactionJob& job);
  double advance_time(Acc& acc);
  void progress_background(double t_us, double flush_rate_kb_per_us,
                           double comp_rate_kb_per_us);
  /// Data-page access cost through the cache hierarchy; updates `acc` and
  /// returns the CPU+wait microseconds to add to op latency.
  double access_page(std::uint64_t page_id, Acc& acc);

  std::uint64_t page_id(std::uint32_t table_id, std::size_t rank, double row_bytes) const;
  double flush_threshold_bytes() const;
  double memtable_space_bytes() const;
  const SSTable* find_table(std::uint32_t id) const;
  /// Fills candidates_ with the tables whose key range covers `key`.
  void read_candidates(std::int64_t key);
  void rebuild_level_index();
  void record_window(double t_us, std::size_t ops_done);

  Config config_;
  Hardware hardware_;
  CostModel costs_;
  Rng rng_{1};
  std::function<double(double)> modulation_;

  // Derived sizing (scaled bytes / entries); see ctor.
  double sstable_target_bytes_ = 0.0;
  double chunk_kb_ = 64.0;
  bool leveled_ = false;

  // LSM state.
  Memtable active_;
  std::deque<FlushJob> frozen_;
  std::vector<SSTable> tables_;
  std::size_t total_table_keys_ = 0;
  double frozen_bytes_ = 0.0;
  std::uint32_t next_table_id_ = 1;
  BusySet busy_;
  std::vector<CompactionJob> active_compactions_;
  /// Per-level table ids ordered by min key; rebuilt lazily (leveled mode).
  std::vector<std::vector<std::uint32_t>> level_index_;
  bool level_index_dirty_ = true;
  /// read_candidates' output, reused across reads.
  std::vector<const SSTable*> candidates_;

  // Caches.
  LruCache<std::int64_t> row_cache_;
  LruCache<std::int64_t> key_cache_;
  LruCache<std::uint64_t> file_cache_;
  LruCache<std::uint64_t> os_cache_;

  // Clock and feedback.
  double clock_us_ = 0.0;
  double disk_read_rho_ = 0.0;   ///< previous-epoch utilization, queueing feedback
  double disk_write_rho_ = 0.0;

  // Counters.
  std::size_t reads_ = 0, writes_ = 0, flushes_ = 0, compactions_ = 0;
  double compacted_kb_ = 0.0;
  double probes_total_ = 0.0;
  double read_latency_total_us_ = 0.0;
  double write_latency_total_us_ = 0.0;
  std::uint64_t file_lookups_ = 0, file_hits_ = 0;
  std::uint64_t os_lookups_ = 0, os_hits_ = 0;
  std::size_t disk_random_reads_ = 0;
  double stall_us_total_ = 0.0;
  std::size_t max_tables_ = 0;
  std::size_t tombstones_purged_ = 0;
  std::array<std::size_t, 5> binding_counts_{};
  std::size_t epochs_ = 0;

  // Windowed throughput recording.
  bool record_windows_ = false;
  double window_us_ = 10e6;
  double window_start_us_ = 0.0;
  double window_ops_ = 0.0;
  std::vector<double> window_throughput_;
};

}  // namespace rafiki::engine
