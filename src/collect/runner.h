// Measurement harness — the YCSB-equivalent "shooter" protocol of Section
// 4.2: every data-collection event runs against a freshly reset server
// (paper: a fresh Docker container) that is bulk-loaded with the dataset,
// warmed with a short burst of mixed traffic, and then benchmarked for a
// fixed operation budget standing in for the 5-minute measurement window.
//
// A sweep is a plan of independent measurements, each with its own seed,
// and measure_plan is its one executor: it runs the plan on
// util::parallel_for and builds each distinct preloaded store once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/config.h"
#include "engine/server.h"
#include "workload/spec.h"

namespace rafiki::collect {

struct MeasureOptions {
  /// Operations in the measured window (the "5-minute benchmark").
  std::size_t ops = 80000;
  /// Unmeasured mixed traffic executed first so flush/compaction activity is
  /// in steady state when measurement begins.
  std::size_t warmup_ops = 8000;
  double warmup_read_ratio = 0.3;
  /// Harness measurement noise (multiplicative sd on reported throughput).
  double noise_sd = 0.015;
  /// Update-history duplication handed to Server::preload.
  double version_dup = 0.65;
  std::uint64_t seed = 1;
  /// Benchmark the ScyllaDB engine model instead of the Cassandra one.
  bool scylla = false;
  /// Forwarded to RunOptions for time-series experiments (Figure 10).
  bool record_windows = false;
  double window_s = 10.0;
  engine::Hardware hardware{};
};

/// One planned measurement: everything measure() takes, seed included.
struct Measurement {
  engine::Config config;
  workload::WorkloadSpec workload;
  MeasureOptions options;
};

/// Measures every entry of `plan` exactly as measure() would, on up to
/// `threads` threads (0 = one per CPU, 1 = serial), and returns the stats
/// by index: bit-identical at any thread count. Entries whose preloaded
/// tables are the same (engine::Server::table_spec and initial_keys) share
/// one table set, built by the first of them to run and dropped after the
/// last; runs execute grouped by table set, so at most about `threads` sets
/// are alive at once whatever the plan holds.
std::vector<engine::RunStats> measure_plan(std::span<const Measurement> plan,
                                           std::size_t threads = 0);

/// One full measurement: fresh server + preload + warmup + benchmark.
engine::RunStats measure(const engine::Config& config, const workload::WorkloadSpec& workload,
                         const MeasureOptions& options = {});

/// Convenience: mean throughput only.
double measure_throughput(const engine::Config& config,
                          const workload::WorkloadSpec& workload,
                          const MeasureOptions& options = {});

}  // namespace rafiki::collect
