// Shared pieces of the three workloads: the seeded input derivation, the
// served-model build every serving workload sets up with, engine-measured
// tuning gain, and the result record main() prints.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rafiki.h"
#include "engine/config.h"
#include "serve/snapshot.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// Derives an independent 64-bit stream seed from the workload seed and a
/// purpose tag (splitmix64 finalizer), so every input is a pure function of
/// --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Seconds since `t0_ns` on the benchmark clock.
double seconds_since(std::int64_t t0_ns);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// The end-to-end metrics; every workload reports all of them (what each
/// one means on each workload is spelled out in perfbench/README.md).
struct EndToEnd {
  double setup_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double tune_lag_ms = 0.0;
  double tuned_gain = 0.0;
  double peak_rss_mb = 0.0;
};

/// One measured phase of a workload: its end-to-end metrics, the per-layer
/// metrics it could compute (traced phases only), operation counts, and
/// every failed output check.
struct Phase {
  EndToEnd e2e;
  std::map<std::string, double> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

/// The workloads. `log` is null for the untraced run.
Phase run_predict_wire(std::uint64_t seed, double seconds, SpanLog* log);
Phase run_regime_fleet(std::uint64_t seed, double seconds, SpanLog* log);
Phase run_time_to_model(std::uint64_t seed, double seconds, SpanLog* log);

/// The model the serving workloads publish: a paper-shaped ensemble (20 nets,
/// hidden [14, 4], 14 active after pruning) over the paper's five key
/// parameters, collected and fitted on a reduced grid so a set-up stays
/// around a second.
struct ServedModel {
  std::unique_ptr<rafiki::core::Rafiki> rafiki;
  double collect_s = 0.0;
  double fit_s = 0.0;
  std::size_t engine_runs = 0;
  double engine_ops = 0.0;  ///< simulated datastore operations run by collect
};
ServedModel build_served_model(std::uint64_t seed);

/// Engine-measured throughput of each (read ratio, tuned config) over the
/// default config at the same read ratio, averaged. Deterministic for a seed.
double engine_gain(const std::vector<std::pair<double, rafiki::engine::Config>>& tuned,
                   std::uint64_t seed);

/// One Rafiki::optimize per read-ratio bucket (0.0, 0.1, ..., 1.0) on a
/// trained pipeline: the configurations tuned_gain measures.
std::vector<std::pair<double, rafiki::engine::Config>> tune_buckets(
    const rafiki::core::Rafiki& rafiki);

/// Per-layer probes run outside the load phase: the median wall time of one
/// Rafiki::optimize on `rafiki`, and SurrogateEnsemble::predict_batch per
/// row at `mean_batch` rows on the snapshot's ensemble.
double probe_ga_ms(const rafiki::core::Rafiki& rafiki);
double probe_predict_row_us(const rafiki::serve::ModelSnapshot& snapshot, double mean_batch);

/// Set-up is timed several times per run, because one set-up is a second or
/// less of mostly single-threaded work and the shared host's speed drifts
/// over seconds: `make` runs `count` times, each wall time is appended to
/// `times`, and the last result is returned (earlier ones are destroyed
/// outside the timed window). Workloads time set-ups both before and after
/// their measured phase and report the median of all of them.
template <typename Make>
auto time_setups(int count, std::vector<double>& times, Make make) {
  decltype(make()) kept;
  for (int i = 0; i < count; ++i) {
    const std::int64_t t0 = now_ns();
    auto made = make();
    times.push_back(seconds_since(t0));
    kept = std::move(made);
  }
  return kept;
}

/// Per-layer metric names and units, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

}  // namespace perfbench
