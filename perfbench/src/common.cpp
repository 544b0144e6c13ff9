#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "collect/runner.h"
#include "engine/params.h"
#include "ml/matrix.h"

namespace perfbench {

using namespace rafiki;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

ServedModel build_served_model(std::uint64_t seed) {
  core::RafikiOptions options;
  options.workload_grid = {0.0, 0.25, 0.5, 0.75, 1.0};
  options.n_configs = 12;
  options.collect.measure.ops = 3000;
  options.collect.measure.warmup_ops = 300;
  options.collect.seed = derive_seed(seed, 1);
  options.ensemble.n_nets = 20;
  options.ensemble.hidden = {14, 4};
  options.ensemble.train.max_epochs = 60;
  options.ensemble.seed = derive_seed(seed, 2);

  ServedModel model;
  model.rafiki = std::make_unique<core::Rafiki>(options);
  model.rafiki->set_key_params(engine::key_params());
  std::int64_t t0 = now_ns();
  const auto dataset = model.rafiki->collect();
  model.collect_s = seconds_since(t0);
  t0 = now_ns();
  model.rafiki->train(dataset);
  model.fit_s = seconds_since(t0);
  model.engine_runs = options.workload_grid.size() * options.n_configs;
  model.engine_ops = static_cast<double>(model.engine_runs) *
                     static_cast<double>(options.collect.measure.ops +
                                         options.collect.measure.warmup_ops);
  return model;
}

double engine_gain(const std::vector<std::pair<double, engine::Config>>& tuned,
                   std::uint64_t seed) {
  if (tuned.empty()) return 0.0;
  collect::MeasureOptions measure;
  measure.ops = 6000;
  measure.warmup_ops = 600;
  measure.seed = derive_seed(seed, 3);
  double sum = 0.0;
  for (const auto& [read_ratio, config] : tuned) {
    const auto workload = workload::WorkloadSpec::with_read_ratio(read_ratio);
    sum += collect::measure_throughput(config, workload, measure) /
           collect::measure_throughput(engine::Config::defaults(), workload, measure);
  }
  return sum / static_cast<double>(tuned.size());
}

std::vector<std::pair<double, engine::Config>> tune_buckets(const core::Rafiki& rafiki) {
  std::vector<std::pair<double, engine::Config>> tuned;
  for (int bucket = 0; bucket <= 10; ++bucket) {
    tuned.emplace_back(0.1 * bucket, rafiki.optimize(0.1 * bucket).config);
  }
  return tuned;
}

double probe_ga_ms(const core::Rafiki& rafiki) {
  std::vector<double> ms;
  for (const double read_ratio : {0.15, 0.45, 0.85}) {
    const std::int64_t t0 = now_ns();
    (void)rafiki.optimize(read_ratio);
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(ms);
}

double probe_predict_row_us(const serve::ModelSnapshot& snapshot, double mean_batch) {
  const auto rows = static_cast<std::size_t>(std::max(1.0, std::round(mean_batch)));
  ml::Matrix batch(rows, snapshot.key_params.size() + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto features =
        snapshot.feature_row(static_cast<double>(r % 11) * 0.1, engine::Config::defaults());
    for (std::size_t j = 0; j < features.size(); ++j) batch(r, j) = features[j];
  }
  std::size_t calls = 0;
  const std::int64_t t0 = now_ns();
  while (now_ns() - t0 < 100'000'000) {
    (void)snapshot.ensemble.predict_batch(batch);
    ++calls;
  }
  return seconds_since(t0) * 1e6 / static_cast<double>(calls * rows);
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"net.overhead_mean_us", "us"},
      {"net.frames_per_flush", "frames"},
      {"net.syscalls_per_frame", "1/frame"},
      {"serve.submit_mean_us", "us"},
      {"serve.service_p50_us", "us"},
      {"serve.service_p99_us", "us"},
      {"serve.mean_batch", "rows"},
      {"serve.worker_cpu_s", "s"},
      {"serve.retrain_runs", "count"},
      {"serve.retrain_coalesced", "count"},
      {"serve.retrain_rejected", "count"},
      {"serve.retrain_mean_ms", "ms"},
      {"serve.retrain_depth_max", "count"},
      {"serve.stale_share", "ratio"},
      {"serve.publish_mean_ms", "ms"},
      {"tenant.submit_mean_us", "us"},
      {"tenant.rejected", "count"},
      {"core.observe_p99_us", "us"},
      {"core.observe_service_p99_us", "us"},
      {"core.rank_s", "s"},
      {"opt.ga_ms", "ms"},
      {"opt.ga_s", "s"},
      {"opt.evals", "count"},
      {"ml.predict_row_us", "us"},
      {"ml.fit_s", "s"},
      {"collect.collect_s", "s"},
      {"engine.runs", "count"},
      {"engine.mops_per_s", "Mop/s"},
      {"workload.characterize_s", "s"},
      {"pipeline.stage_gap_share", "ratio"},
      {"overhead.setup_s", "s"},
      {"overhead.qps", "1/s"},
      {"overhead.p50_us", "us"},
      {"overhead.p99_us", "us"},
      {"overhead.tune_lag_ms", "ms"},
      {"overhead.tuned_gain", "ratio"},
      {"overhead.peak_rss_mb", "MB"},
  };
  return units;
}

}  // namespace perfbench
