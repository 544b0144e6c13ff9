// Training-sample management for the surrogate model (Sections 3.5, 4.2):
// sample generation over the workload x configuration lattice, the paper's
// config-sampling rule (min/max/default coverage plus random fill), faulty-
// sample dropout, dimension-wise train/test splits and CSV round-tripping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/config.h"
#include "collect/runner.h"
#include "workload/spec.h"

namespace rafiki::collect {

/// One training point S_i = {W_i, C_i, P_i} (paper Section 3.5).
struct Sample {
  workload::WorkloadSpec workload;
  engine::Config config;
  double throughput = 0.0;
};

class Dataset {
 public:
  void add(Sample sample) { samples_.push_back(std::move(sample)); }
  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  const std::vector<Sample>& samples() const noexcept { return samples_; }
  const Sample& operator[](std::size_t i) const { return samples_.at(i); }

  /// Model feature row: read ratio followed by the values of `params`
  /// (Equation 2 with params = the five key parameters).
  static std::vector<double> features(const Sample& sample,
                                      const std::vector<engine::ParamId>& params);

  std::vector<std::vector<double>> feature_matrix(
      const std::vector<engine::ParamId>& params) const;
  std::vector<double> targets() const;

  struct Split {
    std::vector<std::size_t> train;
    std::vector<std::size_t> test;
  };
  /// Withholds a fraction of distinct *configurations*: no config in the
  /// test set appears in training ("unseen configurations", Section 4.3).
  Split split_by_config(double test_fraction, std::uint64_t seed) const;
  /// Withholds a fraction of distinct *workloads* (read ratios).
  Split split_by_workload(double test_fraction, std::uint64_t seed) const;

  Dataset subset(const std::vector<std::size_t>& indices) const;

  std::string to_csv(const std::vector<engine::ParamId>& params) const;
  /// Inverse of to_csv: parameter columns are identified by the header, so a
  /// corpus collected by an older binary with a different key-parameter set
  /// still loads. Throws std::invalid_argument on malformed input.
  static Dataset from_csv(const std::string& csv,
                          const workload::WorkloadSpec& base_workload = {});

 private:
  std::vector<Sample> samples_;
};

/// The paper's configuration-sampling rule: the default config, one config
/// at every parameter's minimum, one at every maximum, and random fill up to
/// `count` (values varied only on `params`).
std::vector<engine::Config> sample_configs(const std::vector<engine::ParamId>& params,
                                           std::size_t count, std::uint64_t seed);

/// Subspace-focused variant for dynamic knob selection: the coverage rule
/// (default + per-parameter extremes) still spans ALL of `params` so every
/// registry dimension has at least axis-aligned support, but the random fill
/// varies only `active` jointly and leaves the rest at their defaults — the
/// exact slice a pinned-subspace GA will later search. With `active ==
/// params` this is bit-identical to sample_configs.
std::vector<engine::Config> sample_configs_focused(
    const std::vector<engine::ParamId>& params,
    const std::vector<engine::ParamId>& active, std::size_t count,
    std::uint64_t seed);

struct CollectOptions {
  MeasureOptions measure;
  /// Probability a sample is lost to harness faults (the paper dropped 20
  /// of 220 collected points).
  double fault_rate = 0.0;
  std::uint64_t seed = 2024;
};

/// Full collection pass: every workload in `read_ratios` against every
/// config; returns surviving samples in lattice order. The measurements run
/// through measure_plan on up to `threads` threads (0 = one per CPU); the
/// dataset is bit-identical at any count.
Dataset collect_dataset(const std::vector<engine::Config>& configs,
                        const std::vector<double>& read_ratios,
                        const workload::WorkloadSpec& base_workload,
                        const CollectOptions& options, std::size_t threads = 0);

}  // namespace rafiki::collect
