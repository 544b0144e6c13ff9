// Determinism regression test (tools/lint_rules.md): the full pipeline —
// ANOVA sweep, collect, surrogate training, GA search — run twice from the
// same seed, or at any thread count, must produce bit-identical rankings,
// datasets, surrogate weights and selected configs; and the sweeps must give
// the bits recorded before they ran in parallel, so a seed drawn in a
// different order fails even when every thread count agrees on it.
// Every result table in bench/ silently depends on this property.
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rafiki.h"
#include "engine/params.h"
#include "ml/mlp.h"

namespace rafiki {
namespace {

core::RafikiOptions tiny_options() {
  core::RafikiOptions options;
  options.workload_grid = {0.2, 0.5, 0.8};
  options.n_configs = 6;
  options.collect.measure.ops = 4000;
  options.collect.measure.warmup_ops = 500;
  options.ensemble.n_nets = 4;
  options.ensemble.train.max_epochs = 40;
  options.ga.generations = 12;
  options.ga.population = 16;
  return options;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct PipelineRun {
  std::vector<core::ParamRanking> ranking;  // empty unless the sweep ran
  collect::Dataset dataset;
  std::vector<std::vector<double>> member_params;
  std::vector<engine::Config> best_configs;
  std::vector<double> predicted;
};

/// Runs collect -> train -> optimize at read ratios 0.2 and 0.8; with
/// `rank`, the ANOVA sweep chooses the key parameters first.
PipelineRun run_pipeline(const core::RafikiOptions& options, bool rank = false) {
  core::Rafiki rafiki(options);
  PipelineRun run;
  if (rank) {
    run.ranking = rafiki.rank_parameters();
  } else {
    rafiki.set_key_params(engine::key_params());
  }
  run.dataset = rafiki.collect();
  rafiki.train(run.dataset);
  for (const auto& net : rafiki.surrogate().nets()) {
    run.member_params.emplace_back(net.params().begin(), net.params().end());
  }
  for (const double read_ratio : {0.2, 0.8}) {
    const auto result = rafiki.optimize(read_ratio);
    run.best_configs.push_back(result.config);
    run.predicted.push_back(result.predicted_throughput);
  }
  return run;
}

/// memcmp-style comparisons, not ==: NaN != NaN would mask a
/// corrupted-but-unequal value, and bit-identity is the actual contract.
void expect_identical(const PipelineRun& a, const PipelineRun& b, const std::string& what) {
  ASSERT_EQ(a.ranking.size(), b.ranking.size()) << what;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].id, b.ranking[i].id) << what << ", ranking entry " << i;
    EXPECT_EQ(bits(a.ranking[i].score), bits(b.ranking[i].score)) << what << ", entry " << i;
    EXPECT_EQ(bits(a.ranking[i].f_statistic), bits(b.ranking[i].f_statistic))
        << what << ", entry " << i;
    EXPECT_EQ(bits(a.ranking[i].p_value), bits(b.ranking[i].p_value))
        << what << ", entry " << i;
  }

  ASSERT_EQ(a.dataset.size(), b.dataset.size()) << what;
  for (std::size_t i = 0; i < a.dataset.size(); ++i) {
    EXPECT_EQ(a.dataset[i].config, b.dataset[i].config) << what << ", sample " << i;
    EXPECT_EQ(bits(a.dataset[i].workload.read_ratio), bits(b.dataset[i].workload.read_ratio))
        << what << ", sample " << i;
    EXPECT_EQ(bits(a.dataset[i].throughput), bits(b.dataset[i].throughput))
        << what << ", sample " << i;
  }

  ASSERT_FALSE(a.member_params.empty()) << what;
  ASSERT_EQ(a.member_params.size(), b.member_params.size()) << what;
  for (std::size_t n = 0; n < a.member_params.size(); ++n) {
    const auto& x = a.member_params[n];
    const auto& y = b.member_params[n];
    ASSERT_EQ(x.size(), y.size()) << what << ", net " << n;
    EXPECT_EQ(0, std::memcmp(x.data(), y.data(), x.size() * sizeof(double)))
        << what << ": net " << n << " weights differ";
  }

  ASSERT_EQ(a.best_configs.size(), b.best_configs.size()) << what;
  for (std::size_t i = 0; i < a.best_configs.size(); ++i) {
    EXPECT_EQ(a.best_configs[i], b.best_configs[i])
        << what << ": GA selected different configs: " << a.best_configs[i].to_string()
        << " vs " << b.best_configs[i].to_string();
    EXPECT_EQ(bits(a.predicted[i]), bits(b.predicted[i])) << what;
  }
}

TEST(Determinism, PipelineIsBitIdenticalAcrossRuns) {
  const auto options = tiny_options();
  expect_identical(run_pipeline(options), run_pipeline(options), "same seed, two runs");
}

TEST(Determinism, PipelineIsBitIdenticalAtOneTwoAndFourThreads) {
  // The sweep, the collect plan and the fit run on util::parallel_for: every
  // seed and fault draw is planned in serial order and every result lands in
  // its own slot, so the schedule cannot leak into any output. Thread counts
  // are forced explicitly because the CI box may itself have one CPU.
  auto options = tiny_options();
  options.collect.measure.ops = 2000;
  options.collect.measure.warmup_ops = 200;
  options.base_workload.initial_keys = 10000;
  options.anova_repeats = 2;
  options.threads = 1;  // strictly serial reference
  const auto serial = run_pipeline(options, /*rank=*/true);
  ASSERT_EQ(serial.ranking.size(), engine::kParamCount);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    options.threads = threads;
    expect_identical(serial, run_pipeline(options, /*rank=*/true),
                     std::to_string(threads) + " threads vs 1");
  }
}

/// Sweep settings whose outputs were recorded from the serial sweeps.
core::RafikiOptions recorded_options() {
  core::RafikiOptions options;
  options.collect.measure.ops = 1500;
  options.collect.measure.warmup_ops = 150;
  options.base_workload.initial_keys = 8000;
  options.anova_repeats = 2;
  options.threads = 4;
  return options;
}

TEST(Determinism, RankingMatchesTheRecordedSerialSweep) {
  struct Recorded {
    const char* name;
    std::uint64_t score, f_statistic, p_value;
  };
  // Recorded from the serial one-at-a-time loop (one seed per repeat,
  // `++counter * 7919 + r`) before the sweep became a parallel plan.
  const Recorded recorded[] = {
      {"compaction_method", 0x40c4a317ca584f12ull, 0x405336140cc3b81dull, 0x3f8a2451754532ffull},
      {"file_cache_size_in_mb", 0x40c48c4cb15d1439ull, 0x406a8f2ca03f331eull,
       0x3ee31f16cd4a4b6aull},
      {"compression_chunk_length_in_kb", 0x40b01af4d4377dc8ull, 0x401b825305e53f4cull,
       0x3fa7e6b0a9ecd927ull},
      {"concurrent_writes", 0x40adfa02957cc575ull, 0x4044b9d1693aa6cbull, 0x3f407678516b3e25ull},
      {"concurrent_reads", 0x40a79cfbeb753f35ull, 0x4020f433d38b9acbull, 0x3f93452a77e28f8bull},
      {"trickle_fsync", 0x409f8a9c1c48cbf1ull, 0x400f5646b8a822e8ull, 0x3fc7dae26adfffa8ull},
      {"memtable_flush_writers", 0x40938627c733de31ull, 0x4017a8445d6d9e11ull,
       0x3fae6c6f06eb15c4ull},
      {"row_cache_size_in_mb", 0x409273ad885cc75bull, 0x3fefc06e408c7c20ull,
       0x3fded2f369acc70eull},
      {"column_index_size_in_kb", 0x409117a22a7ea06bull, 0x3feaa06265757dbcull,
       0x3fe156718e204bc6ull},
      {"sstable_size_in_mb", 0x409090a3f70535f0ull, 0x3fd6632c2ff13f46ull, 0x3fe95d94c26a9a60ull},
      {"memtable_cleanup_threshold", 0x4088bb6e4c82cfdaull, 0x3fd5362695a7e4caull,
       0x3feb1662afed2c7cull},
      {"compaction_throughput_mb_per_sec", 0x40887fb1958f1518ull, 0x3fe52ee25a8ee901ull,
       0x3fe3c170a6af9522ull},
      {"key_cache_size_in_mb", 0x4087836e0442a8c2ull, 0x3fe40e22bdbc2981ull,
       0x3fe44f7eb5456a8cull},
      {"concurrent_compactors", 0x408668d3da997264ull, 0x3fd70be351c8b0e6ull,
       0x3fea7ee11055776aull},
      {"min_compaction_threshold", 0x40857fe72807d196ull, 0x3fc63ff2a5277f88ull,
       0x3fed1557bc3b556eull},
      {"index_summary_capacity_in_mb", 0x4083f65b93c46e37ull, 0x3fdb33ea0d12d062ull,
       0x3fe7df0e24e5deb1ull},
      {"commitlog_sync_period_in_ms", 0x4083408755a88c7dull, 0x3fda1e663bffafc6ull,
       0x3fe833485175d485ull},
      {"bloom_filter_fp_chance", 0x40828cc659c265b4ull, 0x3fe281fc4f02b5f6ull,
       0x3fe51a9874264db2ull},
      {"max_compaction_threshold", 0x40802a1c09a8dd97ull, 0x3fd29295a31af6b1ull,
       0x3fea9a4ff51dd7ddull},
      {"memtable_space_in_mb", 0x407c640d89522a75ull, 0x3fbeaf60978a9179ull,
       0x3fee32dcb24e1ab9ull},
      {"commitlog_segment_size_in_mb", 0x407676a3003508e4ull, 0x3fcccd4ab2e19c6eull,
       0x3febfda721f4270eull},
      {"memtable_allocation_type", 0x4062c34abdf7ac15ull, 0x3fbcc1ae67cfddfcull,
       0x3fe89ee37c68202bull},
  };
  core::Rafiki rafiki(recorded_options());
  const auto& ranking = rafiki.rank_parameters();
  ASSERT_EQ(ranking.size(), std::size(recorded));
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    EXPECT_EQ(engine::param_name(ranking[i].id), recorded[i].name) << "rank " << i;
    EXPECT_EQ(bits(ranking[i].score), recorded[i].score) << recorded[i].name;
    EXPECT_EQ(bits(ranking[i].f_statistic), recorded[i].f_statistic) << recorded[i].name;
    EXPECT_EQ(bits(ranking[i].p_value), recorded[i].p_value) << recorded[i].name;
  }
}

TEST(Determinism, CollectMatchesTheRecordedSerialPlan) {
  // Recorded from the serial lattice loop: fault draws and measurement
  // seeds in (config, read ratio) order, 12 of 18 samples surviving.
  constexpr std::size_t kRecordedSize = 12;
  constexpr std::uint64_t kRecordedHash = 0xd2869983c159a2aaull;
  collect::CollectOptions options;
  options.measure = recorded_options().collect.measure;
  options.fault_rate = 0.2;
  options.seed = 11;
  workload::WorkloadSpec base;
  base.initial_keys = 8000;
  const auto dataset =
      collect::collect_dataset(collect::sample_configs(engine::key_params(), 6, 3),
                               {0.0, 0.5, 1.0}, base, options, /*threads=*/4);
  // FNV-1a over the throughputs' bytes, in dataset order.
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto& sample : dataset.samples()) {
    const std::uint64_t v = bits(sample.throughput);
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  EXPECT_EQ(dataset.size(), kRecordedSize);
  EXPECT_EQ(hash, kRecordedHash);
}

TEST(Determinism, DifferentSeedsActuallyChangeTheRun) {
  // Guards the bit-identity tests above against vacuity: if seeds were
  // ignored somewhere, they would pass while the pipeline ignored its inputs.
  auto options = tiny_options();
  const auto first = run_pipeline(options);
  options.ensemble.seed ^= 0xdecafbadull;
  options.collect.measure.seed ^= 0x1234ull;
  const auto second = run_pipeline(options);

  ASSERT_EQ(first.member_params.size(), second.member_params.size());
  bool any_diff = false;
  for (std::size_t n = 0; n < first.member_params.size() && !any_diff; ++n) {
    any_diff = first.member_params[n] != second.member_params[n];
  }
  EXPECT_TRUE(any_diff) << "reseeding the ensemble left every weight unchanged";
}

}  // namespace
}  // namespace rafiki
