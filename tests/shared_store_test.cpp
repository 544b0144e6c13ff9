// Shared preloaded stores (engine::TableSet) and the plan executor
// (collect::measure_plan): a run on a table set shared with other servers
// must give exactly the stats of a run on a server that preloaded its own
// tables, at any thread count, for both compaction methods and both engines.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collect/runner.h"
#include "engine/params.h"
#include "engine/scylla.h"
#include "engine/server.h"
#include "workload/generator.h"

namespace rafiki {
namespace {

using engine::ParamId;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_stats(const engine::RunStats& a, const engine::RunStats& b,
                       const std::string& what) {
  EXPECT_EQ(bits(a.throughput_ops), bits(b.throughput_ops)) << what;
  EXPECT_EQ(bits(a.virtual_seconds), bits(b.virtual_seconds)) << what;
  EXPECT_EQ(bits(a.mean_read_latency_us), bits(b.mean_read_latency_us)) << what;
  EXPECT_EQ(bits(a.mean_write_latency_us), bits(b.mean_write_latency_us)) << what;
  EXPECT_EQ(a.ops, b.ops) << what;
  EXPECT_EQ(a.reads, b.reads) << what;
  EXPECT_EQ(a.writes, b.writes) << what;
  EXPECT_EQ(a.flushes, b.flushes) << what;
  EXPECT_EQ(a.compactions, b.compactions) << what;
  EXPECT_EQ(bits(a.compacted_kb), bits(b.compacted_kb)) << what;
  EXPECT_EQ(bits(a.avg_sstables_probed), bits(b.avg_sstables_probed)) << what;
  EXPECT_EQ(bits(a.file_cache_hit_rate), bits(b.file_cache_hit_rate)) << what;
  EXPECT_EQ(bits(a.os_cache_hit_rate), bits(b.os_cache_hit_rate)) << what;
  EXPECT_EQ(a.disk_random_reads, b.disk_random_reads) << what;
  EXPECT_EQ(bits(a.write_stall_s), bits(b.write_stall_s)) << what;
  EXPECT_EQ(a.final_sstable_count, b.final_sstable_count) << what;
  EXPECT_EQ(a.max_sstable_count, b.max_sstable_count) << what;
  EXPECT_EQ(a.tombstones_purged, b.tombstones_purged) << what;
  ASSERT_EQ(a.window_throughput.size(), b.window_throughput.size()) << what;
  for (std::size_t w = 0; w < a.window_throughput.size(); ++w) {
    EXPECT_EQ(bits(a.window_throughput[w]), bits(b.window_throughput[w])) << what;
  }
  for (std::size_t i = 0; i < a.binding_fractions.size(); ++i) {
    EXPECT_EQ(bits(a.binding_fractions[i]), bits(b.binding_fractions[i])) << what;
  }
}

/// The measurement protocol on a server that preloads its own tables: the
/// reference the shared-store path must reproduce.
engine::RunStats measure_fresh(const collect::Measurement& m) {
  const auto drive = [&](engine::Server& server) {
    workload::Generator generator(m.workload, m.options.seed);
    server.preload(generator.preload_keys(), m.workload.value_bytes, m.options.version_dup);
    workload::WorkloadSpec warm = m.workload;
    warm.read_ratio = m.options.warmup_read_ratio;
    workload::Generator warm_generator(warm, m.options.seed ^ 0x5eed5eedull);
    engine::RunOptions warm_opts;
    warm_opts.ops = m.options.warmup_ops;
    warm_opts.seed = m.options.seed ^ 1;
    server.run(warm_generator, warm_opts);
    engine::RunOptions run_opts;
    run_opts.ops = m.options.ops;
    run_opts.seed = m.options.seed;
    run_opts.measurement_noise_sd = m.options.noise_sd;
    run_opts.record_windows = m.options.record_windows;
    run_opts.window_s = m.options.window_s;
    return server.run(generator, run_opts);
  };
  if (m.options.scylla) {
    engine::ScyllaServer server(m.config, m.options.hardware, m.options.seed);
    return drive(server.server());
  }
  engine::Server server(m.config, m.options.hardware);
  return drive(server);
}

workload::WorkloadSpec parity_workload() {
  auto workload = workload::WorkloadSpec::with_read_ratio(0.7);
  workload.initial_keys = 6000;
  workload.delete_fraction = 0.1;  // tombstones reach the read path
  return workload;
}

/// Both compaction methods x low/high Bloom chance, SSTable size and chunk
/// size, plus the defaults, on both engines: 28 runs over 8 distinct table
/// sets. The chunk size never changes the set, the SSTable size only under
/// leveled compaction, and the ScyllaDB model overrides none of its inputs.
std::vector<collect::Measurement> parity_plan() {
  collect::MeasureOptions options;
  options.ops = 2500;
  options.warmup_ops = 1500;
  options.record_windows = true;
  options.window_s = 0.01;
  std::vector<collect::Measurement> plan;
  std::uint64_t seed = 100;
  for (const bool scylla : {false, true}) {
    for (const double method : {0.0, 1.0}) {
      for (const ParamId knob :
           {ParamId::kBloomFilterFpChance, ParamId::kSstableSizeMb, ParamId::kCompressionChunkKb}) {
        for (const bool high : {false, true}) {
          const auto& spec = engine::param_spec(knob);
          auto config = engine::Config::defaults()
                            .with(ParamId::kCompactionMethod, method)
                            .with(knob, high ? spec.hi : spec.lo);
          options.scylla = scylla;
          options.seed = ++seed;
          plan.push_back({config, parity_workload(), options});
        }
      }
    }
    // One run at the defaults per engine and method shares its table set
    // with the chunk-size runs.
    for (const double method : {0.0, 1.0}) {
      options.seed = ++seed;
      plan.push_back({engine::Config::defaults().with(ParamId::kCompactionMethod, method),
                      parity_workload(), options});
    }
  }
  return plan;
}

TEST(SharedStore, PlanMatchesAFreshPreloadBitForBit) {
  const auto plan = parity_plan();
  std::vector<engine::RunStats> fresh;
  for (const auto& m : plan) fresh.push_back(measure_fresh(m));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const auto shared = collect::measure_plan(plan, threads);
    ASSERT_EQ(shared.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      expect_same_stats(fresh[i], shared[i],
                        "run " + std::to_string(i) + " (" + plan[i].config.to_string() +
                            (plan[i].options.scylla ? ", scylla" : "") + ") at " +
                            std::to_string(threads) + " threads");
    }
  }
  // measure() is a plan of one.
  expect_same_stats(fresh.back(), collect::measure(plan.back().config, plan.back().workload,
                                                   plan.back().options),
                    "measure()");
}

TEST(SharedStore, SpecHoldsExactlyWhatTheTablesDependOn) {
  const engine::Hardware hardware;
  const auto spec = [&](const engine::Config& config) {
    return engine::Server::table_spec(config, hardware, 256, 0.65);
  };
  const auto stcs = engine::Config::defaults().with(ParamId::kCompactionMethod, 0);
  const auto leveled = engine::Config::defaults().with(ParamId::kCompactionMethod, 1);
  const auto& chunk = engine::param_spec(ParamId::kCompressionChunkKb);
  const auto& sstable = engine::param_spec(ParamId::kSstableSizeMb);
  const auto& bloom = engine::param_spec(ParamId::kBloomFilterFpChance);
  for (const auto& config : {stcs, leveled}) {
    // Chunk size and cache sizes only change which pages load() warms.
    EXPECT_EQ(spec(config), spec(config.with(ParamId::kCompressionChunkKb, chunk.lo)));
    EXPECT_EQ(spec(config), spec(config.with(ParamId::kFileCacheSizeMb, 1)));
    EXPECT_FALSE(spec(config) == spec(config.with(ParamId::kBloomFilterFpChance, bloom.hi)));
    EXPECT_FALSE(spec(config) == engine::Server::table_spec(config, hardware, 512, 0.65));
    EXPECT_FALSE(spec(config) == engine::Server::table_spec(config, hardware, 256, 1.5));
  }
  EXPECT_FALSE(spec(stcs) == spec(leveled));
  // The SSTable target size shapes leveled tables only.
  EXPECT_EQ(spec(stcs), spec(stcs.with(ParamId::kSstableSizeMb, sstable.lo)));
  EXPECT_FALSE(spec(leveled) == spec(leveled.with(ParamId::kSstableSizeMb, sstable.lo)));
}

TEST(SharedStore, LoadInstallsWhatPreloadBuilds) {
  for (const double method : {0.0, 1.0}) {
    const auto config = engine::Config::defaults().with(ParamId::kCompactionMethod, method);
    const auto workload = parity_workload();
    workload::Generator generator(workload, 1);
    engine::Server preloaded(config);
    preloaded.preload(generator.preload_keys(), workload.value_bytes);
    const auto set = engine::Server::build_tables(
        engine::Server::table_spec(config, {}, workload.value_bytes, 0.65),
        generator.preload_keys());
    engine::Server loaded(config);
    loaded.load(set);

    const auto& a = preloaded.sstables();
    const auto& b = loaded.sstables();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 1u);
    for (std::size_t t = 0; t < a.size(); ++t) {
      EXPECT_EQ(a[t].id(), b[t].id());
      EXPECT_EQ(a[t].level(), b[t].level());
      EXPECT_EQ(bits(a[t].bytes()), bits(b[t].bytes()));
      EXPECT_TRUE(std::ranges::equal(a[t].keys(), b[t].keys()));
      // The loaded table shares the built run rather than copying it.
      EXPECT_EQ(b[t].keys().data(), set.tables[t].keys().data());
    }
    EXPECT_THROW(loaded.load(set), std::logic_error);
  }
}

TEST(SharedStore, OneTableSetServesTwoServersOnTwoThreads) {
  // Two servers load one set and run a write-heavy mix on two threads: each
  // reads the shared runs, flushes its own tables beside them, plans
  // compactions over them and drops its references when it is destroyed.
  // Under tsan this is the probe that nothing writes to a shared run.
  for (const double method : {0.0, 1.0}) {
    const auto config = engine::Config::defaults()
                            .with(ParamId::kCompactionMethod, method)
                            .with(ParamId::kMemtableCleanupThreshold, 0.1)
                            .with(ParamId::kMemtableSpaceMb, 1024)
                            .with(ParamId::kMinCompactionThreshold, 3);
    auto workload = parity_workload();
    workload.read_ratio = 0.2;
    workload::Generator keys(workload, 0);
    const auto set = engine::Server::build_tables(
        engine::Server::table_spec(config, {}, workload.value_bytes, 0.65),
        keys.preload_keys());
    const auto run = [&](std::uint64_t seed, bool shared) {
      engine::Server server(config);
      workload::Generator generator(workload, seed);
      if (shared) {
        server.load(set);
      } else {
        server.preload(generator.preload_keys(), workload.value_bytes);
      }
      engine::RunOptions options;
      options.ops = 12000;
      options.seed = seed;
      return server.run(generator, options);
    };
    engine::RunStats on_thread;
    std::thread other([&] { on_thread = run(7, true); });
    const auto here = run(8, true);
    other.join();
    EXPECT_GT(here.flushes, 0u);
    EXPECT_GT(on_thread.flushes, 0u);
    expect_same_stats(run(7, false), on_thread, "other thread");
    expect_same_stats(run(8, false), here, "calling thread");
  }
}

}  // namespace
}  // namespace rafiki
