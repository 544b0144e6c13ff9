// Tenant fleet: token-bucket and in-flight quota semantics under an injected
// clock, fleet admission verdicts and fairness counters, one published
// snapshot for every tenant (one pointer, one version), one GA per (model,
// bucket) shared by every tenant of the model (and never across models), the
// per-tenant optimizer_runs() count, tuned tables bit-identical across shard
// counts, fleet-of-one parity with the single-tenant service, and the
// rebalance-vs-publish race (the suite's tsan probe: route slots migrate
// while publishes swap the snapshot and requests route).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "core/rafiki.h"
#include "engine/params.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "tenant/fleet.h"
#include "tenant/quota.h"
#include "tenant/registry.h"

namespace rafiki::tenant {
namespace {

// --- quota unit tests (no trained model needed) -----------------------------

TEST(TenantQuota, UnlimitedByDefault) {
  TenantQuota quota;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(quota.try_acquire_token());
    EXPECT_TRUE(quota.begin_request());
  }
  EXPECT_EQ(quota.in_flight(), 0u);  // cap disabled: nothing is counted
}

TEST(TenantQuota, TokenBucketRefillsOnTheInjectedClock) {
  std::atomic<std::uint64_t> clock_us{0};
  QuotaOptions options;
  options.rate_per_s = 2.0;
  options.burst = 4.0;
  options.clock_us = [&clock_us] { return clock_us.load(); };
  TenantQuota quota(options);

  // The bucket starts full: exactly `burst` tokens are available.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(quota.try_acquire_token()) << i;
  EXPECT_FALSE(quota.try_acquire_token());

  // 500 ms at 2 tokens/s refills exactly one token.
  clock_us.store(500'000);
  EXPECT_TRUE(quota.try_acquire_token());
  EXPECT_FALSE(quota.try_acquire_token());

  // A repeated (or rewound) injected tick must not mint tokens.
  clock_us.store(500'000);
  EXPECT_FALSE(quota.try_acquire_token());

  // A long idle period caps at burst, not elapsed * rate.
  clock_us.store(60'000'000);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(quota.try_acquire_token()) << i;
  EXPECT_FALSE(quota.try_acquire_token());
}

TEST(TenantQuota, InFlightCapAdmitsExactlyMax) {
  QuotaOptions options;
  options.max_in_flight = 2;
  TenantQuota quota(options);
  EXPECT_TRUE(quota.begin_request());
  EXPECT_TRUE(quota.begin_request());
  EXPECT_FALSE(quota.begin_request());  // at cap
  EXPECT_EQ(quota.in_flight(), 2u);     // the failed claim was undone
  quota.end_request();
  EXPECT_TRUE(quota.begin_request());
  quota.end_request();
  quota.end_request();
  EXPECT_EQ(quota.in_flight(), 0u);
}

TEST(TenantRegistry, DenseIdsAndUnknownTenantLookup) {
  TenantRegistry registry(3, nullptr);
  ASSERT_EQ(registry.size(), 3u);
  for (serve::TenantId t = 0; t < 3; ++t) {
    ASSERT_NE(registry.find(t), nullptr);
    EXPECT_EQ(registry.find(t)->id, t);
  }
  EXPECT_EQ(registry.find(3), nullptr);
  EXPECT_EQ(registry.find(0xFFFFFFFFu), nullptr);
}

// --- fleet admission (workers=0 so admitted requests park in the queue) -----

serve::Request request_for(serve::TenantId tenant, serve::Endpoint endpoint,
                           double read_ratio) {
  serve::Request request;
  request.tenant = tenant;
  request.endpoint = endpoint;
  request.read_ratio = read_ratio;
  return request;
}

TEST(TenantFleetAdmission, UnknownTenantIsNotReadyAndCounted) {
  FleetOptions options;
  options.tenants = 2;
  options.shard.shards = 1;
  options.shard.service.workers = 0;
  TenantFleet fleet(options);
  const auto verdict = fleet.try_submit(
      request_for(7, serve::Endpoint::kPredict, 0.5), [](serve::Response) {});
  EXPECT_EQ(verdict, serve::Status::kNotReady);
  const auto counters = fleet.fleet_counters();
  EXPECT_EQ(counters.unknown_tenant, 1u);
  EXPECT_EQ(counters.admitted, 0u);
  fleet.stop();
}

TEST(TenantFleetAdmission, InFlightCapRejectsOnlyTheCappedTenant) {
  FleetOptions options;
  options.tenants = 2;
  options.shard.shards = 1;
  options.shard.service.workers = 0;  // admitted requests park in the queue
  options.quota_for = [](serve::TenantId tenant) {
    QuotaOptions quota;
    if (tenant == 1) quota.max_in_flight = 1;
    return quota;
  };
  TenantFleet fleet(options);

  // Tenant 1's first request holds its only in-flight slot (no worker will
  // complete it); the second bounces with the typed kOverloaded.
  EXPECT_EQ(fleet.try_submit(request_for(1, serve::Endpoint::kPredict, 0.5),
                             [](serve::Response) {}),
            serve::Status::kOk);
  EXPECT_EQ(fleet.try_submit(request_for(1, serve::Endpoint::kPredict, 0.6),
                             [](serve::Response) {}),
            serve::Status::kOverloaded);
  // The victim tenant (0, uncapped) is untouched by the noisy neighbour.
  EXPECT_EQ(fleet.try_submit(request_for(0, serve::Endpoint::kPredict, 0.5),
                             [](serve::Response) {}),
            serve::Status::kOk);

  auto counters = fleet.fleet_counters();
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.inflight_rejected, 1u);
  EXPECT_EQ(counters.quota_rejected, 0u);
  EXPECT_EQ(fleet.registry().find(1)->quota.in_flight(), 1u);

  // stop() drains the parked requests (kShuttingDown) through the wrapped
  // callbacks, which must release every in-flight slot exactly once.
  fleet.stop();
  EXPECT_EQ(fleet.registry().find(1)->quota.in_flight(), 0u);
}

TEST(TenantFleetAdmission, TokenBucketRejectsWithOverloaded) {
  auto clock_us = std::make_shared<std::atomic<std::uint64_t>>(0);
  FleetOptions options;
  options.tenants = 1;
  options.shard.shards = 1;
  options.shard.service.workers = 0;
  options.quota_for = [clock_us](serve::TenantId) {
    QuotaOptions quota;
    quota.rate_per_s = 1.0;
    quota.burst = 1.0;
    quota.clock_us = [clock_us] { return clock_us->load(); };
    return quota;
  };
  TenantFleet fleet(options);

  EXPECT_EQ(fleet.try_submit(request_for(0, serve::Endpoint::kPredict, 0.5),
                             [](serve::Response) {}),
            serve::Status::kOk);
  EXPECT_EQ(fleet.try_submit(request_for(0, serve::Endpoint::kPredict, 0.5),
                             [](serve::Response) {}),
            serve::Status::kOverloaded);
  clock_us->store(1'000'000);  // 1 s refills the single token
  EXPECT_EQ(fleet.try_submit(request_for(0, serve::Endpoint::kPredict, 0.5),
                             [](serve::Response) {}),
            serve::Status::kOk);

  const auto counters = fleet.fleet_counters();
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.quota_rejected, 1u);
  fleet.stop();
}

// --- trained-pipeline tests -------------------------------------------------

class TenantFleetServing : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::RafikiOptions options;
    options.workload_grid = {0.2, 0.8};
    options.n_configs = 5;
    options.collect.measure.ops = 3000;
    options.collect.measure.warmup_ops = 300;
    options.ensemble.n_nets = 3;
    options.ensemble.train.max_epochs = 30;
    options.ga.generations = 6;
    options.ga.population = 10;
    rafiki_ = new core::Rafiki(options);
    rafiki_->set_key_params(engine::key_params());
    rafiki_->train(rafiki_->collect());
    ASSERT_TRUE(rafiki_->trained());
  }

  static void TearDownTestSuite() {
    delete rafiki_;
    rafiki_ = nullptr;
  }

  static core::Rafiki* rafiki_;
};

core::Rafiki* TenantFleetServing::rafiki_ = nullptr;

TEST_F(TenantFleetServing, OnePublishServesEveryTenantOneSnapshot) {
  serve::ShardOptions options;
  options.shards = 4;
  options.service.tenants = 64;
  options.service.workers = 0;
  serve::TuningService service(options);
  EXPECT_EQ(service.publish(serve::make_snapshot(*rafiki_)), 1u);

  // One slot for the whole fleet: every tenant reads the very same snapshot
  // (the same pointer, not an equal copy) at the one version.
  const auto published = service.snapshot();
  ASSERT_NE(published, nullptr);
  for (serve::TenantId t = 0; t < 64; ++t) {
    EXPECT_EQ(service.tenant_snapshot(t).get(), published.get()) << t;
    EXPECT_EQ(service.tenant_model_version(t), 1u) << t;
  }
  // A tenant outside the service reads nothing.
  EXPECT_EQ(service.tenant_snapshot(64), nullptr);
  EXPECT_EQ(service.tenant_model_version(64), 0u);
  service.stop();
}

TEST_F(TenantFleetServing, FleetOfOneMatchesSingleTenantServiceBitExactly) {
  serve::Request request;
  request.endpoint = serve::Endpoint::kPredict;
  request.read_ratio = 0.37;
  request.config = engine::Config::defaults();

  serve::TuningService plain{serve::ServiceOptions{}};
  plain.publish(serve::make_snapshot(*rafiki_));
  plain.start();
  const auto expected = plain.call(request);
  plain.stop();

  FleetOptions options;
  options.tenants = 1;
  options.shard.shards = 1;
  TenantFleet fleet(options);
  fleet.publish(serve::make_snapshot(*rafiki_));
  fleet.start();
  const auto actual = fleet.call(request);
  fleet.stop();

  ASSERT_EQ(actual.status, serve::Status::kOk);
  EXPECT_EQ(actual.mean, expected.mean);
  EXPECT_EQ(actual.stddev, expected.stddev);
  EXPECT_EQ(actual.config, expected.config);
}

TEST_F(TenantFleetServing, TenantsShareTheModelButAnswerIndependently) {
  FleetOptions options;
  options.tenants = 3;
  options.shard.shards = 2;
  TenantFleet fleet(options);
  fleet.publish(serve::make_snapshot(*rafiki_));
  fleet.start();

  // The same question from different tenants reads the one published
  // model: answers are bit-identical.
  serve::Response first;
  for (serve::TenantId t = 0; t < 3; ++t) {
    const auto response = fleet.call(request_for(t, serve::Endpoint::kPredict, 0.61));
    ASSERT_EQ(response.status, serve::Status::kOk) << "tenant " << t;
    if (t == 0) {
      first = response;
    } else {
      EXPECT_EQ(response.mean, first.mean) << "tenant " << t;
      EXPECT_EQ(response.stddev, first.stddev) << "tenant " << t;
    }
  }
  fleet.stop();
  const auto counters = fleet.fleet_counters();
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.unknown_tenant + counters.quota_rejected +
                counters.inflight_rejected,
            0u);
}

TEST_F(TenantFleetServing, TenantsOfOneModelShareOneGaPerBucket) {
  FleetOptions options;
  options.tenants = 2;
  options.shard.shards = 2;
  TenantFleet fleet(options);
  fleet.attach_rafiki(*rafiki_);
  fleet.publish(serve::make_snapshot(*rafiki_));

  // Both tenants read the fleet's one tuned table, so their misses for one
  // bucket share the retrain key (model, bucket): the second coalesces into
  // the first, still queued because the lane has not started.
  const double rr = 0.55;
  EXPECT_TRUE(fleet.tuner(0)->on_window(rr).stale);
  EXPECT_TRUE(fleet.tuner(1)->on_window(rr).stale);
  EXPECT_EQ(fleet.retrain_counters().coalesced, 1u);
  fleet.start();
  fleet.wait_retrain_idle();

  EXPECT_EQ(fleet.retrain_counters().runs, 1u);
  EXPECT_EQ(fleet.retrain_counters().coalesced, 1u);
  // The one GA answered both tenants through the one table they read; it
  // published nothing, so both still read version 1.
  EXPECT_EQ(fleet.tuner(0)->table(), fleet.tuner(1)->table());
  EXPECT_TRUE(fleet.tuner(0)->cached(rr));
  EXPECT_TRUE(fleet.tuner(1)->cached(rr));
  EXPECT_EQ(fleet.tenant_model_version(0), 1u);
  EXPECT_EQ(fleet.tenant_model_version(1), 1u);
  fleet.stop();
}

TEST_F(TenantFleetServing, TunersWithSeparateTablesNeverCoalesce) {
  serve::ServiceOptions options;
  options.tenants = 2;
  options.workers = 1;
  serve::TuningService service(options);
  service.publish(serve::make_snapshot(*rafiki_));
  // Two standalone tuners over the same trained model, each with a table of
  // its own: two models to the service, so two key-spaces.
  core::OnlineTuner a(*rafiki_);
  core::OnlineTuner b(*rafiki_);
  service.attach_tenant_tuner(0, a);
  service.attach_tenant_tuner(1, b);

  const double rr = 0.55;
  EXPECT_TRUE(a.on_window(rr).stale);
  EXPECT_TRUE(b.on_window(rr).stale);
  EXPECT_EQ(service.retrain_counters().coalesced, 0u);
  service.start();
  service.wait_retrain_idle();

  EXPECT_EQ(service.retrain_counters().runs, 2u);
  EXPECT_EQ(service.retrain_counters().coalesced, 0u);
  EXPECT_TRUE(a.cached(rr));
  EXPECT_TRUE(b.cached(rr));
  EXPECT_NE(a.table(), b.table());
  EXPECT_EQ(a.optimizer_runs(), 1u);
  EXPECT_EQ(b.optimizer_runs(), 1u);
  service.stop();
}

TEST_F(TenantFleetServing, OptimizerRunsCountsTheBucketsEachTenantReceived) {
  FleetOptions options;
  options.tenants = 3;
  options.shard.shards = 2;
  TenantFleet fleet(options);
  fleet.attach_rafiki(*rafiki_);
  fleet.publish(serve::make_snapshot(*rafiki_));
  fleet.start();

  // Tenant 0 misses bucket 3 and the lane tunes it.
  const auto first = fleet.call(request_for(0, serve::Endpoint::kObserveWindow, 0.3));
  ASSERT_EQ(first.status, serve::Status::kOk);
  EXPECT_TRUE(first.stale);
  fleet.wait_retrain_idle();
  EXPECT_EQ(fleet.retrain_counters().runs, 1u);

  // Tenant 1's first window in that bucket is served the table's entry at
  // once: no stale answer and no second GA.
  const auto second = fleet.call(request_for(1, serve::Endpoint::kObserveWindow, 0.31));
  ASSERT_EQ(second.status, serve::Status::kOk);
  EXPECT_FALSE(second.stale);
  EXPECT_TRUE(second.reconfigured);
  const auto held = fleet.tuner(1)->table()->find(3);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(second.config, held->config);
  fleet.wait_retrain_idle();
  EXPECT_EQ(fleet.retrain_counters().runs, 1u);

  EXPECT_EQ(fleet.tuner(0)->optimizer_runs(), 1u);
  EXPECT_EQ(fleet.tuner(1)->optimizer_runs(), 1u);
  // Tenant 2 sent no window: it received nothing, whatever the table holds.
  EXPECT_EQ(fleet.tuner(2)->optimizer_runs(), 0u);
  EXPECT_TRUE(fleet.tuner(2)->cached(0.3));
  fleet.stop();
}

TEST_F(TenantFleetServing, TunedTableIsBitIdenticalAcrossShardCounts) {
  // The sharded == unsharded contract for tuning: the same windows from the
  // same tenants leave the same tuned entries, bit for bit, in the fleet's
  // one table, whichever shard answered them.
  const std::vector<double> ratios = {0.05, 0.28, 0.55, 0.76, 0.84, 0.97};
  const auto tune_fleet = [&](std::size_t shards) {
    FleetOptions options;
    options.tenants = 4;
    options.shard.shards = shards;
    auto fleet = std::make_unique<TenantFleet>(options);
    fleet->attach_rafiki(*rafiki_);
    fleet->publish(serve::make_snapshot(*rafiki_));
    fleet->start();
    for (std::size_t i = 0; i < ratios.size(); ++i) {
      const auto tenant = static_cast<serve::TenantId>(i % 4);
      EXPECT_EQ(fleet->call(request_for(tenant, serve::Endpoint::kObserveWindow, ratios[i])).status,
                serve::Status::kOk);
    }
    fleet->wait_retrain_idle();
    fleet->stop();
    return fleet;
  };
  const auto one = tune_fleet(1);
  const auto four = tune_fleet(4);
  EXPECT_EQ(one->retrain_counters().runs, 5u);  // 0.76 and 0.84 share bucket 8
  EXPECT_EQ(four->retrain_counters().runs, 5u);
  for (serve::TenantId t = 1; t < 4; ++t) {
    EXPECT_EQ(one->tuner(t)->table(), one->tuner(0)->table()) << "tenant " << t;
    EXPECT_EQ(four->tuner(t)->table(), four->tuner(0)->table()) << "tenant " << t;
  }
  std::size_t held = 0;
  for (int bucket = 0; bucket <= 10; ++bucket) {
    const auto expected = one->tuner(0)->table()->find(bucket);
    const auto actual = four->tuner(0)->table()->find(bucket);
    ASSERT_EQ(actual.has_value(), expected.has_value()) << "bucket " << bucket;
    if (!expected) continue;
    ++held;
    EXPECT_EQ(actual->config, expected->config) << "bucket " << bucket;
    EXPECT_EQ(actual->predicted_throughput, expected->predicted_throughput)
        << "bucket " << bucket;
  }
  EXPECT_EQ(held, 5u);
}

// The tsan probe: one thread rewrites the route table with
// rebalance_hottest() and another swaps in fully published snapshots while
// concurrent clients submit across tenants. No assertion beyond "finishes
// and stays coherent" — the value is the interleaving under
// -fsanitize=thread.
TEST_F(TenantFleetServing, RebalanceRacesPublishAndTrafficCleanly) {
  FleetOptions options;
  options.tenants = 4;
  options.shard.shards = 4;
  options.shard.service.workers = 2;
  TenantFleet fleet(options);
  fleet.publish(serve::make_snapshot(*rafiki_));
  fleet.start();

  std::atomic<bool> stop{false};
  std::thread rebalancer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      fleet.router().rebalance_hottest();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      fleet.publish(serve::make_snapshot(*rafiki_));
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&fleet, &stop, c] {
      std::uint32_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto tenant = static_cast<serve::TenantId>((i + c) % 4);
        const double rr = static_cast<double>(i % 101) / 100.0;
        fleet.submit(request_for(tenant, serve::Endpoint::kPredict, rr)).get();
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  rebalancer.join();
  publisher.join();
  for (auto& t : clients) t.join();
  fleet.stop();

  // Coherence after the storm: every tenant still serves the one snapshot
  // and the route table still maps every key to a live shard.
  for (serve::TenantId t = 0; t < 4; ++t) {
    EXPECT_EQ(fleet.tenant_snapshot(t), fleet.snapshot());
    EXPECT_NE(fleet.tenant_snapshot(t), nullptr);
    for (std::size_t band = 0; band < serve::TuningService::kBands; ++band) {
      EXPECT_LT(fleet.router().shard_of_key(t, band), fleet.router().shard_count());
    }
  }
}

}  // namespace
}  // namespace rafiki::tenant
