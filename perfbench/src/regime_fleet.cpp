// regime_fleet: a TenantFleet of 64 tenants on 4 shards, served over the
// wire. Each tenant replays its own seeded MG-RAST read-ratio series: per
// window one ObserveWindow, then 7 Predicts that score the configuration it
// got back. Tenants join one at a time, triggered by the count of completed
// requests, so first-visit retrains spread over the run instead of landing
// as one storm; a second thread republishes the full model every 100 ms, so
// writes (GA retrains -> publish_tuned, plus full publish) run beside reads.
// This is the only workload where tenant admission, the retrain worker,
// snapshot publication and the GA sit on the user's path.
//
// Each tenant visits its read-ratio buckets within about a second of
// joining, so retrains crowd the first seconds of a replay. The measured time
// is therefore split into rounds, each a fresh fleet over the same model that
// replays the same series, and every figure is the median over rounds: each
// round keeps the GA-beside-serving shape, and a host stall that hits one
// round does not move the result. A round is a fixed number of requests, not
// a fixed time: the GA work a round triggers is set by the series, so a
// fixed-time round on a slower host would pack the same GAs among fewer
// requests, and the p99 (which is GA preemption) would measure the host's
// speed twice over. Rounds repeat until the measured time is used up.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <thread>

#include "common.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/snapshot.h"
#include "tenant/fleet.h"
#include "workload/mgrast.h"

namespace perfbench {

using namespace rafiki;

namespace {

constexpr std::size_t kTenants = 64;
constexpr std::size_t kShards = 4;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kDepth = 4;
constexpr int kPredictsPerWindow = 7;
constexpr std::size_t kWindowsPerTenant = 400;
/// Completed requests between two tenant joins.
constexpr std::uint64_t kJoinEvery = 1500;
/// Requests one round completes. Tenants join until 96k, so a round is
/// almost all join phase: newcomers' first-visit GAs keep the retrain threads
/// busy beside serving at a steady rate for the whole round, and the p99 sits
/// near the ceiling a request waits for a preempting GA's time slice, not on
/// its edge, where it would swing with how the GAs happen to overlap. The
/// last tenant to join still replays about 50 windows.
constexpr std::uint64_t kRoundRequests = 120'000;
/// Rounds run until the measured time is used up, and at least this many.
constexpr std::size_t kMinRounds = 3;
constexpr std::chrono::milliseconds kRepublishEvery{100};
/// Tuner poll interval: cached() takes the tuner mutex, so polls stay far
/// below the request rate while resolving a ~7 ms lag to a few percent.
constexpr std::chrono::microseconds kPollEvery{250};
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 2;

struct Serving {
  std::unique_ptr<tenant::TenantFleet> fleet;
  std::unique_ptr<TracedBackend> traced;
  std::unique_ptr<net::Server> server;
  std::array<std::unique_ptr<net::Client>, kConnections> clients;

  Serving() = default;
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;
  ~Serving() {
    for (auto& client : clients) client.reset();
    if (server) server->stop();
    if (fleet) fleet->stop();
  }
};

/// Fleet with one tuner per tenant + publish + server start + connects.
/// `rafiki` must outlive the result.
std::unique_ptr<Serving> start_serving(const core::Rafiki& rafiki, SpanLog* log) {
  auto serving = std::make_unique<Serving>();
  tenant::FleetOptions fleet_options;
  fleet_options.tenants = kTenants;
  fleet_options.shard.shards = kShards;
  fleet_options.shard.service.workers = 2;
  fleet_options.shard.service.queue_capacity = 4096;
  serving->fleet = std::make_unique<tenant::TenantFleet>(fleet_options);
  serving->fleet->attach_rafiki(rafiki);
  serving->fleet->publish(serve::make_snapshot(rafiki));
  serving->fleet->start();
  serve::TuningBackend* backend = serving->fleet.get();
  if (log != nullptr) {
    serving->traced = std::make_unique<TracedBackend>(*serving->fleet, *log);
    backend = serving->traced.get();
  }
  net::ServerOptions server_options;
  server_options.io_threads = 1;
  serving->server = std::make_unique<net::Server>(*backend, server_options);
  if (!serving->server->start()) return nullptr;
  for (auto& client : serving->clients) {
    client = std::make_unique<net::Client>();
    if (client->connect("127.0.0.1", serving->server->port()) != net::NetStatus::kOk) {
      return nullptr;
    }
  }
  return serving;
}

struct Fixture {
  ServedModel model;
  std::unique_ptr<Serving> serving;  ///< holds references into model
};

/// Model build + the serving stack: the set-up a user pays before the first
/// request.
std::unique_ptr<Fixture> set_up(std::uint64_t seed, SpanLog* log) {
  auto fixture = std::make_unique<Fixture>();
  fixture->model = build_served_model(seed);
  fixture->serving = start_serving(*fixture->model.rafiki, log);
  return fixture->serving ? std::move(fixture) : nullptr;
}

enum class Step : std::uint8_t { kObserve, kAwaitObserve, kPredict };

struct Tenant {
  std::vector<double> read_ratios;  ///< the tenant's seeded window series
  std::size_t window = 0;
  Step step = Step::kObserve;
  engine::Config config = engine::Config::defaults();
  int to_send = 0;
  int pending = 0;
};

struct InFlight {
  std::uint64_t id = 0;
  serve::TenantId tenant = 0;
  serve::Endpoint endpoint = serve::Endpoint::kPredict;
  double read_ratio = 0.0;
  std::int64_t sent_ns = 0;
};

std::uint64_t lag_key(serve::TenantId tenant, int bucket) {
  return (static_cast<std::uint64_t>(tenant) << 8) | static_cast<std::uint64_t>(bucket);
}

struct Round {
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double tune_lag_ms = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t windows = 0;
  std::uint64_t stale = 0;
  std::size_t lag_events = 0;
  std::map<int, std::pair<serve::TenantId, engine::Config>> adopted;
  std::map<std::string, double> layers;
};

/// Spans of `name` that started inside [from_ns, to_ns), as microseconds.
std::vector<double> span_us(const std::vector<Span>& spans, const char* name, std::int64_t from_ns,
                            std::int64_t to_ns) {
  std::vector<double> out;
  for (const auto& span : spans) {
    if (span.start_ns >= from_ns && span.start_ns < to_ns && std::string_view(span.name) == name) {
      out.push_back(span.seconds() * 1e6);
    }
  }
  return out;
}

/// One replay of kRoundRequests requests on a fresh serving stack; stops it
/// before returning.
Round run_round(Serving& serving, const core::Rafiki& rafiki,
                const std::vector<std::vector<double>>& series, SpanLog* log, Phase& phase) {
  Round round;
  tenant::TenantFleet& fleet = *serving.fleet;
  std::vector<Tenant> tenants(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) tenants[t].read_ratios = series[t];

  Mutex lag_mutex;
  LagTracker lags;
  std::atomic<bool> stop{false};
  std::vector<double> publish_ms;
  // Republisher and tuner poller: publishes the full model at a fixed
  // cadence and resolves each open stale event once its bucket is cached.
  std::thread background([&] {
    auto next_publish = std::chrono::steady_clock::now() + kRepublishEvery;
    while (!stop.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= next_publish) {
        auto snapshot = serve::make_snapshot(rafiki);
        const std::int64_t t0 = now_ns();
        fleet.publish(std::move(snapshot));
        publish_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
        next_publish += kRepublishEvery;
      }
      std::vector<LagTracker::Pending> open;
      {
        MutexLock lock(lag_mutex);
        open = lags.pending();
      }
      for (const auto& event : open) {
        if (fleet.tuner(static_cast<serve::TenantId>(event.key >> 8))->cached(event.read_ratio)) {
          const std::int64_t seen_ns = now_ns();
          MutexLock lock(lag_mutex);
          lags.on_cached(event.key, seen_ns);
        }
      }
      std::this_thread::sleep_for(kPollEvery);
    }
  });

  std::array<std::deque<InFlight>, kConnections> in_flight;
  std::array<std::deque<serve::TenantId>, kConnections> ready;
  LatencyHistogram rtt_us, observe_us;
  std::uint64_t& completed = round.completed;
  std::uint64_t& windows = round.windows;
  std::uint64_t& stale = round.stale;
  std::uint64_t requests_sent = 0;
  std::size_t joined = 0;
  const auto join_next = [&] {
    const auto t = static_cast<serve::TenantId>(joined++);
    ready[t % kConnections].push_back(t);
  };

  const auto send_next = [&](serve::TenantId t) {
    const std::size_t c = t % kConnections;
    Tenant& tenant = tenants[t];
    const double window_rr = tenant.read_ratios[tenant.window % tenant.read_ratios.size()];
    serve::Request request;
    request.tenant = t;
    if (tenant.step == Step::kObserve) {
      request.endpoint = serve::Endpoint::kObserveWindow;
      request.read_ratio = window_rr;
      tenant.step = Step::kAwaitObserve;
    } else {
      const int k = kPredictsPerWindow - tenant.to_send;
      request.endpoint = serve::Endpoint::kPredict;
      request.read_ratio = std::clamp(window_rr + 0.005 * (k - 3), 0.0, 1.0);
      request.config = tenant.config;
      --tenant.to_send;
      ++tenant.pending;
      if (tenant.to_send > 0) ready[c].push_back(t);
    }
    ++phase.attempted;
    ++requests_sent;
    const std::int64_t sent_ns = now_ns();
    const auto id = serving.clients[c]->send(request);
    if (id == 0) {
      ++phase.failed;
      return;
    }
    in_flight[c].push_back({id, t, request.endpoint, request.read_ratio, sent_ns});
  };

  const auto on_reply = [&](const InFlight& sent, const net::CallResult& result,
                            std::int64_t done_ns) {
    Tenant& tenant = tenants[sent.tenant];
    const std::size_t c = sent.tenant % kConnections;
    const double us = static_cast<double>(done_ns - sent.sent_ns) * 1e-3;
    rtt_us.add(us);
    if (log != nullptr && completed % kSampleEvery == 0) {
      log->record({kSpanClient, log->next_id(), 0, sent.sent_ns, done_ns});
    }
    if (!result.ok()) ++phase.failed;
    if (sent.endpoint == serve::Endpoint::kObserveWindow) {
      observe_us.add(us);
      ++windows;
      tenant.config = result.ok() ? result.response.config : engine::Config::defaults();
      tenant.step = Step::kPredict;
      tenant.to_send = kPredictsPerWindow;
      tenant.pending = 0;
      ready[c].push_back(sent.tenant);
      const int bucket = fleet.tuner(sent.tenant)->bucket_for(sent.read_ratio);
      if (result.ok() && result.response.stale) {
        ++stale;
        MutexLock lock(lag_mutex);
        lags.on_stale(lag_key(sent.tenant, bucket), done_ns, sent.read_ratio);
      }
      if (result.ok() && result.response.reconfigured) {
        const auto it = round.adopted.find(bucket);
        if (it == round.adopted.end() || sent.tenant < it->second.first) {
          round.adopted[bucket] = {sent.tenant, result.response.config};
        }
      }
      return;
    }
    if (--tenant.pending == 0 && tenant.to_send == 0) {
      ++tenant.window;
      tenant.step = Step::kObserve;
      ready[c].push_back(sent.tenant);
    }
  };

  join_next();
  const std::int64_t start_ns = now_ns();
  std::int64_t last_ns = start_ns;
  for (bool busy = true; busy;) {
    busy = false;
    for (std::size_t c = 0; c < kConnections; ++c) {
      while (requests_sent < kRoundRequests && in_flight[c].size() < kDepth && !ready[c].empty()) {
        const auto t = ready[c].front();
        ready[c].pop_front();
        send_next(t);
      }
      if (in_flight[c].empty()) continue;
      busy = true;
      const InFlight sent = in_flight[c].front();
      in_flight[c].pop_front();
      const auto result = serving.clients[c]->wait(sent.id);
      last_ns = now_ns();
      ++completed;
      on_reply(sent, result, last_ns);
      while (joined < kTenants && completed >= joined * kJoinEvery) join_next();
    }
  }
  round.elapsed_s = static_cast<double>(last_ns - start_ns) * 1e-9;

  stop.store(true, std::memory_order_release);
  background.join();
  fleet.wait_retrain_idle();
  std::size_t never_cached = 0;
  for (const auto& event : lags.pending()) {
    if (fleet.tuner(static_cast<serve::TenantId>(event.key >> 8))->cached(event.read_ratio)) {
      lags.on_cached(event.key, now_ns());
    } else {
      ++never_cached;
    }
  }

  round.qps = static_cast<double>(completed) / round.elapsed_s;
  round.p50_us = rtt_us.quantile(0.50);
  round.p99_us = rtt_us.quantile(0.99);
  round.tune_lag_ms = median(lags.lags_ms());
  round.lag_events = lags.lags_ms().size();

  std::size_t untuned = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    if (fleet.tuner(static_cast<serve::TenantId>(t))->optimizer_runs() == 0) ++untuned;
  }
  phase.check(joined == kTenants, "regime_fleet: only " + std::to_string(joined) + " of " +
                                      std::to_string(kTenants) + " tenants joined");
  phase.check(untuned == 0, "regime_fleet: " + std::to_string(untuned) +
                                " tenants ended without a tuned bucket");
  phase.check(never_cached == 0, "regime_fleet: " + std::to_string(never_cached) +
                                     " stale buckets were never tuned");
  phase.check(!lags.lags_ms().empty(), "regime_fleet: no stale window was observed");

  if (log != nullptr) {
    round.layers["ml.predict_row_us"] =
        probe_predict_row_us(*fleet.snapshot(), fleet.mean_batch_size());
  }

  for (auto& client : serving.clients) client.reset();
  serving.server->stop();
  const auto wire = fleet.stats().wire_counters();
  const auto admission = fleet.fleet_counters();
  phase.check(wire.frames_in == wire.frames_out,
              "regime_fleet: frames in " + std::to_string(wire.frames_in) + " != frames out " +
                  std::to_string(wire.frames_out));
  phase.check(wire.decode_errors == 0, "regime_fleet: wire decode errors");
  phase.check(admission.quota_rejected + admission.inflight_rejected + admission.unknown_tenant == 0,
              "regime_fleet: admission rejects");

  if (log != nullptr) {
    const auto spans = log->spans();
    const auto client_us = span_us(spans, kSpanClient, start_ns, last_ns);
    const auto predict_us = span_us(spans, kSpanPredict, start_ns, last_ns);
    const auto observe_service_us = span_us(spans, kSpanObserve, start_ns, last_ns);
    const auto submit_us = span_us(spans, kSpanSubmit, start_ns, last_ns);
    std::vector<double> service_us = predict_us;
    service_us.insert(service_us.end(), observe_service_us.begin(), observe_service_us.end());
    const auto retrain = fleet.retrain_counters();
    auto& router = fleet.router();
    round.layers["net.overhead_mean_us"] = mean(client_us) - mean(service_us);
    round.layers["net.frames_per_flush"] = wire.frames_per_flush();
    round.layers["net.syscalls_per_frame"] = wire.flush_syscalls_per_frame();
    round.layers["serve.service_p50_us"] = quantile(predict_us, 0.50);
    round.layers["serve.service_p99_us"] = quantile(predict_us, 0.99);
    round.layers["serve.mean_batch"] = fleet.mean_batch_size();
    round.layers["serve.retrain_runs"] = static_cast<double>(retrain.runs);
    round.layers["serve.retrain_coalesced"] = static_cast<double>(retrain.coalesced);
    round.layers["serve.retrain_rejected"] = static_cast<double>(retrain.rejected);
    round.layers["serve.retrain_mean_ms"] = fleet.mean_retrain_latency_us() * 1e-3;
    double depth_max = 0.0;
    for (std::size_t s = 0; s < router.shard_count(); ++s) {
      depth_max = std::max(depth_max, router.shard(s).stats().max_retrain_depth());
    }
    round.layers["serve.retrain_depth_max"] = depth_max;
    round.layers["serve.stale_share"] =
        windows > 0 ? static_cast<double>(stale) / static_cast<double>(windows) : 0.0;
    round.layers["serve.publish_mean_ms"] = mean(publish_ms);
    round.layers["tenant.submit_mean_us"] = mean(submit_us);
    round.layers["tenant.rejected"] = static_cast<double>(
        admission.quota_rejected + admission.inflight_rejected + admission.unknown_tenant);
    round.layers["core.observe_p99_us"] = observe_us.quantile(0.99);
    round.layers["core.observe_service_p99_us"] = quantile(observe_service_us, 0.99);
  }
  fleet.stop();
  if (log != nullptr) {
    double cpu_us = 0.0;
    for (std::size_t s = 0; s < fleet.router().shard_count(); ++s) {
      cpu_us += static_cast<double>(fleet.router().shard(s).worker_cpu_us());
    }
    round.layers["serve.worker_cpu_s"] = cpu_us * 1e-6;
  }
  return round;
}

}  // namespace

Phase run_regime_fleet(std::uint64_t seed, double seconds, SpanLog* log) {
  Phase phase;
  workload::MgRastTraceOptions trace_options;
  trace_options.duration_s = trace_options.window_s * kWindowsPerTenant;
  std::vector<std::vector<double>> series(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    for (const auto& window :
         workload::synthesize_mgrast_windows(trace_options, derive_seed(seed, 100 + t))) {
      series[t].push_back(window.read_ratio);
    }
  }

  std::vector<double> setup_s;
  const auto make = [&] { return set_up(seed, log); };
  auto fixture = time_setups(kSetupsBefore, setup_s, make);
  const core::Rafiki* rafiki = fixture ? fixture->model.rafiki.get() : nullptr;
  std::vector<Round> rounds;
  double measured_s = 0.0;
  while (fixture && fixture->serving && (rounds.size() < kMinRounds || measured_s < seconds)) {
    if (!rounds.empty()) {
      fixture->serving.reset();
      fixture->serving = start_serving(*rafiki, log);
      if (!fixture->serving) break;
    }
    rounds.push_back(run_round(*fixture->serving, *rafiki, series, log, phase));
    measured_s += rounds.back().elapsed_s;
  }
  if (!fixture || !fixture->serving) {
    phase.check(false, "regime_fleet: server start or connect failed");
    return phase;
  }

  const auto over_rounds = [&](auto field) {
    std::vector<double> values;
    for (const auto& round : rounds) values.push_back(field(round));
    return median(values);
  };
  phase.e2e.qps = over_rounds([](const Round& r) { return r.qps; });
  phase.e2e.p50_us = over_rounds([](const Round& r) { return r.p50_us; });
  phase.e2e.p99_us = over_rounds([](const Round& r) { return r.p99_us; });
  phase.e2e.tune_lag_ms = over_rounds([](const Round& r) { return r.tune_lag_ms; });
  std::map<int, std::pair<serve::TenantId, engine::Config>> adopted;
  for (const auto& round : rounds) {
    std::fprintf(stderr,
                 "regime_fleet: round of %llu requests, %llu windows (%llu stale), "
                 "%zu tune-lag events: %.0f/s p50 %.1f us p99 %.1f us lag %.2f ms\n",
                 static_cast<unsigned long long>(round.completed),
                 static_cast<unsigned long long>(round.windows),
                 static_cast<unsigned long long>(round.stale), round.lag_events, round.qps,
                 round.p50_us, round.p99_us, round.tune_lag_ms);
    for (const auto& [bucket, entry] : round.adopted) {
      const auto it = adopted.find(bucket);
      if (it == adopted.end() || entry.first < it->second.first) adopted[bucket] = entry;
    }
  }
  std::vector<std::pair<double, engine::Config>> tuned;
  for (const auto& [bucket, entry] : adopted) tuned.emplace_back(0.1 * bucket, entry.second);
  phase.e2e.tuned_gain = engine_gain(tuned, seed);
  phase.check(!tuned.empty(), "regime_fleet: no ObserveWindow answer adopted a tuned config");

  if (log != nullptr) {
    for (const auto& [name, unit] : layer_metric_units()) {
      if (rounds.front().layers.count(name) == 0) continue;
      phase.layers[name] = over_rounds([&](const Round& r) { return r.layers.at(name); });
    }
    phase.layers["opt.ga_ms"] = probe_ga_ms(*rafiki);
    phase.layers["ml.fit_s"] = fixture->model.fit_s;
    phase.layers["collect.collect_s"] = fixture->model.collect_s;
    phase.layers["engine.runs"] = static_cast<double>(fixture->model.engine_runs);
    phase.layers["engine.mops_per_s"] = fixture->model.engine_ops / fixture->model.collect_s * 1e-6;
  }
  fixture.reset();
  (void)time_setups(kSetupsAfter, setup_s, make);
  phase.e2e.setup_s = median(setup_s);
  phase.e2e.peak_rss_mb = peak_rss_mb();
  return phase;
}

}  // namespace perfbench
