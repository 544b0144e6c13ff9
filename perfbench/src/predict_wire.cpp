// predict_wire: Predict-only traffic for one tenant over the wire. A plain
// TuningService (2 workers) sits behind net::Server (1 IO thread); one client
// thread keeps 4 requests in flight on each of 4 connections. The wire, the
// queue and the micro-batcher are on the critical path, with no GA, publish,
// engine or tenant work while the load runs, so request-path changes in net
// and serve show here and nowhere else.
#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <memory>

#include "common.h"
#include "engine/params.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace perfbench {

using namespace rafiki;

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kDepth = 4;
constexpr std::size_t kInputs = 4096;
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 2;
constexpr double kWarmupS = 0.5;
constexpr double kSliceS = 1.0;
/// Back-to-back publish probes after the load. Spaced 20 ms apart they read
/// about 0.3 ms, of which the host waking idle vCPUs was most, and that wake
/// swung a fifth between runs; back to back they read about 0.07 ms.
constexpr int kPublishProbes = 500;

struct Input {
  double read_ratio = 0.0;
  engine::Config config = engine::Config::defaults();
};

/// Seeded Predict inputs: a read ratio and a configuration drawn uniformly
/// over the paper's five key parameters.
std::vector<Input> make_inputs(std::uint64_t seed) {
  Rng rng(derive_seed(seed, 10));
  std::vector<Input> inputs(kInputs);
  for (auto& input : inputs) {
    input.read_ratio = rng.uniform();
    for (const auto id : engine::key_params()) {
      const auto& spec = engine::param_spec(id);
      input.config.set(id, spec.snap(rng.uniform(spec.lo, spec.hi)));
    }
  }
  return inputs;
}

struct Fixture {
  ServedModel model;
  std::unique_ptr<serve::TuningService> service;
  std::unique_ptr<TracedBackend> traced;
  std::unique_ptr<net::Server> server;
  std::array<std::unique_ptr<net::Client>, kConnections> clients;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    for (auto& client : clients) client.reset();
    if (server) server->stop();
    if (service) service->stop();
  }
};

/// Model build + publish + server start + connects: the set-up a user pays
/// before the first request.
std::unique_ptr<Fixture> set_up(std::uint64_t seed, SpanLog* log) {
  auto fixture = std::make_unique<Fixture>();
  fixture->model = build_served_model(seed);
  serve::ServiceOptions service_options;
  service_options.workers = 2;
  fixture->service = std::make_unique<serve::TuningService>(service_options);
  fixture->service->publish(serve::make_snapshot(*fixture->model.rafiki));
  fixture->service->start();
  serve::TuningBackend* backend = fixture->service.get();
  if (log != nullptr) {
    fixture->traced = std::make_unique<TracedBackend>(*fixture->service, *log);
    backend = fixture->traced.get();
  }
  net::ServerOptions server_options;
  server_options.io_threads = 1;
  fixture->server = std::make_unique<net::Server>(*backend, server_options);
  if (!fixture->server->start()) return nullptr;
  for (auto& client : fixture->clients) {
    client = std::make_unique<net::Client>();
    if (client->connect("127.0.0.1", fixture->server->port()) != net::NetStatus::kOk) {
      return nullptr;
    }
  }
  return fixture;
}

struct InFlight {
  std::uint64_t id = 0;
  std::size_t input = 0;
  std::int64_t sent_ns = 0;
};

}  // namespace

Phase run_predict_wire(std::uint64_t seed, double seconds, SpanLog* log) {
  Phase phase;
  const auto inputs = make_inputs(seed);
  std::vector<double> setup_s;
  const auto make = [&] { return set_up(seed, log); };
  auto fixture = time_setups(kSetupsBefore, setup_s, make);
  if (!fixture) {
    phase.check(false, "predict_wire: server start or connect failed");
    return phase;
  }
  const core::Rafiki& rafiki = *fixture->model.rafiki;
  std::vector<double> expected;
  expected.reserve(inputs.size());
  for (const auto& input : inputs) expected.push_back(rafiki.predict(input.read_ratio, input.config));

  // Closed loop: each connection keeps kDepth requests in flight; the thread
  // waits for the oldest reply on each connection in turn and replaces it.
  // The measured window is cut into 1 s slices and every rate and percentile
  // is the median over slices, so a stall of the shared host that hits a few
  // slices does not move the run's figures.
  std::array<std::deque<InFlight>, kConnections> in_flight;
  std::size_t next_input = 0;
  std::uint64_t measured = 0;
  std::uint64_t mismatched = 0;
  const auto slices = static_cast<std::int64_t>(std::max(1.0, std::floor(seconds / kSliceS)));
  const auto slice_ns = static_cast<std::int64_t>(kSliceS * 1e9);
  const std::int64_t measure_ns = now_ns() + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t deadline_ns = measure_ns + slices * slice_ns;
  LatencyHistogram slice_rtt;
  std::int64_t slice = 0;
  std::vector<double> slice_qps, slice_p50, slice_p99;
  const auto close_slice = [&] {
    slice_qps.push_back(static_cast<double>(slice_rtt.count()) / kSliceS);
    if (slice_rtt.count() > 0) {
      slice_p50.push_back(slice_rtt.quantile(0.50));
      slice_p99.push_back(slice_rtt.quantile(0.99));
    }
    slice_rtt.clear();
    ++slice;
  };

  const auto send = [&](std::size_t c) {
    const std::size_t index = next_input++ % inputs.size();
    serve::Request request;
    request.endpoint = serve::Endpoint::kPredict;
    request.read_ratio = inputs[index].read_ratio;
    request.config = inputs[index].config;
    const std::int64_t sent_ns = now_ns();
    const auto id = fixture->clients[c]->send(request);
    if (sent_ns >= measure_ns) ++phase.attempted;
    if (id == 0) {
      if (sent_ns >= measure_ns) ++phase.failed;
      return;
    }
    in_flight[c].push_back({id, index, sent_ns});
  };
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (std::size_t d = 0; d < kDepth; ++d) send(c);
  }
  for (bool busy = true; busy;) {
    busy = false;
    for (std::size_t c = 0; c < kConnections; ++c) {
      if (in_flight[c].empty()) continue;
      busy = true;
      const InFlight sent = in_flight[c].front();
      in_flight[c].pop_front();
      const auto result = fixture->clients[c]->wait(sent.id);
      const std::int64_t done_ns = now_ns();
      if (sent.sent_ns >= measure_ns) {
        ++measured;
        if (!result.ok()) {
          ++phase.failed;
        } else if (std::bit_cast<std::uint64_t>(result.response.mean) !=
                   std::bit_cast<std::uint64_t>(expected[sent.input])) {
          ++mismatched;
        }
        while (slice < slices && done_ns >= measure_ns + (slice + 1) * slice_ns) close_slice();
        if (slice < slices) slice_rtt.add(static_cast<double>(done_ns - sent.sent_ns) * 1e-3);
        if (log != nullptr && measured % kSampleEvery == 0) {
          log->record({kSpanClient, log->next_id(), 0, sent.sent_ns, done_ns});
        }
      }
      if (done_ns < deadline_ns) send(c);
    }
  }
  while (slice < slices) close_slice();
  phase.e2e.qps = median(slice_qps);
  phase.e2e.p50_us = median(slice_p50);
  phase.e2e.p99_us = median(slice_p99);
  phase.check(measured > 0, "predict_wire: no request completed");
  phase.check(mismatched == 0, "predict_wire: " + std::to_string(mismatched) +
                                   " replies differ from Rafiki::predict on the published model");

  // Time until a re-tuned model answers clients, on a service without a
  // tuner: publish() a fresh snapshot, then one Predict round trip, which must
  // carry the new version. Probes run after the load; the median counts.
  std::vector<double> publish_ms;
  for (int i = 0; i < kPublishProbes; ++i) {
    auto snapshot = serve::make_snapshot(rafiki);
    const Input& input = inputs[static_cast<std::size_t>(i)];
    const std::int64_t t0 = now_ns();
    const std::uint64_t version = fixture->service->publish(std::move(snapshot));
    const auto result = fixture->clients[0]->predict(input.read_ratio, input.config);
    publish_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    ++phase.attempted;
    if (!result.ok()) {
      ++phase.failed;
    } else {
      phase.check(result.response.model_version == version,
                  "predict_wire: a Predict after publish() was answered by an older model");
    }
  }
  phase.e2e.tune_lag_ms = median(publish_ms);
  phase.e2e.tuned_gain = engine_gain(tune_buckets(rafiki), seed);

  if (log != nullptr) {
    const auto client = log->named(kSpanClient);
    const auto service = log->named(kSpanPredict);
    const auto submit = log->named(kSpanSubmit);
    std::vector<double> client_us, service_us, submit_us;
    for (const auto& span : client) client_us.push_back(span.seconds() * 1e6);
    for (const auto& span : service) service_us.push_back(span.seconds() * 1e6);
    for (const auto& span : submit) submit_us.push_back(span.seconds() * 1e6);
    phase.layers["net.overhead_mean_us"] = mean(client_us) - mean(service_us);
    phase.layers["serve.submit_mean_us"] = mean(submit_us);
    phase.layers["serve.service_p50_us"] = quantile(service_us, 0.50);
    phase.layers["serve.service_p99_us"] = quantile(service_us, 0.99);
    phase.layers["serve.mean_batch"] = fixture->service->mean_batch_size();

    phase.layers["opt.ga_ms"] = probe_ga_ms(rafiki);
    phase.layers["ml.predict_row_us"] =
        probe_predict_row_us(*fixture->service->snapshot(), fixture->service->mean_batch_size());
  }

  // Stopping joins the IO loop and the workers, so the counters read below
  // are exact.
  serve::TuningService& service = *fixture->service;
  for (auto& client : fixture->clients) client.reset();
  fixture->server->stop();
  service.stop();
  const auto wire = service.stats().wire_counters();
  phase.check(wire.decode_errors == 0, "predict_wire: wire decode errors");
  phase.check(wire.frames_in == wire.frames_out, "predict_wire: frames in != frames out");

  if (log != nullptr) {
    const ServedModel& model = fixture->model;
    phase.layers["net.frames_per_flush"] = wire.frames_per_flush();
    phase.layers["net.syscalls_per_frame"] = wire.flush_syscalls_per_frame();
    phase.layers["serve.worker_cpu_s"] = static_cast<double>(service.worker_cpu_us()) * 1e-6;
    phase.layers["ml.fit_s"] = model.fit_s;
    phase.layers["collect.collect_s"] = model.collect_s;
    phase.layers["engine.runs"] = static_cast<double>(model.engine_runs);
    phase.layers["engine.mops_per_s"] = model.engine_ops / model.collect_s * 1e-6;
  }
  fixture.reset();
  (void)time_setups(kSetupsAfter, setup_s, make);
  phase.e2e.setup_s = median(setup_s);
  phase.e2e.peak_rss_mb = peak_rss_mb();
  return phase;
}

}  // namespace perfbench
