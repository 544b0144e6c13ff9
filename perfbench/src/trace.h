// Tracing for the per-layer breakdown: an in-memory span log and a
// TuningBackend that sits between net::Server and the real backend, recording
// a span from try_submit entry to its return and one from entry to the
// completion callback. Spans stay in memory and are written out at exit; the
// end-to-end metrics always come from untraced runs, where net::Server calls
// the real backend directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "serve/backend.h"
#include "stats.h"
#include "util/sync.h"

namespace perfbench {

/// Nanoseconds on the steady clock, from an arbitrary process-wide origin.
std::int64_t now_ns();

/// Append-only span store. Each recording thread appends to its own buffer
/// (registered under a mutex once per thread), so the record path takes no
/// lock; read spans() only after every recording thread has been joined.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  std::uint64_t next_id() noexcept { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(const Span& span);
  /// Every recorded span, buffer by buffer.
  std::vector<Span> spans() const;
  /// Spans named `name`.
  std::vector<Span> named(const char* name) const;
  /// Writes "name,id,parent,start_ns,end_ns" lines; false on I/O failure.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span>& local_buffer();

  const std::uint64_t instance_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable rafiki::Mutex mutex_;
  std::deque<std::vector<Span>> buffers_ GUARDED_BY(mutex_);
};

/// Request spans are kept for one request in kSampleEvery, client and server
/// side alike: plenty for means and tails (a 20 s predict_wire run keeps
/// ~100k of each kind) while the span file stays tens of MB. Every request
/// still goes through the tracing wrapper, so the overhead is the full one.
inline constexpr std::uint64_t kSampleEvery = 16;

/// Span names the traced run records.
inline constexpr const char* kSpanClient = "client.request";
inline constexpr const char* kSpanSubmit = "backend.try_submit";
inline constexpr const char* kSpanPredict = "backend.predict";
inline constexpr const char* kSpanObserve = "backend.observe_window";
inline constexpr const char* kSpanOptimize = "backend.optimize";

/// Forwards every TuningBackend call to `inner`, recording spans around
/// try_submit for one call in kSampleEvery. The wrapped callback is larger
/// than MoveFunc's inline buffer, so a traced request allocates once; the
/// untraced runs never pay it.
class TracedBackend : public rafiki::serve::TuningBackend {
 public:
  TracedBackend(rafiki::serve::TuningBackend& inner, SpanLog& log) : inner_(inner), log_(log) {}

  std::uint64_t publish(rafiki::serve::ModelSnapshot snapshot) override {
    return inner_.publish(std::move(snapshot));
  }
  std::shared_ptr<const rafiki::serve::ModelSnapshot> snapshot() const override {
    return inner_.snapshot();
  }
  std::uint64_t model_version() const override { return inner_.model_version(); }
  std::shared_ptr<const rafiki::serve::ModelSnapshot> tenant_snapshot(
      rafiki::serve::TenantId tenant) const override {
    return inner_.tenant_snapshot(tenant);
  }
  std::uint64_t tenant_model_version(rafiki::serve::TenantId tenant) const override {
    return inner_.tenant_model_version(tenant);
  }
  void attach_tuner(rafiki::core::OnlineTuner& tuner) override { inner_.attach_tuner(tuner); }
  std::future<rafiki::serve::Response> submit(rafiki::serve::Request request) override {
    return inner_.submit(std::move(request));
  }
  rafiki::serve::Status try_submit(rafiki::serve::Request request,
                                   rafiki::serve::ResponseCallback done) override;
  void start() override { inner_.start(); }
  void stop() override { inner_.stop(); }
  rafiki::serve::ServiceStats& stats() noexcept override { return inner_.stats(); }
  const rafiki::serve::ServiceStats& stats() const noexcept override { return inner_.stats(); }
  rafiki::Table stats_table() const override { return inner_.stats_table(); }
  rafiki::serve::ServiceStats::Counters endpoint_counters(
      rafiki::serve::Endpoint endpoint) const override {
    return inner_.endpoint_counters(endpoint);
  }
  rafiki::serve::ServiceStats::RetrainCounters retrain_counters() const override {
    return inner_.retrain_counters();
  }
  double endpoint_latency_quantile(rafiki::serve::Endpoint endpoint, double q) const override {
    return inner_.endpoint_latency_quantile(endpoint, q);
  }
  double mean_batch_size() const override { return inner_.mean_batch_size(); }
  double mean_retrain_latency_us() const override { return inner_.mean_retrain_latency_us(); }
  void wait_retrain_idle() override { inner_.wait_retrain_idle(); }

 private:
  rafiki::serve::TuningBackend& inner_;
  SpanLog& log_;
  std::atomic<std::uint64_t> calls_{0};
};

}  // namespace perfbench
