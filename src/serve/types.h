// Wire types of the tuning service (the middleware face of the pipeline):
// one request/response pair shared by the three endpoints the paper's
// MG-RAST-scale clients would hit continuously — Predict (surrogate lookup,
// micro-batched), Optimize (GA over the snapshot), ObserveWindow (online
// re-tuning feed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "engine/config.h"

namespace rafiki::serve {

enum class Endpoint : std::uint8_t { kPredict = 0, kOptimize = 1, kObserveWindow = 2 };
inline constexpr std::size_t kEndpointCount = 3;

enum class Status : std::uint8_t {
  kOk = 0,
  /// Rejected at admission: the bounded request queue is full. Producers are
  /// never blocked past capacity; they get this immediately instead.
  kOverloaded,
  /// The request's (virtual-clock) deadline had passed before execution.
  kDeadlineExceeded,
  /// No model snapshot has been published yet (or the endpoint needs a tuner
  /// that was never attached).
  kNotReady,
  /// The service is stopping; no new work is admitted.
  kShuttingDown,
};
/// Number of Status values; keep in sync with the enum (the name-string
/// exhaustiveness test walks [0, kStatusCount) and the wire codec range-checks
/// decoded status bytes against it).
inline constexpr std::size_t kStatusCount = 5;

const char* endpoint_name(Endpoint endpoint) noexcept;
const char* status_name(Status status) noexcept;

/// Deadlines are expressed in ticks of the clock injected through
/// ServiceOptions — virtual time, never the wall clock, so deadline
/// behaviour is deterministic and testable (see tools/lint_rules.md).
using Tick = std::uint64_t;
inline constexpr Tick kNoDeadline = std::numeric_limits<Tick>::max();

/// Tenant namespace id. Tenants are dense [0, tenants); tenant 0 is the
/// default namespace every pre-tenant caller lands in, so a fleet of one
/// behaves exactly like the original single-tenant service.
using TenantId = std::uint32_t;

struct Request {
  Endpoint endpoint = Endpoint::kPredict;
  /// Tenant namespace this request executes in (route key, tuner
  /// state, admission quota). Travels on the wire in protocol v2.
  TenantId tenant = 0;
  /// The characterized workload the request concerns (all endpoints).
  double read_ratio = 0.5;
  /// Configuration to score (kPredict only).
  engine::Config config = engine::Config::defaults();
  /// Latest clock tick at which executing this request is still useful.
  Tick deadline = kNoDeadline;
};

struct Response {
  Status status = Status::kOk;
  /// Version of the snapshot that answered (0 = none involved).
  std::uint64_t model_version = 0;

  // kPredict: predicted throughput with the ensemble's cross-member spread
  // as an uncertainty band (mean +/- stddev), plus the micro-batch size the
  // request was coalesced into.
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t batch_size = 0;

  // kOptimize / kObserveWindow.
  engine::Config config = engine::Config::defaults();
  double predicted_throughput = 0.0;
  bool reconfigured = false;
  /// kObserveWindow only: the returned config predates this window's regime.
  /// The tuner had no optimized entry for the (materially moved) read ratio,
  /// so the current config is served stale while a background optimization
  /// was enqueued; a later window picks up the tuned entry from the table.
  bool stale = false;
  std::size_t surrogate_evaluations = 0;

  bool ok() const noexcept { return status == Status::kOk; }
};

}  // namespace rafiki::serve
