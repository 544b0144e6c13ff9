// Online reconfiguration controller for dynamic workloads (Sections 1, 2.4.1).
//
// MG-RAST's read ratio shifts abruptly at the 15-minute scale; a static
// configuration is suboptimal most of the time. The controller watches the
// characterized read ratio per window, re-runs the GA against the trained
// surrogate when the workload moves materially (seconds of work, Section
// 4.8), and charges a reconfiguration downtime when the configuration
// actually changes.
//
// Two classes split what is shared from what is per tenant:
//
//   * TunedTable — one model's memo: the GA's result per read-ratio bucket.
//     The GA runs at the bucket centre (bucket x rr_bucket), as the paper
//     tunes its 11 read-ratio workloads and as the offline path does, so an
//     entry depends only on the trained model, its active subspace and the
//     bucket. Every tuner over one model reads one table, and a bucket is
//     tuned once per model, not once per tenant.
//   * OnlineTuner — one tenant's state over a table: the current config, the
//     read ratio it was chosen for, and its reconfiguration count.
//
// decide() only consults the table and never runs the GA; TunedTable::tune()
// does the expensive search with no lock held. on_window() composes the two —
// inline when standalone (the replay-harness shape), or
// stale-while-revalidate when an async-optimize hook routes misses to a
// background worker (the serve layer's retrain lane, which keys its tasks by
// (model, bucket) and never runs one on two threads at once). All shared
// state is internally synchronized, so concurrent on_window / prefetch /
// tune callers are safe; concurrent inline misses on one bucket may each run
// the GA, and the first result to land is kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "core/rafiki.h"
#include "util/sync.h"

namespace rafiki::core {

struct OnlineTunerOptions {
  /// Re-optimize when the window's RR moved at least this far from the RR
  /// the current configuration was chosen for.
  double rr_change_threshold = 0.15;
  /// Memoization granularity for optimized configs.
  double rr_bucket = 0.1;
  /// Virtual seconds of degraded service when a new config is applied
  /// (rolling restart); charged by the replay harness.
  double reconfigure_downtime_s = 15.0;
};

/// One model's tuned configurations, one per read-ratio bucket. A model is
/// the trained Rafiki plus its active subspace and this bucket width; a
/// dynamic-mode rescreen that changes the subspace empties the table. The
/// mutex is a leaf: nothing else is locked while it is held.
class TunedTable {
 public:
  struct Entry {
    engine::Config config;
    double predicted_throughput = 0.0;
  };

  /// `rafiki` must already be trained and must outlive the table.
  explicit TunedTable(const Rafiki& rafiki, double rr_bucket = 0.1);

  const Rafiki& rafiki() const noexcept { return *rafiki_; }
  double rr_bucket() const noexcept { return rr_bucket_; }
  /// The bucket of a read ratio, clamped into [0, 1] first.
  int bucket_for(double read_ratio) const noexcept;
  /// The read ratio a bucket's GA optimizes for: bucket x rr_bucket.
  double centre(int bucket) const noexcept { return static_cast<double>(bucket) * rr_bucket_; }

  std::optional<Entry> find(int bucket) const;
  bool contains(int bucket) const;

  /// Re-screens (dynamic mode; a changed subspace empties the table), then
  /// runs the GA at the bucket centre and installs the result, unless the
  /// table already holds the bucket. Returns whether the GA ran. The search
  /// holds no lock. A GA that started before an emptying rescreen does not
  /// install, and neither does one that a concurrent call beat to it.
  bool tune(int bucket);

 private:
  const Rafiki* rafiki_;
  const double rr_bucket_;

  mutable Mutex mutex_;
  std::map<int, Entry> entries_ GUARDED_BY(mutex_);
  /// Bumped whenever a rescreen empties the table.
  std::uint64_t epoch_ GUARDED_BY(mutex_) = 0;
};

class OnlineTuner {
 public:
  /// A standalone tuner with a table of its own. `rafiki` must already be
  /// trained; the tuner holds a reference.
  OnlineTuner(const Rafiki& rafiki, OnlineTunerOptions options = {});
  /// A tuner over a table it shares with other tuners of the same model.
  /// The table's bucket width replaces options.rr_bucket.
  OnlineTuner(std::shared_ptr<TunedTable> table, OnlineTunerOptions options = {});

  struct Decision {
    engine::Config config;
    bool reconfigured = false;
    /// The returned config predates this window's regime: the table had no
    /// entry for the (materially moved) read ratio, so the current config
    /// keeps serving while an optimization is pending in the background.
    bool stale = false;
    double predicted_throughput = 0.0;
  };

  /// Feeds the next observed window; returns the configuration to run with.
  /// With an async-optimize hook set, a miss returns immediately with a
  /// stale-marked decision and hands the bucket to the hook; without one,
  /// the miss tunes the bucket inline (the original blocking behaviour).
  Decision on_window(double read_ratio);

  /// Decision logic only: table hits may reconfigure, misses come back
  /// stale-marked. Never runs the optimizer.
  Decision decide(double read_ratio);

  /// Tunes the bucket of a forecast read ratio ahead of time (see
  /// workload::WorkloadForecaster), so an anticipated regime switch pays no
  /// optimizer latency inside the critical window. Routes through the
  /// async-optimize hook when one is set; a no-op for a bucket the table
  /// already holds.
  void prefetch(double read_ratio);

  /// Streams one measured (workload, configuration, throughput) sample into
  /// the Rafiki's knob screen (no-op on a static-mode Rafiki). Cheap: no
  /// model evaluation, no tuner lock — replay harnesses call it per window.
  void observe_sample(double read_ratio, const engine::Config& config,
                      double throughput);

  /// When set, misses (on_window / prefetch) are delegated here instead of
  /// tuning inline — the serve layer points this at its retrain lane so no
  /// GA ever runs on a request-path thread; the lane installs the result in
  /// this tuner's table.
  using AsyncOptimizeHook = std::function<void(int bucket)>;
  void set_async_optimize_hook(AsyncOptimizeHook hook);

  /// The table key of a read ratio.
  int bucket_for(double read_ratio) const noexcept { return table_->bucket_for(read_ratio); }
  /// Whether this read ratio's bucket already has a tuned config.
  bool cached(double read_ratio) const;
  const std::shared_ptr<TunedTable>& table() const noexcept { return table_; }

  std::size_t reconfigurations() const;
  /// Distinct buckets this tuner asked for (by a miss or a prefetch) or was
  /// served that the table now holds. 0 until the tuner has a tuned entry;
  /// for a standalone tuner over a static subspace, the number of GA runs.
  std::size_t optimizer_runs() const;
  const OnlineTunerOptions& options() const noexcept { return options_; }

 private:
  Decision decide_locked(double read_ratio) REQUIRES(mutex_);

  const std::shared_ptr<TunedTable> table_;
  OnlineTunerOptions options_;

  mutable Mutex mutex_;
  AsyncOptimizeHook async_optimize_ GUARDED_BY(mutex_);
  engine::Config current_ GUARDED_BY(mutex_) = engine::Config::defaults();
  /// RR the current config was chosen for.
  double current_rr_ GUARDED_BY(mutex_) = -1.0;
  bool have_config_ GUARDED_BY(mutex_) = false;
  std::size_t reconfigurations_ GUARDED_BY(mutex_) = 0;
  /// Buckets this tuner missed, prefetched or adopted (optimizer_runs()).
  std::set<int> asked_ GUARDED_BY(mutex_);
};

}  // namespace rafiki::core
