#include "core/online.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace rafiki::core {

// --- TunedTable ---------------------------------------------------------------

TunedTable::TunedTable(const Rafiki& rafiki, double rr_bucket)
    : rafiki_(&rafiki), rr_bucket_(rr_bucket) {}

int TunedTable::bucket_for(double read_ratio) const noexcept {
  // A read ratio lives in [0, 1] (NaN reads as 0), but the wire admits any
  // finite value: clamping before rounding bounds the buckets, and so the GA
  // runs, to those of [0, 1], and keeps the float-to-int conversion defined.
  const double clamped = read_ratio > 0.0 ? std::min(read_ratio, 1.0) : 0.0;
  return static_cast<int>(std::round(clamped / rr_bucket_));
}

std::optional<TunedTable::Entry> TunedTable::find(int bucket) const {
  MutexLock lock(mutex_);
  const auto it = entries_.find(bucket);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool TunedTable::contains(int bucket) const {
  MutexLock lock(mutex_);
  return entries_.count(bucket) != 0;
}

bool TunedTable::tune(int bucket) {
  // Dynamic knob mode: re-screen before searching, so the GA always runs in
  // the freshest active subspace. This rides the background optimize path
  // (the serve layer's retrain lane), never a request thread. When the
  // active set changed, every entry was cut for the old subspace: one clear
  // drops them for every tuner of the model.
  const bool recut = rafiki_->rescreen();
  std::uint64_t epoch = 0;
  {
    MutexLock lock(mutex_);
    if (recut) {
      entries_.clear();
      ++epoch_;
    }
    if (entries_.count(bucket) != 0) return false;
    epoch = epoch_;
  }

  // The expensive part runs with no lock held: decisions and other buckets'
  // searches proceed concurrently.
  const Rafiki::OptimizeResult result = rafiki_->optimize(centre(bucket));

  MutexLock lock(mutex_);
  // A rescreen that emptied the table mid-search voids this result; a
  // concurrent inline search that landed first keeps its own.
  if (epoch == epoch_) entries_.emplace(bucket, Entry{result.config, result.predicted_throughput});
  return true;
}

// --- OnlineTuner --------------------------------------------------------------

OnlineTuner::OnlineTuner(const Rafiki& rafiki, OnlineTunerOptions options)
    : OnlineTuner(std::make_shared<TunedTable>(rafiki, options.rr_bucket), options) {}

OnlineTuner::OnlineTuner(std::shared_ptr<TunedTable> table, OnlineTunerOptions options)
    : table_(std::move(table)), options_(options) {
  options_.rr_bucket = table_->rr_bucket();
}

void OnlineTuner::set_async_optimize_hook(AsyncOptimizeHook hook) {
  MutexLock lock(mutex_);
  async_optimize_ = std::move(hook);
}

bool OnlineTuner::cached(double read_ratio) const {
  return table_->contains(bucket_for(read_ratio));
}

std::size_t OnlineTuner::reconfigurations() const {
  MutexLock lock(mutex_);
  return reconfigurations_;
}

std::size_t OnlineTuner::optimizer_runs() const {
  MutexLock lock(mutex_);
  std::size_t held = 0;
  for (const int bucket : asked_) held += table_->contains(bucket) ? 1 : 0;
  return held;
}

OnlineTuner::Decision OnlineTuner::decide_locked(double read_ratio) {
  Decision decision;
  const bool moved = !have_config_ ||
                     std::abs(read_ratio - current_rr_) >= options_.rr_change_threshold;
  if (moved) {
    const int bucket = bucket_for(read_ratio);
    asked_.insert(bucket);
    if (const auto tuned = table_->find(bucket)) {
      // The regime moved and a tuned config is ready: adopt it.
      if (!have_config_ || !(tuned->config == current_)) {
        current_ = tuned->config;
        ++reconfigurations_;
        decision.reconfigured = true;
      }
      current_rr_ = read_ratio;
      have_config_ = true;
      decision.config = current_;
      decision.predicted_throughput = tuned->predicted_throughput;
      return decision;
    }
    // Miss: keep serving the current config (stale-while-revalidate). The
    // regime anchor is deliberately not advanced, so later windows in this
    // bucket keep asking until the tuned entry lands in the table.
    decision.stale = true;
  }
  decision.config = current_;
  decision.predicted_throughput = table_->rafiki().predict(read_ratio, current_);
  return decision;
}

OnlineTuner::Decision OnlineTuner::decide(double read_ratio) {
  MutexLock lock(mutex_);
  return decide_locked(read_ratio);
}

void OnlineTuner::observe_sample(double read_ratio, const engine::Config& config,
                                 double throughput) {
  table_->rafiki().observe_sample(read_ratio, config, throughput);
}

void OnlineTuner::prefetch(double read_ratio) {
  const int bucket = bucket_for(read_ratio);
  AsyncOptimizeHook async;
  {
    MutexLock lock(mutex_);
    asked_.insert(bucket);
    if (table_->contains(bucket)) return;
    async = async_optimize_;
  }
  if (async) {
    async(bucket);
  } else {
    (void)table_->tune(bucket);
  }
}

OnlineTuner::Decision OnlineTuner::on_window(double read_ratio) {
  Decision decision;
  AsyncOptimizeHook async;
  {
    MutexLock lock(mutex_);
    decision = decide_locked(read_ratio);
    if (!decision.stale) return decision;
    async = async_optimize_;
  }
  if (async) {
    // Stale-while-revalidate: hand the miss to the background worker (hook
    // invoked with no tuner lock held) and answer with the current config
    // immediately.
    async(bucket_for(read_ratio));
    return decision;
  }
  // Standalone (no worker attached): tune inline, then re-decide against the
  // now-warm table — the original blocking behaviour.
  (void)table_->tune(bucket_for(read_ratio));
  return decide(read_ratio);
}

}  // namespace rafiki::core
