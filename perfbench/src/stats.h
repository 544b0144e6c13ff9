// The benchmark's own arithmetic, kept free of any serving code so the tests
// in perfbench/tests can pin it down: sample quantiles, span self-time, the
// stage-sum check, and the stale-answer -> cached pairing behind tune lag.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

namespace perfbench {

/// Sample quantile by linear interpolation between order statistics (the
/// "type 7" rule numpy and Python's statistics module use with inclusive
/// ranks): q = 0 is the minimum, q = 1 the maximum. Empty input gives 0.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(std::span<const double> samples);

/// Constant-memory recorder for client round trips: logarithmic bins 0.1%
/// wide from 0.1 us to 100 s, so a run's millions of samples cost the process
/// a fixed ~170 KB (peak RSS stays a property of the program, not of how many
/// requests the run completed) and every quantile is within 0.05% of the
/// exact sample quantile. Values outside the range clamp to its ends.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double us);
  void clear();
  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  /// Same interpolation rule as quantile(), over bin midpoints.
  double quantile(double q) const;

 private:
  std::size_t bin_of(double us) const;
  double midpoint(std::size_t bin) const;
  /// Midpoint of the bin holding the k-th smallest sample (0-based).
  double value_at(std::uint64_t k) const;

  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// One timed interval. Times are nanoseconds on the benchmark's steady clock;
/// `parent` is the id of the span that caused this one (0 for a root).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const noexcept { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// A span's duration minus the part of it that its children cover (their
/// union, clipped to the parent's interval), in seconds.
double self_seconds(const Span& parent, std::span<const Span> children);

/// Whether a pipeline's stage spans account for its total: the stages'
/// summed durations against the parent's, as a share of the parent.
struct StageSum {
  double total_s = 0.0;
  double stages_s = 0.0;
  double gap_share = 0.0;  ///< |total - stages| / total
  bool ok = false;         ///< gap_share <= tolerance
};
StageSum check_stage_sum(const Span& total, std::span<const Span> stages, double tolerance);

/// Pairs each key's first stale answer with the first moment the key was
/// seen cached. A key is a (tenant, bucket) pair folded into an integer.
/// Single-threaded; callers serialize access.
class LagTracker {
 public:
  /// The first stale answer for `key` at `t_ns` opens an event; later stale
  /// answers for the same key, and any stale answer after the key resolved,
  /// are ignored (the first visit is the one the tuner must serve).
  void on_stale(std::uint64_t key, std::int64_t t_ns, double read_ratio);
  /// Resolves an open event; a key without one is ignored.
  void on_cached(std::uint64_t key, std::int64_t t_ns);

  struct Pending {
    std::uint64_t key = 0;
    double read_ratio = 0.0;
  };
  /// Open events, in key order, for the caller to poll.
  std::vector<Pending> pending() const;
  /// Resolved lags in milliseconds, in resolution order.
  const std::vector<double>& lags_ms() const noexcept { return lags_ms_; }
  std::size_t events() const noexcept { return seen_.size(); }

 private:
  struct Open {
    std::int64_t t_ns = 0;
    double read_ratio = 0.0;
  };
  std::set<std::uint64_t> seen_;
  std::map<std::uint64_t, Open> open_;
  std::vector<double> lags_ms_;
};

}  // namespace perfbench
