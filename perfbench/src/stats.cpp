#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

namespace {
constexpr double kHistLoUs = 0.1;
constexpr double kHistHiUs = 1e8;
constexpr double kHistGrowth = 1.001;
}  // namespace

LatencyHistogram::LatencyHistogram()
    : bins_(static_cast<std::size_t>(std::ceil(std::log(kHistHiUs / kHistLoUs) /
                                               std::log(kHistGrowth))) + 1) {}

std::size_t LatencyHistogram::bin_of(double us) const {
  if (!(us > kHistLoUs)) return 0;
  const auto bin = static_cast<std::size_t>(std::log(us / kHistLoUs) / std::log(kHistGrowth));
  return std::min(bin, bins_.size() - 1);
}

double LatencyHistogram::midpoint(std::size_t bin) const {
  return kHistLoUs * std::pow(kHistGrowth, static_cast<double>(bin) + 0.5);
}

void LatencyHistogram::add(double us) {
  ++bins_[bin_of(us)];
  ++count_;
  sum_ += us;
}

void LatencyHistogram::clear() {
  std::fill(bins_.begin(), bins_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

double LatencyHistogram::value_at(std::uint64_t k) const {
  std::uint64_t seen = 0;
  for (std::size_t bin = 0; bin < bins_.size(); ++bin) {
    seen += bins_[bin];
    if (seen > k) return midpoint(bin);
  }
  return midpoint(bins_.size() - 1);
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(std::floor(rank));
  const double lo_value = value_at(lo);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || lo + 1 >= count_) return lo_value;
  return lo_value + frac * (value_at(lo + 1) - lo_value);
}

double self_seconds(const Span& parent, std::span<const Span> children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const auto& child : children) {
    const std::int64_t lo = std::max(child.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t run_lo = 0;
  std::int64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) union_ns += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) union_ns += run_hi - run_lo;
  return static_cast<double>(parent.end_ns - parent.start_ns - union_ns) * 1e-9;
}

StageSum check_stage_sum(const Span& total, std::span<const Span> stages, double tolerance) {
  StageSum sum;
  sum.total_s = total.seconds();
  for (const auto& stage : stages) sum.stages_s += stage.seconds();
  sum.gap_share = sum.total_s > 0.0 ? std::abs(sum.total_s - sum.stages_s) / sum.total_s : 1.0;
  sum.ok = sum.gap_share <= tolerance;
  return sum;
}

void LagTracker::on_stale(std::uint64_t key, std::int64_t t_ns, double read_ratio) {
  if (seen_.insert(key).second) open_.emplace(key, Open{t_ns, read_ratio});
}

void LagTracker::on_cached(std::uint64_t key, std::int64_t t_ns) {
  const auto it = open_.find(key);
  if (it == open_.end()) return;
  lags_ms_.push_back(static_cast<double>(std::max<std::int64_t>(t_ns - it->second.t_ns, 0)) *
                     1e-6);
  open_.erase(it);
}

std::vector<LagTracker::Pending> LagTracker::pending() const {
  std::vector<Pending> out;
  out.reserve(open_.size());
  for (const auto& [key, open] : open_) out.push_back({key, open.read_ratio});
  return out;
}

}  // namespace perfbench
