#include "ml/ensemble.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "util/parallel.h"

namespace rafiki::ml {

void SurrogateEnsemble::fit(const std::vector<std::vector<double>>& X,
                            std::span<const double> y, const EnsembleOptions& options,
                            std::size_t threads) {
  if (X.empty() || X.size() != y.size()) {
    throw std::invalid_argument("SurrogateEnsemble::fit: bad training set");
  }
  // Built aside and swapped in whole: copies of this ensemble taken before
  // the refit keep the block they share.
  auto fitted = std::make_shared<Fitted>();
  Normalizer& norm_in = fitted->norm_in;
  Normalizer& norm_out = fitted->norm_out;
  std::vector<Mlp>& nets = fitted->nets;
  std::vector<double>& errors = fitted->errors;
  norm_in.fit_columns(X);
  norm_out.fit(y);

  std::vector<std::vector<double>> Xn(X.size());
  for (std::size_t i = 0; i < X.size(); ++i) Xn[i] = norm_in.map_row(X[i]);
  std::vector<double> yn(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) yn[i] = norm_out.map(y[i]);

  std::vector<std::size_t> layers;
  layers.push_back(X.front().size());
  layers.insert(layers.end(), options.hidden.begin(), options.hidden.end());
  layers.push_back(1);

  // Pre-split one RNG per member in serial seed order, then train members in
  // parallel: each task touches only its own net/error/RNG slot, so the
  // weights are bit-identical to the old serial loop at any thread count.
  Rng rng(options.seed);
  std::vector<Rng> net_rngs;
  net_rngs.reserve(options.n_nets);
  for (std::size_t k = 0; k < options.n_nets; ++k) net_rngs.push_back(rng.split());

  nets.assign(options.n_nets, Mlp(layers));
  errors.assign(options.n_nets, 0.0);

  util::parallel_for(options.n_nets, threads, [&](std::size_t k) {
    nets[k].randomize(net_rngs[k]);
    errors[k] = train_lm_bayes(nets[k], Xn, yn, options.train).mse;
  });

  // Prune the worst-performing fraction by training error.
  const auto n_prune = static_cast<std::size_t>(
      options.prune_fraction * static_cast<double>(nets.size()));
  std::vector<std::size_t> order(nets.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return errors[a] < errors[b]; });
  fitted->active.assign(nets.size(), false);
  for (std::size_t i = 0; i + n_prune < order.size(); ++i) fitted->active[order[i]] = true;
  fitted_ = std::move(fitted);
}

const SurrogateEnsemble::Fitted& SurrogateEnsemble::model() const noexcept {
  static const Fitted unfitted;
  return fitted_ ? *fitted_ : unfitted;
}

std::size_t SurrogateEnsemble::active_nets() const noexcept {
  const auto& active = model().active;
  return static_cast<std::size_t>(std::count(active.begin(), active.end(), true));
}

double SurrogateEnsemble::predict(std::span<const double> x) const {
  const Fitted& m = model();
  if (m.nets.empty()) throw std::logic_error("SurrogateEnsemble::predict: not trained");
  const auto xn = m.norm_in.map_row(x);
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t k = 0; k < m.nets.size(); ++k) {
    if (!m.active[k]) continue;
    sum += m.nets[k].forward(xn);
    ++count;
  }
  return m.norm_out.unmap(sum / static_cast<double>(count ? count : 1));
}

SurrogateEnsemble::Prediction SurrogateEnsemble::predict_with_uncertainty(
    std::span<const double> x) const {
  return predict_batch_with_uncertainty({{x.begin(), x.end()}}).front();
}

std::vector<double> SurrogateEnsemble::predict_batch(
    const std::vector<std::vector<double>>& x_rows) const {
  const Fitted& m = model();
  if (m.nets.empty()) throw std::logic_error("SurrogateEnsemble::predict_batch: not trained");
  const std::size_t features = m.norm_in.features();
  if (x_rows.empty()) return {};
  Matrix packed(x_rows.size(), features);
  for (std::size_t r = 0; r < x_rows.size(); ++r) {
    if (x_rows[r].size() != features) {
      throw std::invalid_argument("SurrogateEnsemble::predict_batch: row size");
    }
    for (std::size_t c = 0; c < features; ++c) packed(r, c) = x_rows[r][c];
  }
  return predict_batch(packed);
}

std::vector<double> SurrogateEnsemble::predict_batch(const Matrix& x_rows) const {
  const Fitted& m = model();
  if (m.nets.empty()) throw std::logic_error("SurrogateEnsemble::predict_batch: not trained");
  if (x_rows.rows() == 0) return {};
  if (x_rows.cols() != m.norm_in.features()) {
    throw std::invalid_argument("SurrogateEnsemble::predict_batch: row size");
  }
  const std::size_t n = x_rows.rows();

  Matrix xn(n, m.norm_in.features());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < m.norm_in.features(); ++c) {
      xn(r, c) = m.norm_in.map(x_rows(r, c), c);
    }
  }

  // Member order matches predict()'s loop, so the per-row sums round the
  // same way and the batched path is bit-for-bit identical. One scratch and
  // one member buffer serve every net, so the per-batch cost stays in the
  // affine/tanh kernels rather than the allocator.
  std::vector<double> sum(n, 0.0);
  std::vector<double> member(n);
  Mlp::BatchScratch scratch;
  std::size_t count = 0;
  for (std::size_t k = 0; k < m.nets.size(); ++k) {
    if (!m.active[k]) continue;
    m.nets[k].forward_batch(xn, member, scratch);
    for (std::size_t r = 0; r < n; ++r) sum[r] += member[r];
    ++count;
  }
  std::vector<double> out(n);
  for (std::size_t r = 0; r < n; ++r) {
    out[r] = m.norm_out.unmap(sum[r] / static_cast<double>(count ? count : 1));
  }
  return out;
}

std::vector<SurrogateEnsemble::Prediction> SurrogateEnsemble::predict_batch_with_uncertainty(
    const std::vector<std::vector<double>>& x_rows) const {
  const Fitted& m = model();
  if (m.nets.empty()) {
    throw std::logic_error("SurrogateEnsemble::predict_batch_with_uncertainty: not trained");
  }
  const std::size_t features = m.norm_in.features();
  if (x_rows.empty()) return {};
  Matrix packed(x_rows.size(), features);
  for (std::size_t r = 0; r < x_rows.size(); ++r) {
    if (x_rows[r].size() != features) {
      throw std::invalid_argument("SurrogateEnsemble::predict_batch_with_uncertainty: row size");
    }
    for (std::size_t c = 0; c < features; ++c) packed(r, c) = x_rows[r][c];
  }
  return predict_batch_with_uncertainty(packed);
}

std::vector<SurrogateEnsemble::Prediction> SurrogateEnsemble::predict_batch_with_uncertainty(
    const Matrix& x_rows) const {
  const Fitted& m = model();
  if (m.nets.empty()) {
    throw std::logic_error("SurrogateEnsemble::predict_batch_with_uncertainty: not trained");
  }
  if (x_rows.rows() == 0) return {};
  if (x_rows.cols() != m.norm_in.features()) {
    throw std::invalid_argument("SurrogateEnsemble::predict_batch_with_uncertainty: row size");
  }
  const std::size_t n = x_rows.rows();

  Matrix xn(n, m.norm_in.features());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < m.norm_in.features(); ++c) {
      xn(r, c) = m.norm_in.map(x_rows(r, c), c);
    }
  }

  std::vector<double> sum(n, 0.0);
  std::vector<double> sumsq(n, 0.0);
  std::vector<double> member(n);
  Mlp::BatchScratch scratch;
  std::size_t count = 0;
  for (std::size_t k = 0; k < m.nets.size(); ++k) {
    if (!m.active[k]) continue;
    m.nets[k].forward_batch(xn, member, scratch);
    for (std::size_t r = 0; r < n; ++r) {
      sum[r] += member[r];
      sumsq[r] += member[r] * member[r];
    }
    ++count;
  }

  std::vector<Prediction> out(n);
  const auto denom = static_cast<double>(count ? count : 1);
  for (std::size_t r = 0; r < n; ++r) {
    const double mean_n = sum[r] / denom;
    out[r].mean = m.norm_out.unmap(mean_n);
    if (count > 1) {
      const double var_n =
          std::max(0.0, (sumsq[r] - sum[r] * mean_n) / static_cast<double>(count - 1));
      out[r].stddev = m.norm_out.unmap_delta(std::sqrt(var_n));
    }
  }
  return out;
}

}  // namespace rafiki::ml
