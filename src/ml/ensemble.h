// Ensemble of independently initialized surrogate networks (Section 3.6.2):
// the paper trains the same topology from 20 different initial weight
// vectors, prunes the 30% with the highest training error and averages the
// rest (leaving 14 active networks in the default setting).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/mlp.h"
#include "ml/trainbr.h"

namespace rafiki::ml {

struct EnsembleOptions {
  std::size_t n_nets = 20;
  /// Fraction of worst-training-error networks removed before averaging.
  double prune_fraction = 0.3;
  /// Hidden-layer sizes; the paper settles on [14, 4] by trial and error.
  std::vector<std::size_t> hidden = {14, 4};
  TrainOptions train;
  std::uint64_t seed = 1234;
};

/// Copies are cheap and share one model: the fitted state (normalizers,
/// member nets, member errors, active mask) lives in one immutable block
/// that fit() replaces rather than mutates. A copy taken before a refit
/// keeps predicting with the model it was copied from, so a published
/// serving snapshot can never observe a later fit.
class SurrogateEnsemble {
 public:
  /// Fits the ensemble on raw (unnormalized) feature rows and targets;
  /// normalization to [-1, 1] is handled internally and reused at predict
  /// time, mirroring mapminmax + trainbr. The paper's members train from
  /// independent initial weights, so they train on up to `threads` threads
  /// (util::parallel_for: 0 = one per CPU, 1 = serial); per-net RNGs are
  /// pre-split in serial seed order, which keeps the weights bit-identical
  /// at any thread count (asserted in determinism_test).
  void fit(const std::vector<std::vector<double>>& X, std::span<const double> y,
           const EnsembleOptions& options = {}, std::size_t threads = 0);

  /// Predicted target for one raw feature row (averaged over active nets).
  double predict(std::span<const double> x) const;

  /// Mean prediction plus the cross-member spread of the active networks
  /// (sample stddev in raw target units) — the uncertainty band the serve
  /// layer attaches to Predict responses.
  struct Prediction {
    double mean = 0.0;
    double stddev = 0.0;
  };
  Prediction predict_with_uncertainty(std::span<const double> x) const;

  /// Batched prediction over raw feature rows: one matrix-matrix product per
  /// layer per member (Mlp::forward_batch) instead of a matrix-vector product
  /// per row. Bit-for-bit identical to calling predict() on each row. The
  /// Matrix overloads are the allocation-lean hot path (one flat block, no
  /// per-row vectors); the vector-of-rows forms delegate to them.
  std::vector<double> predict_batch(const Matrix& x_rows) const;
  std::vector<double> predict_batch(const std::vector<std::vector<double>>& x_rows) const;
  std::vector<Prediction> predict_batch_with_uncertainty(const Matrix& x_rows) const;
  std::vector<Prediction> predict_batch_with_uncertainty(
      const std::vector<std::vector<double>>& x_rows) const;

  bool trained() const noexcept { return !model().nets.empty(); }
  std::size_t total_nets() const noexcept { return model().nets.size(); }
  std::size_t active_nets() const noexcept;
  std::size_t feature_count() const noexcept { return model().norm_in.features(); }
  /// Training MSE of each member (normalized target units), for tests.
  const std::vector<double>& member_errors() const noexcept { return model().errors; }
  const std::vector<bool>& active_mask() const noexcept { return model().active; }
  /// Trained member networks, for the determinism regression test: two runs
  /// from the same seed must produce bit-identical weight vectors. Copies of
  /// one fitted ensemble return the same vector (same data()).
  const std::vector<Mlp>& nets() const noexcept { return model().nets; }

 private:
  struct Fitted {
    Normalizer norm_in;
    Normalizer norm_out;
    std::vector<Mlp> nets;
    std::vector<double> errors;
    std::vector<bool> active;
  };

  /// The fitted block, or an empty one before the first fit.
  const Fitted& model() const noexcept;

  std::shared_ptr<const Fitted> fitted_;
};

}  // namespace rafiki::ml
