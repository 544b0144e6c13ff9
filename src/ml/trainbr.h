// Levenberg-Marquardt training with Bayesian regularization — a from-scratch
// equivalent of MATLAB's `trainbr`, which the paper uses to train its
// surrogate networks (Section 4.3).
//
// The objective is F = beta * E_D + alpha * E_W with E_D = sum of squared
// errors and E_W = sum of squared weights. After every accepted LM step the
// hyperparameters are re-estimated with MacKay's evidence framework:
//   gamma = P - alpha * trace((beta J^T J + alpha I)^-1)   (effective params)
//   alpha = gamma / (2 E_W),     beta = (N - gamma) / (2 E_D)
// which automatically "reduces the effective number of parameters" exactly
// as the paper describes, preventing overfitting on ~200 samples.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/mlp.h"

namespace rafiki::ml {

struct TrainOptions {
  /// The paper trains "until convergence or 200 epochs, whichever first".
  std::size_t max_epochs = 200;
  double mu_initial = 5e-3;
  double mu_increase = 10.0;
  double mu_decrease = 0.1;
  double mu_max = 1e10;
  double min_gradient = 1e-7;
  /// Disable to get plain Levenberg-Marquardt (fixed alpha = 0).
  bool bayesian_regularization = true;
  /// Re-estimate alpha/beta every k-th accepted step (after steps 1, 1 + k,
  /// 1 + 2k, ...; 0 and 1 both mean every step). The evidence update needs an
  /// O(P^3) trace of an inverse; hyperparameters drift slowly, so updating
  /// every few steps costs accuracy nothing and saves ~40% of training time.
  std::size_t bayes_update_interval = 3;
};

struct TrainResult {
  double mse = 0.0;          ///< final training mean squared error
  double alpha = 0.0;        ///< final weight-decay strength
  double beta = 0.0;         ///< final inverse noise variance
  double gamma = 0.0;        ///< effective number of parameters
  std::size_t epochs = 0;
  bool converged = false;
};

/// Trains `net` in place on rows `X` (already normalized, one row per
/// sample) against targets `y`. Returns diagnostics.
TrainResult train_lm_bayes(Mlp& net, const std::vector<std::vector<double>>& X,
                           std::span<const double> y, const TrainOptions& options = {});

}  // namespace rafiki::ml
