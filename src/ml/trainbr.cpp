#include "ml/trainbr.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/kernels.h"
#include "ml/matrix.h"

namespace rafiki::ml {
namespace {

double sum_squares(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return s;
}

}  // namespace

TrainResult train_lm_bayes(Mlp& net, const std::vector<std::vector<double>>& X,
                           std::span<const double> y, const TrainOptions& options) {
  TrainResult result;
  const std::size_t n = X.size();
  const std::size_t p = net.param_count();
  if (n == 0 || y.size() != n) return result;

  double alpha = options.bayesian_regularization ? 0.01 : 0.0;
  double beta = 1.0;
  double mu = options.mu_initial;

  std::vector<double> params(net.params().begin(), net.params().end());
  Matrix jac(n, p);
  std::vector<double> errors(n);

  // Trial points run through the batched forward pass, which is bit-identical
  // to forward() row by row (tests/ml_batch_test.cpp), on inputs packed once.
  Matrix inputs(n, net.input_size());
  for (std::size_t i = 0; i < n; ++i) {
    if (X[i].size() != net.input_size()) {
      throw std::invalid_argument("train_lm_bayes: input size");
    }
    std::copy(X[i].begin(), X[i].end(), inputs.row(i).begin());
  }
  std::vector<double> outputs(n);
  Mlp::BatchScratch batch;

  // p x p workspaces, reused by every epoch: J^T J of the current Jacobian
  // (computed once per Jacobian, shared by the LM step and the evidence
  // update), the matrix being factored, and its Cholesky factor.
  std::vector<double> jtj(p * p);
  std::vector<double> system(p * p);
  std::vector<double> lower(p * p);
  std::vector<double> scratch;
  std::vector<double> solve_tmp(p);
  std::vector<double> step(p);
  std::vector<double> trial(p);

  auto evaluate = [&](std::span<const double> w, bool with_jacobian) {
    net.set_params(w);
    if (with_jacobian) {
      for (std::size_t i = 0; i < n; ++i) {
        outputs[i] = net.forward_with_gradient(X[i], jac.row(i));
      }
      kernels::gram(jac.data().data(), n, p, jtj.data());
    } else {
      net.forward_batch(inputs, outputs, batch);
    }
    double ed = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      errors[i] = y[i] - outputs[i];
      ed += errors[i] * errors[i];
    }
    return ed;
  };
  // system = beta * J^T J + shift * I, the lower triangle being all the
  // Cholesky factorization reads.
  auto build_system = [&](double shift) {
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j <= i; ++j) system[i * p + j] = jtj[i * p + j] * beta;
      system[i * p + i] += shift;
    }
  };

  double ed = evaluate(params, true);
  double ew = sum_squares(params);
  double objective = beta * ed + alpha * ew;

  for (std::size_t epoch = 0; epoch < options.max_epochs; ++epoch) {
    ++result.epochs;
    // Gauss-Newton system: (beta J^T J + (alpha + mu) I) dw = beta J^T e - alpha w
    auto gradient = jac.transpose_times(errors);
    double grad_norm = 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      gradient[j] = beta * gradient[j] - alpha * params[j];
      grad_norm += gradient[j] * gradient[j];
    }
    if (std::sqrt(grad_norm) < options.min_gradient) {
      result.converged = true;
      break;
    }

    bool stepped = false;
    while (mu <= options.mu_max) {
      build_system(alpha + mu);
      if (kernels::cholesky(system.data(), p, lower.data(), scratch) == p) {
        kernels::cholesky_solve(lower.data(), p, gradient.data(), solve_tmp.data(),
                                step.data());
        for (std::size_t j = 0; j < p; ++j) trial[j] = params[j] + step[j];
        const double trial_ed = evaluate(trial, false);
        const double trial_ew = sum_squares(trial);
        const double trial_obj = beta * trial_ed + alpha * trial_ew;
        if (trial_obj < objective && std::isfinite(trial_obj)) {
          params.swap(trial);
          ed = trial_ed;
          ew = trial_ew;
          objective = trial_obj;
          mu = std::max(options.mu_decrease * mu, 1e-20);
          stepped = true;
          break;
        }
      }
      mu *= options.mu_increase;
    }
    if (!stepped) {
      result.converged = true;  // no downhill direction left at mu_max
      break;
    }

    // Refresh the Jacobian (and J^T J) at the accepted point.
    ed = evaluate(params, true);

    // Evidence updates run on epochs 1, 1 + k, 1 + 2k, ... (every epoch for
    // k = 0 or 1).
    const std::size_t interval = std::max<std::size_t>(1, options.bayes_update_interval);
    const bool update_hyper =
        options.bayesian_regularization && (result.epochs - 1) % interval == 0;
    if (update_hyper) {
      // MacKay evidence update of alpha/beta via the effective parameters.
      build_system(alpha);
      const double trace_inv =
          kernels::cholesky(system.data(), p, lower.data(), scratch) == p
              ? kernels::cholesky_trace_inverse(lower.data(), p, scratch)
              : -1.0;
      if (trace_inv >= 0.0) {
        double gamma = static_cast<double>(p) - alpha * trace_inv;
        gamma = std::clamp(gamma, 1.0, static_cast<double>(p));
        alpha = gamma / std::max(2.0 * ew, 1e-12);
        const double denom = std::max(2.0 * ed, 1e-12);
        beta = std::max(static_cast<double>(n) - gamma, 1.0) / denom;
        result.gamma = gamma;
        objective = beta * ed + alpha * ew;
      }
    }
  }

  net.set_params(params);
  result.mse = ed / static_cast<double>(n);
  result.alpha = alpha;
  result.beta = beta;
  return result;
}

}  // namespace rafiki::ml
