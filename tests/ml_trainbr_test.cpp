#include "ml/trainbr.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "ml/ensemble.h"

namespace rafiki::ml {
namespace {

/// Builds a normalized sample grid for y = f(x1, x2).
template <typename F>
void make_2d(F f, std::vector<std::vector<double>>& X, std::vector<double>& y) {
  for (double a = -1.0; a <= 1.0001; a += 0.2) {
    for (double b = -1.0; b <= 1.0001; b += 0.2) {
      X.push_back({a, b});
      y.push_back(f(a, b));
    }
  }
}

TEST(TrainBr, FitsLinearFunctionExactly) {
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  make_2d([](double a, double b) { return 0.4 * a - 0.3 * b + 0.1; }, X, y);

  Mlp net({2, 6, 1});
  Rng rng(3);
  net.randomize(rng);
  const auto result = train_lm_bayes(net, X, y);
  EXPECT_LT(result.mse, 1e-5);
}

TEST(TrainBr, FitsNonlinearInterdependentSurface) {
  // Multiplicative interaction — the kind of interdependence the paper's
  // Figure 6 shows between CM and CW.
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  make_2d([](double a, double b) { return 0.5 * a * b + 0.2 * std::sin(2 * a); }, X, y);

  Mlp net({2, 10, 4, 1});
  Rng rng(5);
  net.randomize(rng);
  const auto result = train_lm_bayes(net, X, y);
  EXPECT_LT(result.mse, 1e-3);

  // Spot-check generalization at an off-grid point.
  const double pred = net.forward(std::vector<double>{0.35, -0.55});
  const double truth = 0.5 * 0.35 * -0.55 + 0.2 * std::sin(0.7);
  EXPECT_NEAR(pred, truth, 0.08);
}

TEST(TrainBr, BayesianRegularizationShrinksEffectiveParams) {
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  make_2d([](double a, double b) { return 0.8 * a + 0.1 * b; }, X, y);

  Mlp net({2, 12, 6, 1});  // heavily overparameterized for a linear target
  Rng rng(11);
  net.randomize(rng);
  const auto result = train_lm_bayes(net, X, y);
  // gamma must come out far below the raw parameter count.
  EXPECT_GT(result.gamma, 0.0);
  EXPECT_LT(result.gamma, 0.5 * static_cast<double>(net.param_count()));
  EXPECT_LT(result.mse, 1e-4);
}

TEST(TrainBr, NoisyTargetsDoNotBlowUp) {
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  Rng rng(17);
  for (int i = 0; i < 80; ++i) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    X.push_back({a, b});
    y.push_back(a * a - b + rng.gaussian(0, 0.05));
  }
  Mlp net({2, 8, 1});
  net.randomize(rng);
  const auto result = train_lm_bayes(net, X, y);
  // Should fit signal without interpolating the noise to zero error.
  EXPECT_LT(result.mse, 0.02);
  EXPECT_GT(result.mse, 1e-5);
}

TEST(TrainBr, RespectsEpochBudget) {
  std::vector<std::vector<double>> X{{0.0}, {0.5}, {1.0}};
  std::vector<double> y{0.0, 0.25, 1.0};
  Mlp net({1, 4, 1});
  Rng rng(2);
  net.randomize(rng);
  TrainOptions options;
  options.max_epochs = 3;
  const auto result = train_lm_bayes(net, X, y, options);
  EXPECT_LE(result.epochs, 3u);
}

TEST(TrainBr, FitReproducesTheRecordedBits) {
  // The fit's kernels may change how fast it runs, never what it computes:
  // the surrogate's topology (P = 163, no tile or lane multiple) trained on a
  // fixed synthetic set must give these exact weights and diagnostics. The
  // data use only + - * (no libm), so the bits are the same on every IEEE-754
  // host.
  Rng rng(2017);
  std::vector<std::vector<double>> X(120, std::vector<double>(6));
  std::vector<double> y(X.size());
  for (std::size_t i = 0; i < X.size(); ++i) {
    for (auto& v : X[i]) v = rng.uniform(-1.0, 1.0);
    const auto& x = X[i];
    y[i] = 0.6 * x[0] * x[1] - 0.4 * x[2] + 0.3 * x[3] * x[3] - 0.2 * x[4] * x[5] +
           0.05 * rng.uniform(-1.0, 1.0);
  }
  Mlp net({6, 14, 4, 1});
  net.randomize(rng);
  TrainOptions options;
  options.max_epochs = 20;
  const auto result = train_lm_bayes(net, X, y, options);

  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over the raw bytes
  const auto mix = [&](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) hash = (hash ^ p[i]) * 0x100000001b3ull;
  };
  mix(net.params().data(), net.params().size() * sizeof(double));
  for (const double v : {result.mse, result.alpha, result.beta, result.gamma}) {
    mix(&v, sizeof v);
  }
  EXPECT_EQ(result.epochs, 20u);
  EXPECT_EQ(hash, 0x34faea6607a551c2ull);
}

TEST(SurrogateEnsemble, PrunesWorstThirtyPercent) {
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  make_2d([](double a, double b) { return a - b; }, X, y);
  SurrogateEnsemble ensemble;
  EnsembleOptions options;
  options.n_nets = 20;
  options.hidden = {6};
  options.train.max_epochs = 30;
  ensemble.fit(X, y, options);
  EXPECT_EQ(ensemble.total_nets(), 20u);
  EXPECT_EQ(ensemble.active_nets(), 14u);  // 20 - 30%
}

TEST(SurrogateEnsemble, PredictsUnnormalizedUnits) {
  // Throughput-scale targets: ensure normalization round-trips.
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  for (double rr = 0.0; rr <= 1.0001; rr += 0.1) {
    for (double cw = 8; cw <= 96; cw += 22) {
      X.push_back({rr, cw});
      y.push_back(90000.0 - 40000.0 * rr + 50.0 * cw);
    }
  }
  SurrogateEnsemble ensemble;
  EnsembleOptions options;
  options.n_nets = 6;
  options.hidden = {8};
  options.train.max_epochs = 60;
  ensemble.fit(X, y, options);
  const double pred = ensemble.predict(std::vector<double>{0.5, 50.0});
  EXPECT_NEAR(pred, 90000.0 - 20000.0 + 2500.0, 2500.0);
}

TEST(SurrogateEnsemble, ThrowsWhenUntrainedOrBadInput) {
  SurrogateEnsemble ensemble;
  EXPECT_THROW(ensemble.predict(std::vector<double>{1.0}), std::logic_error);
  EXPECT_THROW(ensemble.fit({}, std::vector<double>{}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace rafiki::ml
