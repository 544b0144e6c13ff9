// Additional ML-module coverage: the plain-LM path, hyperparameter update
// cadence, parameter plumbing, and the online tuner's prefetch contract.
#include <gtest/gtest.h>

#include "core/online.h"
#include "core/rafiki.h"
#include "ml/trainbr.h"

namespace rafiki {
namespace {

std::pair<std::vector<std::vector<double>>, std::vector<double>> ridge_data() {
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  for (double a = -1.0; a <= 1.0001; a += 0.25) {
    for (double b = -1.0; b <= 1.0001; b += 0.25) {
      X.push_back({a, b});
      y.push_back(0.6 * a - 0.2 * b * b);
    }
  }
  return {X, y};
}

TEST(TrainExtra, PlainLevenbergMarquardtFitsWithoutRegularization) {
  auto [X, y] = ridge_data();
  ml::Mlp net({2, 8, 1});
  Rng rng(5);
  net.randomize(rng);
  ml::TrainOptions options;
  options.bayesian_regularization = false;
  const auto result = ml::train_lm_bayes(net, X, y, options);
  EXPECT_LT(result.mse, 1e-4);
  EXPECT_DOUBLE_EQ(result.alpha, 0.0);  // never re-estimated
}

TEST(TrainExtra, UpdateIntervalDoesNotChangeQualityMaterially) {
  auto [X, y] = ridge_data();
  auto fit_with_interval = [&](std::size_t interval) {
    ml::Mlp net({2, 8, 1});
    Rng rng(7);
    net.randomize(rng);
    ml::TrainOptions options;
    options.bayes_update_interval = interval;
    return ml::train_lm_bayes(net, X, y, options);
  };
  // Both cadences must fit the surface well in absolute terms; their exact
  // MSEs differ because the alpha/beta trajectory changes the optimum.
  const auto every_step = fit_with_interval(1);
  const auto every_third = fit_with_interval(3);
  EXPECT_LT(every_step.mse, 1e-2);
  EXPECT_LT(every_third.mse, 1e-2);
  // Interval 1 means "re-estimate after every step", so the evidence update
  // must have run: gamma stays 0 only if alpha/beta were never re-estimated.
  EXPECT_GT(every_step.gamma, 0.0);
  EXPECT_GT(every_third.gamma, 0.0);
}

TEST(TrainExtra, EmptyTrainingSetIsRejectedGracefully) {
  ml::Mlp net({2, 4, 1});
  const auto result = ml::train_lm_bayes(net, {}, {});
  EXPECT_EQ(result.epochs, 0u);
}

TEST(TrainExtra, MlpParamPlumbingValidatesSizes) {
  ml::Mlp net({2, 3, 1});
  EXPECT_THROW(net.set_params(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(net.forward(std::vector<double>{1.0, 2.0, 3.0}), std::invalid_argument);
  std::vector<double> grad(net.param_count() + 1);
  EXPECT_THROW(net.forward_with_gradient(std::vector<double>{1.0, 2.0}, grad),
               std::invalid_argument);
}

TEST(OnlineTunerPrefetch, WarmCacheAvoidsOptimizerInCriticalWindow) {
  core::RafikiOptions options;
  options.workload_grid = {0.0, 0.5, 1.0};
  options.n_configs = 8;
  options.collect.measure.ops = 12000;
  options.collect.measure.warmup_ops = 2000;
  options.base_workload.initial_keys = 10000;
  options.ensemble.n_nets = 4;
  options.ensemble.train.max_epochs = 40;
  options.ga.population = 20;
  options.ga.generations = 15;
  core::Rafiki rafiki(options);
  rafiki.set_key_params(engine::key_params());
  rafiki.train(rafiki.collect());

  core::OnlineTuner tuner(rafiki);
  tuner.on_window(0.9);
  EXPECT_EQ(tuner.optimizer_runs(), 1u);

  // Prefetch the write-heavy bucket ahead of the anticipated burst...
  tuner.prefetch(0.1);
  EXPECT_EQ(tuner.optimizer_runs(), 2u);
  // ...so the switch itself triggers no new optimizer run.
  const auto decision = tuner.on_window(0.1);
  EXPECT_TRUE(decision.reconfigured);
  EXPECT_EQ(tuner.optimizer_runs(), 2u);

  // Prefetching an already-cached bucket is free.
  tuner.prefetch(0.1);
  EXPECT_EQ(tuner.optimizer_runs(), 2u);
}

}  // namespace
}  // namespace rafiki
