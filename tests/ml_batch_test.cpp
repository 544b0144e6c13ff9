// Bit-for-bit parity of the batched inference paths with their scalar
// originals. The serve layer's micro-batcher and the GA's per-generation
// population evaluation both assume that batching is a pure reshaping of the
// computation — same accumulation order per output element, so EXPECT_EQ
// (exact bits), not EXPECT_NEAR.
#include <cmath>
#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ml/ensemble.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "opt/ga.h"
#include "opt/space.h"
#include "util/rng.h"

namespace rafiki::ml {
namespace {

TEST(ForwardBatch, MatchesForwardBitForBit) {
  Mlp net({4, 7, 3, 1});
  Rng rng(2024);
  net.randomize(rng);

  constexpr std::size_t kRows = 33;
  Matrix x(kRows, 4);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < 4; ++c) x(r, c) = rng.uniform(-1.0, 1.0);
  }

  const auto batched = net.forward_batch(x);
  ASSERT_EQ(batched.size(), kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(batched[r], net.forward(x.row(r))) << "row " << r;
  }
}

TEST(ForwardBatch, SingleRowAndEmptyBatch) {
  Mlp net({2, 5, 1});
  Rng rng(7);
  net.randomize(rng);

  Matrix one(1, 2);
  one(0, 0) = 0.3;
  one(0, 1) = -0.8;
  const auto single = net.forward_batch(one);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], net.forward(one.row(0)));

  EXPECT_TRUE(net.forward_batch(Matrix(0, 2)).empty());
}

class EnsembleBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small synthetic regression problem; enough structure that training
    // converges and members disagree slightly (nonzero spread).
    Rng rng(55);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 60; ++i) {
      std::vector<double> row = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0),
                                 rng.uniform(-2.0, 2.0)};
      x.push_back(row);
      y.push_back(3.0 * row[0] - row[1] + 0.5 * row[2] * row[2]);
    }
    EnsembleOptions options;
    options.n_nets = 4;
    options.hidden = {6};
    options.train.max_epochs = 40;
    ensemble_.fit(x, y, options);

    for (int i = 0; i < 17; ++i) {
      queries_.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0),
                          rng.uniform(-2.0, 2.0)});
    }
  }

  SurrogateEnsemble ensemble_;
  std::vector<std::vector<double>> queries_;
};

TEST_F(EnsembleBatch, PredictBatchMatchesPredictBitForBit) {
  ASSERT_TRUE(ensemble_.trained());
  const auto batched = ensemble_.predict_batch(queries_);
  ASSERT_EQ(batched.size(), queries_.size());
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_EQ(batched[i], ensemble_.predict(queries_[i])) << "query " << i;
  }
}

TEST_F(EnsembleBatch, UncertaintyBatchMatchesScalarPath) {
  const auto batched = ensemble_.predict_batch_with_uncertainty(queries_);
  ASSERT_EQ(batched.size(), queries_.size());
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    const auto scalar = ensemble_.predict_with_uncertainty(queries_[i]);
    EXPECT_EQ(batched[i].mean, scalar.mean) << "query " << i;
    EXPECT_EQ(batched[i].stddev, scalar.stddev) << "query " << i;
    EXPECT_GE(batched[i].stddev, 0.0);
    EXPECT_TRUE(std::isfinite(batched[i].stddev));
  }
}

TEST_F(EnsembleBatch, EmptyBatchIsEmpty) {
  const std::vector<std::vector<double>> no_rows;
  EXPECT_TRUE(ensemble_.predict_batch(no_rows).empty());
  EXPECT_TRUE(ensemble_.predict_batch_with_uncertainty(no_rows).empty());
}

TEST_F(EnsembleBatch, CopySharesTheModelAndARefitCannotReachIt) {
  // A copy shares the fitted block: no member net is duplicated.
  const SurrogateEnsemble copy = ensemble_;
  EXPECT_EQ(copy.nets().data(), ensemble_.nets().data());
  const auto before = copy.predict_batch(queries_);

  // Refit the original on different data. fit() swaps in a new block, so the
  // copy keeps predicting with the model it was taken from, to the bit.
  Rng rng(77);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    std::vector<double> row = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0),
                               rng.uniform(-2.0, 2.0)};
    x.push_back(row);
    y.push_back(-row[0] + 2.0 * row[2]);
  }
  EnsembleOptions options;
  options.n_nets = 3;
  options.hidden = {5};
  options.train.max_epochs = 20;
  options.seed = 99;
  ensemble_.fit(x, y, options);
  ASSERT_NE(ensemble_.nets().data(), copy.nets().data());
  ASSERT_NE(ensemble_.predict_batch(queries_), before);

  const auto after = copy.predict_batch(queries_);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(std::memcmp(after.data(), before.data(), before.size() * sizeof(double)), 0);
}

}  // namespace
}  // namespace rafiki::ml

namespace rafiki::opt {
namespace {

double rastrigin_like(std::span<const double> x) {
  double value = 0.0;
  for (double v : x) value -= v * v - std::cos(3.0 * v);
  return value;
}

TEST(GaBatched, IdenticalToScalarGa) {
  SearchSpace space(std::vector<Dimension>{{"a", false, -4.0, 4.0},
                                           {"b", true, 0.0, 32.0},
                                           {"c", false, -1.0, 3.0}});
  GaOptions options;
  options.population = 16;
  options.generations = 12;
  options.seed = 321;

  const auto scalar = ga_optimize(space, rastrigin_like, options);
  const auto batched = ga_optimize_batched(
      space,
      [](const std::vector<std::vector<double>>& points) {
        std::vector<double> out;
        out.reserve(points.size());
        for (const auto& point : points) out.push_back(rastrigin_like(point));
        return out;
      },
      options);

  // Same RNG stream, same evaluations, bit-identical trajectory.
  EXPECT_EQ(scalar.best_point, batched.best_point);
  EXPECT_EQ(scalar.best_fitness, batched.best_fitness);
  EXPECT_EQ(scalar.evaluations, batched.evaluations);
  EXPECT_EQ(scalar.best_history, batched.best_history);
}

TEST(GaBatched, ThrowsOnWrongBatchArity) {
  SearchSpace space(std::vector<Dimension>{{"a", false, 0.0, 1.0}});
  GaOptions options;
  options.population = 8;
  options.generations = 2;
  EXPECT_THROW(ga_optimize_batched(
                   space,
                   [](const std::vector<std::vector<double>>& points) {
                     return std::vector<double>(points.size() + 1, 0.0);
                   },
                   options),
               std::invalid_argument);
}

}  // namespace
}  // namespace rafiki::opt
