// Tests for the benchmark's own arithmetic (perfbench/src/stats.h).
//
//   cmake --build <build> --target perfbench_test && <build>/perfbench_test
#include <gtest/gtest.h>

#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> samples = {5.0, 1.0, 4.0, 2.0, 3.0};  // order must not matter
  EXPECT_DOUBLE_EQ(quantile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 0.99), 4.96);
  EXPECT_DOUBLE_EQ(quantile(samples, 1.0), 5.0);
}

TEST(Quantile, MedianOfEvenCountAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Quantile, P99OfOneHundredSamples) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  // rank 0.99 * 99 = 98.01 -> between the 99th and 100th values.
  EXPECT_NEAR(quantile(samples, 0.99), 99.01, 1e-12);
}

TEST(Quantile, EmptyAndSingleSample) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1.0, 2.0, 6.0}), 3.0);
}

TEST(LatencyHistogram, QuantilesStayWithinBinWidthOfTheExactOnes) {
  LatencyHistogram hist;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // A long-tailed mix: most samples near 150 us, 2% out at 2-4 ms.
    const double us = i % 50 == 0 ? 2000.0 + (i % 977) * 2.0 : 120.0 + (i % 613) * 0.1;
    samples.push_back(us);
    hist.add(us);
  }
  ASSERT_EQ(hist.count(), samples.size());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double exact = quantile(samples, q);
    EXPECT_NEAR(hist.quantile(q), exact, exact * 0.0006) << "q=" << q;
  }
  EXPECT_NEAR(hist.mean(), mean(samples), 1e-9 * mean(samples));

  hist.clear();
  EXPECT_EQ(hist.count(), 0u);
  hist.add(42.0);
  EXPECT_NEAR(hist.quantile(0.99), 42.0, 42.0 * 0.0006);
}

TEST(LatencyHistogram, EmptyAndOutOfRange) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.quantile(0.5), 0.0);
  hist.add(0.0);   // clamps into the first bin
  hist.add(1e12);  // clamps into the last bin
  EXPECT_LT(hist.quantile(0.0), 0.11);
  EXPECT_GT(hist.quantile(1.0), 0.99e8);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const Span parent{"p", 1, 0, 0, 100};
  const std::vector<Span> children = {
      {"a", 2, 1, 10, 20},
      {"b", 3, 1, 15, 30},   // overlaps a: union 10..30
      {"c", 4, 1, 50, 60},
      {"d", 5, 1, 90, 120},  // runs past the parent: only 90..100 counts
  };
  EXPECT_NEAR(self_seconds(parent, children), (100 - 20 - 10 - 10) * 1e-9, 1e-18);
}

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  const Span parent{"p", 1, 0, 1000, 4000};
  EXPECT_NEAR(self_seconds(parent, {}), 3000e-9, 1e-18);
}

TEST(StageSum, AcceptsGapsWithinTheTolerance) {
  const Span total{"pipeline", 1, 0, 0, 1'000'000};
  const std::vector<Span> close = {{"a", 2, 1, 0, 600'000}, {"b", 3, 1, 600'100, 995'100}};
  const auto ok = check_stage_sum(total, close, 0.01);
  EXPECT_TRUE(ok.ok);
  EXPECT_NEAR(ok.gap_share, 0.005, 1e-12);
  EXPECT_NEAR(ok.stages_s, 0.000995, 1e-15);

  const std::vector<Span> missing = {{"a", 2, 1, 0, 600'000}, {"b", 3, 1, 600'000, 980'000}};
  const auto short_by_2pct = check_stage_sum(total, missing, 0.01);
  EXPECT_FALSE(short_by_2pct.ok);
  EXPECT_NEAR(short_by_2pct.gap_share, 0.02, 1e-12);
}

TEST(LagTracker, PairsTheFirstStaleAnswerWithTheFirstCachedSighting) {
  LagTracker lags;
  lags.on_stale(7, 1'000'000, 0.42);
  lags.on_stale(7, 3'000'000, 0.44);  // a later stale answer keeps the first time
  lags.on_stale(9, 2'000'000, 0.91);
  ASSERT_EQ(lags.pending().size(), 2u);
  EXPECT_EQ(lags.pending()[0].key, 7u);
  EXPECT_DOUBLE_EQ(lags.pending()[0].read_ratio, 0.42);

  lags.on_cached(7, 7'500'000);
  lags.on_cached(7, 9'000'000);  // already resolved
  lags.on_cached(8, 9'000'000);  // never stale
  ASSERT_EQ(lags.lags_ms().size(), 1u);
  EXPECT_DOUBLE_EQ(lags.lags_ms()[0], 6.5);
  ASSERT_EQ(lags.pending().size(), 1u);
  EXPECT_EQ(lags.pending()[0].key, 9u);

  lags.on_stale(7, 10'000'000, 0.45);  // the bucket was already served
  EXPECT_EQ(lags.pending().size(), 1u);
  EXPECT_EQ(lags.events(), 2u);
}

TEST(LagTracker, CachedBeforeTheStaleAnswerArrivesIsAZeroLag) {
  LagTracker lags;
  lags.on_stale(3, 5'000'000, 0.3);
  lags.on_cached(3, 4'000'000);  // the poll saw it cached first
  ASSERT_EQ(lags.lags_ms().size(), 1u);
  EXPECT_EQ(lags.lags_ms()[0], 0.0);
}

}  // namespace
}  // namespace perfbench
