// Online statistics: Welford, rate estimation, population variance.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/stats.hpp"

namespace bsk::support {
namespace {

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleSampleVarianceZero) {
  OnlineStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats a, b, all;
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -3, 2.5};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 5 ? a : b).add(xs[i]);
    all.add(xs[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(RateEstimator, CountsEventsInWindow) {
  RateEstimator r(SimDuration(10.0));
  for (int i = 0; i < 10; ++i) r.record(100.0 + i);  // 10 events
  EXPECT_DOUBLE_EQ(r.rate(110.0), 1.0);  // all within [100,110)
  EXPECT_DOUBLE_EQ(r.rate(130.0), 0.0);  // window [120,130): none left
  EXPECT_EQ(r.total(), 10u);
}

TEST(RateEstimator, OldEventsLeaveWindow) {
  RateEstimator r(SimDuration(10.0));
  for (int i = 0; i < 10; ++i) r.record(100.0 + i);  // events at 100..109
  EXPECT_DOUBLE_EQ(r.rate(112.0), 0.8);  // window [102,112): events 102..109
  EXPECT_DOUBLE_EQ(r.rate(118.5), 0.1);  // window [108.5,118.5): only 109 left
  EXPECT_DOUBLE_EQ(r.rate(200.0), 0.0);
}

TEST(RateEstimator, TotalSurvivesEviction) {
  RateEstimator r(SimDuration(1.0));
  for (int i = 0; i < 100; ++i) r.record(static_cast<double>(i));
  EXPECT_EQ(r.total(), 100u);
}

TEST(PopulationVariance, KnownValues) {
  EXPECT_DOUBLE_EQ(population_variance({}), 0.0);
  EXPECT_DOUBLE_EQ(population_variance({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(population_variance({2.0, 4.0}), 1.0);
  EXPECT_DOUBLE_EQ(population_variance({1.0, 1.0, 1.0}), 0.0);
}

// Property sweep: rate estimator returns n/window for n events in window.
class RateSweep : public ::testing::TestWithParam<int> {};

TEST_P(RateSweep, RateMatchesCount) {
  const int n = GetParam();
  RateEstimator r(SimDuration(20.0));
  for (int i = 0; i < n; ++i) r.record(50.0 + 0.1 * i);
  EXPECT_NEAR(r.rate(60.0), n / 20.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, RateSweep,
                         ::testing::Values(0, 1, 5, 17, 64, 199));

}  // namespace
}  // namespace bsk::support
