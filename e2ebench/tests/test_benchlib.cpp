// Unit tests of the benchmark's own measurement logic (benchlib.hpp).

#include <gtest/gtest.h>

#include <numeric>

#include "benchlib.hpp"

using namespace e2e;

namespace {

std::vector<double> iota_values(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

}  // namespace

// ------------------------------------------------------------ percentiles

TEST(Percentile, NearestRankOnSortedSample) {
  const auto v = iota_values(100);
  EXPECT_EQ(percentile_sorted(v, 50), 50.0);
  EXPECT_EQ(percentile_sorted(v, 90), 90.0);
  EXPECT_EQ(percentile_sorted(v, 99), 99.0);
  EXPECT_EQ(percentile_sorted(v, 100), 100.0);
  EXPECT_EQ(percentile_sorted(v, 0), 1.0);
  EXPECT_EQ(percentile_sorted({}, 50), 0.0);
}

TEST(Percentile, TopPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(top_percentile(19), 0.0);   // median has only 9 beyond
  EXPECT_EQ(top_percentile(20), 50.0);
  EXPECT_EQ(top_percentile(99), 50.0);  // p90 has 9 beyond
  EXPECT_EQ(top_percentile(100), 90.0);
  EXPECT_EQ(top_percentile(999), 90.0);  // p99 has 9 beyond
  EXPECT_EQ(top_percentile(1000), 99.0);
  EXPECT_EQ(top_percentile(10000), 99.9);
  EXPECT_EQ(top_percentile(100000), 99.99);
}

TEST(Percentile, SamplesBeyondCountsStrictlyAboveTheRank) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(10, 50), 5u);
}

TEST(Percentile, SummaryReportsTopPercentileValue) {
  const Summary s = summarize(iota_values(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p90, 900.0);
  EXPECT_EQ(s.top_p, 99.0);
  EXPECT_EQ(s.top_value, 990.0);
}

TEST(Percentile, WindowPercentilesListEachWindow) {
  // Three windows of 100: values 1..100, 1001..1100, 1..100.
  std::vector<double> v = iota_values(100);
  for (double x : iota_values(100)) v.push_back(1000 + x);
  for (double x : iota_values(100)) v.push_back(x);
  const auto w = window_percentiles(v, 100, 50);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0], 50.0);
  EXPECT_EQ(w[1], 1050.0);
  EXPECT_EQ(w[2], 50.0);
  // Missing entries are skipped; a window left with < 20 samples is dropped.
  std::vector<double> sparse(100, -1.0);
  for (std::size_t i = 0; i < 10; ++i) sparse[i] = 7.0;
  EXPECT_TRUE(window_percentiles(sparse, 100, 50).empty());
}

TEST(Percentile, QuantileAndMedian) {
  const auto v = iota_values(8);  // 1..8
  EXPECT_EQ(quantile(v, 0.25), 2.0);
  EXPECT_EQ(quantile(v, 0.75), 6.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, GoodQuartileIgnoresADisturbedMinority) {
  // 12 windows at ~50 us, 8 disturbed ones at ~5 ms: the lower quartile
  // stays on the undisturbed level, the median would not if they were more.
  std::vector<double> w(12, 50.0);
  for (int i = 0; i < 8; ++i) w.push_back(5000.0);
  EXPECT_EQ(quantile(w, 0.25), 50.0);
}

// --------------------------------------------------------- exactly-once

TEST(DeliveryCheck, CleanStreamHasNoFailures) {
  DeliveryCheck c;
  for (std::uint64_t i = 0; i < 100; ++i) c.deliver(i);
  c.finish(100);
  EXPECT_EQ(c.failures(true), 0u);
  EXPECT_EQ(c.delivered(), 100u);
}

TEST(DeliveryCheck, CountsLostTasks) {
  DeliveryCheck c;
  for (std::uint64_t i = 0; i < 100; ++i)
    if (i % 10 != 3) c.deliver(i);
  c.finish(100);
  EXPECT_EQ(c.lost(), 10u);
  EXPECT_EQ(c.duplicates(), 0u);
  EXPECT_EQ(c.failures(false), 10u);
}

TEST(DeliveryCheck, CountsTailLossPastLastDelivered) {
  DeliveryCheck c;
  for (std::uint64_t i = 0; i < 90; ++i) c.deliver(i);
  c.finish(100);
  EXPECT_EQ(c.lost(), 10u);
}

TEST(DeliveryCheck, CountsDuplicatesAndBogusIds) {
  DeliveryCheck c;
  for (std::uint64_t i = 0; i < 50; ++i) c.deliver(i);
  c.deliver(7);
  c.deliver(7);
  c.deliver(60);          // never sent
  c.deliver(1ull << 40);  // absurd id: bogus, no huge allocation
  c.finish(50);
  EXPECT_EQ(c.duplicates(), 2u);
  EXPECT_EQ(c.bogus(), 2u);
  EXPECT_EQ(c.lost(), 0u);
  EXPECT_EQ(c.failures(false), 4u);
}

TEST(DeliveryCheck, OrderMattersOnlyWhenRequired) {
  DeliveryCheck c;
  for (std::uint64_t i : {0, 1, 3, 2, 4}) c.deliver(i);
  c.finish(5);
  EXPECT_EQ(c.failures(false), 0u);
  EXPECT_GT(c.out_of_order(), 0u);
  EXPECT_EQ(c.failures(true), c.out_of_order());
}

TEST(DeliveryCheck, StreamNotStartingAtZeroIsOutOfOrder) {
  DeliveryCheck c;
  for (std::uint64_t i : {1, 0, 2}) c.deliver(i);
  c.finish(3);
  EXPECT_EQ(c.out_of_order(), 3u);  // 1 first, then 0, then 2 after 0
}

// ------------------------------------------------------- step reaction

namespace {

/// Samples every second from t=0 to end with rate f(t).
template <class F>
std::vector<RateSample> series(double end, F f) {
  std::vector<RateSample> s;
  for (double t = 0; t < end; t += 1.0) s.push_back({t, f(t)});
  return s;
}

}  // namespace

TEST(StepReaction, MeasuresStepToReentry) {
  // Contract [1.5, 2.5]. Step at 10: rate dips out at 13, back in at 25.
  const auto s = series(60, [](double t) {
    return (t >= 13 && t < 25) ? 1.0 : 2.0;
  });
  const auto r = detect_reactions(s, {10.0}, 1.5, 2.5, 60.0);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r[0].left);
  EXPECT_TRUE(r[0].recovered);
  EXPECT_DOUBLE_EQ(r[0].left_t, 13.0);
  EXPECT_DOUBLE_EQ(r[0].react_s, 15.0);
}

TEST(StepReaction, UndisturbedStepIsNotAReaction) {
  const auto s = series(40, [](double) { return 2.0; });
  const auto r = detect_reactions(s, {10.0}, 1.5, 2.5, 40.0);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_FALSE(r[0].left);
  EXPECT_DOUBLE_EQ(r[0].react_s, 0.0);
}

TEST(StepReaction, UnrecoveredStepIsCensoredAtNextStep) {
  // Overshoot from 30 on that never returns before the next step at 50.
  const auto s = series(80, [](double t) {
    return (t >= 32 && t < 55) ? 4.0 : 2.0;
  });
  const auto r = detect_reactions(s, {30.0, 50.0}, 1.5, 2.5, 80.0);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_TRUE(r[0].left);
  EXPECT_FALSE(r[0].recovered);
  EXPECT_DOUBLE_EQ(r[0].react_s, 20.0);
  // The second step starts out of contract and recovers at 55.
  EXPECT_TRUE(r[1].left);
  EXPECT_TRUE(r[1].recovered);
  EXPECT_DOUBLE_EQ(r[1].react_s, 5.0);
}

TEST(StepReaction, SamplesBeforeTheStepAreIgnored) {
  const auto s = series(40, [](double t) { return t < 10 ? 9.0 : 2.0; });
  const auto r = detect_reactions(s, {20.0}, 1.5, 2.5, 40.0);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_FALSE(r[0].left);
}

TEST(StepReaction, SlaFractionCountsAfterWarmup) {
  const auto s = series(100, [](double t) { return t < 50 ? 0.0 : 2.0; });
  EXPECT_DOUBLE_EQ(sla_fraction(s, 1.5, 2.5, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(sla_fraction(s, 1.5, 2.5, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(sla_fraction({}, 1.5, 2.5, 0.0), 0.0);
}
