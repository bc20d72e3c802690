// Unit tests of the serving benchmark's statistics helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "perfbench/src/stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 9.1);
  EXPECT_DOUBLE_EQ(median({4.0}), 4.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, HighestSupportedLeavesTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(101), 90.0);
  EXPECT_LT(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(11), 0.0);
  EXPECT_EQ(highest_supported_percentile(5), 0.0);
  for (std::size_t n = 12; n <= 400; ++n) {
    const double p = highest_supported_percentile(n);
    ASSERT_GT(p, 0.0);
    // Samples strictly above the interpolation rank of p.
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto beyond = static_cast<double>(n - 1) - std::floor(rank + 1e-9);
    EXPECT_GE(beyond, 10.0) << n;
    // Any higher percentile whose rank passes the next sample leaves 9.
    const double next_rank = std::floor(rank + 1e-9) + 1.0;
    EXPECT_LT(static_cast<double>(n - 1) - next_rank, 10.0) << n;
  }
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // Reference values: statistics.quantiles(data, n=4) in CPython 3.11.
  Quartiles q = quartiles(one_to(10));
  EXPECT_EQ(q.q1, 2.75);
  EXPECT_EQ(q.q2, 5.5);
  EXPECT_EQ(q.q3, 8.25);
  q = quartiles({1, 2, 3, 4});
  EXPECT_EQ(q.q1, 1.25);
  EXPECT_EQ(q.q2, 2.5);
  EXPECT_EQ(q.q3, 3.75);
  q = quartiles({1, 2});
  EXPECT_EQ(q.q1, 0.75);
  EXPECT_EQ(q.q2, 1.5);
  EXPECT_EQ(q.q3, 2.25);
  q = quartiles({3.5, 1.25, 9.0, 2.0, 7.75});
  EXPECT_EQ(q.q1, 1.625);
  EXPECT_EQ(q.q2, 3.5);
  EXPECT_EQ(q.q3, 8.375);
}

TEST(ExactRepeat, IdenticalSetsMatch) {
  const GuardSet a = {{"serve.retries", 3.0}, {"model_solve_ms", 0.1 + 0.2}};
  EXPECT_TRUE(compare_exact(a, a).empty());
  // Order does not matter, only names and bits.
  const GuardSet b = {{"model_solve_ms", 0.1 + 0.2}, {"serve.retries", 3.0}};
  EXPECT_TRUE(compare_exact(a, b).empty());
}

TEST(ExactRepeat, FlagsAnyBitDifference) {
  const GuardSet a = {{"x", 0.1 + 0.2}, {"z", 0.0}};
  const GuardSet b = {{"x", 0.3}, {"z", -0.0}};
  const auto diff = compare_exact(a, b);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0], "x");
  EXPECT_EQ(diff[1], "z");
}

TEST(ExactRepeat, FlagsMissingAndExtraNames) {
  const GuardSet a = {{"a", 1.0}, {"b", 2.0}};
  const GuardSet b = {{"a", 1.0}, {"c", 2.0}};
  const auto diff = compare_exact(a, b);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0], "c");
  EXPECT_EQ(diff[1], "b");
}

TEST(ExactRepeat, TextRoundTripKeepsEveryBit) {
  const GuardSet a = {{"third", 1.0 / 3.0},
                      {"tiny", 1e-300},
                      {"neg_zero", -0.0},
                      {"big", 12345.678901234567}};
  GuardSet parsed;
  ASSERT_TRUE(parse_guards(format_guards(a), &parsed));
  EXPECT_TRUE(compare_exact(a, parsed).empty());
  EXPECT_FALSE(parse_guards("novalue\n", &parsed));
  EXPECT_FALSE(parse_guards("x 1.0garbage\n", &parsed));
}

}  // namespace
}  // namespace perfbench
