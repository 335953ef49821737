#include "util/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace comx {
namespace {

TEST(RunningStatsTest, EmptyState) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  RunningStats b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.Add(1.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStatsTest, ToStringMentionsCount) {
  RunningStats s;
  s.Add(2.0);
  EXPECT_NE(s.ToString().find("n=1"), std::string::npos);
}

TEST(QuantileTest, EmptyIsZero) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(QuantileTest, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(QuantileTest, InterpolatesBetweenOrderStats) {
  // Sorted: 1, 2, 3, 4. q=0.5 -> position 1.5 -> 2.5.
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
}

TEST(QuantileTest, Extremes) {
  const std::vector<double> v{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 9.0);
}

TEST(QuantileTest, ClampsQ) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 2.0), 2.0);
}

}  // namespace
}  // namespace comx
