#include "geo/distance.h"

#include <cmath>

#include <gtest/gtest.h>

namespace comx {
namespace {

TEST(DistanceTest, EuclideanBasics) {
  EXPECT_DOUBLE_EQ(EuclideanDistance(Point(0, 0), Point(3, 4)), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(Point(1, 1), Point(1, 1)), 0.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(Point(-1, 0), Point(1, 0)), 2.0);
}

TEST(DistanceTest, Symmetric) {
  const Point a(2.5, -7.1), b(-3.3, 4.2);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), EuclideanDistance(b, a));
}

TEST(DistanceTest, SquaredMatchesSquare) {
  const Point a(1, 2), b(4, 6);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(std::sqrt(SquaredDistance(a, b)),
                   EuclideanDistance(a, b));
}

TEST(DistanceTest, TriangleInequality) {
  const Point a(0, 0), b(5, 1), c(2, 8);
  EXPECT_LE(EuclideanDistance(a, c),
            EuclideanDistance(a, b) + EuclideanDistance(b, c) + 1e-12);
}

TEST(WithinRadiusTest, BoundaryInclusive) {
  EXPECT_TRUE(WithinRadius(Point(0, 0), Point(3, 4), 5.0));
  EXPECT_TRUE(WithinRadius(Point(0, 0), Point(3, 4), 5.0001));
  EXPECT_FALSE(WithinRadius(Point(0, 0), Point(3, 4), 4.9999));
}

TEST(WithinRadiusTest, ZeroRadiusOnlySelf) {
  EXPECT_TRUE(WithinRadius(Point(1, 1), Point(1, 1), 0.0));
  EXPECT_FALSE(WithinRadius(Point(1, 1), Point(1, 1.001), 0.0));
}

}  // namespace
}  // namespace comx
