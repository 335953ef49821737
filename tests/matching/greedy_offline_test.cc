#include "matching/greedy_offline.h"

#include <gtest/gtest.h>

#include "matching/brute_force.h"
#include "matching/hungarian.h"
#include "util/rng.h"

namespace comx {
namespace {

using testing_fixtures::RandomGraph;

TEST(GreedyOfflineTest, EmptyGraph) {
  BipartiteGraph g(0, 0);
  EXPECT_EQ(GreedyMaxWeight(g).size, 0);
}

TEST(GreedyOfflineTest, PicksHeaviestEdgesFirst) {
  BipartiteGraph g(2, 2);
  ASSERT_TRUE(g.AddEdge(0, 0, 10.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 1, 9.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 0, 9.0).ok());
  const auto m = GreedyMaxWeight(g);
  // Greedy takes (0,0)=10, then l1 has no free neighbour: total 10 (the
  // optimum is 18 — this documents the 1/2-approximation gap).
  EXPECT_DOUBLE_EQ(m.total_weight, 10.0);
  EXPECT_EQ(m.size, 1);
}

TEST(GreedyOfflineTest, SkipsNonPositiveWeights) {
  BipartiteGraph g(2, 2);
  ASSERT_TRUE(g.AddEdge(0, 0, 0.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 1, 5.0).ok());
  const auto m = GreedyMaxWeight(g);
  EXPECT_EQ(m.size, 1);
  EXPECT_EQ(m.match_of_left[0], -1);
}

class GreedyHalfApproxTest : public testing::TestWithParam<int> {};

TEST_P(GreedyHalfApproxTest, AtLeastHalfOfOptimal) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 65537 + 3);
  for (int iter = 0; iter < 20; ++iter) {
    const BipartiteGraph g = RandomGraph(
        static_cast<int32_t>(rng.UniformInt(1, 10)),
        static_cast<int32_t>(rng.UniformInt(1, 10)), 0.4, &rng);
    auto opt = HungarianMaxWeight(g);
    ASSERT_TRUE(opt.ok());
    const auto greedy = GreedyMaxWeight(g);
    EXPECT_GE(greedy.total_weight + 1e-9, 0.5 * opt->total_weight);
    EXPECT_LE(greedy.total_weight, opt->total_weight + 1e-9);
    EXPECT_TRUE(g.ValidateMatching(greedy.match_of_left, nullptr).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyHalfApproxTest, testing::Range(0, 8));

TEST(GreedyOfflineTest, StableTieBreakIsDeterministic) {
  BipartiteGraph g(2, 2);
  ASSERT_TRUE(g.AddEdge(0, 0, 5.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 1, 5.0).ok());
  const auto a = GreedyMaxWeight(g);
  const auto b = GreedyMaxWeight(g);
  EXPECT_EQ(a.match_of_left, b.match_of_left);
  EXPECT_EQ(a.size, 2);
}

}  // namespace
}  // namespace comx
