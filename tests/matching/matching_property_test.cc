// Cross-solver property sweeps: relationships that must hold between the
// three matchers on arbitrary graphs.

#include <gtest/gtest.h>

#include "matching/brute_force.h"
#include "matching/greedy_offline.h"
#include "matching/hungarian.h"
#include "matching/incremental_km.h"
#include "util/rng.h"

namespace comx {
namespace {

using testing_fixtures::RandomGraph;

struct SweepParam {
  int seed;
  int32_t left;
  int32_t right;
  double density;
};

// Without this gtest prints the raw bytes, padding included, and the
// padding is uninitialized, so the discovered ctest names change per run.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_" << p.left << "x" << p.right << "_d"
      << p.density;
}

class MatcherPropertyTest : public testing::TestWithParam<SweepParam> {};

TEST_P(MatcherPropertyTest, SolverOrderingsHold) {
  const SweepParam p = GetParam();
  Rng rng(static_cast<uint64_t>(p.seed) * 31 + 1);
  const BipartiteGraph g = RandomGraph(p.left, p.right, p.density, &rng);

  auto hung = HungarianMaxWeight(g);
  auto km = IncrementalKmMaxWeight(g);
  ASSERT_TRUE(hung.ok());
  ASSERT_TRUE(km.ok());
  const auto greedy = GreedyMaxWeight(g);

  // Exact solvers agree.
  EXPECT_NEAR(hung->total_weight, km->total_weight, 1e-6);
  // Greedy is sandwiched between half-opt and opt.
  EXPECT_GE(greedy.total_weight + 1e-9, 0.5 * hung->total_weight);
  EXPECT_LE(greedy.total_weight, hung->total_weight + 1e-9);
  // All matchings structurally valid.
  EXPECT_TRUE(g.ValidateMatching(hung->match_of_left, nullptr).ok());
  EXPECT_TRUE(g.ValidateMatching(km->match_of_left, nullptr).ok());
  EXPECT_TRUE(g.ValidateMatching(greedy.match_of_left, nullptr).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatcherPropertyTest,
    testing::Values(SweepParam{1, 5, 5, 0.3}, SweepParam{2, 10, 3, 0.5},
                    SweepParam{3, 3, 10, 0.5}, SweepParam{4, 12, 12, 0.15},
                    SweepParam{5, 20, 20, 0.10}, SweepParam{6, 1, 1, 1.0},
                    SweepParam{7, 8, 8, 0.9}, SweepParam{8, 15, 4, 0.4},
                    SweepParam{9, 4, 15, 0.4}, SweepParam{10, 25, 25, 0.05}));

TEST(MatcherPropertyTest, DenseDiagonalDominantGraph) {
  // Diagonal weights 10, off-diagonal 1: optimum is the diagonal.
  const int32_t n = 12;
  BipartiteGraph g(n, n);
  for (int32_t i = 0; i < n; ++i) {
    for (int32_t j = 0; j < n; ++j) {
      ASSERT_TRUE(g.AddEdge(i, j, i == j ? 10.0 : 1.0).ok());
    }
  }
  auto hung = HungarianMaxWeight(g);
  ASSERT_TRUE(hung.ok());
  EXPECT_DOUBLE_EQ(hung->total_weight, 120.0);
  for (int32_t i = 0; i < n; ++i) EXPECT_EQ(hung->match_of_left[i], i);
}

TEST(MatcherPropertyTest, WorstCaseGreedyChain) {
  // Chain where greedy loses ~half: l_i -> r_i (w=1+eps) and l_i -> r_{i+1}
  // (w=1). Greedy grabs the 1+eps edges, blocking nothing here, so instead
  // construct the classic conflict: shared right vertices.
  const int32_t n = 6;
  BipartiteGraph g(n, n + 1);
  for (int32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(g.AddEdge(i, i, 1.0 + 0.01 * i).ok());
    ASSERT_TRUE(g.AddEdge(i, i + 1, 1.0).ok());
  }
  auto hung = HungarianMaxWeight(g);
  const auto greedy = GreedyMaxWeight(g);
  ASSERT_TRUE(hung.ok());
  EXPECT_EQ(hung->size, n);  // all left matchable
  EXPECT_GE(greedy.total_weight + 1e-9, 0.5 * hung->total_weight);
}

}  // namespace
}  // namespace comx
