#include "matching/batch_matcher.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "matching/brute_force.h"
#include "matching/hungarian.h"
#include "util/rng.h"

namespace comx {
namespace {

using testing_fixtures::RandomGraph;
using testing_fixtures::RandomIntegerGraph;

std::vector<WorkerId> IdentityColumns(int32_t right, WorkerId base = 0) {
  std::vector<WorkerId> ids;
  for (int32_t j = 0; j < right; ++j) ids.push_back(base + j);
  return ids;
}

TEST(BatchAlgoTest, NameParseRoundTrip) {
  for (BatchAlgo algo :
       {BatchAlgo::kAuto, BatchAlgo::kGreedy, BatchAlgo::kHungarian,
        BatchAlgo::kIncrementalKm}) {
    auto parsed = ParseBatchAlgo(BatchAlgoName(algo));
    ASSERT_TRUE(parsed.ok()) << BatchAlgoName(algo);
    EXPECT_EQ(*parsed, algo);
  }
  EXPECT_EQ(ParseBatchAlgo("hungry").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseBatchAlgo("auction").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchMatcherTest, RejectsColumnMapSizeMismatch) {
  BatchMatcher matcher;
  BipartiteGraph g(1, 2);
  ASSERT_TRUE(g.AddEdge(0, 0, 1.0).ok());
  EXPECT_EQ(matcher.SolveWindow(g, IdentityColumns(1)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchMatcherTest, AutoRoutesByTheDenseCellLimit) {
  Rng rng(11);
  const BipartiteGraph g = RandomGraph(6, 6, 0.6, &rng);
  BatchMatchConfig small;
  BatchMatcher dense(small);
  ASSERT_TRUE(dense.SolveWindow(g, IdentityColumns(6)).ok());
  EXPECT_STREQ(dense.last_solver(), "hungarian");

  BatchMatchConfig tiny_limit;
  tiny_limit.auto_dense_cell_limit = 0;
  BatchMatcher greedy(tiny_limit);
  ASSERT_TRUE(greedy.SolveWindow(g, IdentityColumns(6)).ok());
  EXPECT_STREQ(greedy.last_solver(), "greedy");
}

TEST(BatchMatcherTest, ExactBackendsAgreeWithHungarianPerWindow) {
  Rng rng(2020);
  // Trials 40..79 draw weights from {1, 2, 3}: many optimal matchings tie,
  // as they do in dispatch windows where every inner edge of a request
  // weighs its value. Exact backends may pick different optima but must
  // agree on the weight.
  for (int trial = 0; trial < 80; ++trial) {
    const int32_t left = static_cast<int32_t>(rng.UniformInt(0, 16));
    const int32_t right = static_cast<int32_t>(rng.UniformInt(1, 16));
    const BipartiteGraph g =
        trial < 40 ? RandomGraph(left, right, 0.5, &rng)
                   : RandomIntegerGraph(left, right, 0.5, /*max_weight=*/3,
                                        &rng);
    auto reference = HungarianMaxWeight(g);
    ASSERT_TRUE(reference.ok());
    for (BatchAlgo algo :
         {BatchAlgo::kAuto, BatchAlgo::kHungarian,
          BatchAlgo::kIncrementalKm}) {
      BatchMatchConfig config;
      config.algo = algo;
      BatchMatcher matcher(config);
      auto got = matcher.SolveWindow(g, IdentityColumns(right));
      ASSERT_TRUE(got.ok()) << BatchAlgoName(algo);
      EXPECT_NEAR(got->total_weight, reference->total_weight, 1e-9)
          << "trial " << trial << " algo " << BatchAlgoName(algo);
    }
  }
}

// Satellite: the dual-feasibility invariant (u_i + v_j <= c_ij) must hold
// after every warm-started window, and warm starting must never change the
// per-window optimum.
TEST(BatchMatcherTest, WarmStartedWindowsStayOptimalAndDualFeasible) {
  Rng rng(31337);
  BatchMatchConfig config;
  config.algo = BatchAlgo::kIncrementalKm;
  BatchMatcher matcher(config);
  // A rolling fleet: consecutive windows share most of their workers, so
  // the carried duals actually hit.
  for (int window = 0; window < 30; ++window) {
    const int32_t left = static_cast<int32_t>(rng.UniformInt(1, 10));
    const int32_t right = static_cast<int32_t>(rng.UniformInt(1, 10));
    const BipartiteGraph g = RandomGraph(left, right, 0.6, &rng);
    std::vector<WorkerId> workers;
    for (int32_t j = 0; j < right; ++j) {
      // Ids drawn from a small pool to force heavy reuse across windows.
      workers.push_back(rng.UniformInt(0, 14));
    }
    auto got = matcher.SolveWindow(g, workers);
    ASSERT_TRUE(got.ok()) << "window " << window;
    EXPECT_STREQ(matcher.last_solver(), "incremental_km");
    EXPECT_LE(matcher.last_dual_gap(), 1e-9) << "window " << window;
    auto reference = HungarianMaxWeight(g);
    ASSERT_TRUE(reference.ok());
    EXPECT_NEAR(got->total_weight, reference->total_weight, 1e-9)
        << "window " << window;
  }
  matcher.ResetWarmState();
  const BipartiteGraph g = RandomGraph(4, 4, 0.8, &rng);
  auto after_reset = matcher.SolveWindow(g, IdentityColumns(4));
  ASSERT_TRUE(after_reset.ok());
  auto reference = HungarianMaxWeight(g);
  ASSERT_TRUE(reference.ok());
  EXPECT_NEAR(after_reset->total_weight, reference->total_weight, 1e-9);
}

TEST(BatchMatcherTest, ColdIncrementalMatchesWarmIncremental) {
  // Warm starting is a performance lever, not a semantic one: the same
  // window sequence solved cold (carried duals dropped before every
  // window) must produce the same totals.
  Rng rng_a(55), rng_b(55);
  BatchMatchConfig config;
  config.algo = BatchAlgo::kIncrementalKm;
  BatchMatcher warm(config), cold(config);
  for (int window = 0; window < 20; ++window) {
    const BipartiteGraph g = RandomGraph(6, 6, 0.5, &rng_a);
    const BipartiteGraph h = RandomGraph(6, 6, 0.5, &rng_b);
    auto a = warm.SolveWindow(g, IdentityColumns(6));
    cold.ResetWarmState();
    auto b = cold.SolveWindow(h, IdentityColumns(6));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->total_weight, b->total_weight, 1e-9)
        << "window " << window;
  }
}

}  // namespace
}  // namespace comx
