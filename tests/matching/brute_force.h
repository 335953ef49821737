// Exponential-time reference solver used to verify the real matchers on
// small random graphs. The random instance builders they are usually paired
// with live in testing/scenario_fixtures.h (re-exported here so existing
// includes keep working).

#ifndef COMX_TESTS_MATCHING_BRUTE_FORCE_H_
#define COMX_TESTS_MATCHING_BRUTE_FORCE_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "matching/bipartite_graph.h"
#include "testing/scenario_fixtures.h"
#include "util/rng.h"

namespace comx {
namespace testing_fixtures {

// Max-weight matching by recursion over left vertices (each may stay
// unmatched). Exact for any weights. O((R+1)^L).
inline double BruteForceMaxWeight(const BipartiteGraph& g) {
  const auto& adj = g.LeftAdjacency();
  std::vector<char> right_used(static_cast<size_t>(g.right_count()), 0);
  double best = 0.0;
  std::function<void(int32_t, double)> rec = [&](int32_t l, double acc) {
    if (l == g.left_count()) {
      best = std::max(best, acc);
      return;
    }
    rec(l + 1, acc);  // leave l unmatched
    for (int32_t ei : adj[static_cast<size_t>(l)]) {
      const BipartiteEdge& e = g.edges()[static_cast<size_t>(ei)];
      if (right_used[static_cast<size_t>(e.right)]) continue;
      right_used[static_cast<size_t>(e.right)] = 1;
      rec(l + 1, acc + e.weight);
      right_used[static_cast<size_t>(e.right)] = 0;
    }
  };
  rec(0, 0.0);
  return best;
}

}  // namespace testing_fixtures
}  // namespace comx

#endif  // COMX_TESTS_MATCHING_BRUTE_FORCE_H_
