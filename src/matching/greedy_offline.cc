#include "matching/greedy_offline.h"

#include <algorithm>
#include <numeric>
#include <vector>

namespace comx {

BipartiteMatching GreedyMaxWeight(const BipartiteGraph& graph) {
  std::vector<int32_t> order(graph.edges().size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return graph.edges()[static_cast<size_t>(a)].weight >
           graph.edges()[static_cast<size_t>(b)].weight;
  });

  BipartiteMatching result;
  result.match_of_left.assign(static_cast<size_t>(graph.left_count()), -1);
  std::vector<char> right_used(static_cast<size_t>(graph.right_count()), 0);
  for (int32_t ei : order) {
    const BipartiteEdge& e = graph.edges()[static_cast<size_t>(ei)];
    if (e.weight <= 0.0) break;  // remaining edges cannot help
    if (result.match_of_left[static_cast<size_t>(e.left)] != -1) continue;
    if (right_used[static_cast<size_t>(e.right)]) continue;
    result.match_of_left[static_cast<size_t>(e.left)] = e.right;
    right_used[static_cast<size_t>(e.right)] = 1;
    result.total_weight += e.weight;
    ++result.size;
  }
  return result;
}

}  // namespace comx
