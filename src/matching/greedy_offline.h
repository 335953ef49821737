// Sorted-edge greedy matching: a fast 1/2-approximation for maximum-weight
// bipartite matching. BatchMatcher uses it for windows above the dense-cell
// limit of its auto route and when greedy is asked for by name.

#ifndef COMX_MATCHING_GREEDY_OFFLINE_H_
#define COMX_MATCHING_GREEDY_OFFLINE_H_

#include "matching/bipartite_graph.h"

namespace comx {

/// Greedy matching over edges sorted by descending weight (a stable sort,
/// so equal weights keep their insertion order). Each vertex is matched at
/// most once.
///
/// Guarantee: total weight >= 1/2 of the optimum (standard greedy bound).
BipartiteMatching GreedyMaxWeight(const BipartiteGraph& graph);

}  // namespace comx

#endif  // COMX_MATCHING_GREEDY_OFFLINE_H_
