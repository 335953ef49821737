// Exact maximum-weight bipartite matching via the Hungarian algorithm
// (Kuhn–Munkres with potentials, O(n^2 m) on the dense matrix). This is the
// reference solver behind the paper's OFF baseline (Section II-B) for
// instances small enough to densify; the incremental Kuhn–Munkres solver
// (incremental_km.h) handles larger graphs, and the tests cross-check the
// two.

#ifndef COMX_MATCHING_HUNGARIAN_H_
#define COMX_MATCHING_HUNGARIAN_H_

#include "matching/bipartite_graph.h"
#include "util/result.h"

namespace comx {

/// Computes a maximum-total-weight matching; vertices may stay unmatched.
///
/// Requirements: every edge weight >= 0 (revenues are). Parallel edges are
/// collapsed to their maximum weight. Complexity O(L^2 * max(L, R)), memory
/// O(L * R); errors with InvalidArgument on negative weights and with
/// OutOfRange when L * R would exceed ~10^8 cells.
Result<BipartiteMatching> HungarianMaxWeight(const BipartiteGraph& graph);

}  // namespace comx

#endif  // COMX_MATCHING_HUNGARIAN_H_
