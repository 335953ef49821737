// OFF: the offline optimum of Section II-B. With full hindsight (arrival
// order, locations, values, and the outer workers' acceptable payments all
// known), the COM problem becomes maximum-weight bipartite matching:
// requests on the left, workers on the right, inner edges weighted v_r and
// outer edges weighted v_r - rho_w, where rho_w is the outer worker's
// realized reservation payment.
//
// Reservation model: rho_w is one uniform draw from the worker's value
// history, so P(rho_w <= p) equals the ECDF pr(p, w) of Definition 3.1 —
// the offline adversary "knows" a realization of exactly the acceptance
// model the online algorithms estimate.
//
// Solver selection, one route per worker capacity: with capacity 1 (the
// strict 1-by-1 constraint) the exact optimum, from dense Hungarian for
// small graphs and incremental Kuhn–Munkres over the grid-pruned edges
// otherwise; with capacity > 1 (workers that recycle during the horizon)
// the relaxed day-scale bound described at OfflineConfig::worker_capacity.

#ifndef COMX_CORE_OFFLINE_OPT_H_
#define COMX_CORE_OFFLINE_OPT_H_

#include <string>
#include <vector>

#include "geo/distance_metric.h"
#include "matching/bipartite_graph.h"
#include "model/assignment.h"
#include "model/instance.h"
#include "util/result.h"

namespace comx {

/// Tuning for the offline solver.
struct OfflineConfig {
  /// With worker_capacity == 1, use dense Hungarian when
  /// |R_target| * |W| <= this and incremental KM above it.
  int64_t dense_cell_limit = 1'000'000;
  /// Service slots per worker, >= 1 (1 = strict 1-by-1 constraint of
  /// Def. 2.6; >1 models the paper's recycled workers on day-scale
  /// datasets). Capacity > 1 also drops the range constraint: recycled
  /// workers relocate with every drop-off, so over a day a worker can in
  /// principle reach any request — a bound with the *static* start-location
  /// ranges is not an upper bound on the mobile online system (it
  /// demonstrably loses to DemCOM at scale). The paper's own OFF behaves
  /// this way: its completed counts equal |R|, impossible under static
  /// ranges and capacity 1. With the range dropped the bound admits a fast
  /// greedy-exact solution (requests in arrival order against aggregate
  /// arrived capacity).
  int32_t worker_capacity = 1;
  /// Cooperative borrowing on (COM offline) or off (TOTA offline).
  bool allow_outer = true;
  /// Seed for the reservation-payment draws.
  uint64_t seed = 42;
  /// Travel metric for the range constraint (nullptr = Euclidean). Must
  /// match the simulator's metric when comparing online vs OFF.
  const DistanceMetric* metric = nullptr;
};

/// An offline solution for one target platform.
struct OfflineSolution {
  Matching matching;
  /// "hungarian", "incremental_km", or "relaxed".
  std::string solver;
  /// Number of candidate edges considered (0 for the relaxed solver,
  /// which never materializes a graph).
  int64_t edge_count = 0;
};

/// Solves OFF for the requests of `target` platform over all workers of the
/// instance. Requests of other platforms are ignored (the paper reports OFF
/// per platform). Errors with InvalidArgument when worker_capacity < 1.
Result<OfflineSolution> SolveOffline(const Instance& instance,
                                     PlatformId target,
                                     const OfflineConfig& config = {});

/// Builds the offline bipartite graph (exposed for tests and benchmarks).
/// `request_ids` receives the left-index -> RequestId mapping; `payments`
/// receives, per edge, the outer payment (0 for inner edges).
Result<BipartiteGraph> BuildOfflineGraph(const Instance& instance,
                                         PlatformId target,
                                         const OfflineConfig& config,
                                         std::vector<RequestId>* request_ids,
                                         std::vector<double>* edge_payments);

}  // namespace comx

#endif  // COMX_CORE_OFFLINE_OPT_H_
