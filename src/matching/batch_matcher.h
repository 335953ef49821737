// Micro-batch window solver (ROADMAP item 3a): each virtual-time window's
// pending requests form a small bipartite assignment problem over the idle
// workers, solved by a pluggable algorithm. The matcher is stateful so the
// incremental-KM backend can warm-start each window's column potentials
// from the duals a worker earned in the previous window — workers that stay
// idle keep their price, which is what makes consecutive near-identical
// windows cheap.
//
// SimEngine's batch mode (SimConfig::batch_mode) routes every window solve
// through this class; src/exp sweeps the window-size × algorithm grid
// (exp/batch_grid.h).

#ifndef COMX_MATCHING_BATCH_MATCHER_H_
#define COMX_MATCHING_BATCH_MATCHER_H_

#include <string_view>
#include <unordered_map>
#include <vector>

#include "matching/bipartite_graph.h"
#include "matching/incremental_km.h"
#include "model/ids.h"
#include "util/result.h"

namespace comx {

/// Window assignment backend.
enum class BatchAlgo : int32_t {
  /// Size-routed: dense Hungarian for small windows, greedy beyond
  /// auto_dense_cell_limit cells.
  kAuto = 0,
  kGreedy = 1,
  kHungarian = 2,
  /// Warm-started incremental Kuhn–Munkres with per-worker dual carryover.
  kIncrementalKm = 4,
};

/// "auto", "greedy", "hungarian", "incremental_km".
const char* BatchAlgoName(BatchAlgo algo);

/// Inverse of BatchAlgoName; errors with InvalidArgument on unknown names.
Result<BatchAlgo> ParseBatchAlgo(std::string_view name);

/// Tuning for BatchMatcher.
struct BatchMatchConfig {
  BatchAlgo algo = BatchAlgo::kAuto;
  /// kAuto switches from Hungarian to greedy above this many L×R cells.
  int64_t auto_dense_cell_limit = 250'000;
  /// Relaxation budget per window when algo == kIncrementalKm.
  IncrementalKuhnMunkres::Config km;
};

/// Solves one window at a time, carrying warm-start state between calls.
class BatchMatcher {
 public:
  explicit BatchMatcher(BatchMatchConfig config = {});

  /// Solves one window: left vertices are the window's pending requests,
  /// right vertices the idle workers, `worker_of_column[j]` the WorkerId
  /// behind column j (used to key the warm-start duals; must have
  /// graph.right_count() entries). Errors propagate from the backend
  /// solver; InvalidArgument on a worker_of_column size mismatch.
  Result<BipartiteMatching> SolveWindow(
      const BipartiteGraph& graph,
      const std::vector<WorkerId>& worker_of_column);

  /// Backend that solved the last window ("hungarian", "greedy", ...).
  const char* last_solver() const { return last_solver_; }

  /// Dual-feasibility gap of the last incremental-KM window (0 when the
  /// last window used another backend). Any positive value is a bug; the
  /// property suite asserts 0 after every warm-started window.
  double last_dual_gap() const { return last_dual_gap_; }

  /// Drops the carried duals (e.g. at a day boundary).
  void ResetWarmState() { worker_potential_.clear(); }

  const BatchMatchConfig& config() const { return config_; }

 private:
  BatchMatchConfig config_;
  const char* last_solver_ = "none";
  double last_dual_gap_ = 0.0;
  std::unordered_map<WorkerId, double> worker_potential_;
};

}  // namespace comx

#endif  // COMX_MATCHING_BATCH_MATCHER_H_
