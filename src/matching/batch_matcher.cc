#include "matching/batch_matcher.h"

#include <algorithm>

#include "matching/greedy_offline.h"
#include "matching/hungarian.h"
#include "util/string_util.h"

namespace comx {

const char* BatchAlgoName(BatchAlgo algo) {
  switch (algo) {
    case BatchAlgo::kAuto:
      return "auto";
    case BatchAlgo::kGreedy:
      return "greedy";
    case BatchAlgo::kHungarian:
      return "hungarian";
    case BatchAlgo::kIncrementalKm:
      return "incremental_km";
  }
  return "unknown";
}

Result<BatchAlgo> ParseBatchAlgo(std::string_view name) {
  if (name == "auto") return BatchAlgo::kAuto;
  if (name == "greedy") return BatchAlgo::kGreedy;
  if (name == "hungarian") return BatchAlgo::kHungarian;
  if (name == "incremental_km") return BatchAlgo::kIncrementalKm;
  return Status::InvalidArgument(
      StrFormat("unknown batch algo '%.*s'",
                static_cast<int>(name.size()), name.data()));
}

BatchMatcher::BatchMatcher(BatchMatchConfig config)
    : config_(config) {}

Result<BipartiteMatching> BatchMatcher::SolveWindow(
    const BipartiteGraph& graph,
    const std::vector<WorkerId>& worker_of_column) {
  if (worker_of_column.size() !=
      static_cast<size_t>(graph.right_count())) {
    return Status::InvalidArgument(StrFormat(
        "worker_of_column has %zu entries for %d columns",
        worker_of_column.size(), graph.right_count()));
  }
  last_dual_gap_ = 0.0;

  BatchAlgo algo = config_.algo;
  if (algo == BatchAlgo::kAuto) {
    const int64_t cells = static_cast<int64_t>(graph.left_count()) *
                          static_cast<int64_t>(graph.right_count());
    algo = cells <= config_.auto_dense_cell_limit ? BatchAlgo::kHungarian
                                                  : BatchAlgo::kGreedy;
  }

  switch (algo) {
    case BatchAlgo::kGreedy:
      last_solver_ = "greedy";
      return GreedyMaxWeight(graph);
    case BatchAlgo::kHungarian:
      last_solver_ = "hungarian";
      return HungarianMaxWeight(graph);
    case BatchAlgo::kIncrementalKm: {
      last_solver_ = "incremental_km";
      IncrementalKuhnMunkres km(graph.right_count(), config_.km);
      if (!worker_potential_.empty()) {
        std::vector<double> seed(worker_of_column.size(), 0.0);
        for (size_t j = 0; j < worker_of_column.size(); ++j) {
          const auto it = worker_potential_.find(worker_of_column[j]);
          if (it != worker_potential_.end()) seed[j] = it->second;
        }
        COMX_RETURN_IF_ERROR(km.WarmStart(seed));
      }
      const auto& adj = graph.LeftAdjacency();
      std::vector<IncrementalKuhnMunkres::RowEdge> row_edges;
      for (int32_t l = 0; l < graph.left_count(); ++l) {
        row_edges.clear();
        for (const int32_t ei : adj[static_cast<size_t>(l)]) {
          const BipartiteEdge& e = graph.edges()[static_cast<size_t>(ei)];
          if (e.weight < 0.0) {
            return Status::InvalidArgument(
                StrFormat("negative edge weight %g", e.weight));
          }
          row_edges.push_back({e.right, e.weight});
        }
        COMX_ASSIGN_OR_RETURN(const int32_t row, km.AddRow(row_edges));
        (void)row;
      }
      last_dual_gap_ = km.DualFeasibilityGap();
      const std::vector<double>& v = km.column_potentials();
      for (size_t j = 0; j < worker_of_column.size(); ++j) {
        worker_potential_[worker_of_column[j]] = v[j];
      }
      return km.Extract();
    }
    case BatchAlgo::kAuto:
      break;  // resolved above
  }
  return Status::Internal("unreachable batch algo");
}

}  // namespace comx
