#include "matching/hungarian.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/span.h"
#include "util/string_util.h"

namespace comx {

Result<BipartiteMatching> HungarianMaxWeight(const BipartiteGraph& graph) {
  COMX_SPAN("hungarian_solve");
  const int64_t n = graph.left_count();
  // Dummy columns let every row stay effectively unmatched at weight 0.
  const int64_t m = std::max<int64_t>(graph.right_count(), n);
  if (n > 0 && m > 100'000'000 / n) {
    return Status::OutOfRange(
        StrFormat("dense Hungarian matrix %lld x %lld too large",
                  static_cast<long long>(n), static_cast<long long>(m)));
  }

  // cost[l * m + r] = -max_weight(l, r), row-major; 0 for non-edges and
  // dummy columns, so a "match" to them carries no weight and is dropped
  // afterwards.
  const size_t cols = static_cast<size_t>(m);
  std::vector<double> cost(static_cast<size_t>(n) * cols, 0.0);
  for (const BipartiteEdge& e : graph.edges()) {
    if (e.weight < 0.0) {
      return Status::InvalidArgument(
          StrFormat("Hungarian requires non-negative weights, got %f at "
                    "(%d, %d)",
                    e.weight, e.left, e.right));
    }
    double& cell = cost[static_cast<size_t>(e.left) * cols +
                        static_cast<size_t>(e.right)];
    cell = std::min(cell, -e.weight);
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Potentials-based Hungarian (rows 1..n, cols 1..m, 0 is the virtual
  // column used to start each augmenting search). minv/used are per-row
  // scratch, allocated once and reset for every row.
  std::vector<double> u(static_cast<size_t>(n) + 1, 0.0);
  std::vector<double> v(cols + 1, 0.0);
  std::vector<int64_t> match_col(cols + 1, 0);  // row per col
  std::vector<int64_t> way(cols + 1, 0);
  std::vector<double> minv(cols + 1);
  std::vector<char> used(cols + 1);

  for (int64_t i = 1; i <= n; ++i) {
    match_col[0] = i;
    int64_t j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), 0);
    do {
      used[static_cast<size_t>(j0)] = 1;
      const int64_t i0 = match_col[static_cast<size_t>(j0)];
      const double* row = cost.data() + static_cast<size_t>(i0 - 1) * cols;
      double delta = kInf;
      int64_t j1 = -1;
      for (int64_t j = 1; j <= m; ++j) {
        if (used[static_cast<size_t>(j)]) continue;
        const double cur = row[static_cast<size_t>(j - 1)] -
                           u[static_cast<size_t>(i0)] -
                           v[static_cast<size_t>(j)];
        if (cur < minv[static_cast<size_t>(j)]) {
          minv[static_cast<size_t>(j)] = cur;
          way[static_cast<size_t>(j)] = j0;
        }
        if (minv[static_cast<size_t>(j)] < delta) {
          delta = minv[static_cast<size_t>(j)];
          j1 = j;
        }
      }
      for (int64_t j = 0; j <= m; ++j) {
        if (used[static_cast<size_t>(j)]) {
          u[static_cast<size_t>(match_col[static_cast<size_t>(j)])] += delta;
          v[static_cast<size_t>(j)] -= delta;
        } else {
          minv[static_cast<size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (match_col[static_cast<size_t>(j0)] != 0);
    // Unwind the augmenting path.
    do {
      const int64_t j1 = way[static_cast<size_t>(j0)];
      match_col[static_cast<size_t>(j0)] =
          match_col[static_cast<size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }

  BipartiteMatching result;
  result.match_of_left.assign(static_cast<size_t>(n), -1);
  for (int64_t j = 1; j <= m; ++j) {
    const int64_t i = match_col[static_cast<size_t>(j)];
    if (i == 0) continue;
    const double w =
        -cost[static_cast<size_t>(i - 1) * cols + static_cast<size_t>(j - 1)];
    // Drop dummy columns and zero-weight (non-edge) pairings.
    if (j > graph.right_count() || w <= 0.0) continue;
    result.match_of_left[static_cast<size_t>(i - 1)] =
        static_cast<int32_t>(j - 1);
    result.total_weight += w;
    ++result.size;
  }
  return result;
}

}  // namespace comx
