#include "pricing/mer_pricer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/span.h"

namespace comx {

MerQuote ComputeMerQuote(const AcceptanceModel& model,
                         const std::vector<WorkerId>& candidates,
                         double request_value, const MerConfig& config) {
  COMX_SPAN("mer_price");
  MerQuote best;
  if (candidates.empty() || request_value <= 0.0) return best;

  // Frontiers from the flat history summaries (the rules in the header).
  // Below `lowest` every factor is x1.0, so no point there can win (a);
  // from `zero` on, the owner of the smallest non-empty history maximum
  // accepts with probability 1.0 (b). Empty histories carry min +inf /
  // max -inf, so the min <= max test keeps their sentinel out of `zero`.
  const kernels::EcdfIndex& ecdf = model.ecdf();
  const double* hist_min = ecdf.hist_min();
  const double* hist_max = ecdf.hist_max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double lowest = kInf;
  double zero = kInf;
  for (WorkerId w : candidates) {
    lowest = std::min(lowest, hist_min[w]);
    if (hist_min[w] <= hist_max[w]) zero = std::min(zero, hist_max[w]);
  }

  // Candidate payments — evenly spaced points and up to
  // max_history_candidates_per_worker picks spread over each sorted
  // history within (0, v_r] — restricted to [lowest, zero) in `grid`, plus
  // `tail`, the smallest of them at or above `zero`. v_r itself earns
  // exactly 0 and is left to the fallback below.
  thread_local std::vector<double> grid;
  grid.clear();
  double tail = kInf;
  // Clamped in double: a request value of 2^31 or more must not reach the
  // int conversion.
  const int int_points = static_cast<int>(
      std::min(static_cast<double>(config.max_grid_points),
               std::floor(request_value)));
  const double step =
      int_points > 0 ? request_value / static_cast<double>(int_points + 1)
                     : request_value;
  for (int i = 1; i <= int_points; ++i) {
    const double p = step * static_cast<double>(i);
    if (p >= zero) {
      tail = p;
      break;
    }
    if (p >= lowest) grid.push_back(p);
  }
  const int max_picks = config.max_history_candidates_per_worker;
  for (WorkerId w : candidates) {
    if (max_picks < 1) break;
    // (c) A positive history minimum at or above `zero` is the history's
    // first pick; no later pick can undercut it as the tail.
    const double first = hist_min[w];
    if (first >= zero && first > 0.0) {
      if (first <= request_value) tail = std::min(tail, first);
      continue;
    }
    const auto& hist = model.HistoryOf(w).values();
    const int take = std::min<int>(max_picks, static_cast<int>(hist.size()));
    // Spread picks across the sorted history so both cheap and expensive
    // acceptance thresholds are represented. Picks ascend with i.
    for (int i = 0; i < take; ++i) {
      const size_t idx = hist.size() <= 1
                             ? 0
                             : (static_cast<size_t>(i) * (hist.size() - 1)) /
                                   static_cast<size_t>(std::max(1, take - 1));
      const double p = hist[idx];
      if (!(p > 0.0)) continue;
      if (p > request_value) break;
      if (p >= zero) {
        tail = std::min(tail, p);
        break;
      }
      grid.push_back(p);
    }
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  const size_t below = grid.size();
  if (tail != kInf) grid.push_back(tail);

  // Group acceptance below `zero`: each candidate merge-walks its history
  // over the grid points from its own minimum on (the factors before it
  // are exactly 1.0), and the per-point "nobody accepts" products
  // accumulate in candidate order — the same non-unit factors in the same
  // order as GroupAcceptProbability per point, so each pr is bit-identical
  // (a product that hits exactly 0.0 stays 0.0, matching the early exit).
  // At the tail the frontier's owner contributes a factor of exactly 0.0.
  thread_local std::vector<double> none;
  thread_local std::vector<double> probs;
  none.assign(grid.size(), 1.0);
  if (grid.size() > below) none[below] = 0.0;
  probs.resize(below);
  for (WorkerId w : candidates) {
    const size_t from = static_cast<size_t>(
        std::lower_bound(grid.begin(), grid.begin() + below, hist_min[w]) -
        grid.begin());
    if (from == below) continue;
    ecdf.EvaluateAscending(w, grid.data() + from, below - from, probs.data());
    for (size_t g = from; g < below; ++g) {
      none[g] *= 1.0 - probs[g - from];
    }
  }
  for (size_t g = 0; g < grid.size(); ++g) {
    const double p = grid[g];
    const double pr = none[g] == 0.0 ? 1.0 : 1.0 - none[g];
    const double expected = (request_value - p) * pr;
    if (expected > best.expected_revenue) {
      best.expected_revenue = expected;
      best.payment = p;
      best.accept_probability = pr;
    }
  }
  // Degenerate case: every grid point has zero expected revenue (e.g. no
  // worker ever accepts anything below v_r). Quote v_r itself so the caller
  // can still try a zero-revenue-but-user-satisfying match if it wants to.
  if (best.payment == 0.0) {
    best.payment = request_value;
    best.accept_probability =
        model.GroupAcceptProbability(candidates, request_value);
    best.expected_revenue = 0.0;
  }
  return best;
}

}  // namespace comx
