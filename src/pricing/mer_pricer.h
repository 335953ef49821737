// Maximum-expected-revenue pricing (Definition 4.1, after Tong et al.
// SIGMOD'18 [14]): choose the outer payment p maximizing
// (v_r - p) * pr(p, W) over the feasible worker set W, where pr(p, W) is
// the probability that at least one worker accepts p. RamCOM uses this in
// place of DemCOM's minimum-payment rule.
//
// The paper cites [14] only as a fast approximate maximizer with O(max v)
// cost; we maximize over a finite payment grid: min(max_grid_points,
// floor(v_r)) evenly spaced points in (0, v_r), v_r itself, and up to
// max_history_candidates_per_worker picks spread over each candidate's
// sorted history within (0, v_r] (the ECDF only changes at history values,
// so the picks place the grid where the objective can jump). The argmax
// is the first grid point with strictly the largest (v_r - p) * pr, and
// v_r is quoted when no point earns more than 0.
//
// The scan does only the work that can change that result, reading the
// EcdfIndex min/max summaries; every quote is bit-identical to evaluating
// every candidate at every grid point (tests/pricing/mer_pricer_test.cc
// keeps that dense scan as its reference):
//  (a) Below a candidate's smallest history value its ECDF is exactly 0,
//      its factor (1 - pr) exactly 1.0, and x * 1.0 == x, so each
//      candidate is walked only from its history minimum on. A point
//      earning exactly 0 never beats the initial 0, so points below every
//      candidate's minimum (pr 0) and v_r itself (v_r - p = 0) are not
//      built at all; the fallback still quotes v_r.
//  (b) Let Z be the smallest history maximum among candidates with a
//      non-empty history. At every p >= Z that candidate accepts with
//      probability exactly 1.0, so pr is 1.0 and the revenue v_r - p never
//      increases with p; only the smallest grid point >= Z can win among
//      them, and it is the only one built.
//  (c) A history whose minimum is positive and at or above Z contributes
//      no factor below Z, and of its picks only the first, its minimum,
//      can be the smallest point >= Z, so it costs one summary read.
// Cost: O(k log P + P log P + sum over candidates with history minimum
// below Z of the grid points and history values they walk), where P is the
// number of grid points in [min history minimum, Z); the dense scan was
// O(k (floor(v_r) + 32 k)). Z falls as k grows, so large candidate sets,
// which the dense scan made quadratic, are the cheapest per candidate.
//
// One worker (k = 1) has its own entry point, ComputeWorkerMerQuote, and
// ComputeMerQuote's k = 1 case is that function. With one candidate every
// kept point lies in [history min, history max), so the evenly spaced
// points and the history picks are two ascending streams: it merges them,
// skips repeats as it goes, and walks the history once, with the same
// arithmetic, the same tail rule (b)/(c) and the same v_r fallback. It
// allocates nothing and sorts nothing: O(min(floor(v_r), max_grid_points)
// + max_history_candidates_per_worker + history size). The window
// dispatcher prices every outer edge through it.

#ifndef COMX_PRICING_MER_PRICER_H_
#define COMX_PRICING_MER_PRICER_H_

#include <vector>

#include "model/ids.h"
#include "pricing/acceptance_model.h"

namespace comx {

/// Result of the MER optimization for one cooperative request.
struct MerQuote {
  /// Argmax payment v_re.
  double payment = 0.0;
  /// pr(payment, W): probability any candidate accepts.
  double accept_probability = 0.0;
  /// (v_r - payment) * accept_probability at the maximizer.
  double expected_revenue = 0.0;
};

/// Tuning for the candidate-payment grid.
struct MerConfig {
  /// Hard cap on integer grid points evaluated (keeps per-request cost
  /// bounded for very large values); the history-value candidates are
  /// always included.
  int max_grid_points = 4096;
  /// Cap on history candidate values pulled per worker.
  int max_history_candidates_per_worker = 32;
};

/// Computes the MER quote for a request of value `request_value` against
/// feasible outer workers `candidates`. Empty candidates yield a zero quote;
/// a single candidate is priced by ComputeWorkerMerQuote.
MerQuote ComputeMerQuote(const AcceptanceModel& model,
                         const std::vector<WorkerId>& candidates,
                         double request_value, const MerConfig& config = {});

/// The MER quote against the one worker `w`: bit-identical to
/// ComputeMerQuote(model, {w}, request_value, config), without allocating.
MerQuote ComputeWorkerMerQuote(const AcceptanceModel& model, WorkerId w,
                               double request_value,
                               const MerConfig& config = {});

}  // namespace comx

#endif  // COMX_PRICING_MER_PRICER_H_
