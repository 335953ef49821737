// Acceptance-probability model (Definition 3.1): the probability that a
// worker accepts an outer payment v' is the empirical CDF of the worker's
// completed-request values at v'. The same model serves as both the
// algorithms' estimator and the simulator's acceptance draw, exactly as in
// Algorithm 1 lines 17-20 of the paper. Every history is stored once, in
// the flat kernels::EcdfIndex, which also evaluates every probability.

#ifndef COMX_PRICING_ACCEPTANCE_MODEL_H_
#define COMX_PRICING_ACCEPTANCE_MODEL_H_

#include <vector>

#include "kernels/ecdf_batch.h"
#include "model/instance.h"
#include "util/rng.h"

namespace comx {

/// How the *realized* accept/reject decision of an offered payment is made.
/// (Estimation — Algorithm 2's Monte-Carlo sampling and the MER objective —
/// always uses the ECDF probabilities regardless of mode.)
enum class AcceptanceMode : int8_t {
  /// The paper's mechanism (Algorithm 1 lines 17-20): every offer draws a
  /// fresh Bernoulli(pr(v', w)). Independent across offers.
  kBernoulli = 0,
  /// Consistent ground truth: worker w holds a fixed reservation payment
  /// rho_w (one uniform draw from its history, so P(rho_w <= p) = pr(p, w))
  /// and accepts exactly the offers >= rho_w. This is the realization the
  /// offline optimum (core/offline_opt.h) knows, so online revenue can
  /// never exceed OPT — required by the competitive-ratio harness.
  kReservation = 1,
};

/// One uniform reservation draw per worker from its history; workers with
/// empty histories get +infinity (never accept). Shared by the offline
/// solver and the reservation acceptance mode so they see one reality.
std::vector<double> DrawWorkerReservations(const Instance& instance,
                                           uint64_t seed);

/// Per-worker acceptance probabilities for a whole Instance.
class AcceptanceModel {
 public:
  /// Indexes every worker's history. O(sum |history| log).
  /// `reservation_seed` is only used in kReservation mode.
  explicit AcceptanceModel(const Instance& instance,
                           AcceptanceMode mode = AcceptanceMode::kBernoulli,
                           uint64_t reservation_seed = 42);

  /// pr(v', w): probability worker `w` accepts payment `payment`.
  double AcceptProbability(WorkerId w, double payment) const;

  /// pr(v', W): probability that at least one of `workers` accepts,
  /// assuming independent decisions: 1 - prod(1 - pr).
  double GroupAcceptProbability(const std::vector<WorkerId>& workers,
                                double payment) const;

  /// Simulation draw used by *estimators* (Algorithm 2's sampling):
  /// always Bernoulli(pr), whatever the mode.
  bool DrawAcceptance(WorkerId w, double payment, Rng* rng) const;

  /// The realized decision for an actual offer (Algorithm 1 lines 17-20):
  /// Bernoulli in kBernoulli mode, payment >= rho_w in kReservation mode.
  bool Accepts(WorkerId w, double payment, Rng* rng) const;

  /// Every worker's sorted history and its ECDF (kernels/ecdf_batch.h):
  /// Algorithm 2 and the MER scan read it directly.
  const kernels::EcdfIndex& ecdf() const { return ecdf_; }

  /// Number of workers covered.
  size_t worker_count() const { return ecdf_.worker_count(); }

  /// The configured decision mode.
  AcceptanceMode mode() const { return mode_; }

 private:
  kernels::EcdfIndex ecdf_;  // every history, built once
  AcceptanceMode mode_;
  std::vector<double> reservations_;  // only filled in kReservation mode
};

}  // namespace comx

#endif  // COMX_PRICING_ACCEPTANCE_MODEL_H_
