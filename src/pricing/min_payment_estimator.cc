#include "pricing/min_payment_estimator.h"

#include <cmath>

#include "obs/metrics_registry.h"
#include "obs/span.h"
#include "util/timer.h"

namespace comx {
namespace {

// Books one finished estimate into the registry. Resolved lazily; no-ops
// while collection is disabled.
void RecordEstimate(const MinPaymentEstimate& estimate) {
  if (!obs::CollectionEnabled()) return;
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const estimates = registry.GetCounter(
      "comx_pricing_estimates_total", "Algorithm 2 payment estimates run");
  static obs::Counter* const iterations = registry.GetCounter(
      "comx_pricing_bisect_iterations_total",
      "Bisection iterations burned by Algorithm 2");
  static obs::Counter* const samples = registry.GetCounter(
      "comx_pricing_mc_samples_total",
      "Monte-Carlo sampling instances run by Algorithm 2");
  static obs::Counter* const exhausted = registry.GetCounter(
      "comx_pricing_budget_exhausted_total",
      "Estimates cut short by the iteration or wall-clock budget");
  estimates->Inc();
  iterations->Inc(estimate.bisect_iterations);
  samples->Inc(estimate.samples);
  if (estimate.budget_exhausted) exhausted->Inc();
}

// One Bernoulli sweep over pre-evaluated acceptance probabilities: does any
// candidate accept? The draw loop replicates Rng::Bernoulli exactly — p <= 0
// is false and p >= 1 is true, neither consuming a draw — so the RNG stream
// matches a per-worker DrawAcceptance loop bit for bit.
bool AnyoneAccepts(const double* probs, size_t n, Rng* rng) {
  bool any = false;
  // Every candidate is drawn (not short-circuited) so the RNG stream
  // consumption is independent of the outcome order, keeping runs
  // reproducible under candidate reordering.
  for (size_t i = 0; i < n; ++i) {
    const double p = probs[i];
    if (p <= 0.0) continue;
    if (p >= 1.0) {
      any = true;
      continue;
    }
    any = (rng->NextDouble() < p) || any;
  }
  return any;
}

}  // namespace

int MinPaymentConfig::SampleCount() const {
  return static_cast<int>(std::ceil(4.0 * std::log(2.0 / xi) / (eta * eta)));
}

MinPaymentEstimate EstimateMinOuterPayment(
    const AcceptanceModel& model, const std::vector<WorkerId>& candidates,
    double request_value, const MinPaymentConfig& config, Rng* rng) {
  COMX_SPAN("pricing_estimate");
  MinPaymentEstimate out;
  const int n_s = config.SampleCount();
  if (candidates.empty()) {
    out.payment = request_value + config.epsilon;
    out.reject_fraction = 1.0;
    RecordEstimate(out);
    return out;
  }

  // The acceptance probabilities at the full request value are the same
  // for every Monte-Carlo instance, so they are evaluated once up front;
  // each bisection midpoint evaluates its own before the candidate sweep.
  const size_t n_c = candidates.size();
  const kernels::EcdfIndex& ecdf = model.ecdf();
  thread_local std::vector<double> probs_value;
  thread_local std::vector<double> probs_mid;
  probs_value.resize(n_c);
  probs_mid.resize(n_c);
  for (size_t i = 0; i < n_c; ++i) {
    probs_value[i] = ecdf.Evaluate(candidates[i], request_value);
  }

  double sum = 0.0;
  int rejects = 0;
  Stopwatch budget_clock;  // consulted only when max_seconds > 0
  for (int s = 0; s < n_s; ++s) {
    // Wall-clock budget: always complete at least one instance so the
    // estimate is meaningful, then stop the moment the budget is spent.
    if (config.max_seconds > 0.0 && s > 0 &&
        budget_clock.ElapsedNanos() * 1e-9 > config.max_seconds) {
      out.budget_exhausted = true;
      break;
    }
    ++out.samples;
    // Paper Algorithm 2 lines 4-6: if nobody accepts the full value, this
    // instance contributes v_r + epsilon.
    if (!AnyoneAccepts(probs_value.data(), n_c, rng)) {
      sum += request_value + config.epsilon;
      ++rejects;
      continue;
    }
    // Bisection (lines 7-15): v_h is the lowest payment seen to be accepted
    // in this instance, v_l the highest seen rejected.
    double v_l = 0.0;
    double v_h = request_value;
    double v_m = 0.5 * v_h;
    while (v_m - v_l > config.xi * request_value) {
      // Iteration budget: the estimate-wide cap keeps a pathological
      // tolerance from spinning; the current midpoint is good enough.
      if (config.max_bisect_iterations > 0 &&
          out.bisect_iterations >= config.max_bisect_iterations) {
        out.budget_exhausted = true;
        break;
      }
      ++out.bisect_iterations;
      for (size_t i = 0; i < n_c; ++i) {
        probs_mid[i] = ecdf.Evaluate(candidates[i], v_m);
      }
      if (AnyoneAccepts(probs_mid.data(), n_c, rng)) {
        v_h = v_m;
      } else {
        v_l = v_m;
      }
      v_m = 0.5 * (v_h - v_l) + v_l;
    }
    sum += v_m;
    if (out.budget_exhausted) break;
  }
  out.payment = sum / static_cast<double>(out.samples);
  out.reject_fraction = static_cast<double>(rejects) /
                        static_cast<double>(out.samples);
  RecordEstimate(out);
  return out;
}

}  // namespace comx
