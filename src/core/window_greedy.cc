#include "core/window_greedy.h"

#include "obs/span.h"
#include "pricing/mer_pricer.h"

namespace comx {

Decision DecideWindowGreedy(const Request& r, const PlatformView& view,
                            Rng* rng) {
  std::vector<WorkerId> inner, outer;
  {
    COMX_SPAN("candidate_lookup");
    inner = view.FeasibleInnerWorkers(r);
    outer = view.FeasibleOuterWorkers(r);
  }
  DecisionStats stats;
  stats.inner_candidates = static_cast<int32_t>(inner.size());
  stats.outer_candidates = static_cast<int32_t>(outer.size());

  // Argmax over the request's candidate edges: inner workers are worth the
  // full value, outer workers their expected revenue under the per-worker
  // MER price. Strict improvement only, so the earliest candidate in
  // enumeration order wins ties — the same rule the batch window solver's
  // single-request path applies, edge for edge.
  double best_weight = 0.0;
  WorkerId best_worker = kInvalidId;
  bool best_is_outer = false;
  double best_payment = 0.0;
  for (const WorkerId w : inner) {
    if (r.value > best_weight) {
      best_weight = r.value;
      best_worker = w;
    }
  }
  int32_t priced = 0;
  for (const WorkerId w : outer) {
    const MerQuote quote =
        ComputeWorkerMerQuote(view.acceptance(), w, r.value);
    ++priced;
    if (!(r.value - quote.payment > 0.0)) continue;
    if (quote.expected_revenue > best_weight) {
      best_weight = quote.expected_revenue;
      best_worker = w;
      best_is_outer = true;
      best_payment = quote.payment;
    }
  }
  stats.priced_candidates = priced;

  if (best_worker == kInvalidId) {
    Decision d = Decision::Reject();
    d.stats = stats;
    return d;
  }
  if (!best_is_outer) {
    Decision d = Decision::Inner(best_worker);
    d.stats = stats;
    return d;
  }
  stats.estimated_payment = best_payment;
  if (!view.acceptance().Accepts(best_worker, best_payment, rng)) {
    stats.accepting = 0;
    Decision d = Decision::Reject();
    d.attempted_outer = true;
    d.stats = stats;
    return d;
  }
  stats.accepting = 1;
  Decision d = Decision::Outer(best_worker, best_payment);
  d.stats = stats;
  return d;
}

void WindowGreedy::Reset(const Instance& /*instance*/,
                         PlatformId /*platform*/, uint64_t seed) {
  rng_ = Rng(seed);
}

Decision WindowGreedy::OnRequest(const Request& r, const PlatformView& view) {
  return DecideWindowGreedy(r, view, &rng_);
}

Status WindowGreedy::SaveState(ByteWriter* out) const {
  WriteRng(rng_, out);
  return Status::OK();
}

Status WindowGreedy::RestoreState(ByteReader* in) {
  return ReadRng(in, &rng_);
}

}  // namespace comx
