#include "fault/fault_session.h"

#include <cmath>
#include <string>

#include "obs/metrics_registry.h"
#include "util/string_util.h"

namespace comx {
namespace fault {

void FaultSessionStats::Merge(const FaultSessionStats& other) {
  attempts += other.attempts;
  attempt_timeouts += other.attempt_timeouts;
  attempt_unavailable += other.attempt_unavailable;
  attempt_outages += other.attempt_outages;
  retries += other.retries;
  partner_unreachable += other.partner_unreachable;
  breaker_open_skips += other.breaker_open_skips;
  breaker_transitions += other.breaker_transitions;
  reserve_conflicts += other.reserve_conflicts;
  degraded_requests += other.degraded_requests;
  backoff_ms_total += other.backoff_ms_total;
  injected_latency_ms_total += other.injected_latency_ms_total;
}

FaultSession::FaultSession(const FaultPlan& plan, uint64_t run_seed)
    : injector_(plan, run_seed) {}

CircuitBreaker& FaultSession::BreakerFor(PlatformId observer,
                                         PlatformId partner) {
  const auto key = std::make_pair(observer, partner);
  auto it = breakers_.find(key);
  if (it == breakers_.end()) {
    it = breakers_.emplace(key, CircuitBreaker(plan().breaker)).first;
  }
  return it->second;
}

bool FaultSession::PartnerVisible(PlatformId observer, PlatformId partner,
                                  Timestamp now) {
  if (!PartnerFaulty(partner)) return true;
  CircuitBreaker& breaker = BreakerFor(observer, partner);
  if (!breaker.AllowRequest(now)) {
    ++stats_.breaker_open_skips;
    ++request_info_.failed_partners;
    return false;
  }
  const RetryPolicy& retry = plan().retry;
  for (int attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    const AttemptResult result = injector_.QueryAttempt(partner, now);
    ++stats_.attempts;
    stats_.injected_latency_ms_total += result.latency_ms;
    if (result.ok()) {
      breaker.RecordSuccess(now);
      return true;
    }
    switch (result.outcome) {
      case AttemptOutcome::kTimeout:
        ++stats_.attempt_timeouts;
        break;
      case AttemptOutcome::kUnavailable:
        ++stats_.attempt_unavailable;
        break;
      case AttemptOutcome::kOutage:
        ++stats_.attempt_outages;
        break;
      case AttemptOutcome::kOk:
        break;
    }
    if (attempt < retry.max_attempts &&
        result.outcome != AttemptOutcome::kOutage) {
      // Retrying inside a scheduled outage is pointless: the window is a
      // function of `now`, which does not advance during backoff.
      ++stats_.retries;
      ++request_info_.retries;
      const double backoff = retry.BackoffMs(attempt, injector_.JitterUnit());
      stats_.backoff_ms_total += backoff;
      if (obs::CollectionEnabled()) {
        // Recorded in ns (ms * 1e6), so the exported seconds are virtual.
        static obs::LatencyHistogram* const backoff_seconds =
            obs::MetricsRegistry::Global().GetLatencyHistogram(
                "comx_fault_retry_backoff_seconds",
                "Virtual backoff per retry");
        backoff_seconds->ObserveNanos(std::llround(backoff * 1e6));
      }
      continue;
    }
    break;
  }
  breaker.RecordFailure(now);
  ++stats_.partner_unreachable;
  ++request_info_.failed_partners;
  return false;
}

bool FaultSession::TryReserve(PlatformId observer, PlatformId partner,
                              Timestamp now) {
  (void)observer;
  (void)now;
  if (!PartnerFaulty(partner)) return true;
  if (injector_.ReserveConflict(partner)) {
    ++stats_.reserve_conflicts;
    ++request_info_.reserve_conflicts;
    return false;
  }
  return true;
}

void FaultSession::NoteDegraded() {
  if (!request_info_.degraded) {
    request_info_.degraded = true;
    ++stats_.degraded_requests;
  }
}

RequestFaultInfo FaultSession::TakeRequestInfo() {
  RequestFaultInfo info = request_info_;
  request_info_ = RequestFaultInfo();
  return info;
}

FaultSessionStats FaultSession::stats() const {
  FaultSessionStats out = stats_;
  for (const auto& [key, breaker] : breakers_) {
    out.breaker_transitions += breaker.transitions();
  }
  return out;
}

void FaultSession::SaveState(ByteWriter* out) const {
  const Rng::State rng_state = injector_.SaveRngState();
  for (uint64_t word : rng_state.s) out->U64(word);
  out->Bool(rng_state.has_cached_normal);
  out->F64(rng_state.cached_normal);
  out->U64(static_cast<uint64_t>(breakers_.size()));
  for (const auto& [key, breaker] : breakers_) {
    out->I32(key.first);
    out->I32(key.second);
    const CircuitBreaker::Snapshot snap = breaker.Save();
    out->U8(static_cast<uint8_t>(snap.state));
    out->I32(snap.consecutive_failures);
    out->I32(snap.half_open_successes);
    out->F64(snap.opened_at);
    out->I64(snap.transitions);
    out->Bool(snap.probe_in_flight);
  }
  out->I64(stats_.attempts);
  out->I64(stats_.attempt_timeouts);
  out->I64(stats_.attempt_unavailable);
  out->I64(stats_.attempt_outages);
  out->I64(stats_.retries);
  out->I64(stats_.partner_unreachable);
  out->I64(stats_.breaker_open_skips);
  out->I64(stats_.breaker_transitions);
  out->I64(stats_.reserve_conflicts);
  out->I64(stats_.degraded_requests);
  out->F64(stats_.backoff_ms_total);
  out->F64(stats_.injected_latency_ms_total);
  out->I32(request_info_.retries);
  out->I32(request_info_.failed_partners);
  out->I32(request_info_.reserve_conflicts);
  out->Bool(request_info_.degraded);
}

Status FaultSession::RestoreState(ByteReader* in) {
  Rng::State rng_state;
  for (uint64_t& word : rng_state.s) COMX_RETURN_IF_ERROR(in->U64(&word));
  COMX_RETURN_IF_ERROR(in->Bool(&rng_state.has_cached_normal));
  COMX_RETURN_IF_ERROR(in->F64(&rng_state.cached_normal));
  injector_.RestoreRngState(rng_state);
  uint64_t breaker_count;
  COMX_RETURN_IF_ERROR(in->U64(&breaker_count));
  breakers_.clear();
  for (uint64_t i = 0; i < breaker_count; ++i) {
    PlatformId observer, partner;
    COMX_RETURN_IF_ERROR(in->I32(&observer));
    COMX_RETURN_IF_ERROR(in->I32(&partner));
    CircuitBreaker::Snapshot snap;
    uint8_t state;
    COMX_RETURN_IF_ERROR(in->U8(&state));
    snap.state = static_cast<int8_t>(state);
    COMX_RETURN_IF_ERROR(in->I32(&snap.consecutive_failures));
    COMX_RETURN_IF_ERROR(in->I32(&snap.half_open_successes));
    COMX_RETURN_IF_ERROR(in->F64(&snap.opened_at));
    COMX_RETURN_IF_ERROR(in->I64(&snap.transitions));
    COMX_RETURN_IF_ERROR(in->Bool(&snap.probe_in_flight));
    BreakerFor(observer, partner).Restore(snap);
  }
  COMX_RETURN_IF_ERROR(in->I64(&stats_.attempts));
  COMX_RETURN_IF_ERROR(in->I64(&stats_.attempt_timeouts));
  COMX_RETURN_IF_ERROR(in->I64(&stats_.attempt_unavailable));
  COMX_RETURN_IF_ERROR(in->I64(&stats_.attempt_outages));
  COMX_RETURN_IF_ERROR(in->I64(&stats_.retries));
  COMX_RETURN_IF_ERROR(in->I64(&stats_.partner_unreachable));
  COMX_RETURN_IF_ERROR(in->I64(&stats_.breaker_open_skips));
  COMX_RETURN_IF_ERROR(in->I64(&stats_.breaker_transitions));
  COMX_RETURN_IF_ERROR(in->I64(&stats_.reserve_conflicts));
  COMX_RETURN_IF_ERROR(in->I64(&stats_.degraded_requests));
  COMX_RETURN_IF_ERROR(in->F64(&stats_.backoff_ms_total));
  COMX_RETURN_IF_ERROR(in->F64(&stats_.injected_latency_ms_total));
  COMX_RETURN_IF_ERROR(in->I32(&request_info_.retries));
  COMX_RETURN_IF_ERROR(in->I32(&request_info_.failed_partners));
  COMX_RETURN_IF_ERROR(in->I32(&request_info_.reserve_conflicts));
  COMX_RETURN_IF_ERROR(in->Bool(&request_info_.degraded));
  return Status::OK();
}

void FaultSession::PublishMetrics() const {
  if (!obs::CollectionEnabled()) return;
  auto& registry = obs::MetricsRegistry::Global();
  const FaultSessionStats s = stats();
  const struct {
    const char* name;
    const char* help;
    int64_t value;
  } counters[] = {
      {"comx_fault_attempts_total", "Injected RPC attempts drawn",
       s.attempts},
      {"comx_fault_attempt_failures_total{outcome=\"timeout\"}",
       "Attempts failed by injected latency over budget", s.attempt_timeouts},
      {"comx_fault_attempt_failures_total{outcome=\"unavailable\"}",
       "Attempts failed by the availability draw", s.attempt_unavailable},
      {"comx_fault_attempt_failures_total{outcome=\"outage\"}",
       "Attempts inside a scheduled outage window", s.attempt_outages},
      {"comx_fault_retries_total", "Attempts beyond the first", s.retries},
      {"comx_fault_partner_unreachable_total",
       "Logical partner calls failed after all retries",
       s.partner_unreachable},
      {"comx_fault_breaker_open_skips_total",
       "Partner calls rejected by an open circuit breaker",
       s.breaker_open_skips},
      {"comx_fault_breaker_transitions_total",
       "Circuit-breaker state changes", s.breaker_transitions},
      {"comx_fault_reserve_conflicts_total",
       "Stale-view conflicts on the reserve step", s.reserve_conflicts},
      {"comx_fault_degraded_requests_total",
       "Requests decided with degraded (inner-only) visibility",
       s.degraded_requests},
  };
  for (const auto& c : counters) {
    registry.GetCounter(c.name, c.help)->Inc(c.value);
  }
  for (const auto& [key, breaker] : breakers_) {
    const std::string name = StrFormat(
        "comx_fault_breaker_state{platform=\"%d\",partner=\"%d\"}",
        static_cast<int>(key.first), static_cast<int>(key.second));
    registry
        .GetGauge(name, "Breaker state: 0 closed, 1 open, 2 half-open")
        ->Set(static_cast<double>(static_cast<int>(breaker.state())));
  }
}

}  // namespace fault
}  // namespace comx
