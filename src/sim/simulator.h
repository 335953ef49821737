// Event-driven co-simulation of every platform over one Instance.
//
// The interleaved arrival stream (workers + requests of all platforms) is
// replayed chronologically. Each platform runs its own OnlineMatcher; the
// shared WorkerPool realizes the 1-by-1 and invariable constraints (a
// matched worker leaves every waiting list at once and assignments are
// final). When `workers_recycle` is on, a worker finishing a service
// re-enters the pool at the request's location after a travel + service
// delay — this is how the paper's day-scale datasets complete far more
// requests than they have workers.

#ifndef COMX_SIM_SIMULATOR_H_
#define COMX_SIM_SIMULATOR_H_

#include <vector>

#include "core/online_matcher.h"
#include "fault/fault_session.h"
#include "geo/distance_metric.h"
#include "matching/batch_matcher.h"
#include "model/assignment.h"
#include "model/instance.h"
#include "sim/metrics.h"
#include "util/result.h"

namespace comx {

namespace obs {
class TraceSink;
}  // namespace obs

class AcceptanceModel;

/// Physical model + run knobs for the simulation.
struct SimConfig {
  /// Whether workers re-enter the waiting lists after completing a request.
  /// Off = strict 1-by-1 of Definition 2.6 (the theory / CR setting);
  /// on = the day-scale evaluation setting of Section V.
  bool workers_recycle = true;
  /// Travel speed towards the pickup, km/h.
  double speed_kmh = 30.0;
  /// Fixed part of the service duration, seconds.
  double base_service_seconds = 300.0;
  /// Value-proportional part of the service duration, seconds per value
  /// unit (ride fares correlate with ride durations).
  double service_seconds_per_value = 30.0;
  /// Measure per-request matcher latency (adds two clock reads/request).
  bool measure_response_time = true;
  /// How real offers are accepted: the paper's per-offer Bernoulli, or the
  /// fixed-reservation ground truth shared with the offline solver (used by
  /// the competitive-ratio harness; see pricing/acceptance_model.h).
  AcceptanceMode acceptance_mode = AcceptanceMode::kBernoulli;
  /// Reservation draw seed (kReservation mode only); must match the
  /// OfflineConfig seed for online <= OPT to hold exactly.
  uint64_t reservation_seed = 42;
  /// Travel metric realizing the range constraint and pickup distances;
  /// nullptr = Euclidean. Use roadnet::RoadNetworkMetric for the paper's
  /// road-network variant. Must outlive the simulation.
  const DistanceMetric* metric = nullptr;
  /// Optional decision trace: every request decision (candidate counts,
  /// pricing effort, acceptance outcome, final assignment) is recorded
  /// here, plus a run-totals summary at the end. Tracing never consumes
  /// RNG draws, so results are bit-identical with or without it. Must
  /// outlive the simulation. See obs/trace.h.
  obs::TraceSink* trace = nullptr;
  /// Optional partner fault injection (fault/fault_plan.h). nullptr (the
  /// default) or a plan whose specs are all trivial leaves every matcher's
  /// result bit-identical to a plain run: the injector draws from its own
  /// RNG, and a trivial partner costs one predicted branch per outer
  /// query. Must outlive the simulation.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Micro-batch dispatch: requests are held until their virtual-time
  /// window closes and each window is solved as one small assignment
  /// problem (matching/batch_matcher.h) instead of request-by-request
  /// online decisions. The per-platform OnlineMatchers passed to the run
  /// are Reset() but never consulted. Incompatible with fault injection
  /// and with SaveState checkpoints.
  bool batch_mode = false;
  /// Window length in virtual seconds. 0 flushes every request in its own
  /// window immediately — provably bit-identical to the WindowGreedy
  /// online matcher (see core/window_greedy.h). A positive window must
  /// keep every |request time / window| below 2^53, the range where the
  /// window index is exact; Init refuses the run otherwise.
  double batch_window_seconds = 30.0;
  /// Window solver tuning (algorithm, warm start, budgets).
  BatchMatchConfig batch;
  /// Optional prebuilt acceptance model. The model is a pure function of
  /// (instance, acceptance_mode, reservation_seed), so a seed grid over one
  /// instance can build it once and share it across runs (it is immutable
  /// after construction and safe for concurrent reads) instead of
  /// re-sorting every worker history per run. nullptr = build internally.
  /// Must match this config's instance/mode/seed and outlive the run.
  const AcceptanceModel* acceptance = nullptr;
};

/// Outcome of one simulation run.
struct SimResult {
  SimMetrics metrics;
  /// Every assignment made, across all platforms.
  Matching matching;
  /// Whole-run fault accounting (all zero unless SimConfig::fault_plan was
  /// set): attempts, retries, breaker activity, reserve conflicts, and
  /// degraded-request counts. Deterministic for a fixed (seed, plan).
  fault::FaultSessionStats fault_stats;
};

/// Travel time to the pickup plus the service itself, in seconds — the
/// physics shared by the simulator, the audit, and the exact offline
/// scheduler (core/offline_schedule.h).
double ServiceDurationSeconds(const SimConfig& config, double pickup_km,
                              double value);

/// Runs all matchers over the instance. `matchers[p]` handles the requests
/// of platform p; its size must equal instance.PlatformCount(). Matchers
/// are Reset() with `seed + p` before the run.
Result<SimResult> RunSimulation(const Instance& instance,
                                const std::vector<OnlineMatcher*>& matchers,
                                const SimConfig& config, uint64_t seed);

/// Convenience: clones of a single matcher semantics — every platform uses
/// the same policy object sequence. Provided as a factory callback so each
/// platform gets an independent instance.
using MatcherFactory = OnlineMatcher* (*)();

/// Post-hoc audit used by tests: verifies that `result` is feasible for
/// `instance` under `config` — every assignment respects the time, range,
/// 1-by-1 (per availability episode) and revenue-accounting rules.
Status AuditSimResult(const Instance& instance, const SimConfig& config,
                      const SimResult& result);

}  // namespace comx

#endif  // COMX_SIM_SIMULATOR_H_
