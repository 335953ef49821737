#include "sim/simulator.h"

#include <vector>

#include "sim/audit.h"
#include "sim/sim_engine.h"

namespace comx {

double ServiceDurationSeconds(const SimConfig& config, double pickup_km,
                              double value) {
  const double travel_s = pickup_km / config.speed_kmh * 3600.0;
  return travel_s + config.base_service_seconds +
         config.service_seconds_per_value * value;
}

// The historical monolithic loop now lives in sim/sim_engine.{h,cc} as a
// resumable Init/Step/Finish engine (the durability seam); this wrapper
// preserves the original single-call contract bit-exactly.
Result<SimResult> RunSimulation(const Instance& instance,
                                const std::vector<OnlineMatcher*>& matchers,
                                const SimConfig& config, uint64_t seed) {
  SimEngine engine;
  COMX_RETURN_IF_ERROR(engine.Init(instance, matchers, config, seed));
  while (!engine.Done()) {
    COMX_RETURN_IF_ERROR(engine.Step(nullptr));
  }
  return engine.Finish();
}

Status AuditSimResult(const Instance& instance, const SimConfig& config,
                      const SimResult& result) {
  const std::vector<AuditViolation> violations =
      AuditAssignments(instance, config, result);
  if (violations.empty()) return Status::OK();
  return Status::FailedPrecondition(violations.front().oracle + ": " +
                                    violations.front().detail);
}

}  // namespace comx
