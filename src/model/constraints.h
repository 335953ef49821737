// Static feasibility between one worker and one request: the time and range
// constraints of Definition 2.6, with Euclidean distance. No matcher calls
// these predicates; the simulator's waiting lists and grid scans apply the
// two rules themselves (under any DistanceMetric) and also enforce the
// 1-by-1 and invariable constraints. sim/audit.h replays a finished run
// against all four. Callers here are the pricing ablation bench and the
// tests' fake matcher view.

#ifndef COMX_MODEL_CONSTRAINTS_H_
#define COMX_MODEL_CONSTRAINTS_H_

#include "model/request.h"
#include "model/worker.h"

namespace comx {

/// Why a pairing is infeasible (or kFeasible).
enum class Feasibility : int8_t {
  kFeasible = 0,
  /// Worker arrived after the request (time constraint).
  kViolatesTime = 1,
  /// Request is outside the worker's service radius (range constraint).
  kViolatesRange = 2,
};

/// Checks the time and range constraints for worker w serving request r.
Feasibility CheckFeasibility(const Worker& w, const Request& r);

/// Convenience: CheckFeasibility(...) == kFeasible.
bool CanServe(const Worker& w, const Request& r);

}  // namespace comx

#endif  // COMX_MODEL_CONSTRAINTS_H_
