// The one replay of a run's assignment log against the paper's four hard
// constraints (time, 1-by-1, invariable, range; Section II) and the Eq. 1
// revenue accounting. It rebuilds every worker's availability, location
// and busy horizon from the instance alone, so it trusts nothing the
// simulator kept. Eq. 1 is checked bitwise: each revenue is recomputed
// from (v_r, payment) with the simulator's own operation, and the totals
// are re-accumulated in the simulator's order, so even a one-ulp drift is
// a violation. Only the range and time comparisons allow 1e-9.
//
// AuditSimResult (sim/simulator.h) reports the first violation; the
// check/ harness starts its constraint oracles from the whole list.

#ifndef COMX_SIM_AUDIT_H_
#define COMX_SIM_AUDIT_H_

#include <string>
#include <vector>

#include "model/instance.h"
#include "sim/simulator.h"

namespace comx {

/// One broken rule. `oracle` is a stable slug (listed in TESTING.md);
/// `detail` pinpoints the offending entity.
struct AuditViolation {
  std::string oracle;
  std::string detail;
};

/// Replays `result.matching` in log order under `config`'s physics and
/// returns every violation in the order found: per assignment, then the
/// totals and the per-platform metric identities. An assignment naming an
/// unknown request or worker ends the replay.
std::vector<AuditViolation> AuditAssignments(const Instance& instance,
                                             const SimConfig& config,
                                             const SimResult& result);

}  // namespace comx

#endif  // COMX_SIM_AUDIT_H_
