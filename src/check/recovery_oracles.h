// Crash-recovery oracles for the correctness harness.
//
// Two slugs extend the oracle family of check/oracles.h:
//
//   `recovery-bit-exact` — a run that crashed and recovered must be
//   indistinguishable from the uninterrupted run: identical metrics and
//   assignment log bit for bit, identical rebuilt decision trace byte for
//   byte, and every replayed WAL record byte-equal to the durable one.
//
//   `no-double-commit-after-crash` — the recovered WAL must witness a safe
//   two-phase commit history: no request decided twice, every outer
//   decision covered by a confirm of its reserve, no successful reserve
//   left dangling, and the closing revenue total equal (bitwise) to the
//   platform-ordered sum of the decision revenues — Eq. 1 is never
//   double-paid across the crash.
//
// RunCrashRecoveryCheck packages the whole experiment: durable baseline,
// seeded crash, recovery, both oracles, trace-rebuild comparison. It is
// shared by the fuzz driver (FuzzOptions::crash_check_every) and
// tools/crash_matrix.

#ifndef COMX_CHECK_RECOVERY_ORACLES_H_
#define COMX_CHECK_RECOVERY_ORACLES_H_

#include <string>
#include <vector>

#include "check/oracles.h"
#include "check/scenario_gen.h"
#include "recovery/durable_sim.h"

namespace comx {
namespace check {

inline constexpr char kRecoveryBitExactOracle[] = "recovery-bit-exact";
inline constexpr char kNoDoubleCommitOracle[] =
    "no-double-commit-after-crash";

/// Scans a final (post-recovery) WAL record stream for two-phase-commit
/// protocol violations (`no-double-commit-after-crash`).
std::vector<OracleViolation> CheckWalCommitProtocol(
    const std::vector<recovery::WalRecord>& records);

/// Field-by-field, bitwise comparison of a recovered run's result against
/// the uninterrupted baseline (`recovery-bit-exact`). Wall-clock and RSS
/// fields are exempt; everything deterministic must match exactly.
std::vector<OracleViolation> CheckRecoveryEquivalence(
    const SimResult& baseline, const SimResult& recovered);

/// One complete crash-recovery experiment for a scenario + matcher kind.
struct CrashCheckOutcome {
  recovery::CrashPoint point;
  std::vector<OracleViolation> violations;
  recovery::DurableRunStats baseline_stats;
  recovery::DurableRunStats recovery_stats;
  /// RunBoundaryCrashRecoveryCheck only: the baseline had no interior
  /// group-commit boundary, so `point` is the seeded byte-offset draw.
  bool boundary_fallback = false;
};

/// Runs the durable baseline in `work_dir`/baseline, draws one crash point
/// from its profile with `crash_seed`, re-runs to the crash in
/// `work_dir`/crashed, recovers, and applies every recovery oracle plus a
/// byte comparison of the two WALs' rebuilt traces. `work_dir` is created
/// if missing and left behind for post-mortems. Errors are harness-level
/// (unwritable directory, crash point that never fired); divergence lands
/// in `violations`.
Result<CrashCheckOutcome> RunCrashRecoveryCheck(
    MatcherKind kind, const Scenario& scenario, const Instance& instance,
    const std::string& work_dir, uint64_t crash_seed,
    int64_t checkpoint_every_steps);

/// Same experiment, but the crash fires exactly at an interior group-commit
/// boundary of the baseline WAL (`boundary_index` modulo the usable
/// boundaries) instead of a random byte. This is the "killed between batch
/// fill and fsync" window: the writer's buffer has accepted a full batch of
/// records but not one byte of it is durable, so recovery must re-execute
/// the ENTIRE lost batch — the scenario that catches a group commit whose
/// shutdown path forgets to flush the buffered tail. A baseline that
/// commits fewer than two batches has no interior boundary; its point
/// falls back to RunCrashRecoveryCheck's draw with `fallback_crash_seed`
/// and the outcome says so (`boundary_fallback`).
Result<CrashCheckOutcome> RunBoundaryCrashRecoveryCheck(
    MatcherKind kind, const Scenario& scenario, const Instance& instance,
    const std::string& work_dir, uint64_t boundary_index,
    uint64_t fallback_crash_seed, int64_t checkpoint_every_steps);

}  // namespace check
}  // namespace comx

#endif  // COMX_CHECK_RECOVERY_ORACLES_H_
