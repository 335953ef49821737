// Per-run step journaling, factored out of the durable driver
// (durable_sim.cc) so every consumer of the WAL writes byte-identical
// record streams: the batch durable run, the recovery replay, and each
// comx_serve shard journaling live traffic into its own wal.log.
//
// The exported helpers are the single source of truth for how an executed
// SimEngine step becomes WAL records — breaker transitions (sorted-map
// diff), two-phase reserve/conflict records, the outer confirm, then the
// terminal arrival/decision record with its state digest. Recovery
// re-executes steps and byte-compares regenerated records against durable
// ones, so any second implementation of this ordering would break the
// `recovery-bit-exact` oracle by construction.

#ifndef COMX_RECOVERY_STEP_JOURNAL_H_
#define COMX_RECOVERY_STEP_JOURNAL_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "recovery/crash_injector.h"
#include "recovery/wal.h"
#include "sim/sim_engine.h"
#include "sim/simulator.h"
#include "util/result.h"

namespace comx {
namespace recovery {

/// Last journaled (state, transitions) per breaker — the diff base that
/// turns the per-step breaker map into change records only.
struct BreakerSeen {
  uint8_t state = 0;
  int64_t transitions = 0;
};
using BreakerSeenMap = std::map<std::pair<PlatformId, PlatformId>, BreakerSeen>;

/// Precomputed run identity, stamped into kRunBegin and every checkpoint.
struct RunIdentity {
  uint64_t seed = 0;
  uint64_t instance_digest = 0;
  uint64_t config_digest = 0;
};

WalRecord MakeRunBegin(const RunIdentity& ident, const Instance& instance,
                       const SimConfig& config);
WalRecord MakeRunEnd(const SimEngine& engine);

/// Journal records for one executed step, in deterministic order: breaker
/// transitions (sorted-map diff), reserve attempts, outer confirm, then the
/// terminal arrival/decision record. Shared verbatim by the live run, the
/// recovery replay, and the serve shards, so regenerated records compare
/// byte-for-byte.
void BuildStepRecords(const SimEngine& engine, const Instance& instance,
                      const StepRecord& step, BreakerSeenMap* breaker_seen,
                      std::vector<WalRecord>* out);

/// WAL writer + breaker diff state for one engine's run: Create() writes
/// the header and kRunBegin, JournalStep() appends one executed step's
/// records, Finish() seals the log with kRunEnd. Shutdown paths that skip
/// Finish() (a signal tearing down comx_serve) MUST call Flush() or the
/// buffered group-commit tail is lost with the process.
class StepJournal {
 public:
  static Result<std::unique_ptr<StepJournal>> Create(
      const std::string& path, const WalWriterOptions& options,
      const Instance& instance, const SimConfig& config, uint64_t seed,
      CrashInjector* crash);

  /// Appends the records of one executed step (engine already stepped).
  Status JournalStep(const SimEngine& engine, const StepRecord& step);

  /// Commits the buffered tail without sealing the log (shutdown path);
  /// returns once every journaled record is durable.
  Status Flush();

  /// Appends kRunEnd and closes the log; returns once it is durable. Call
  /// once, after engine.Done() and before engine.Finish(), which moves out
  /// the running totals kRunEnd records.
  Status Finish(const SimEngine& engine);

  const WalWriter& wal() const { return *wal_; }

 private:
  StepJournal(std::unique_ptr<WalWriter> wal, const Instance& instance)
      : wal_(std::move(wal)), instance_(&instance) {}

  std::unique_ptr<WalWriter> wal_;
  const Instance* instance_;
  BreakerSeenMap breaker_seen_;
  std::vector<WalRecord> scratch_;
};

}  // namespace recovery
}  // namespace comx

#endif  // COMX_RECOVERY_STEP_JOURNAL_H_
