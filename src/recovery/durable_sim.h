// The durable driver: one engine's run under a write-ahead log plus
// optional periodic checkpoints, and the recovery of a killed run to a
// state bit-exact with the uninterrupted one. Every WAL producer goes
// through recovery::DurableRun — RunDurableSimulation, RecoverAndResume
// and each comx_serve shard — so all of them write the same records for
// the same steps.
//
// Durability protocol, in order, for every step:
//   1. the caller's engine executes the step;
//   2. DurableRun::Journal appends the step's WAL records (arrival, or
//      breaker transitions + two-phase reserve/conflict/confirm +
//      decision-with-digest), group-committed by the writer;
//   3. on the checkpoint cadence, Journal commits the WAL FIRST and only
//      then stages + renames the engine snapshot into place — so a
//      checkpoint's next_lsn never points past durable records.
// DurableRun::Finish appends kRunEnd and closes the log before it
// finishes the engine, whose Finish() moves the running totals out.
//
// Recovery leans on the simulation being deterministic: rather than
// applying logged effects, DurableRun::Recover restores the newest valid
// checkpoint (falling back across corrupt generations) and RE-EXECUTES the
// remaining steps, byte-comparing every regenerated WAL record against the
// durable one at the same position. Any divergence is a DataLoss error —
// the `recovery-bit-exact` oracle. A torn tail is truncated back to the
// last step-boundary record; successful reserves in the discarded fragment
// are the in-flight two-phase commits, re-resolved by re-execution so
// Eq. 1 revenue is never double-paid (the `no-double-commit-after-crash`
// oracle checks the final WAL).

#ifndef COMX_RECOVERY_DURABLE_SIM_H_
#define COMX_RECOVERY_DURABLE_SIM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "recovery/checkpoint.h"
#include "recovery/crash_injector.h"
#include "recovery/wal.h"
#include "sim/sim_engine.h"
#include "sim/simulator.h"
#include "util/result.h"

namespace comx {
namespace recovery {

struct DurableOptions {
  /// Directory holding wal.log and checkpoint-*.ckpt. Must exist.
  std::string dir;
  /// Snapshot cadence in steps; <= 0 disables checkpoints (WAL only).
  int64_t checkpoint_every_steps = 512;
  /// Checkpoint generations retained (>= 1).
  int keep_checkpoints = 2;
  WalWriterOptions wal;
  /// Optional deterministic crash injection; borrowed, may be null.
  CrashInjector* crash = nullptr;
};

std::string WalPath(const std::string& dir);

/// CRC32C digest over every worker, request, and event of the instance —
/// binds WAL + checkpoints to their exact input data.
uint64_t InstanceDigest(const Instance& instance);

/// Digest over the scalar simulation knobs (pointer members contribute
/// only their presence — a metric or fault plan cannot be hashed by value).
uint64_t SimConfigDigest(const SimConfig& config);

struct DurableRunStats {
  int64_t wal_records = 0;
  int64_t wal_commits = 0;
  int64_t wal_bytes = 0;
  /// Durable byte offset after each group commit, in order — the
  /// boundaries tools/crash_matrix targets for its "killed between batch
  /// fill and fsync" scenario.
  std::vector<int64_t> wal_commit_offsets;
  int64_t checkpoints = 0;
  /// (generation, file bytes) per checkpoint written — the CrashProfile
  /// input for tools/crash_matrix.
  std::vector<CrashProfile::CheckpointSpan> checkpoint_spans;

  // Recovery-side accounting (zero for plain durable runs):
  int64_t recovered_generation = -1;  // -1 = recovered from WAL alone
  int64_t replayed_records = 0;       // durable records verified by replay
  int64_t discarded_bytes = 0;        // torn / mid-step tail truncated
  int64_t inflight_reserves_resolved = 0;
  int64_t checkpoint_fallbacks = 0;
  bool torn_tail = false;
};

struct DurableOutcome {
  /// Valid only when !crashed.
  SimResult result;
  /// True when the injected crash fired before the run completed; the
  /// run's files are left exactly as the "crash" left them.
  bool crashed = false;
  DurableRunStats stats;
};

/// One engine's durable run. The caller owns and steps the engine; the
/// driver owns the WAL writer, the checkpoint cadence and the breaker diff
/// base. Use: Start (fresh log) or Recover (resume a log), then Journal
/// after every engine step, then Finish once the engine is Done(). A
/// shutdown path that skips Finish (comx_serve tearing down on a signal)
/// must call Flush, or the buffered group-commit tail is lost with the
/// process. `instance` and `config` must outlive the run; the engine must
/// have been Init()ed with the same instance, config and seed.
class DurableRun {
 public:
  DurableRun(const Instance& instance, const SimConfig& config, uint64_t seed,
             const DurableOptions& options);

  /// Validates the inputs, creates `options.dir`/wal.log and appends
  /// kRunBegin. With checkpoints on, first probes that every matcher can
  /// save its state. Batch mode is InvalidArgument here and in Recover,
  /// before any file is touched: its window steps carry no per-request
  /// decision records.
  Status Start(const SimEngine& engine);

  /// Restores the newest valid checkpoint into `engine`, re-executes the
  /// durable WAL tail with per-record byte verification, truncates the torn
  /// fragment and appends kRecoveryMark. `engine` then stands where the
  /// durable log ends. DataLoss on divergence or unusable files.
  Status Recover(SimEngine* engine);

  /// Appends the records of one step `engine` just executed; on the
  /// checkpoint cadence commits the WAL, then writes a checkpoint.
  Status Journal(const SimEngine& engine, const StepRecord& step);

  /// Makes every journaled record durable without ending the log.
  Status Flush();

  /// Appends kRunEnd, closes the log and only then finishes `engine`
  /// (which must be Done()). Returns once the log is durable.
  Result<SimResult> Finish(SimEngine* engine);

  /// True when `status` is the armed crash injector firing.
  bool Crashed(const Status& status) const;

  /// Accounting so far, WAL counters included.
  DurableRunStats stats() const;

 private:
  Status Validate() const;
  /// Creates wal.log and appends kRunBegin (the only path that does).
  Status CreateLog();
  WalRecord RunBegin() const;
  /// Fills `records_` with one executed step's records, in deterministic
  /// order: breaker transitions (sorted-map diff), reserve attempts, outer
  /// confirm, then the terminal arrival/decision record. Journal appends
  /// them; Recover byte-compares them against the durable ones.
  void BuildStepRecords(const SimEngine& engine, const StepRecord& step);
  /// Commits the WAL, then writes the next checkpoint generation.
  Status Checkpoint(const SimEngine& engine);

  const Instance* instance_;
  const SimConfig* config_;
  DurableOptions options_;
  uint64_t seed_;
  uint64_t instance_digest_;
  uint64_t config_digest_;
  std::unique_ptr<WalWriter> wal_;
  /// Last journaled (state, transitions) per breaker — the diff base that
  /// turns the per-step breaker map into change records only.
  std::map<std::pair<PlatformId, PlatformId>, std::pair<uint8_t, int64_t>>
      breaker_seen_;
  std::vector<WalRecord> records_;
  int64_t generation_ = 0;  // newest checkpoint generation on disk
  bool ended_ = false;      // the durable log already holds kRunEnd
  DurableRunStats stats_;
};

/// Runs the full simulation durably in `options.dir`: Start, then Journal
/// every step, then Finish. With an armed crash injector the run may come
/// back `crashed` instead of completing.
Result<DurableOutcome> RunDurableSimulation(
    const Instance& instance, const std::vector<OnlineMatcher*>& matchers,
    const SimConfig& config, uint64_t seed, const DurableOptions& options);

/// Recovers a crashed (or completed) durable run from `options.dir` and
/// resumes it to completion: DurableRun::Recover, then Journal every
/// remaining step, then Finish. The returned result is bit-exact with the
/// uninterrupted run's. DataLoss on verification divergence or unusable
/// files.
Result<DurableOutcome> RecoverAndResume(const Instance& instance,
                                        const std::vector<OnlineMatcher*>& matchers,
                                        const SimConfig& config, uint64_t seed,
                                        const DurableOptions& options);

/// Reconstructs the run's decision trace (obs/trace.h JSONL, one decision
/// line per kDecision record plus the summary) from the WAL alone. Two WALs
/// of equivalent runs rebuild byte-identical trace files; a live-traced
/// plain run differs only in per-event latency_ns (the rebuild writes -1,
/// and durable runs never measure response time anyway).
Status RebuildTraceFromWal(const std::string& wal_path,
                           const std::string& trace_path);

}  // namespace recovery
}  // namespace comx

#endif  // COMX_RECOVERY_DURABLE_SIM_H_
