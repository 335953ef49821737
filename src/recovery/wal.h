// Write-ahead log for durable simulation runs. Its one writer in src/ is
// the durable driver, recovery::DurableRun (durable_sim.h), which every
// WAL producer goes through: durable runs, recovery and comx_serve shards.
//
// File layout: a fixed header (magic + version), then a stream of frames
//   [u32 payload_len][u32 masked crc32c(payload)][payload]
// where payload = [u8 type][u64 lsn][type-specific body], all little-endian
// via util/binio.h. The CRC is masked (crc32c.h) so a frame of zeros never
// validates. LSNs are assigned densely (0, 1, 2, ...) by the writer.
//
// The writer group-commits through a two-batch pipeline (the flush
// pipelining of Aether, Johnson et al., VLDB 2010). Frames accumulate in
// the active batch; when either threshold trips (or on Commit()) the batch
// is *sealed* and handed to the writer's flusher thread, which writes +
// fsyncs sealed batches strictly in seal order while the appender keeps
// going. The appender blocks only when the previous sealed batch is still
// in flight at the next seal, so at most two batches are held in memory.
// Seal points depend only on record counts and sizes, never on timing, so
// the file bytes, commits(), commit_offsets() and every crash-injection
// offset are deterministic.
//
// A record is durable only after the fsync that covers it. Commit(),
// Flush() and Close() return only once every appended record is durable,
// so DurableRun can order every externally visible effect (checkpoint
// writes, run completion) after the covering Commit().
//
// Effects published before Commit() returns are published before they are
// durable. comx_serve replies as soon as a step is done, so its replies
// may leave before their records are on disk; a step that seals a batch
// does not wait for that batch's fsync. A kill can therefore lose up to
// two batches (the one in flight and the one filling). Recovery
// re-executes from any durable prefix, so the lost steps are re-derived
// bit for bit.
//
// The reader is crash-tolerant by construction: a scan stops at the first
// frame that is incomplete or fails its CRC and reports everything before
// it. The tail is then classified against *step-boundary* record types —
// records that end a simulation step. A valid prefix that ends mid-step
// (e.g. a reserve journaled, the covering decision lost) is truncated back
// to the last boundary; dangling successful reserves in the discarded
// fragment are the recovered run's in-flight two-phase commits, resolved
// by deterministic re-execution.

#ifndef COMX_RECOVERY_WAL_H_
#define COMX_RECOVERY_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "recovery/crash_injector.h"
#include "sim/sim_engine.h"
#include "util/binio.h"
#include "util/result.h"
#include "util/timer.h"

namespace comx {
namespace obs {
class LatencyHistogram;
}  // namespace obs

namespace recovery {

/// First 8 file bytes, "COMXWAL1" in file order.
inline constexpr char kWalMagic[8] = {'C', 'O', 'M', 'X', 'W', 'A', 'L', '1'};
inline constexpr uint32_t kWalVersion = 1;
/// magic(8) + version(4) + reserved(4).
inline constexpr int64_t kWalHeaderBytes = 16;
/// Per-frame framing overhead: len(4) + masked crc(4).
inline constexpr int64_t kWalFrameOverhead = 8;

enum class WalRecordType : uint8_t {
  kRunBegin = 1,       // run identity: seed, digests, platform count
  kArrival = 2,        // worker (re-)entered the pool
  kOuterReserve = 3,   // two-phase commit: reserve succeeded
  kOuterConflict = 4,  // two-phase commit: reserve refused (stale view)
  kOuterConfirm = 5,   // two-phase commit: confirm of the booked worker
  kBreakerState = 6,   // circuit breaker changed state this step
  kDecision = 7,       // request decided (terminal record of its step)
  kCheckpointMark = 8, // checkpoint generation became durable
  kRecoveryMark = 9,   // a recovery resumed the run here
  kRunEnd = 10,        // run completed; closing totals
};

const char* WalRecordTypeName(WalRecordType type);

/// True for record types that end a consistent unit of work — a torn tail
/// is truncated back to the last such record. Reserve/conflict/confirm/
/// breaker records are interior to their step and never a valid stopping
/// point.
bool IsStepBoundary(WalRecordType type);

/// One decoded WAL record: a tagged union over plain fields. Only the
/// fields of the active `type` are meaningful (the rest stay defaulted).
struct WalRecord {
  WalRecordType type = WalRecordType::kRunBegin;
  uint64_t lsn = 0;

  // kRunBegin / kRunEnd
  uint64_t seed = 0;
  int32_t platform_count = 0;
  bool has_fault_plan = false;
  uint64_t instance_digest = 0;
  uint64_t config_digest = 0;
  double total_revenue = 0.0;   // kRunEnd
  int64_t assignments = 0;      // kRunEnd

  // Step-scoped records (all types except kRunBegin/kRunEnd)
  int64_t step = -1;

  // kArrival / kDecision: the engine's account of the step. For kDecision
  // `step_record.reserves` is always empty here — reserve attempts are
  // journaled as their own kOuterReserve / kOuterConflict records.
  StepRecord step_record;
  uint64_t state_digest = 0;  // kDecision: engine digest after the step

  // kOuterReserve / kOuterConflict / kOuterConfirm
  RequestId request = kInvalidId;
  PlatformId partner = -1;
  WorkerId worker = kInvalidId;

  // kBreakerState
  PlatformId observer = -1;
  uint8_t breaker_state = 0;
  int64_t transitions = 0;

  // kCheckpointMark
  int64_t generation = 0;

  // kRecoveryMark
  int64_t resumed_step = -1;
  int64_t inflight_reserves = 0;
};

/// Serializes `rec` into the frame payload (type + lsn + body). When
/// `for_compare` is true the lsn field is encoded as zero: recovery
/// compares regenerated records against stored ones with lsn neutralized,
/// because informational mark records shift lsn assignment without
/// affecting simulation state.
std::string EncodeWalPayload(const WalRecord& rec, bool for_compare = false);

/// Decodes a frame payload. DataLoss on malformed/truncated bodies or an
/// unknown record type.
Status DecodeWalPayload(std::string_view payload, WalRecord* rec);

struct WalWriterOptions {
  /// Seal the batch when this many records are buffered (<=1 seals every
  /// append).
  int64_t group_commit_records = 32;
  /// ... or when the buffered frames reach this many bytes.
  int64_t group_commit_bytes = 32 * 1024;
};

/// The process-wide `comx_recovery_wal_durability_lag_ns` histogram. Each
/// fsync'd batch adds one sample: the time from the batch's first append
/// to the end of its fsync, i.e. the worst durability lag of any record in
/// the batch. Recorded only while obs collection is on.
obs::LatencyHistogram* WalDurabilityLagHistogram();

/// Append-only WAL writer with a pipelined group commit (see the file
/// comment). One thread at a time may call the public methods; the writer
/// owns one flusher thread, joined by Close() and the destructor.
class WalWriter {
 public:
  /// Creates/truncates `path` and writes the header. `crash` may be null;
  /// it is borrowed and must outlive the writer.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   const WalWriterOptions& options,
                                                   CrashInjector* crash);

  /// Reopens an existing WAL for append after recovery: truncates the file
  /// to `durable_bytes` (discarding a torn or mid-step tail) and resumes
  /// the LSN sequence at `next_lsn`.
  static Result<std::unique_ptr<WalWriter>> OpenForAppend(
      const std::string& path, const WalWriterOptions& options,
      int64_t durable_bytes, uint64_t next_lsn, CrashInjector* crash);

  /// Joins the flusher. A sealed batch still lands; the unsealed tail is
  /// dropped (see Flush()).
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Assigns `rec->lsn`, frames and buffers it; seals the batch when a
  /// group-commit threshold trips. DataLoss when the crash injector fires
  /// (the torn prefix is on disk by then); a write or fsync error of an
  /// earlier batch is sticky and returned here.
  Status Append(WalRecord* rec);

  /// Seals the buffered frames (if any) and waits until every appended
  /// record is durable.
  Status Commit();

  /// Commit() under the name abnormal shutdown paths must call. The
  /// destructor deliberately drops the unsealed tail (it cannot report a
  /// torn write), so an exit path that skips Close()/the normal run end —
  /// comx_serve tearing down on SIGTERM is the canonical one — must
  /// Flush() first or up to a full group-commit batch of journaled steps
  /// is silently lost.
  Status Flush() { return Commit(); }

  /// Commit() + join the flusher + close the descriptor. Further appends
  /// are errors.
  Status Close();

  /// Bytes durably on disk (header included): bytes whose fsync has
  /// finished. Trails the last seal by up to one batch until Commit()
  /// returns. Safe to read from any thread.
  int64_t durable_bytes() const {
    return durable_bytes_.load();
  }
  /// Framed bytes buffered but not yet sealed — nonzero at destruction
  /// means records were lost (see Flush()).
  int64_t buffered_bytes() const {
    return static_cast<int64_t>(active_.bytes.size());
  }
  /// LSN the next Append() will assign.
  uint64_t next_lsn() const { return next_lsn_; }
  int64_t records_appended() const { return records_appended_; }
  /// Batches sealed so far (a torn batch is not counted).
  int64_t commits() const { return commits_; }
  /// File offset at the end of each sealed batch, in order — the
  /// group-commit boundaries, known at seal time, before the fsync. Once
  /// Commit() returns the last entry equals durable_bytes(). A crash point
  /// at one of these offsets models a kill between batch fill and fsync:
  /// the next batch is fully buffered and fully lost
  /// (tools/crash_matrix --boundaries).
  const std::vector<int64_t>& commit_offsets() const {
    return commit_offsets_;
  }

 private:
  /// Framed bytes plus the time their first frame was appended.
  struct Batch {
    std::string bytes;
    Stopwatch age;
  };

  WalWriter(int fd, const WalWriterOptions& options, int64_t durable_bytes,
            uint64_t next_lsn, CrashInjector* crash);

  /// Fixes the active batch's durable prefix (crash injection), hands it
  /// to the flusher and, for a torn batch, waits for it to land.
  Status Seal();
  /// Blocks until no sealed batch is in flight; returns the sticky error.
  Status WaitDurable();
  void StopFlusher();
  void FlushLoop();
  /// write + fsync of one sealed batch (flusher thread).
  Status WriteBatch(const std::string& bytes);

  // Appending thread only.
  int fd_ = -1;
  WalWriterOptions options_;
  CrashInjector* crash_ = nullptr;  // borrowed, may be null
  Batch active_;                    // framed, unsealed records
  int64_t buffered_records_ = 0;
  int64_t sealed_bytes_ = 0;        // file offset after the last seal
  uint64_t next_lsn_ = 0;
  int64_t records_appended_ = 0;
  int64_t commits_ = 0;
  std::vector<int64_t> commit_offsets_;
  bool dead_ = false;  // injected crash fired; all writes refused

  // Shared with the flusher. `flushing_` belongs to the flusher while
  // `in_flight_` is set and to the appender (under `mu_`) otherwise.
  std::mutex mu_;
  std::condition_variable cv_;
  Batch flushing_;
  bool in_flight_ = false;
  bool stop_ = false;
  Status error_;                      // sticky write/fsync error
  std::atomic<bool> failed_{false};   // error_ is set (lock-free check)
  std::atomic<int64_t> durable_bytes_{0};
  std::thread flusher_;
};

/// Result of scanning a WAL file front to back.
struct WalScan {
  /// Every frame that validated, in LSN order.
  std::vector<WalRecord> records;
  /// Raw payload bytes per record (same indexing) — recovery byte-compares
  /// regenerated records against these.
  std::vector<std::string> payloads;
  /// File offset just past the last valid frame.
  int64_t valid_bytes = 0;
  /// File size at scan time.
  int64_t file_bytes = 0;
  /// True when bytes past `valid_bytes` exist but do not validate (torn
  /// final write, or mid-file corruption — indistinguishable by design).
  bool torn_tail = false;
  /// True when the file was too short to hold a complete header (a crash
  /// inside the very first commit). Scan is empty; not an error.
  bool torn_header = false;
  std::string tail_warning;

  /// Prefix consistent at step granularity: index just past the last
  /// step-boundary record, the file offset of that cut, and the number of
  /// successful kOuterReserve records in the discarded fragment (in-flight
  /// two-phase commits to resolve by re-execution).
  size_t boundary_records = 0;
  int64_t boundary_bytes = 0;
  int64_t dangling_reserves = 0;
};

/// Scans `path`. IoError when unreadable; DataLoss when the header is
/// complete but wrong (not our magic / unsupported version). Torn tails
/// and torn headers are reported in the result, not as errors.
Result<WalScan> ScanWal(const std::string& path);

}  // namespace recovery
}  // namespace comx

#endif  // COMX_RECOVERY_WAL_H_
