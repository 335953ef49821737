// Generation-numbered checkpoint store for durable simulation runs.
//
// A checkpoint file (checkpoint-<gen>.ckpt) holds a CRC-framed snapshot of
// the engine's full mutable state (SimEngine::SaveState) plus metadata
// binding it to its run (seed, instance/config digests) and to its place
// in the WAL (next_lsn, durable wal_bytes). Files are written to a staging
// path, fsync'd, and renamed into place, so a complete .ckpt file is
// always internally consistent — a crash mid-write leaves only a torn
// staging file that recovery ignores. The durable driver
// (recovery::DurableRun::Journal, durable_sim.h) writes a checkpoint only
// after the covering WAL commit, so every record a checkpoint claims
// (lsn < next_lsn) is durable whenever the checkpoint is. Runs with
// checkpoint_every_steps <= 0 — every comx_serve shard among them —
// write none and recover from the WAL alone.
//
// Recovery scans generations newest-first and falls back across corrupt or
// torn files (flipped bits fail the CRC, truncations fail the length
// check), loudly: every rejected generation is reported.

#ifndef COMX_RECOVERY_CHECKPOINT_H_
#define COMX_RECOVERY_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "recovery/crash_injector.h"
#include "util/result.h"

namespace comx {
namespace recovery {

inline constexpr char kCheckpointMagic[8] = {'C', 'O', 'M', 'X',
                                             'C', 'K', 'P', '1'};
inline constexpr uint32_t kCheckpointVersion = 1;

struct CheckpointMeta {
  int64_t generation = 0;
  /// First LSN NOT folded into this snapshot; replay starts here.
  uint64_t next_lsn = 0;
  /// Durable WAL bytes at snapshot time (diagnostics only).
  int64_t wal_bytes = 0;
  int64_t step_index = 0;
  uint64_t seed = 0;
  uint64_t instance_digest = 0;
  uint64_t config_digest = 0;
};

std::string CheckpointPath(const std::string& dir, int64_t generation);

/// Serializes meta + state and installs it as `dir`/checkpoint-<gen>.ckpt
/// via staging + fsync + rename. With an armed crash injector the staging
/// write may be cut short: the torn staging file is left behind (never
/// renamed) and DataLoss is returned.
Status WriteCheckpoint(const std::string& dir, const CheckpointMeta& meta,
                       std::string_view state, CrashInjector* crash);

struct LoadedCheckpoint {
  CheckpointMeta meta;
  std::string state;  // SimEngine::SaveState bytes
  int64_t file_bytes = 0;
};

/// Loads and validates one checkpoint file. DataLoss on bad magic/version/
/// CRC/length — anything but a pristine file.
Result<LoadedCheckpoint> LoadCheckpoint(const std::string& path);

struct CheckpointPick {
  /// Newest generation that validated; nullopt when none exists.
  std::optional<LoadedCheckpoint> best;
  /// Newer generations rejected before `best` validated.
  int64_t fallbacks = 0;
  /// One message per rejected generation, newest first.
  std::vector<std::string> rejected;
};

/// Scans `dir` for checkpoint-*.ckpt, newest generation first, and returns
/// the first one that validates. Corrupt newer generations are recorded as
/// fallbacks, not errors; an unreadable directory is an error.
Result<CheckpointPick> FindLatestValidCheckpoint(const std::string& dir);

/// Deletes all but the newest `keep` valid-looking checkpoint files.
Status RemoveOldCheckpoints(const std::string& dir, int keep);

}  // namespace recovery
}  // namespace comx

#endif  // COMX_RECOVERY_CHECKPOINT_H_
