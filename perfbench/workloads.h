// The three benchmark workloads and the decorator self-test.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "stats.h"

namespace perfbench {

/// Matcher and acceptance RNG seed of every run. --seed only varies the
/// instance: RamCOM draws its threshold exponent from this seed, and a
/// per-run draw would switch engine_ramcom between regimes about 8x apart
/// in cost and 15% apart in revenue.
inline constexpr uint64_t kEngineSeed = 1;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Minimum measured replay time (in-process workloads repeat whole
  /// replays until it is reached).
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (instance CSVs, WALs, spans).
  std::string work_dir;
  /// The comx_serve binary built from this checkout.
  std::string serve_bin;
};

/// Offered mean event rates (events/s) of the serve workload's open-loop
/// steps, ascending. The nominal rate sits below the knee and is run
/// kServeNominalPasses times (fresh server each), because one pass's tail
/// depends on a handful of multi-millisecond stalls. The top rate is far
/// past the service's sustained throughput, so its backlog always grows.
inline constexpr int kServeRates[] = {6000, 12000, 192000};
inline constexpr int kServeNominalRate = 6000;
inline constexpr int kServeNominalPasses = 4;
/// capacity_qps is the highest offered rate whose decision p99 and drain
/// tail (last due -> last reply; a growing backlog shows here) both stay
/// within this limit. The limit sits well above the p99 that host noise
/// gives the 12k step on a shared 4-vCPU machine (up to ~300 ms), so the
/// verdict does not flip from run to run.
inline constexpr double kServeCapacityP99LimitUs = 500000.0;

/// engine_ramcom and batch_w30: SimEngine driven in-process.
void RunEngineWorkload(const RunArgs& args, RunReport* report);

/// serve_demcom_wal: comx_serve spawned as a child, driven over TCP.
void RunServeWorkload(const RunArgs& args, RunReport* report);

/// Decorated and undecorated runs of TOTA/DemCOM/RamCOM on several seeds
/// are bit-identical (revenue, every assignment). Logs the first mismatch.
bool ProbesAreTransparent();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
