// Small measurement helpers shared by the benchmark workloads: a monotonic
// clock, exact order statistics over raw samples, the metric catalogs, and
// the result line.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNanos();

/// Wall time of a fixed floating-point dependency chain (libm exp and
/// log1p), 60-75 ms on a 2-3 GHz x86 core. It touches no memory, so its
/// speed follows only how fast the host runs this core at the moment.
int64_t CalibrationNanos();

/// In-process timings are reported at this calibration time: each is
/// scaled by kCalibrationReferenceNanos / (the run's fastest
/// CalibrationNanos()). A shared host slows whole minutes of a run by up
/// to 70%; the calibration slows with it when the core runs slower, but
/// not when other tenants contend for caches or memory.
inline constexpr double kCalibrationReferenceNanos = 60e6;

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 for no samples.
/// Takes a copy so callers can reuse their sample vectors.
double Quantile(std::vector<double> samples, double q);

double Mean(const std::vector<double>& samples);
double Sum(const std::vector<double>& samples);

/// Median of a few repeated measurements (set-up times).
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, in output order. Each workload measures all of
/// them (BENCHMARK.json lists the same names).
const std::vector<MetricSpec>& EndToEndCatalog();

/// Every per-layer metric, in output order. A layer that does no work on a
/// workload reports 0 there.
const std::vector<MetricSpec>& PerLayerCatalog();

/// What one workload run reports: the correctness verdict, the operation
/// counts of the result line, and both metric families by name. Only one
/// family is printed, selected by --trace.
struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  /// Records a failed check on stderr and marks the run incorrect.
  void Fail(const std::string& why);
};

/// The final stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}} with the catalog's names in
/// catalog order. Values keep every digit (%.17g). A name the workload set
/// but the catalog lacks, or an end-to-end metric it did not set, marks the
/// report incorrect.
std::string ResultLine(RunReport* report, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
