// Benchmark runner. perfbench/run.py builds it and invokes
//
//   comx_perfbench --workload W --seed N --seconds S --trace 0|1
//                  --work-dir DIR --serve-bin PATH
//   comx_perfbench --selftest     (layer probes are transparent)
//   comx_perfbench --catalog      (metric names and units, one per line)
//
// Progress and diagnostics go to stderr; the last stdout line is the JSON
// result. Exit status 0 only when every correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace {

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

int Usage() {
  std::fprintf(stderr,
               "usage: comx_perfbench --workload engine_ramcom|"
               "serve_demcom_wal|batch_w30 --seed N --seconds S --trace 0|1 "
               "--work-dir DIR --serve-bin PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (HasFlag(argc, argv, "--selftest")) {
    return ProbesAreTransparent() ? 0 : 1;
  }
  if (HasFlag(argc, argv, "--catalog")) {
    for (const MetricSpec& m : EndToEndCatalog()) {
      std::printf("end_to_end %s %s\n", m.name, m.unit);
    }
    for (const MetricSpec& m : PerLayerCatalog()) {
      std::printf("per_layer %s %s\n", m.name, m.unit);
    }
    return 0;
  }
  const char* workload = FlagValue(argc, argv, "--workload");
  const char* seed = FlagValue(argc, argv, "--seed");
  const char* seconds = FlagValue(argc, argv, "--seconds");
  const char* trace = FlagValue(argc, argv, "--trace");
  const char* work_dir = FlagValue(argc, argv, "--work-dir");
  const char* serve_bin = FlagValue(argc, argv, "--serve-bin");
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      trace == nullptr || work_dir == nullptr || serve_bin == nullptr) {
    return Usage();
  }
  RunArgs args;
  args.workload = workload;
  args.seed = std::strtoull(seed, nullptr, 10);
  args.seconds = std::atof(seconds);
  args.trace = std::strcmp(trace, "1") == 0;
  args.work_dir = work_dir;
  args.serve_bin = serve_bin;

  RunReport report;
  if (args.workload == "engine_ramcom" || args.workload == "batch_w30") {
    RunEngineWorkload(args, &report);
  } else if (args.workload == "serve_demcom_wal") {
    RunServeWorkload(args, &report);
  } else {
    return Usage();
  }
  if (report.attempted < 1) report.Fail("no operation was attempted");
  const std::string line = ResultLine(&report, args.trace);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
