// comx_fuzz — property-based correctness fuzzer for the COM matchers.
//
// Draws seeded random scenarios (src/check/scenario_gen.h), runs TOTA,
// DemCOM, and RamCOM over each, and checks every oracle in
// src/check/oracles.h: the paper's four hard constraints, bit-exact Eq. 1
// revenue accounting, per-policy contracts, and the OFF / brute-force
// differentials. On a violation the instance is shrunk to a minimal repro
// and written as a CSV dataset next to the exact comx_cli replay command.
//
// Usage:
//   comx_fuzz [--runs N] [--seed S] [--time-budget SECONDS]
//             [--repro-dir DIR] [--smoke] [--quiet] [--batch]
//             [--crash-check-every N] [--crash-check-dir DIR]
//
// --batch: additionally run the micro-batch dispatch mode (SimConfig::
// batch_mode with the scenario's drawn window/algo) on every fault-free
// scenario — covering the batch-window-never-violates-deadline oracle and
// the batch OFF upper bound. Off by default so budgets are unchanged.
//
// --crash-check-every N: every Nth scenario additionally runs a durable
// baseline + seeded crash + recovery and checks the recovery oracles
// (recovery-bit-exact, no-double-commit-after-crash); artifacts land under
// --crash-check-dir (a mkdtemp directory when unset). --smoke enables it
// at N=16.
//
//   --smoke: the CI configuration — fixed seed, 200 scenarios, ~5 s.
//            Exit 0 iff no oracle fired. Stage 4 of tools/check.sh runs
//            it as --smoke --batch --crash-check-every 5.
//
// Exit codes: 0 = clean, 1 = violations found, 2 = usage/harness error.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <string>

#include "check/fuzz_driver.h"
#include "util/signal_guard.h"

namespace comx {
namespace {

const char* FlagValue(int argc, char** argv, const char* flag) {
  const size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return i + 1 < argc ? argv[i + 1] : nullptr;
    }
    if (std::strncmp(argv[i], flag, flag_len) == 0 &&
        argv[i][flag_len] == '=') {
      return argv[i] + flag_len + 1;
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

int Main(int argc, char** argv) {
  check::FuzzOptions options;
  options.log = HasFlag(argc, argv, "--quiet") ? nullptr : stderr;
  if (HasFlag(argc, argv, "--smoke")) {
    // The CI contract: fixed seeds, 200 scenarios across every matcher,
    // roughly five seconds. Deliberately no time budget — a smoke run must
    // either finish its scenarios or fail loudly.
    options.base_seed = 2020;
    options.runs = 200;
    options.time_budget_seconds = 0.0;
    // Crash-recovery coverage rides along: 13 of the 200 scenarios also
    // run the durable crash + recover + oracles experiment.
    options.crash_check_every = 16;
  }
  if (HasFlag(argc, argv, "--batch")) {
    options.include_batch = true;
  }
  if (const char* v = FlagValue(argc, argv, "--runs"); v != nullptr) {
    options.runs = std::atoll(v);
  }
  if (const char* v = FlagValue(argc, argv, "--seed"); v != nullptr) {
    options.base_seed = static_cast<uint64_t>(std::atoll(v));
  }
  if (const char* v = FlagValue(argc, argv, "--time-budget"); v != nullptr) {
    options.time_budget_seconds = std::atof(v);
  }
  if (const char* v = FlagValue(argc, argv, "--repro-dir"); v != nullptr) {
    options.repro_dir = v;
  }
  if (const char* v = FlagValue(argc, argv, "--crash-check-every");
      v != nullptr) {
    options.crash_check_every = std::atoll(v);
  }
  if (const char* v = FlagValue(argc, argv, "--crash-check-dir");
      v != nullptr) {
    options.crash_check_dir = v;
  }
  if (options.crash_check_every > 0 && options.crash_check_dir.empty()) {
    char tmpl[] = "/tmp/comx_fuzz_crash.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "comx_fuzz: mkdtemp failed\n");
      return 2;
    }
    options.crash_check_dir = tmpl;
  }
  if (options.runs <= 0) {
    std::fprintf(stderr, "comx_fuzz: --runs must be >= 1\n");
    return 2;
  }

  auto report = check::RunFuzz(options);
  if (!report.ok()) {
    std::fprintf(stderr, "comx_fuzz: harness error: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }

  std::printf(
      "comx_fuzz: %lld scenarios, %lld matcher runs, %lld OFF upper-bound "
      "checks, %lld brute-force differentials, %lld crash-recovery checks, "
      "%zu violation(s)%s\n",
      static_cast<long long>(report->scenarios_run),
      static_cast<long long>(report->matcher_runs),
      static_cast<long long>(report->differential.off_bounds),
      static_cast<long long>(report->differential.brute_force),
      static_cast<long long>(report->crash_checks),
      report->failures.size(),
      report->time_budget_exhausted ? " [time budget hit]" : "");
  for (const check::FuzzFailure& f : report->failures) {
    std::printf("violation: scenario %llu, matcher %s, shrunk %lld -> %lld "
                "entities\n",
                static_cast<unsigned long long>(f.scenario_index),
                check::MatcherKindName(f.kind),
                static_cast<long long>(f.entities_before),
                static_cast<long long>(f.entities_after));
    for (const check::OracleViolation& v : f.violations) {
      std::printf("  [%s] %s\n", v.oracle.c_str(), v.detail.c_str());
    }
    std::printf("  replay: %s\n", f.replay_command.c_str());
  }
  return report->failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace comx

int main(int argc, char** argv) {
  // SIGINT/SIGTERM flush progress logs and repro files in flight, then
  // exit 128+signo — distinct from the 0/1/2 contract above.
  comx::InstallShutdownGuard();
  comx::RegisterShutdownFlushFile(stderr);
  comx::RegisterShutdownFlushFile(stdout);
  const int rc = comx::Main(argc, argv);
  // The fuzz loop polls the shutdown flag between scenarios and returns a
  // partial report; the 128+signo exit code still wins over 0/1/2.
  if (comx::ShutdownRequested()) return comx::DrainShutdown();
  return rc;
}
