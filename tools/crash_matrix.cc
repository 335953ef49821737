// crash_matrix — deterministic crash/recovery matrix for the durability
// layer (src/recovery/).
//
// Each point of the matrix is one experiment: run a fuzz scenario durably
// to completion (the baseline), re-run it and kill the process model at a
// seeded byte of the durable write stream — mid-record torn WAL writes and
// mid-checkpoint kills included — then recover and assert the recovered
// run is bit-exact with the baseline (metrics, assignment log, rebuilt
// decision trace) and that the final WAL witnesses a safe two-phase commit
// history (see src/check/recovery_oracles.h).
//
// Usage:
//   crash_matrix [--points N] [--scenarios M] [--seed S] [--jobs J]
//                [--checkpoint-every STEPS] [--dir DIR] [--smoke]
//                [--boundaries]
//   crash_matrix --fuzz-seed S --scenario I --algo NAME --crash-seed C
//                [--dir DIR]   (replay one comx_fuzz crash-check failure)
//
//   --smoke: the CI configuration — 24 points over 4 scenarios, every
//            matcher kind, every 4th point a group-commit boundary kill.
//            Stage 7 of tools/check.sh.
//   --boundaries: every point crashes exactly at an interior group-commit
//            boundary ("killed between batch fill and fsync": the full
//            buffered batch is lost and must be re-executed on recovery).
//            A run with fewer than two group commits has no such boundary;
//            its point falls back to the seeded byte-offset draw and is
//            counted in the summary line.
//
// Exit codes: 0 = every point recovered bit-exact, 1 = violations,
// 2 = usage/harness error.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "check/recovery_oracles.h"
#include "exp/sweep_runner.h"
#include "util/string_util.h"

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

struct PointOutcome {
  bool ran = false;
  check::MatcherKind kind = check::MatcherKind::kTota;
  uint64_t scenario_index = 0;
  check::CrashCheckOutcome check;
};

int Main(int argc, char** argv) {
  int64_t points = 100;
  int64_t scenarios = 8;
  uint64_t seed = 2020;
  int jobs = 0;  // hardware concurrency
  int64_t checkpoint_every = 32;
  std::string dir;

  const bool smoke = HasFlag(argc, argv, "--smoke");
  const bool boundaries = HasFlag(argc, argv, "--boundaries");
  if (smoke) {
    points = 24;
    scenarios = 4;
  }
  if (const char* v = FlagValue(argc, argv, "--points")) points = std::atoll(v);
  if (const char* v = FlagValue(argc, argv, "--scenarios")) {
    scenarios = std::atoll(v);
  }
  if (const char* v = FlagValue(argc, argv, "--seed")) {
    seed = static_cast<uint64_t>(std::atoll(v));
  }
  if (const char* v = FlagValue(argc, argv, "--jobs")) jobs = std::atoi(v);
  if (const char* v = FlagValue(argc, argv, "--checkpoint-every")) {
    checkpoint_every = std::atoll(v);
  }
  if (const char* v = FlagValue(argc, argv, "--dir")) dir = v;
  if (dir.empty()) {
    char tmpl[] = "/tmp/comx_crash_matrix.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "crash_matrix: mkdtemp failed\n");
      return 2;
    }
    dir = tmpl;
  }

  // Replay mode: one exact point from a comx_fuzz crash-check failure.
  if (const char* fs = FlagValue(argc, argv, "--fuzz-seed")) {
    const char* sc = FlagValue(argc, argv, "--scenario");
    const char* algo = FlagValue(argc, argv, "--algo");
    const char* cs = FlagValue(argc, argv, "--crash-seed");
    if (sc == nullptr || algo == nullptr || cs == nullptr) {
      std::fprintf(stderr,
                   "crash_matrix: replay needs --scenario, --algo, "
                   "--crash-seed\n");
      return 2;
    }
    check::MatcherKind kind = check::MatcherKind::kTota;
    bool known = false;
    for (check::MatcherKind k : check::kAllMatcherKinds) {
      if (std::strcmp(check::MatcherKindName(k), algo) == 0) {
        kind = k;
        known = true;
      }
    }
    if (!known) {
      std::fprintf(stderr, "crash_matrix: unknown --algo %s\n", algo);
      return 2;
    }
    const check::Scenario scenario = check::DrawScenario(
        static_cast<uint64_t>(std::atoll(fs)),
        static_cast<uint64_t>(std::atoll(sc)));
    auto instance = check::BuildScenarioInstance(scenario);
    if (!instance.ok()) {
      std::fprintf(stderr, "crash_matrix: %s\n",
                   instance.status().ToString().c_str());
      return 2;
    }
    auto outcome = check::RunCrashRecoveryCheck(
        kind, scenario, *instance, dir + "/replay",
        static_cast<uint64_t>(std::atoll(cs)), checkpoint_every);
    if (!outcome.ok()) {
      std::fprintf(stderr, "crash_matrix: %s\n",
                   outcome.status().ToString().c_str());
      return 2;
    }
    std::printf("crash_matrix: replayed %s (artifacts in %s/replay)\n",
                outcome->point.ToString().c_str(), dir.c_str());
    for (const check::OracleViolation& v : outcome->violations) {
      std::printf("  [%s] %s\n", v.oracle.c_str(), v.detail.c_str());
    }
    return outcome->violations.empty() ? 0 : 1;
  }

  if (points <= 0 || scenarios <= 0) {
    std::fprintf(stderr,
                 "crash_matrix: --points and --scenarios must be >= 1\n");
    return 2;
  }

  // The matrix: point j crashes scenario (j % scenarios) under matcher
  // kind (j % 3) at the byte drawn from the independent stream
  // JobSeed(seed, j). Pre-build each scenario's instance once; jobs only
  // read them.
  std::vector<check::Scenario> scen(static_cast<size_t>(scenarios));
  std::vector<Instance> inst;
  inst.reserve(static_cast<size_t>(scenarios));
  for (int64_t s = 0; s < scenarios; ++s) {
    scen[static_cast<size_t>(s)] =
        check::DrawScenario(seed, static_cast<uint64_t>(s));
    auto built = check::BuildScenarioInstance(scen[static_cast<size_t>(s)]);
    if (!built.ok()) {
      std::fprintf(stderr, "crash_matrix: scenario %lld: %s\n",
                   static_cast<long long>(s),
                   built.status().ToString().c_str());
      return 2;
    }
    inst.push_back(std::move(built).value());
  }

  std::vector<PointOutcome> outcomes(static_cast<size_t>(points));
  std::mutex log_mu;
  exp::SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  exp::SweepRunner runner(sweep_options);
  const Status run = runner.Run(
      static_cast<size_t>(points), 1, [&](const exp::SweepJob& job) {
        const size_t j = job.job_index;
        const size_t s = j % static_cast<size_t>(scenarios);
        PointOutcome& out = outcomes[j];
        out.kind = check::kAllMatcherKinds[j % 3];
        out.scenario_index = static_cast<uint64_t>(s);
        const bool at_boundary = boundaries || (smoke && j % 4 == 3);
        auto check_run =
            at_boundary
                ? check::RunBoundaryCrashRecoveryCheck(
                      out.kind, scen[s], inst[s],
                      StrFormat("%s/point_%04zu", dir.c_str(), j),
                      static_cast<uint64_t>(j / scenarios),
                      exp::JobSeed(seed, static_cast<uint64_t>(j)),
                      checkpoint_every)
                : check::RunCrashRecoveryCheck(
                      out.kind, scen[s], inst[s],
                      StrFormat("%s/point_%04zu", dir.c_str(), j),
                      exp::JobSeed(seed, static_cast<uint64_t>(j)),
                      checkpoint_every);
        if (!check_run.ok()) return check_run.status();
        out.check = std::move(check_run).value();
        out.ran = true;
        if (!out.check.violations.empty()) {
          const std::lock_guard<std::mutex> lock(log_mu);
          std::fprintf(stderr, "crash_matrix: point %zu VIOLATION at %s\n",
                       j, out.check.point.ToString().c_str());
        }
        return Status::OK();
      });
  if (!run.ok()) {
    std::fprintf(stderr, "crash_matrix: harness error: %s\n",
                 run.ToString().c_str());
    return 2;
  }

  int64_t wal_points = 0, ckpt_points = 0, torn_tails = 0;
  int64_t from_checkpoint = 0, from_wal_only = 0;
  int64_t replayed = 0, inflight = 0, fallbacks = 0;
  int64_t boundary_fallbacks = 0;
  int64_t violations = 0;
  for (const PointOutcome& out : outcomes) {
    if (!out.ran) continue;
    using Kind = recovery::CrashPoint::Kind;
    if (out.check.point.kind == Kind::kWalOffset) ++wal_points;
    if (out.check.point.kind == Kind::kCheckpoint) ++ckpt_points;
    if (out.check.recovery_stats.torn_tail) ++torn_tails;
    if (out.check.recovery_stats.recovered_generation >= 0) {
      ++from_checkpoint;
    } else {
      ++from_wal_only;
    }
    replayed += out.check.recovery_stats.replayed_records;
    inflight += out.check.recovery_stats.inflight_reserves_resolved;
    fallbacks += out.check.recovery_stats.checkpoint_fallbacks;
    if (out.check.boundary_fallback) ++boundary_fallbacks;
    violations += static_cast<int64_t>(out.check.violations.size());
  }
  std::printf(
      "crash_matrix: %lld points (%lld wal-offset, %lld mid-checkpoint) "
      "over %lld scenarios: %lld torn tails, %lld recovered from "
      "checkpoint, %lld from WAL alone, %lld records replay-verified, "
      "%lld in-flight reserves resolved, %lld checkpoint fallbacks, "
      "%lld boundary points fell back: run had < 2 group commits, "
      "%lld violation(s)\n",
      static_cast<long long>(points), static_cast<long long>(wal_points),
      static_cast<long long>(ckpt_points),
      static_cast<long long>(scenarios), static_cast<long long>(torn_tails),
      static_cast<long long>(from_checkpoint),
      static_cast<long long>(from_wal_only),
      static_cast<long long>(replayed), static_cast<long long>(inflight),
      static_cast<long long>(fallbacks),
      static_cast<long long>(boundary_fallbacks),
      static_cast<long long>(violations));
  for (size_t j = 0; j < outcomes.size(); ++j) {
    const PointOutcome& out = outcomes[j];
    for (const check::OracleViolation& v : out.check.violations) {
      std::printf("point %zu (scenario %llu, %s, %s): [%s] %s\n", j,
                  static_cast<unsigned long long>(out.scenario_index),
                  check::MatcherKindName(out.kind),
                  out.check.point.ToString().c_str(), v.oracle.c_str(),
                  v.detail.c_str());
    }
  }
  if (violations != 0) {
    std::printf("crash_matrix: artifacts kept in %s\n", dir.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace comx

int main(int argc, char** argv) { return comx::Main(argc, argv); }
