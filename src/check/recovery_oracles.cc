#include "check/recovery_oracles.h"

#include <sys/stat.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "util/string_util.h"

namespace comx {
namespace check {
namespace {

/// Bitwise double equality — the recovery contract is exact replay, so
/// even a ULP of drift (or a -0.0 vs +0.0 flip) is a violation.
bool BitEq(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError(StrFormat("cannot create %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot read %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  std::string bytes;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.append(chunk, n);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IoError("read failed: " + path);
  return bytes;
}

std::vector<OnlineMatcher*> BuildMatchers(
    MatcherKind kind, int32_t platforms,
    std::vector<std::unique_ptr<OnlineMatcher>>* owned) {
  owned->clear();
  std::vector<OnlineMatcher*> raw;
  for (int32_t p = 0; p < platforms; ++p) {
    owned->push_back(MakeMatcher(kind));
    raw.push_back(owned->back().get());
  }
  return raw;
}

}  // namespace

std::vector<OracleViolation> CheckWalCommitProtocol(
    const std::vector<recovery::WalRecord>& records) {
  using recovery::WalRecordType;
  std::vector<OracleViolation> out;
  const auto add = [&out](std::string detail) {
    out.push_back({kNoDoubleCommitOracle, std::move(detail)});
  };

  bool has_fault_plan = false;
  std::map<RequestId, int64_t> decided;
  /// Decision-order revenue accumulation per platform — the engine's own
  /// summation order, so the kRunEnd comparison is legitimately bitwise.
  std::vector<double> platform_revenue;
  int64_t assignments = 0;
  const recovery::WalRecord* run_end = nullptr;

  // Two-phase context of the step currently being read. Interior records
  // (reserve/conflict/confirm/breaker) belong to the next terminal record;
  // a successful reserve that reaches a step boundary unconsumed is a
  // dangling two-phase commit in the *final* WAL — exactly what recovery
  // exists to prevent.
  int64_t ctx_step = -1;
  bool have_reserve = false;
  RequestId reserve_request = kInvalidId;
  WorkerId reserve_worker = kInvalidId;
  bool have_confirm = false;
  RequestId confirm_request = kInvalidId;
  WorkerId confirm_worker = kInvalidId;

  const auto flush_step = [&] {
    if (have_reserve) {
      add(StrFormat("dangling successful reserve in final WAL: step %lld "
                    "request %lld worker %lld has no covering decision",
                    static_cast<long long>(ctx_step),
                    static_cast<long long>(reserve_request),
                    static_cast<long long>(reserve_worker)));
    }
    have_reserve = false;
    have_confirm = false;
    ctx_step = -1;
  };
  const auto enter_step = [&](int64_t step) {
    if (ctx_step != -1 && step != ctx_step) flush_step();
    ctx_step = step;
  };

  for (const recovery::WalRecord& rec : records) {
    switch (rec.type) {
      case WalRecordType::kRunBegin:
        has_fault_plan = rec.has_fault_plan;
        platform_revenue.assign(
            static_cast<size_t>(rec.platform_count > 0 ? rec.platform_count
                                                       : 0),
            0.0);
        break;
      case WalRecordType::kOuterReserve:
        enter_step(rec.step);
        have_reserve = true;
        reserve_request = rec.request;
        reserve_worker = rec.worker;
        break;
      case WalRecordType::kOuterConflict:
      case WalRecordType::kBreakerState:
        enter_step(rec.step);
        break;
      case WalRecordType::kOuterConfirm:
        enter_step(rec.step);
        have_confirm = true;
        confirm_request = rec.request;
        confirm_worker = rec.worker;
        break;
      case WalRecordType::kDecision: {
        enter_step(rec.step);
        const StepRecord& s = rec.step_record;
        if (++decided[s.request] == 2) {
          add(StrFormat("request %lld decided more than once (revenue "
                        "double-commit) at step %lld",
                        static_cast<long long>(s.request),
                        static_cast<long long>(rec.step)));
        }
        if (s.outcome != 0) ++assignments;
        if (s.outcome == 2) {  // outer
          if (has_fault_plan &&
              (!have_confirm || confirm_request != s.request ||
               confirm_worker != s.worker)) {
            add(StrFormat("outer decision for request %lld worker %lld at "
                          "step %lld lacks a matching confirm",
                          static_cast<long long>(s.request),
                          static_cast<long long>(s.worker),
                          static_cast<long long>(rec.step)));
          }
          if (have_reserve && (reserve_request != s.request ||
                               reserve_worker != s.worker)) {
            add(StrFormat("decision at step %lld books request %lld worker "
                          "%lld but the step reserved request %lld worker "
                          "%lld",
                          static_cast<long long>(rec.step),
                          static_cast<long long>(s.request),
                          static_cast<long long>(s.worker),
                          static_cast<long long>(reserve_request),
                          static_cast<long long>(reserve_worker)));
          }
          if (!BitEq(s.revenue, s.value - s.payment)) {
            add(StrFormat("outer revenue violates Eq. 1 at step %lld: "
                          "%.17g != %.17g - %.17g",
                          static_cast<long long>(rec.step), s.revenue,
                          s.value, s.payment));
          }
        } else {
          if (have_reserve) {
            add(StrFormat("step %lld reserved request %lld worker %lld but "
                          "decided non-outer (outcome %d)",
                          static_cast<long long>(rec.step),
                          static_cast<long long>(reserve_request),
                          static_cast<long long>(reserve_worker),
                          static_cast<int>(s.outcome)));
          }
          if (s.outcome == 1 &&
              (!BitEq(s.revenue, s.value) || s.payment != 0.0)) {
            add(StrFormat("inner revenue accounting broken at step %lld: "
                          "revenue %.17g value %.17g payment %.17g",
                          static_cast<long long>(rec.step), s.revenue,
                          s.value, s.payment));
          }
          if (s.outcome == 0 && s.revenue != 0.0) {
            add(StrFormat("rejected request %lld carries revenue %.17g",
                          static_cast<long long>(s.request), s.revenue));
          }
        }
        if (s.platform >= 0 &&
            static_cast<size_t>(s.platform) < platform_revenue.size()) {
          platform_revenue[static_cast<size_t>(s.platform)] += s.revenue;
        }
        have_reserve = false;
        have_confirm = false;
        ctx_step = -1;
        break;
      }
      case WalRecordType::kArrival:
      case WalRecordType::kCheckpointMark:
      case WalRecordType::kRecoveryMark:
        flush_step();
        break;
      case WalRecordType::kRunEnd:
        flush_step();
        run_end = &rec;
        break;
    }
  }
  flush_step();

  if (run_end != nullptr) {
    double total = 0.0;
    for (double r : platform_revenue) total += r;
    if (!BitEq(total, run_end->total_revenue)) {
      add(StrFormat("kRunEnd total revenue %.17g != platform-ordered "
                    "decision sum %.17g",
                    run_end->total_revenue, total));
    }
    if (assignments != run_end->assignments) {
      add(StrFormat("kRunEnd says %lld assignments, WAL decisions say %lld",
                    static_cast<long long>(run_end->assignments),
                    static_cast<long long>(assignments)));
    }
  }
  return out;
}

std::vector<OracleViolation> CheckRecoveryEquivalence(
    const SimResult& baseline, const SimResult& recovered) {
  std::vector<OracleViolation> out;
  const auto add = [&out](std::string detail) {
    out.push_back({kRecoveryBitExactOracle, std::move(detail)});
  };

  const SimMetrics& bm = baseline.metrics;
  const SimMetrics& rm = recovered.metrics;
  if (bm.per_platform.size() != rm.per_platform.size()) {
    add(StrFormat("platform count differs: %zu vs %zu",
                  bm.per_platform.size(), rm.per_platform.size()));
    return out;
  }
  for (size_t p = 0; p < bm.per_platform.size(); ++p) {
    const PlatformMetrics& b = bm.per_platform[p];
    const PlatformMetrics& r = rm.per_platform[p];
    if (!BitEq(b.revenue, r.revenue)) {
      add(StrFormat("platform %zu revenue %.17g != recovered %.17g", p,
                    b.revenue, r.revenue));
    }
    if (b.completed != r.completed ||
        b.completed_inner != r.completed_inner ||
        b.completed_outer != r.completed_outer ||
        b.rejected != r.rejected || b.outer_offers != r.outer_offers) {
      add(StrFormat(
          "platform %zu counters differ: completed %lld/%lld/%lld rej %lld "
          "offers %lld vs %lld/%lld/%lld rej %lld offers %lld",
          p, static_cast<long long>(b.completed),
          static_cast<long long>(b.completed_inner),
          static_cast<long long>(b.completed_outer),
          static_cast<long long>(b.rejected),
          static_cast<long long>(b.outer_offers),
          static_cast<long long>(r.completed),
          static_cast<long long>(r.completed_inner),
          static_cast<long long>(r.completed_outer),
          static_cast<long long>(r.rejected),
          static_cast<long long>(r.outer_offers)));
    }
    if (!BitEq(b.outer_payment_sum, r.outer_payment_sum) ||
        !BitEq(b.payment_rate_sum, r.payment_rate_sum) ||
        !BitEq(b.total_pickup_km, r.total_pickup_km)) {
      add(StrFormat("platform %zu payment/pickup sums differ", p));
    }
  }
  if (bm.logical_bytes != rm.logical_bytes) {
    add(StrFormat("logical bytes differ: %lld vs %lld",
                  static_cast<long long>(bm.logical_bytes),
                  static_cast<long long>(rm.logical_bytes)));
  }

  const auto& ba = baseline.matching.assignments;
  const auto& ra = recovered.matching.assignments;
  if (ba.size() != ra.size()) {
    add(StrFormat("assignment log length differs: %zu vs %zu", ba.size(),
                  ra.size()));
  } else {
    for (size_t i = 0; i < ba.size(); ++i) {
      if (ba[i].request != ra[i].request || ba[i].worker != ra[i].worker ||
          ba[i].is_outer != ra[i].is_outer ||
          !BitEq(ba[i].outer_payment, ra[i].outer_payment) ||
          !BitEq(ba[i].revenue, ra[i].revenue)) {
        add(StrFormat(
            "assignment %zu differs: (req %lld w %lld outer %d pay %.17g "
            "rev %.17g) vs (req %lld w %lld outer %d pay %.17g rev %.17g)",
            i, static_cast<long long>(ba[i].request),
            static_cast<long long>(ba[i].worker),
            static_cast<int>(ba[i].is_outer), ba[i].outer_payment,
            ba[i].revenue, static_cast<long long>(ra[i].request),
            static_cast<long long>(ra[i].worker),
            static_cast<int>(ra[i].is_outer), ra[i].outer_payment,
            ra[i].revenue));
        break;
      }
    }
  }
  if (!BitEq(baseline.matching.total_revenue,
             recovered.matching.total_revenue)) {
    add(StrFormat("total revenue %.17g != recovered %.17g",
                  baseline.matching.total_revenue,
                  recovered.matching.total_revenue));
  }
  if (!(baseline.fault_stats == recovered.fault_stats)) {
    add("fault session stats differ between baseline and recovered run");
  }
  return out;
}

namespace {

/// Shared crash-experiment driver: `choose` turns the completed baseline's
/// stats into the crash point (random byte for the classic matrix, an
/// exact group-commit boundary for the batch-loss scenario).
recovery::CrashPoint DrawSeededCrashPoint(
    const recovery::DurableRunStats& stats, uint64_t crash_seed) {
  recovery::CrashProfile profile;
  profile.wal_bytes = stats.wal_bytes;
  profile.checkpoints = stats.checkpoint_spans;
  Rng rng(crash_seed);
  return recovery::DrawCrashPoint(profile, &rng);
}

Result<CrashCheckOutcome> RunCrashRecoveryCheckImpl(
    MatcherKind kind, const Scenario& scenario, const Instance& instance,
    const std::string& work_dir,
    const std::function<Result<recovery::CrashPoint>(
        const recovery::DurableRunStats&)>& choose,
    int64_t checkpoint_every_steps) {
  COMX_RETURN_IF_ERROR(EnsureDir(work_dir));
  const std::string base_dir = work_dir + "/baseline";
  const std::string crash_dir = work_dir + "/crashed";
  COMX_RETURN_IF_ERROR(EnsureDir(base_dir));
  COMX_RETURN_IF_ERROR(EnsureDir(crash_dir));

  const SimConfig sim = scenario.MakeSimConfig(nullptr);
  const int32_t platforms = instance.PlatformCount();
  recovery::DurableOptions opts;
  opts.checkpoint_every_steps = checkpoint_every_steps;

  CrashCheckOutcome outcome;

  // Uninterrupted durable baseline: the reference result and the crash
  // profile (WAL length + checkpoint spans) in one run.
  std::vector<std::unique_ptr<OnlineMatcher>> owned;
  opts.dir = base_dir;
  COMX_ASSIGN_OR_RETURN(
      recovery::DurableOutcome baseline,
      recovery::RunDurableSimulation(instance,
                                     BuildMatchers(kind, platforms, &owned),
                                     sim, scenario.sim_seed, opts));
  if (baseline.crashed) {
    return Status::Internal("baseline durable run reported a crash");
  }
  outcome.baseline_stats = baseline.stats;

  // Identical run, killed at the chosen point of the durable write stream.
  COMX_ASSIGN_OR_RETURN(outcome.point, choose(baseline.stats));
  recovery::CrashInjector injector(outcome.point);
  opts.dir = crash_dir;
  opts.crash = &injector;
  COMX_ASSIGN_OR_RETURN(
      recovery::DurableOutcome crashed,
      recovery::RunDurableSimulation(instance,
                                     BuildMatchers(kind, platforms, &owned),
                                     sim, scenario.sim_seed, opts));
  if (!crashed.crashed) {
    return Status::Internal("crash point never fired: " +
                            outcome.point.ToString());
  }

  // Recover. A DataLoss here is replay verification refusing a divergent
  // record — the bit-exact oracle firing, not a harness failure.
  opts.crash = nullptr;
  Result<recovery::DurableOutcome> recovered = recovery::RecoverAndResume(
      instance, BuildMatchers(kind, platforms, &owned), sim,
      scenario.sim_seed, opts);
  if (!recovered.ok()) {
    if (recovered.status().code() == StatusCode::kDataLoss) {
      outcome.violations.push_back(
          {kRecoveryBitExactOracle,
           StrFormat("recovery refused at %s: %s",
                     outcome.point.ToString().c_str(),
                     recovered.status().ToString().c_str())});
      return outcome;
    }
    return recovered.status();
  }
  outcome.recovery_stats = recovered->stats;
  for (OracleViolation& v :
       CheckRecoveryEquivalence(baseline.result, recovered->result)) {
    v.detail += " [" + outcome.point.ToString() + "]";
    outcome.violations.push_back(std::move(v));
  }

  // The recovered WAL must read back clean and witness a safe two-phase
  // history end to end.
  COMX_ASSIGN_OR_RETURN(const recovery::WalScan scan,
                        recovery::ScanWal(recovery::WalPath(crash_dir)));
  if (scan.torn_tail || scan.torn_header) {
    outcome.violations.push_back(
        {kNoDoubleCommitOracle,
         "recovered WAL still torn: " + scan.tail_warning});
  }
  for (OracleViolation& v : CheckWalCommitProtocol(scan.records)) {
    outcome.violations.push_back(std::move(v));
  }

  // Both WALs must rebuild byte-identical decision traces.
  COMX_RETURN_IF_ERROR(recovery::RebuildTraceFromWal(
      recovery::WalPath(base_dir), base_dir + "/trace.jsonl"));
  COMX_RETURN_IF_ERROR(recovery::RebuildTraceFromWal(
      recovery::WalPath(crash_dir), crash_dir + "/trace.jsonl"));
  COMX_ASSIGN_OR_RETURN(const std::string base_trace,
                        ReadWholeFile(base_dir + "/trace.jsonl"));
  COMX_ASSIGN_OR_RETURN(const std::string crash_trace,
                        ReadWholeFile(crash_dir + "/trace.jsonl"));
  if (base_trace != crash_trace) {
    outcome.violations.push_back(
        {kRecoveryBitExactOracle,
         StrFormat("rebuilt traces differ (%zu vs %zu bytes) [%s]",
                   base_trace.size(), crash_trace.size(),
                   outcome.point.ToString().c_str())});
  }
  return outcome;
}

}  // namespace

Result<CrashCheckOutcome> RunCrashRecoveryCheck(
    MatcherKind kind, const Scenario& scenario, const Instance& instance,
    const std::string& work_dir, uint64_t crash_seed,
    int64_t checkpoint_every_steps) {
  return RunCrashRecoveryCheckImpl(
      kind, scenario, instance, work_dir,
      [crash_seed](const recovery::DurableRunStats& stats)
          -> Result<recovery::CrashPoint> {
        return DrawSeededCrashPoint(stats, crash_seed);
      },
      checkpoint_every_steps);
}

Result<CrashCheckOutcome> RunBoundaryCrashRecoveryCheck(
    MatcherKind kind, const Scenario& scenario, const Instance& instance,
    const std::string& work_dir, uint64_t boundary_index,
    uint64_t fallback_crash_seed, int64_t checkpoint_every_steps) {
  bool fell_back = false;
  Result<CrashCheckOutcome> outcome = RunCrashRecoveryCheckImpl(
      kind, scenario, instance, work_dir,
      [boundary_index, fallback_crash_seed, &fell_back](
          const recovery::DurableRunStats& stats)
          -> Result<recovery::CrashPoint> {
        // The final commit offset equals the run's total WAL bytes; a crash
        // "at" it would never fire (nothing is written afterwards), so only
        // the interior boundaries model the fill-to-fsync window. A run too
        // short to have one still gets a seeded byte-offset kill.
        if (stats.wal_commit_offsets.size() < 2) {
          fell_back = true;
          return DrawSeededCrashPoint(stats, fallback_crash_seed);
        }
        const size_t usable = stats.wal_commit_offsets.size() - 1;
        recovery::CrashPoint point;
        point.kind = recovery::CrashPoint::Kind::kWalOffset;
        point.wal_offset =
            stats.wal_commit_offsets[static_cast<size_t>(boundary_index) %
                                     usable];
        return point;
      },
      checkpoint_every_steps);
  if (outcome.ok()) outcome->boundary_fallback = fell_back;
  return outcome;
}

}  // namespace check
}  // namespace comx
