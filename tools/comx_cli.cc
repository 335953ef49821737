// comx_cli — command-line front end for the library: generate datasets,
// inspect them, run any algorithm, solve the offline optimum, and estimate
// competitive ratios, all against the CSV dataset format of
// datagen/dataset.h.
//
// Usage:
//   comx_cli gen      --out PREFIX [--requests N] [--workers N]
//                     [--platforms K] [--radius KM] [--imbalance X]
//                     [--dist real|normal] [--seed S]
//   comx_cli gen-real --out PREFIX --dataset rdc10|rdc11|rdx11
//                     [--scale X] [--seed S]
//   comx_cli info     --data PREFIX
//   comx_cli run      --data PREFIX --algo ALGO [--seeds N] [--no-recycle]
//                     [--sim-seed S] [--acceptance bernoulli|reservation]
//                     [--reservation-seed S] [--speed-kmh V]
//                     [--base-service-s V] [--service-s-per-value V]
//                     [--save-matching OUT.csv] [--fault-plan PLAN.jsonl]
//                     [--trace-out TRACE.jsonl] [--metrics-out FILE]
//                     [--metrics-format prom|json]
//                     [--batch-window SECONDS] [--batch-algo NAME]
//                     --sim-seed runs one simulation with exactly that seed
//                     (the comx_fuzz repro replay path); the physics /
//                     acceptance flags mirror SimConfig.
//                     (ALGO: tota, ranking, greedyrt, demcom, ramcom,
//                      costdem, batch)
//                     --algo batch dispatches in micro-batch windows
//                     (SimConfig::batch_mode); --batch-window sets the
//                     window length (0 = per-request, bit-identical to the
//                     window-greedy policy) and --batch-algo the window
//                     solver (auto|greedy|hungarian|incremental_km);
//                     rt= then reports the mean simulated wait (window
//                     close − arrival) instead of matcher compute time.
//                     --trace-out records every first-seed decision as one
//                     JSONL line (verify with trace_inspect); --metrics-out
//                     dumps the metrics registry after the run;
//                     --fault-plan injects partner faults per the JSONL plan
//                     (format in fault/fault_plan.h) and prints the
//                     retry/breaker/degradation tallies.
//   comx_cli degrade  --data PREFIX [--algo ALGO] [--steps N] [--seeds N]
//                     [--jobs N] [--no-recycle] [--csv OUT.csv]
//                     sweeps every partner's availability 0..1 and charts
//                     ALGO's revenue against the inner-only TOTA baseline;
//                     --jobs parallelizes the per-seed runs (bit-identical
//                     output).
//   comx_cli offline  --data PREFIX [--capacity K] [--no-outer]
//   comx_cli schedule --data PREFIX [--no-recycle]   (exact, tiny instances)
//   comx_cli cr       --data PREFIX --algo ALGO [--perms N]
//   comx_cli density  --data PREFIX [--cols N] [--rows N] [--csv OUT.csv]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_aware.h"
#include "core/dem_com.h"
#include "core/greedy_rt.h"
#include "core/offline_opt.h"
#include "core/ram_com.h"
#include "core/ranking.h"
#include "core/tota_greedy.h"
#include "core/window_greedy.h"
#include "datagen/dataset.h"
#include "matching/batch_matcher.h"
#include "datagen/density.h"
#include "datagen/real_like.h"
#include "datagen/synthetic.h"
#include "fault/fault_plan.h"
#include "fault/fault_session.h"
#include "obs/exporters.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "exp/sweep_runner.h"
#include "sim/competitive_ratio.h"
#include "sim/offline_schedule.h"
#include "sim/result_io.h"
#include "sim/simulator.h"
#include "util/csv.h"
#include "util/signal_guard.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace comx {
namespace {

// Cooperative shutdown poll for multi-run loops. The signal handler only
// records the signal (util/signal_guard.h); between runs is the safe point
// to flush registered artifacts and exit 128+signo.
void PollShutdown() {
  if (ShutdownRequested()) std::exit(DrainShutdown());
}

// Accepts both "--flag value" and "--flag=value".
const char* FlagValue(int argc, char** argv, const char* flag) {
  const size_t flag_len = std::strlen(flag);
  for (int i = 2; i < argc; ++i) {
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
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

int64_t IntFlag(int argc, char** argv, const char* flag, int64_t fallback) {
  const char* v = FlagValue(argc, argv, flag);
  return v != nullptr ? std::atoll(v) : fallback;
}

double DoubleFlag(int argc, char** argv, const char* flag, double fallback) {
  const char* v = FlagValue(argc, argv, flag);
  return v != nullptr ? std::atof(v) : fallback;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

std::unique_ptr<OnlineMatcher> MakeMatcher(const std::string& algo) {
  if (algo == "tota") return std::make_unique<TotaGreedy>();
  if (algo == "ranking") return std::make_unique<Ranking>();
  if (algo == "greedyrt") return std::make_unique<GreedyRt>();
  if (algo == "demcom") return std::make_unique<DemCom>();
  if (algo == "ramcom") return std::make_unique<RamCom>();
  if (algo == "costdem") return std::make_unique<CostAwareDemCom>();
  // Batch-mode runs never consult the per-platform matchers, but the engine
  // still Reset()s one per platform; WindowGreedy is the window=0 twin.
  if (algo == "batch") return std::make_unique<WindowGreedy>();
  return nullptr;
}

int CmdGen(int argc, char** argv) {
  const char* out = FlagValue(argc, argv, "--out");
  if (out == nullptr) {
    std::fprintf(stderr, "gen: --out PREFIX is required\n");
    return 2;
  }
  SyntheticConfig config;
  config.platforms = static_cast<int32_t>(IntFlag(argc, argv, "--platforms", 2));
  config.requests_per_platform = {IntFlag(argc, argv, "--requests", 1250)};
  config.workers_per_platform = {IntFlag(argc, argv, "--workers", 250)};
  config.radius_km = DoubleFlag(argc, argv, "--radius", 1.0);
  config.imbalance = DoubleFlag(argc, argv, "--imbalance", 0.7);
  config.seed = static_cast<uint64_t>(IntFlag(argc, argv, "--seed", 2020));
  if (const char* dist = FlagValue(argc, argv, "--dist"); dist != nullptr) {
    auto parsed = ParseValueDistribution(dist);
    if (!parsed.ok()) return Fail(parsed.status());
    config.value.distribution = *parsed;
  }
  auto instance = GenerateSynthetic(config);
  if (!instance.ok()) return Fail(instance.status());
  if (Status s = SaveInstance(*instance, out); !s.ok()) return Fail(s);
  std::printf("wrote %s.{workers,requests}.csv — %s\n", out,
              instance->Summary().c_str());
  return 0;
}

int CmdGenReal(int argc, char** argv) {
  const char* out = FlagValue(argc, argv, "--out");
  const char* name = FlagValue(argc, argv, "--dataset");
  if (out == nullptr || name == nullptr) {
    std::fprintf(stderr, "gen-real: --out and --dataset are required\n");
    return 2;
  }
  RealDatasetSpec spec;
  const std::string dataset = name;
  if (dataset == "rdc10") {
    spec = Rdc10Ryc10();
  } else if (dataset == "rdc11") {
    spec = Rdc11Ryc11();
  } else if (dataset == "rdx11") {
    spec = Rdx11Ryx11();
  } else {
    std::fprintf(stderr, "gen-real: unknown dataset '%s'\n", name);
    return 2;
  }
  auto instance = GenerateRealLike(
      spec, DoubleFlag(argc, argv, "--scale", 0.05),
      static_cast<uint64_t>(IntFlag(argc, argv, "--seed", 2016)));
  if (!instance.ok()) return Fail(instance.status());
  if (Status s = SaveInstance(*instance, out); !s.ok()) return Fail(s);
  std::printf("wrote %s.{workers,requests}.csv — %s clone: %s\n", out,
              spec.name.c_str(), instance->Summary().c_str());
  return 0;
}

int CmdInfo(int argc, char** argv) {
  const char* data = FlagValue(argc, argv, "--data");
  if (data == nullptr) {
    std::fprintf(stderr, "info: --data PREFIX is required\n");
    return 2;
  }
  auto instance = LoadInstance(data);
  if (!instance.ok()) return Fail(instance.status());
  std::printf("%s\n", instance->Summary().c_str());
  RunningStats values, radii, history_len;
  for (const Request& r : instance->requests()) values.Add(r.value);
  for (const Worker& w : instance->workers()) {
    radii.Add(w.radius);
    history_len.Add(static_cast<double>(w.history.size()));
  }
  std::printf("values:    %s\n", values.ToString().c_str());
  std::printf("radii:     %s\n", radii.ToString().c_str());
  std::printf("histories: %s\n", history_len.ToString().c_str());
  std::printf("max value: %.2f (RamCOM theta would be ceil(ln(max+1)))\n",
              instance->MaxRequestValue());
  return 0;
}

int CmdRun(int argc, char** argv) {
  const char* data = FlagValue(argc, argv, "--data");
  const char* algo = FlagValue(argc, argv, "--algo");
  if (data == nullptr || algo == nullptr) {
    std::fprintf(stderr, "run: --data and --algo are required\n");
    return 2;
  }
  auto instance = LoadInstance(data);
  if (!instance.ok()) return Fail(instance.status());
  const int seeds = static_cast<int>(IntFlag(argc, argv, "--seeds", 3));
  // --sim-seed S runs exactly one simulation with that seed (instead of the
  // 1..--seeds sweep) — how comx_fuzz repro commands replay a failing run
  // bit for bit.
  const char* sim_seed_flag = FlagValue(argc, argv, "--sim-seed");
  SimConfig sim;
  sim.workers_recycle = !HasFlag(argc, argv, "--no-recycle");
  sim.speed_kmh = DoubleFlag(argc, argv, "--speed-kmh", sim.speed_kmh);
  sim.base_service_seconds =
      DoubleFlag(argc, argv, "--base-service-s", sim.base_service_seconds);
  sim.service_seconds_per_value = DoubleFlag(
      argc, argv, "--service-s-per-value", sim.service_seconds_per_value);
  if (const char* acceptance = FlagValue(argc, argv, "--acceptance");
      acceptance != nullptr) {
    const std::string mode = acceptance;
    if (mode == "bernoulli") {
      sim.acceptance_mode = AcceptanceMode::kBernoulli;
    } else if (mode == "reservation") {
      sim.acceptance_mode = AcceptanceMode::kReservation;
    } else {
      std::fprintf(stderr,
                   "run: --acceptance must be bernoulli|reservation\n");
      return 2;
    }
  }
  // Seeds are full-range uint64 (strtoull, not atoll).
  if (const char* rs = FlagValue(argc, argv, "--reservation-seed");
      rs != nullptr) {
    sim.reservation_seed = std::strtoull(rs, nullptr, 10);
  }
  if (std::strcmp(algo, "batch") == 0) {
    sim.batch_mode = true;
    sim.batch_window_seconds =
        DoubleFlag(argc, argv, "--batch-window", sim.batch_window_seconds);
    if (const char* name = FlagValue(argc, argv, "--batch-algo");
        name != nullptr) {
      auto parsed = ParseBatchAlgo(name);
      if (!parsed.ok()) return Fail(parsed.status());
      sim.batch.algo = *parsed;
    }
  }
  // The plan must outlive every RunSimulation call; SimConfig only borrows.
  fault::FaultPlan fault_plan;
  if (const char* plan_path = FlagValue(argc, argv, "--fault-plan");
      plan_path != nullptr) {
    auto loaded = fault::LoadFaultPlan(plan_path);
    if (!loaded.ok()) return Fail(loaded.status());
    fault_plan = *std::move(loaded);
    sim.fault_plan = &fault_plan;
  }

  const char* save_matching = FlagValue(argc, argv, "--save-matching");
  const char* trace_out = FlagValue(argc, argv, "--trace-out");
  const char* metrics_out = FlagValue(argc, argv, "--metrics-out");
  obs::MetricsFormat metrics_format = obs::MetricsFormat::kPrometheus;
  if (const char* fmt = FlagValue(argc, argv, "--metrics-format");
      fmt != nullptr) {
    auto parsed = obs::ParseMetricsFormat(fmt);
    if (!parsed.ok()) return Fail(parsed.status());
    metrics_format = *parsed;
  }
  // Metric collection is off (and free) unless observability was asked for.
  if (trace_out != nullptr || metrics_out != nullptr) {
    obs::SetCollectionEnabled(true);
  }
  std::unique_ptr<obs::JsonlTraceWriter> trace;
  if (trace_out != nullptr) {
    auto opened = obs::JsonlTraceWriter::Open(trace_out);
    if (!opened.ok()) return Fail(opened.status());
    trace = std::move(*opened);
    // ^C mid-run flushes the partial trace and exits 128+signo; the
    // lenient readers tolerate the torn final line it may leave.
    RegisterShutdownFlushFile(trace->file());
  }

  PlatformMetrics agg;
  fault::FaultSessionStats fault_totals;
  std::vector<PlatformMetrics> per_platform(
      static_cast<size_t>(instance->PlatformCount()));
  const int run_count = sim_seed_flag != nullptr ? 1 : seeds;
  for (int s = 1; s <= run_count; ++s) {
    PollShutdown();
    std::vector<std::unique_ptr<OnlineMatcher>> owned;
    std::vector<OnlineMatcher*> matchers;
    for (PlatformId p = 0; p < instance->PlatformCount(); ++p) {
      owned.push_back(MakeMatcher(algo));
      if (owned.back() == nullptr) {
        std::fprintf(stderr, "run: unknown algorithm '%s'\n", algo);
        return 2;
      }
      matchers.push_back(owned.back().get());
    }
    // Like --save-matching, the decision trace covers the first seed only.
    sim.trace = (s == 1) ? trace.get() : nullptr;
    const uint64_t run_seed =
        sim_seed_flag != nullptr ? std::strtoull(sim_seed_flag, nullptr, 10)
                                 : static_cast<uint64_t>(s);
    auto result = RunSimulation(*instance, matchers, sim, run_seed);
    if (!result.ok()) return Fail(result.status());
    for (size_t p = 0; p < per_platform.size(); ++p) {
      per_platform[p].Merge(result->metrics.per_platform[p]);
    }
    agg.Merge(result->metrics.Aggregate());
    fault_totals.Merge(result->fault_stats);
    if (s == 1 && save_matching != nullptr) {
      if (Status st = SaveMatchingCsv(*instance, result->matching,
                                      save_matching);
          !st.ok()) {
        return Fail(st);
      }
      std::printf("wrote first-seed matching to %s\n", save_matching);
    }
  }
  std::printf("%s over %d seed(s) (counts/revenues are TOTALS across "
              "seeds), recycle=%s:\n",
              algo, run_count, sim.workers_recycle ? "on" : "off");
  for (size_t p = 0; p < per_platform.size(); ++p) {
    std::printf("  platform %zu: %s\n", p, per_platform[p].ToString().c_str());
  }
  std::printf("  aggregate:  %s\n", agg.ToString().c_str());
  std::printf("  pickup km:  %.1f (net revenue at 2/km: %.1f)\n",
              agg.total_pickup_km, agg.NetRevenue(2.0));
  if (sim.fault_plan != nullptr) {
    std::printf(
        "  faults:     %lld attempts (%lld timeout, %lld unavailable, "
        "%lld outage), %lld retries, %lld unreachable\n"
        "  resilience: %lld breaker skips, %lld breaker transitions, "
        "%lld reserve conflicts, %lld degraded requests, "
        "%.0f ms virtual backoff\n",
        static_cast<long long>(fault_totals.attempts),
        static_cast<long long>(fault_totals.attempt_timeouts),
        static_cast<long long>(fault_totals.attempt_unavailable),
        static_cast<long long>(fault_totals.attempt_outages),
        static_cast<long long>(fault_totals.retries),
        static_cast<long long>(fault_totals.partner_unreachable),
        static_cast<long long>(fault_totals.breaker_open_skips),
        static_cast<long long>(fault_totals.breaker_transitions),
        static_cast<long long>(fault_totals.reserve_conflicts),
        static_cast<long long>(fault_totals.degraded_requests),
        fault_totals.backoff_ms_total);
  }
  if (trace != nullptr) {
    if (Status st = trace->Close(); !st.ok()) return Fail(st);
    std::printf("wrote first-seed decision trace to %s (%lld events, %lld "
                "dropped); verify with: trace_inspect %s\n",
                trace_out, static_cast<long long>(trace->written()),
                static_cast<long long>(trace->dropped()), trace_out);
  }
  if (metrics_out != nullptr) {
    if (Status st = obs::WriteMetricsFile(obs::MetricsRegistry::Global(),
                                          metrics_out, metrics_format);
        !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote metrics (%s) to %s\n",
                metrics_format == obs::MetricsFormat::kJson ? "json" : "prom",
                metrics_out);
  }
  return 0;
}

int CmdOffline(int argc, char** argv) {
  const char* data = FlagValue(argc, argv, "--data");
  if (data == nullptr) {
    std::fprintf(stderr, "offline: --data PREFIX is required\n");
    return 2;
  }
  auto instance = LoadInstance(data);
  if (!instance.ok()) return Fail(instance.status());
  OfflineConfig config;
  config.worker_capacity =
      static_cast<int32_t>(IntFlag(argc, argv, "--capacity", 1));
  config.allow_outer = !HasFlag(argc, argv, "--no-outer");
  double total = 0.0;
  for (PlatformId p = 0; p < instance->PlatformCount(); ++p) {
    auto sol = SolveOffline(*instance, p, config);
    if (!sol.ok()) return Fail(sol.status());
    int64_t outer = 0;
    for (const Assignment& a : sol->matching.assignments) {
      outer += a.is_outer ? 1 : 0;
    }
    std::printf("platform %d: OFF revenue %.1f, served %zu (borrowed %lld), "
                "solver %s, %lld candidate edges\n",
                p, sol->matching.total_revenue, sol->matching.size(),
                static_cast<long long>(outer), sol->solver.c_str(),
                static_cast<long long>(sol->edge_count));
    total += sol->matching.total_revenue;
  }
  std::printf("total OFF revenue: %.1f\n", total);
  return 0;
}

int CmdDensity(int argc, char** argv) {
  const char* data = FlagValue(argc, argv, "--data");
  if (data == nullptr) {
    std::fprintf(stderr, "density: --data PREFIX is required\n");
    return 2;
  }
  auto instance = LoadInstance(data);
  if (!instance.ok()) return Fail(instance.status());
  BBox bounds;
  for (const Worker& w : instance->workers()) bounds.Extend(w.location);
  for (const Request& r : instance->requests()) bounds.Extend(r.location);
  if (bounds.empty()) {
    std::fprintf(stderr, "density: empty instance\n");
    return 1;
  }
  bounds.Inflate(0.1);
  const int32_t cols = static_cast<int32_t>(IntFlag(argc, argv, "--cols", 36));
  const int32_t rows = static_cast<int32_t>(IntFlag(argc, argv, "--rows", 14));
  const DensityGrid grid(*instance, bounds, cols, rows);
  for (PlatformId p = 0; p < instance->PlatformCount(); ++p) {
    std::printf("platform %d workers:\n%s\n", p,
                grid.AsciiHeatmap(p, true).c_str());
    std::printf("platform %d requests:\n%s\n", p,
                grid.AsciiHeatmap(p, false).c_str());
  }
  std::printf("platform-0 supply/demand imbalance (total variation): %.3f\n",
              grid.ImbalanceScore());
  if (const char* csv = FlagValue(argc, argv, "--csv"); csv != nullptr) {
    if (Status st = grid.WriteCsv(csv); !st.ok()) return Fail(st);
    std::printf("wrote %s\n", csv);
  }
  return 0;
}

int CmdSchedule(int argc, char** argv) {
  const char* data = FlagValue(argc, argv, "--data");
  if (data == nullptr) {
    std::fprintf(stderr, "schedule: --data PREFIX is required\n");
    return 2;
  }
  auto instance = LoadInstance(data);
  if (!instance.ok()) return Fail(instance.status());
  ScheduleConfig config;
  config.sim.workers_recycle = !HasFlag(argc, argv, "--no-recycle");
  double total = 0.0;
  for (PlatformId p = 0; p < instance->PlatformCount(); ++p) {
    auto sol = SolveOfflineSchedule(*instance, p, config);
    if (!sol.ok()) return Fail(sol.status());
    std::printf("platform %d: exact schedule revenue %.2f, served %zu, "
                "%lld search nodes\n",
                p, sol->revenue, sol->matching.size(),
                static_cast<long long>(sol->nodes));
    total += sol->revenue;
  }
  std::printf("total exact-schedule revenue: %.2f\n", total);
  return 0;
}

int CmdCr(int argc, char** argv) {
  const char* data = FlagValue(argc, argv, "--data");
  const char* algo = FlagValue(argc, argv, "--algo");
  if (data == nullptr || algo == nullptr) {
    std::fprintf(stderr, "cr: --data and --algo are required\n");
    return 2;
  }
  auto instance = LoadInstance(data);
  if (!instance.ok()) return Fail(instance.status());
  const std::string algo_name = algo;
  if (MakeMatcher(algo_name) == nullptr) {
    std::fprintf(stderr, "cr: unknown algorithm '%s'\n", algo);
    return 2;
  }
  CrConfig config;
  config.permutations = static_cast<int>(IntFlag(argc, argv, "--perms", 100));
  auto estimate = EstimateCompetitiveRatio(
      *instance, [&algo_name] { return MakeMatcher(algo_name); }, config);
  if (!estimate.ok()) return Fail(estimate.status());
  std::printf("%s on %s over %lld orders: CR_A(min) %.4f, CR_RO(mean) %.4f "
              "(sd %.4f), skipped %d\n",
              algo, data, static_cast<long long>(estimate->ratios.count()),
              estimate->min_ratio, estimate->mean_ratio,
              estimate->ratios.stddev(), estimate->skipped);
  return 0;
}

// Runs `algo` on `instance` for seeds 1..seeds under an optional fault plan
// and returns (total revenue across seeds, total degraded requests). With a
// pool, seeds run as parallel jobs; each writes its own slot and the totals
// accumulate in seed order, so the result is bit-identical to the serial
// path.
Result<std::pair<double, int64_t>> SweepPoint(
    const Instance& instance, const std::string& algo,
    const fault::FaultPlan* plan, bool recycle, int seeds,
    ThreadPool* pool = nullptr) {
  SimConfig sim;
  sim.workers_recycle = recycle;
  sim.fault_plan = plan;
  std::vector<double> revenue_of(static_cast<size_t>(seeds), 0.0);
  std::vector<int64_t> degraded_of(static_cast<size_t>(seeds), 0);
  exp::SweepOptions options;
  options.pool = pool;
  exp::SweepRunner runner(options);
  COMX_RETURN_IF_ERROR(runner.Run(
      1, static_cast<size_t>(seeds), [&](const exp::SweepJob& job) -> Status {
        std::vector<std::unique_ptr<OnlineMatcher>> owned;
        std::vector<OnlineMatcher*> matchers;
        for (PlatformId p = 0; p < instance.PlatformCount(); ++p) {
          owned.push_back(MakeMatcher(algo));
          matchers.push_back(owned.back().get());
        }
        COMX_ASSIGN_OR_RETURN(
            SimResult result,
            RunSimulation(instance, matchers, sim,
                          static_cast<uint64_t>(job.seed_index) + 1));
        revenue_of[job.seed_index] = result.metrics.TotalRevenue();
        degraded_of[job.seed_index] = result.fault_stats.degraded_requests;
        return Status::OK();
      }));
  double revenue = 0.0;
  int64_t degraded = 0;
  for (int s = 0; s < seeds; ++s) {
    revenue += revenue_of[static_cast<size_t>(s)];
    degraded += degraded_of[static_cast<size_t>(s)];
  }
  return std::make_pair(revenue, degraded);
}

// Graceful-degradation sweep: every partner's availability walks 0 -> 1 and
// the cooperative algorithm's revenue is charted against the inner-only
// TOTA baseline. At availability 0 a well-behaved matcher must not fall
// below TOTA (it degrades to inner-only matching); at 1 it must reproduce
// the fault-free cooperative revenue bit for bit.
int CmdDegrade(int argc, char** argv) {
  const char* data = FlagValue(argc, argv, "--data");
  if (data == nullptr) {
    std::fprintf(stderr, "degrade: --data PREFIX is required\n");
    return 2;
  }
  const char* algo_flag = FlagValue(argc, argv, "--algo");
  const std::string algo = algo_flag != nullptr ? algo_flag : "demcom";
  if (MakeMatcher(algo) == nullptr) {
    std::fprintf(stderr, "degrade: unknown algorithm '%s'\n", algo.c_str());
    return 2;
  }
  auto instance = LoadInstance(data);
  if (!instance.ok()) return Fail(instance.status());
  const int steps = static_cast<int>(IntFlag(argc, argv, "--steps", 10));
  const int seeds = static_cast<int>(IntFlag(argc, argv, "--seeds", 3));
  const int jobs = static_cast<int>(IntFlag(argc, argv, "--jobs", 1));
  const bool recycle = !HasFlag(argc, argv, "--no-recycle");
  if (steps < 1) {
    std::fprintf(stderr, "degrade: --steps must be >= 1\n");
    return 2;
  }
  // One pool shared by every sweep point; results are bit-identical to
  // --jobs 1 (per-seed slots merged in seed order).
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(jobs));
  }

  auto baseline =
      SweepPoint(*instance, "tota", nullptr, recycle, seeds, pool.get());
  if (!baseline.ok()) return Fail(baseline.status());
  const double tota_revenue = baseline->first;
  auto ceiling =
      SweepPoint(*instance, algo, nullptr, recycle, seeds, pool.get());
  if (!ceiling.ok()) return Fail(ceiling.status());
  const double fault_free = ceiling->first;

  std::printf("%s revenue vs partner availability on %s "
              "(%d seed(s), totals; TOTA inner-only baseline %.1f, "
              "fault-free %s %.1f):\n",
              algo.c_str(), data, seeds, tota_revenue, algo.c_str(),
              fault_free);
  std::printf("  avail   revenue   vs TOTA   vs fault-free   degraded\n");
  std::vector<std::vector<std::string>> csv_rows;
  csv_rows.push_back(
      {"availability", "revenue", "tota_revenue", "degraded_requests"});
  const double top = fault_free > 0.0 ? fault_free : 1.0;
  for (int k = 0; k <= steps; ++k) {
    PollShutdown();
    const double avail = static_cast<double>(k) / steps;
    fault::FaultPlan plan;
    for (PlatformId p = 0; p < instance->PlatformCount(); ++p) {
      fault::PartnerFaultSpec spec;
      spec.partner = p;
      spec.availability = avail;
      plan.partners.push_back(spec);
    }
    auto point =
        SweepPoint(*instance, algo, &plan, recycle, seeds, pool.get());
    if (!point.ok()) return Fail(point.status());
    const int bar = static_cast<int>(40.0 * point->first / top + 0.5);
    std::printf("  %5.2f %9.1f   %+6.1f%%        %6.1f%%   %8lld  |%.*s\n",
                avail, point->first,
                tota_revenue > 0.0
                    ? 100.0 * (point->first - tota_revenue) / tota_revenue
                    : 0.0,
                100.0 * point->first / top,
                static_cast<long long>(point->second), bar,
                "========================================");
    csv_rows.push_back({StrFormat("%.17g", avail),
                        StrFormat("%.17g", point->first),
                        StrFormat("%.17g", tota_revenue),
                        StrFormat("%lld",
                                  static_cast<long long>(point->second))});
  }
  if (const char* csv = FlagValue(argc, argv, "--csv"); csv != nullptr) {
    if (Status st = WriteCsvFile(csv, csv_rows); !st.ok()) return Fail(st);
    std::printf("wrote %s\n", csv);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: comx_cli <gen|gen-real|info|run|offline|schedule|"
                 "cr|density|degrade> "
                 "[flags]\n(see the file header for per-command flags)\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc, argv);
  if (cmd == "gen-real") return CmdGenReal(argc, argv);
  if (cmd == "info") return CmdInfo(argc, argv);
  if (cmd == "run") return CmdRun(argc, argv);
  if (cmd == "offline") return CmdOffline(argc, argv);
  if (cmd == "density") return CmdDensity(argc, argv);
  if (cmd == "schedule") return CmdSchedule(argc, argv);
  if (cmd == "cr") return CmdCr(argc, argv);
  if (cmd == "degrade") return CmdDegrade(argc, argv);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}

}  // namespace
}  // namespace comx

int main(int argc, char** argv) {
  comx::InstallShutdownGuard();
  const int rc = comx::Main(argc, argv);
  // A signal that landed after the last poll point still flushes
  // registered artifacts and wins the exit code (128+signo contract).
  if (comx::ShutdownRequested()) return comx::DrainShutdown();
  return rc;
}
