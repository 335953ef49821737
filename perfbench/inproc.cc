// In-process workloads: the benchmark steps SimEngine on one thread over a
// generated instance and times every Step from outside.
//
//   engine_ramcom  RamCOM on both platforms, R100k/W20k i.i.d. day curve
//   batch_w30      batch_mode, 30 s windows, `auto` window solver
//
// Untraced (--trace 0): the undecorated engine is replayed until --seconds
// of replay time have passed (at least kMinTimedReplays times); every Step
// is timed, and the decision percentiles are taken over each deciding
// step's fastest time across the replays. Traced (--trace 1): one untraced
// replay, then one replay through the layer probes (probes.h); the
// per-layer split comes from the traced replay's spans and
// trace.overhead_frac from the wall-time ratio of the two. Every replay's
// revenue and assignment count must equal RunSimulation's with undecorated
// matchers, bit for bit; that reference run comes first and warms up the
// process.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/dem_com.h"
#include "core/ram_com.h"
#include "core/tota_greedy.h"
#include "core/window_greedy.h"
#include "datagen/dataset.h"
#include "datagen/synthetic.h"
#include "probes.h"
#include "sim/sim_engine.h"
#include "sim/simulator.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using comx::StepRecord;

constexpr int kSetupReps = 5;
/// Untraced runs replay at least this often (see the per-step minimum in
/// RunEngineWorkload).
constexpr int kMinTimedReplays = 3;
constexpr double kBatchWindowSeconds = 30.0;

struct EngineSpec {
  int64_t requests_per_platform;
  int64_t workers_per_platform;
  bool batch;
  const char* algo;
};

EngineSpec SpecFor(const std::string& workload) {
  if (workload == "batch_w30") return {25000, 5000, true, "batch"};
  return {25000, 5000, false, "ramcom"};
}

std::unique_ptr<comx::OnlineMatcher> MakeMatcher(const std::string& algo) {
  if (algo == "tota") return std::make_unique<comx::TotaGreedy>();
  if (algo == "demcom") return std::make_unique<comx::DemCom>();
  if (algo == "ramcom") return std::make_unique<comx::RamCom>();
  // Batch mode never consults the matchers; the engine still Reset()s one
  // per platform (WindowGreedy is the window=0 twin, as in comx_serve).
  return std::make_unique<comx::WindowGreedy>();
}

/// One matcher per platform, optionally behind TracedMatcher.
struct MatcherSet {
  std::vector<std::unique_ptr<comx::OnlineMatcher>> owned;
  std::vector<std::unique_ptr<TracedMatcher>> traced;
  std::vector<comx::OnlineMatcher*> ptrs;
};

MatcherSet MakeMatchers(const std::string& algo, int32_t platforms,
                        SpanLog* log) {
  MatcherSet set;
  for (int32_t p = 0; p < platforms; ++p) {
    set.owned.push_back(MakeMatcher(algo));
    if (log != nullptr) {
      set.traced.push_back(
          std::make_unique<TracedMatcher>(set.owned.back().get(), log));
      set.ptrs.push_back(set.traced.back().get());
    } else {
      set.ptrs.push_back(set.owned.back().get());
    }
  }
  return set;
}

comx::SimConfig ConfigFor(const EngineSpec& spec) {
  comx::SimConfig sim;
  sim.workers_recycle = true;
  // Timing happens outside the engine.
  sim.measure_response_time = false;
  if (spec.batch) {
    sim.batch_mode = true;
    sim.batch_window_seconds = kBatchWindowSeconds;
    sim.batch.algo = comx::BatchAlgo::kAuto;
  }
  return sim;
}

comx::SyntheticConfig GeneratorFor(const EngineSpec& spec, uint64_t seed) {
  comx::SyntheticConfig gen;
  gen.requests_per_platform = {spec.requests_per_platform};
  gen.workers_per_platform = {spec.workers_per_platform};
  gen.radius_km = 1.0;
  gen.arrival_process = comx::ArrivalProcess::kIidDayCurve;
  gen.seed = seed;
  return gen;
}

/// Outer-loop account of one full replay.
struct Replay {
  double wall_s = 0.0;
  int64_t static_events = 0;
  int64_t decisions = 0;
  /// One entry per Step, in step order: its wall time in nanoseconds and
  /// how many requests it decided (a batch flush decides every request of
  /// its window). Every replay of an instance makes the same steps, so
  /// entry i is the same step in each.
  std::vector<int64_t> step_ns;
  std::vector<int32_t> step_requests;
  /// Batch mode: virtual wait from arrival to window close, summed.
  double wait_sum_s = 0.0;
  int64_t enqueued = 0;
  double revenue = 0.0;
  int64_t assignments = 0;
};

/// Steps `engine` to completion, timing each Step (through `log` when
/// non-null). False after a failed step, which is counted in `report`.
bool ReplayOnce(comx::SimEngine* engine, SpanLog* log, Replay* out,
                RunReport* report) {
  StepRecord rec;
  const int64_t start = NowNanos();
  while (!engine->Done()) {
    int32_t span = -1;
    int64_t t0 = 0;
    if (log != nullptr) {
      span = log->Open(SpanKind::kStep, -1);
    } else {
      t0 = NowNanos();
    }
    const comx::Status st = engine->Step(&rec);
    int64_t ns;
    int32_t decided = 0;
    if (rec.kind == StepRecord::Kind::kDecision) decided = 1;
    if (rec.kind == StepRecord::Kind::kBatchFlush) {
      for (const auto& delta : rec.batch_deltas) {
        decided += static_cast<int32_t>(delta.requests);
      }
    }
    if (log != nullptr) {
      log->Close(span, static_cast<uint8_t>(rec.kind), decided);
      Span& s = log->at(span);
      s.flag = rec.kind == StepRecord::Kind::kArrival && rec.rearrival;
      s.request = rec.kind == StepRecord::Kind::kDecision ? rec.request : -1;
      ns = s.end_ns - s.start_ns;
    } else {
      ns = NowNanos() - t0;
    }
    if (!st.ok()) {
      ++report->failed;
      report->Fail("step failed: " + st.ToString());
      return false;
    }
    if (rec.kind == StepRecord::Kind::kBatchEnqueue) {
      const double close =
          (std::floor(rec.time / kBatchWindowSeconds) + 1.0) *
          kBatchWindowSeconds;
      out->wait_sum_s += close - rec.time;
      ++out->enqueued;
    }
    out->decisions += decided;
    out->step_ns.push_back(ns);
    out->step_requests.push_back(decided);
  }
  out->wall_s = static_cast<double>(NowNanos() - start) / 1e9;
  out->static_events = static_cast<int64_t>(engine->static_cursor());
  const comx::SimResult result = engine->Finish();
  out->revenue = result.metrics.TotalRevenue();
  out->assignments = static_cast<int64_t>(result.matching.assignments.size());
  return true;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Per-layer metrics from the traced replay's spans.
void LayersFromSpans(const SpanLog& log, const Replay& traced,
                     RunReport* report) {
  const std::vector<Span>& spans = log.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> arrival_us, request_us, flush_us, enqueue_us,
      on_request_us, inner_scan_us, outer_scan_us, inner_cands, outer_cands,
      window_requests;
  int64_t steps = 0, rearrivals = 0, step_ns = 0, step_self_ns = 0,
          core_ns = 0, core_self_ns = 0, geo_ns = 0, flush_ns = 0,
          distances = 0;
  int64_t outcomes[3] = {0, 0, 0};
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t ns = s.end_ns - s.start_ns;
    const double us = static_cast<double>(ns) / 1e3;
    switch (s.kind) {
      case SpanKind::kStep: {
        ++steps;
        step_ns += ns;
        step_self_ns += ns - child_ns[i];
        const auto kind = static_cast<StepRecord::Kind>(s.tag);
        if (kind == StepRecord::Kind::kArrival) {
          arrival_us.push_back(us);
          rearrivals += s.flag;
        } else if (kind == StepRecord::Kind::kDecision) {
          request_us.push_back(us);
        } else if (kind == StepRecord::Kind::kBatchEnqueue) {
          enqueue_us.push_back(us);
        } else {
          flush_us.push_back(us);
          flush_ns += ns;
          window_requests.push_back(s.count);
        }
        break;
      }
      case SpanKind::kOnRequest:
        on_request_us.push_back(us);
        core_ns += ns;
        core_self_ns += ns - child_ns[i];
        ++outcomes[s.tag < 3 ? s.tag : 0];
        break;
      case SpanKind::kInnerScan:
        inner_scan_us.push_back(us);
        inner_cands.push_back(s.count);
        geo_ns += ns;
        break;
      case SpanKind::kOuterScan:
        outer_scan_us.push_back(us);
        outer_cands.push_back(s.count);
        geo_ns += ns;
        break;
      case SpanKind::kDistance:
      case SpanKind::kBatchDistance:
        distances += s.count;
        geo_ns += ns;
        break;
    }
  }
  // Self times partition the Step spans: every span below a Step is an
  // OnRequest or a view call, and view calls have no children.
  const int64_t parts = step_self_ns + core_self_ns + geo_ns;
  if (parts != step_ns) {
    report->Fail(comx::StrFormat(
        "self times do not reconcile: sim.self %lld + core.self %lld + geo "
        "%lld != sim.busy %lld ns",
        static_cast<long long>(step_self_ns),
        static_cast<long long>(core_self_ns), static_cast<long long>(geo_ns),
        static_cast<long long>(step_ns)));
  }
  if (const comx::Status st = log.CheckNesting(); !st.ok()) {
    report->Fail("span nesting: " + st.ToString());
  }

  auto& L = report->per_layer;
  L["sim.steps"] = static_cast<double>(steps);
  L["sim.rearrivals"] = static_cast<double>(rearrivals);
  L["sim.arrival_step_p50_us"] = Quantile(arrival_us, 0.5);
  L["sim.request_step_p50_us"] = Quantile(request_us, 0.5);
  L["sim.request_step_p99_us"] = Quantile(request_us, 0.99);
  L["sim.busy_s"] = Seconds(step_ns);
  L["sim.self_busy_s"] = Seconds(step_self_ns);
  L["sim.loop_residual_s"] = traced.wall_s - Seconds(step_ns);

  L["core.on_request_p50_us"] = Quantile(on_request_us, 0.5);
  L["core.on_request_p99_us"] = Quantile(on_request_us, 0.99);
  L["core.busy_s"] = Seconds(core_ns);
  L["core.self_busy_s"] = Seconds(core_self_ns);
  L["core.reject"] = static_cast<double>(outcomes[0]);
  L["core.inner"] = static_cast<double>(outcomes[1]);
  L["core.outer"] = static_cast<double>(outcomes[2]);

  std::vector<double> priced, samples, bisect;
  int64_t offered = 0, accepted = 0;
  for (const DecisionSample& d : log.decisions()) {
    if (d.stats.priced_candidates >= 0) {
      priced.push_back(d.stats.priced_candidates);
    }
    if (d.attempted_outer) {
      ++offered;
      samples.push_back(static_cast<double>(d.stats.estimator_samples));
      bisect.push_back(static_cast<double>(d.stats.bisect_iterations));
      if (d.kind == comx::Decision::Kind::kOuter) ++accepted;
    }
  }
  const double requests = static_cast<double>(log.decisions().size());
  L["pricing.priced_candidates_mean"] = Mean(priced);
  L["pricing.estimator_samples_mean"] = Mean(samples);
  L["pricing.offer_ratio"] = requests > 0 ? offered / requests : 0.0;
  L["pricing.acceptance_ratio"] =
      offered > 0 ? static_cast<double>(accepted) / offered : 0.0;
  L["pricing.bisect_iterations_mean"] = Mean(bisect);

  L["geo.inner_scan_p50_us"] = Quantile(inner_scan_us, 0.5);
  L["geo.inner_scan_p99_us"] = Quantile(inner_scan_us, 0.99);
  L["geo.outer_scan_p50_us"] = Quantile(outer_scan_us, 0.5);
  L["geo.outer_scan_p99_us"] = Quantile(outer_scan_us, 0.99);
  L["geo.busy_s"] = Seconds(geo_ns);
  L["geo.inner_candidates_mean"] = Mean(inner_cands);
  L["geo.outer_candidates_mean"] = Mean(outer_cands);
  L["geo.outer_candidates_p99"] = Quantile(outer_cands, 0.99);
  L["geo.distance_calls"] = static_cast<double>(distances);

  L["matching.windows"] = static_cast<double>(flush_us.size());
  L["matching.window_requests_mean"] = Mean(window_requests);
  L["matching.window_requests_max"] = Quantile(window_requests, 1.0);
  L["matching.flush_p50_us"] = Quantile(flush_us, 0.5);
  L["matching.flush_p99_us"] = Quantile(flush_us, 0.99);
  L["matching.flush_busy_s"] = Seconds(flush_ns);
  L["matching.enqueue_step_p50_us"] = Quantile(enqueue_us, 0.5);
  L["matching.mean_wait_s"] =
      traced.enqueued > 0 ? traced.wait_sum_s / traced.enqueued : 0.0;
}

}  // namespace

void RunEngineWorkload(const RunArgs& args, RunReport* report) {
  const EngineSpec spec = SpecFor(args.workload);
  const comx::SimConfig sim = ConfigFor(spec);
  const std::string prefix = args.work_dir + "/instance";

  // Set-up, repeated: generate -> save -> load (the hand-off every other
  // consumer of the instance uses), then build the engine.
  std::unique_ptr<comx::SimEngine> engine;
  MatcherSet plain;
  std::unique_ptr<comx::Instance> instance;
  std::vector<double> generate_s, init_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    const int64_t t0 = NowNanos();
    auto generated = comx::GenerateSynthetic(GeneratorFor(spec, args.seed));
    if (!generated.ok()) return report->Fail(generated.status().ToString());
    if (auto st = comx::SaveInstance(*generated, prefix); !st.ok()) {
      return report->Fail(st.ToString());
    }
    auto loaded = comx::LoadInstance(prefix);
    if (!loaded.ok()) return report->Fail(loaded.status().ToString());
    instance = std::make_unique<comx::Instance>(std::move(*loaded));
    const int64_t t1 = NowNanos();
    plain = MakeMatchers(spec.algo, instance->PlatformCount(), nullptr);
    engine = std::make_unique<comx::SimEngine>();
    if (auto st = engine->Init(*instance, plain.ptrs, sim, kEngineSeed);
        !st.ok()) {
      return report->Fail(st.ToString());
    }
    const int64_t t2 = NowNanos();
    generate_s.push_back(Seconds(t1 - t0));
    init_s.push_back(Seconds(t2 - t1));
  }
  const int64_t events = static_cast<int64_t>(instance->events().size());

  // Reference: RunSimulation with fresh undecorated matchers. It runs
  // before the timed replays and doubles as their warm-up.
  double ref_revenue = 0.0;
  int64_t ref_assignments = 0;
  {
    MatcherSet fresh =
        MakeMatchers(spec.algo, instance->PlatformCount(), nullptr);
    auto ref = comx::RunSimulation(*instance, fresh.ptrs, sim, kEngineSeed);
    if (!ref.ok()) {
      return report->Fail("reference run: " + ref.status().ToString());
    }
    ref_revenue = ref->metrics.TotalRevenue();
    ref_assignments = static_cast<int64_t>(ref->matching.assignments.size());
  }

  // Untraced replays: until --seconds of replay time, at least
  // kMinTimedReplays (a traced run makes one). Each replay is folded into
  // every step's fastest time as it ends. On a shared host other tenants
  // slow whole stretches of a replay by 20% and more; a step is rarely
  // slowed in every replay, so the per-step minimum keeps the program's
  // own cost and drops most of that interference.
  std::vector<Replay> replays;
  std::vector<int64_t> fastest_ns;
  std::vector<int32_t> step_requests;
  double replay_s = 0.0;
  double peak_rss_mb = 0.0;
  // The host-speed calibration runs before the first replay and after
  // each one.
  int64_t calibration_ns = CalibrationNanos();
  for (;;) {
    if (!replays.empty()) {
      engine = std::make_unique<comx::SimEngine>();
      if (auto st = engine->Init(*instance, plain.ptrs, sim, kEngineSeed);
          !st.ok()) {
        return report->Fail(st.ToString());
      }
    }
    Replay& r = replays.emplace_back();
    report->attempted += events;
    if (!ReplayOnce(engine.get(), nullptr, &r, report)) return;
    replay_s += r.wall_s;
    if (replays.size() == 1) {
      fastest_ns = std::move(r.step_ns);
      step_requests = std::move(r.step_requests);
      // The reference run and one replay reach the program's peak; later
      // replays add only this loop's own per-step buffers.
      peak_rss_mb = PeakRssMb();
    } else if (r.step_requests != step_requests) {
      return report->Fail("replays decided requests in different steps");
    } else {
      for (size_t i = 0; i < fastest_ns.size(); ++i) {
        fastest_ns[i] = std::min(fastest_ns[i], r.step_ns[i]);
      }
    }
    r.step_ns = {};
    r.step_requests = {};
    const int64_t cal_ns = CalibrationNanos();
    calibration_ns = std::min(calibration_ns, cal_ns);
    int64_t fastest_sum_ns = 0;
    for (const int64_t ns : fastest_ns) fastest_sum_ns += ns;
    std::fprintf(stderr,
                 "perfbench: replay %zu: %.3f s; every step at its fastest so "
                 "far: %.3f s; calibration %.2f ms; peak RSS %.2f MB\n",
                 replays.size(), r.wall_s, Seconds(fastest_sum_ns),
                 static_cast<double>(cal_ns) / 1e6, PeakRssMb());
    if (args.trace) break;
    if (replay_s >= args.seconds &&
        replays.size() >= static_cast<size_t>(kMinTimedReplays)) {
      break;
    }
  }

  // Traced replay through the probes.
  SpanLog log;
  Replay traced;
  MatcherSet probed;
  if (args.trace) {
    probed = MakeMatchers(spec.algo, instance->PlatformCount(), &log);
    engine = std::make_unique<comx::SimEngine>();
    if (auto st = engine->Init(*instance, probed.ptrs, sim, kEngineSeed);
        !st.ok()) {
      return report->Fail(st.ToString());
    }
    report->attempted += events;
    if (!ReplayOnce(engine.get(), &log, &traced, report)) return;
  }
  engine.reset();

  auto check = [&](const Replay& r) {
    if (r.revenue != ref_revenue || r.assignments != ref_assignments ||
        r.static_events != events) {
      report->Fail(comx::StrFormat(
          "replay revenue=%.17g assignments=%lld events=%lld vs "
          "RunSimulation revenue=%.17g assignments=%lld events=%lld",
          r.revenue, static_cast<long long>(r.assignments),
          static_cast<long long>(r.static_events), ref_revenue,
          static_cast<long long>(ref_assignments),
          static_cast<long long>(events)));
    }
  };
  for (const Replay& r : replays) check(r);
  if (args.trace) check(traced);

  // Every timing below is taken with each step at its fastest time and
  // scaled to the reference host speed (stats.h).
  const double scale =
      kCalibrationReferenceNanos / static_cast<double>(calibration_ns);
  std::fprintf(stderr,
               "perfbench: fastest calibration %.3f ms; timings scaled by "
               "%.4f\n",
               static_cast<double>(calibration_ns) / 1e6, scale);
  std::vector<double> decision_us;
  decision_us.reserve(static_cast<size_t>(replays.front().decisions));
  int64_t fastest_sum_ns = 0;
  for (size_t i = 0; i < fastest_ns.size(); ++i) {
    fastest_sum_ns += fastest_ns[i];
    decision_us.insert(decision_us.end(),
                       static_cast<size_t>(step_requests[i]),
                       static_cast<double>(fastest_ns[i]) / 1e3 * scale);
  }
  const double fastest_s = Seconds(fastest_sum_ns) * scale;
  auto& E = report->end_to_end;
  E["setup_s"] = (Median(generate_s) + Median(init_s)) * scale;
  E["decisions_per_s"] =
      static_cast<double>(replays.front().decisions) / fastest_s;
  E["decision_p50_us"] = Quantile(decision_us, 0.5);
  E["decision_p99_us"] = Quantile(decision_us, 0.99);
  // Single-threaded engine ceiling: offered (static) events per second.
  E["capacity_qps"] = static_cast<double>(events) / fastest_s;
  E["revenue"] = ref_revenue;
  E["peak_rss_mb"] = peak_rss_mb;

  if (!args.trace) return;
  LayersFromSpans(log, traced, report);
  auto& L = report->per_layer;
  L["sim.init_s"] = Median(init_s);
  L["datagen.generate_s"] = Median(generate_s);
  L["trace.overhead_frac"] = traced.wall_s / replays.front().wall_s - 1.0;
  L["failed_frac"] = static_cast<double>(report->failed) /
                     static_cast<double>(report->attempted);
  if (auto st = log.WriteCsv(args.work_dir + "/spans.csv"); !st.ok()) {
    report->Fail(st.ToString());
  }
  if (!ProbesAreTransparent()) report->Fail("layer probes changed results");
}

bool ProbesAreTransparent() {
  comx::SimConfig sim;
  sim.workers_recycle = true;
  sim.measure_response_time = false;
  bool ok = true;
  for (const char* algo : {"tota", "demcom", "ramcom"}) {
    for (const uint64_t seed : {1, 2, 3}) {
      comx::SyntheticConfig gen;
      gen.requests_per_platform = {1500};
      gen.workers_per_platform = {300};
      gen.seed = 100 + seed;
      auto instance = comx::GenerateSynthetic(gen);
      if (!instance.ok()) return false;
      MatcherSet plain = MakeMatchers(algo, instance->PlatformCount(), nullptr);
      SpanLog log;
      MatcherSet probed = MakeMatchers(algo, instance->PlatformCount(), &log);
      auto a = comx::RunSimulation(*instance, plain.ptrs, sim, seed);
      auto b = comx::RunSimulation(*instance, probed.ptrs, sim, seed);
      if (!a.ok() || !b.ok()) return false;
      const auto& x = a->matching.assignments;
      const auto& y = b->matching.assignments;
      bool same = a->metrics.TotalRevenue() == b->metrics.TotalRevenue() &&
                  x.size() == y.size() && !log.spans().empty();
      for (size_t i = 0; same && i < x.size(); ++i) {
        same = x[i].request == y[i].request && x[i].worker == y[i].worker &&
               x[i].is_outer == y[i].is_outer &&
               x[i].outer_payment == y[i].outer_payment &&
               x[i].revenue == y[i].revenue;
      }
      std::fprintf(stderr, "perfbench selftest: %s seed %llu: %s (%zu spans)\n",
                   algo, static_cast<unsigned long long>(seed),
                   same ? "identical" : "DIFFERENT", log.spans().size());
      ok = ok && same;
    }
  }
  return ok;
}

}  // namespace perfbench
