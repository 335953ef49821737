// Batch-mode engine tests: the window=0 differential guarantee (bit
// identity with the online WindowGreedy matcher), windowed feasibility
// under AuditSimResult, determinism, invariance under whole-window time
// shifts, metric identities and wait bounds on synthetic cities, and the
// mode's refusal surface.

#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/window_greedy.h"
#include "datagen/synthetic.h"
#include "fault/fault_plan.h"
#include "sim/sim_engine.h"
#include "sim/simulator.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace comx {
namespace {

using testing_fixtures::MakeRequest;
using testing_fixtures::MakeWorker;
using testing_fixtures::PaperExample;

// A small random 2-platform instance with cross-platform coverage so both
// inner and outer assignments (and their acceptance draws) occur.
Instance RandomInstance(Rng* rng) {
  Instance ins;
  const int workers = static_cast<int>(rng->UniformInt(4, 14));
  const int requests = static_cast<int>(rng->UniformInt(4, 24));
  for (int i = 0; i < workers; ++i) {
    const PlatformId p = static_cast<PlatformId>(rng->UniformInt(0, 1));
    std::vector<double> history;
    const int h = static_cast<int>(rng->UniformInt(1, 4));
    for (int k = 0; k < h; ++k) history.push_back(rng->Uniform(1.0, 8.0));
    ins.AddWorker(MakeWorker(p, rng->Uniform(0.0, 50.0),
                             rng->Uniform(0.0, 4.0), rng->Uniform(0.0, 4.0),
                             rng->Uniform(1.0, 5.0), std::move(history)));
  }
  for (int i = 0; i < requests; ++i) {
    const PlatformId p = static_cast<PlatformId>(rng->UniformInt(0, 1));
    ins.AddRequest(MakeRequest(p, rng->Uniform(0.0, 200.0),
                               rng->Uniform(0.0, 4.0), rng->Uniform(0.0, 4.0),
                               rng->Uniform(1.0, 10.0)));
  }
  ins.BuildEvents();
  return ins;
}

SimConfig BaseConfig() {
  SimConfig c;
  c.measure_response_time = false;
  return c;
}

void ExpectSameResult(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.matching.assignments.size(), b.matching.assignments.size());
  for (size_t i = 0; i < a.matching.assignments.size(); ++i) {
    const Assignment& x = a.matching.assignments[i];
    const Assignment& y = b.matching.assignments[i];
    EXPECT_EQ(x.request, y.request) << "assignment " << i;
    EXPECT_EQ(x.worker, y.worker) << "assignment " << i;
    EXPECT_EQ(x.is_outer, y.is_outer) << "assignment " << i;
    // Bitwise: the same candidate pricing and the same RNG draws.
    EXPECT_EQ(x.outer_payment, y.outer_payment) << "assignment " << i;
    EXPECT_EQ(x.revenue, y.revenue) << "assignment " << i;
  }
  EXPECT_EQ(a.metrics.TotalRevenue(), b.metrics.TotalRevenue());
  ASSERT_EQ(a.metrics.per_platform.size(), b.metrics.per_platform.size());
  for (size_t p = 0; p < a.metrics.per_platform.size(); ++p) {
    const PlatformMetrics& x = a.metrics.per_platform[p];
    const PlatformMetrics& y = b.metrics.per_platform[p];
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.completed_inner, y.completed_inner);
    EXPECT_EQ(x.completed_outer, y.completed_outer);
    EXPECT_EQ(x.rejected, y.rejected);
    EXPECT_EQ(x.outer_offers, y.outer_offers);
    EXPECT_EQ(x.revenue, y.revenue);
  }
}

// The tentpole differential: window=0 batch dispatch is the WindowGreedy
// online matcher, decision for decision and RNG draw for RNG draw.
TEST(EngineBatchTest, Window0BitIdenticalToWindowGreedyOver200Seeds) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(9000 + seed);
    const Instance ins = RandomInstance(&rng);
    const bool recycle = (seed % 3) != 0;
    const uint64_t sim_seed = 77 + seed;

    SimConfig online = BaseConfig();
    online.workers_recycle = recycle;
    if (seed % 4 == 0) {
      online.acceptance_mode = AcceptanceMode::kReservation;
      online.reservation_seed = seed;
    }
    WindowGreedy g0, g1;
    std::vector<OnlineMatcher*> matchers = {&g0, &g1};
    auto base = RunSimulation(ins, matchers, online, sim_seed);
    ASSERT_TRUE(base.ok()) << base.status().message() << " seed " << seed;

    SimConfig batch = online;
    batch.batch_mode = true;
    batch.batch_window_seconds = 0.0;
    auto batched = RunSimulation(ins, matchers, batch, sim_seed);
    ASSERT_TRUE(batched.ok())
        << batched.status().message() << " seed " << seed;
    ExpectSameResult(*base, *batched);
  }
}

TEST(EngineBatchTest, WindowedRunsPassTheAuditAcrossAlgos) {
  constexpr double kWindow = 30.0;
  for (BatchAlgo algo : {BatchAlgo::kAuto, BatchAlgo::kGreedy,
                         BatchAlgo::kHungarian, BatchAlgo::kIncrementalKm}) {
    Rng rng(314);
    for (uint64_t seed = 0; seed < 20; ++seed) {
      const Instance ins = RandomInstance(&rng);
      SimConfig config = BaseConfig();
      config.measure_response_time = true;  // records each request's wait
      config.batch_mode = true;
      config.batch_window_seconds = kWindow;
      config.batch.algo = algo;
      config.workers_recycle = (seed % 2) == 0;
      WindowGreedy g0, g1;
      auto result = RunSimulation(ins, {&g0, &g1}, config, seed);
      ASSERT_TRUE(result.ok())
          << result.status().message() << " algo "
          << BatchAlgoName(algo) << " seed " << seed;
      EXPECT_TRUE(AuditSimResult(ins, config, *result).ok())
          << AuditSimResult(ins, config, *result).message() << " algo "
          << BatchAlgoName(algo) << " seed " << seed;

      const PlatformMetrics agg = result->metrics.Aggregate();
      EXPECT_EQ(agg.completed + agg.rejected,
                static_cast<int64_t>(ins.requests().size()));
      EXPECT_EQ(agg.completed, agg.completed_inner + agg.completed_outer);
      EXPECT_LE(agg.completed_outer, agg.outer_offers);
      EXPECT_EQ(result->matching.assignments.size(),
                static_cast<size_t>(agg.completed));
      EXPECT_GE(agg.revenue, 0.0);
      // One wait per request, from its arrival to its window's close: a
      // request arriving exactly on a window boundary waits a full window.
      EXPECT_EQ(agg.response_time_us.count(),
                static_cast<int64_t>(ins.requests().size()));
      if (agg.response_time_us.count() > 0) {
        EXPECT_GE(agg.response_time_us.min(), 0.0);
        EXPECT_LE(agg.response_time_us.max(), kWindow * 1e6);
      }
    }
  }
}

TEST(EngineBatchTest, WindowedRunIsDeterministic) {
  Rng rng(500);
  const Instance ins = RandomInstance(&rng);
  SimConfig config = BaseConfig();
  config.batch_mode = true;
  config.batch_window_seconds = 45.0;
  WindowGreedy a0, a1, b0, b1;
  auto first = RunSimulation(ins, {&a0, &a1}, config, 9);
  auto second = RunSimulation(ins, {&b0, &b1}, config, 9);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameResult(*first, *second);
}

TEST(EngineBatchTest, ServesPaperExampleCompletely) {
  // With 2-second windows and borrowing, every request is matched; the
  // single-step outer histories give MER payments exactly at the step, so
  // acceptance is sure.
  const Instance ins = PaperExample();
  SimConfig config = BaseConfig();
  config.workers_recycle = false;
  config.batch_mode = true;
  config.batch_window_seconds = 2.0;
  WindowGreedy g0, g1;
  auto r = RunSimulation(ins, {&g0, &g1}, config, 1);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(AuditSimResult(ins, config, *r).ok());
  const PlatformMetrics agg = r->metrics.Aggregate();
  EXPECT_EQ(agg.completed, 5);
  EXPECT_EQ(agg.completed_outer, 2);
  // Revenue equals the offline COM optimum here: 21 (Fig. 3(c)).
  EXPECT_DOUBLE_EQ(agg.revenue, 21.0);
}

// PaperExample with every event time shifted by `offset` seconds.
Instance ShiftedPaperExample(double offset) {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1.0 + offset, 0.0, 0.0, 1.5));         // w1
  ins.AddWorker(MakeWorker(0, 2.0 + offset, 2.0, 0.0, 1.5));         // w2
  ins.AddWorker(MakeWorker(1, 4.0 + offset, 3.2, 0.0, 1.0, {3.0}));  // w3
  ins.AddWorker(MakeWorker(0, 7.0 + offset, 6.0, 0.0, 0.6));         // w4
  ins.AddWorker(MakeWorker(1, 9.0 + offset, 7.2, 0.0, 1.0, {2.0}));  // w5
  ins.AddRequest(MakeRequest(0, 3.0 + offset, 0.5, 0.0, 4.0));       // r1
  ins.AddRequest(MakeRequest(0, 5.0 + offset, 1.0, 0.0, 9.0));       // r2
  ins.AddRequest(MakeRequest(0, 6.0 + offset, 3.0, 0.0, 6.0));       // r3
  ins.AddRequest(MakeRequest(0, 8.0 + offset, 6.5, 0.0, 3.0));       // r4
  ins.AddRequest(MakeRequest(0, 10.0 + offset, 7.0, 0.0, 4.0));      // r5
  ins.BuildEvents();
  return ins;
}

// Runs `ins` in batch mode with `window`-second windows; the wait of every
// request is recorded.
SimResult RunWindows(const Instance& ins, double window, bool recycle,
                     uint64_t seed = 1) {
  SimConfig config = BaseConfig();
  config.measure_response_time = true;
  config.workers_recycle = recycle;
  config.batch_mode = true;
  config.batch_window_seconds = window;
  std::vector<WindowGreedy> greedy(static_cast<size_t>(ins.PlatformCount()));
  std::vector<OnlineMatcher*> matchers;
  for (WindowGreedy& g : greedy) matchers.push_back(&g);
  auto result = RunSimulation(ins, matchers, config, seed);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return SimResult{};
  EXPECT_TRUE(AuditSimResult(ins, config, *result).ok());
  return std::move(result).value();
}

void ExpectSameWaitsAndPickups(const SimResult& a, const SimResult& b) {
  const PlatformMetrics x = a.metrics.Aggregate();
  const PlatformMetrics y = b.metrics.Aggregate();
  EXPECT_EQ(x.response_time_us.count(), y.response_time_us.count());
  EXPECT_EQ(x.response_time_us.mean(), y.response_time_us.mean());
  EXPECT_EQ(x.response_time_us.max(), y.response_time_us.max());
  EXPECT_EQ(x.total_pickup_km, y.total_pickup_km);
}

TEST(EngineBatchTest, LateStartFastForwardsIdleWindowsIdentically) {
  // A first event a billion windows in must neither walk the empty
  // windows before it nor change any decision: the offset is a multiple
  // of the window, so window alignment and every arrival-to-close wait
  // are preserved exactly.
  const double offset = 2.0e9;
  for (double window : {2.0, 4.0}) {
    ASSERT_EQ(std::fmod(offset, window), 0.0);
    for (bool recycle : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "window " << window << " recycle " << recycle);
      const SimResult base =
          RunWindows(ShiftedPaperExample(0.0), window, recycle);
      const SimResult late =
          RunWindows(ShiftedPaperExample(offset), window, recycle);
      ExpectSameResult(base, late);
      ExpectSameWaitsAndPickups(base, late);
    }
  }
}

TEST(EngineBatchTest, MidRunIdleGapFastForwardsIdentically) {
  // Same property for a gap in the middle of the stream: a second
  // worker/request cluster arrives a billion windows after the first and
  // must be decided exactly as the same cluster placed nearby (both gaps
  // are multiples of the window).
  auto make = [](double second_cluster_offset) {
    Instance ins;
    ins.AddWorker(MakeWorker(0, 1.0, 0.0, 0.0, 1.5));
    ins.AddRequest(MakeRequest(0, 3.0, 0.5, 0.0, 4.0));
    ins.AddWorker(MakeWorker(0, 1.0 + second_cluster_offset, 6.0, 0.0, 0.6));
    ins.AddRequest(
        MakeRequest(0, 3.0 + second_cluster_offset, 6.5, 0.0, 3.0));
    ins.BuildEvents();
    return ins;
  };
  for (double window : {2.0, 4.0}) {
    for (bool recycle : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "window " << window << " recycle " << recycle);
      const SimResult near = RunWindows(make(40.0), window, recycle);
      const SimResult far = RunWindows(make(2.0e9), window, recycle);
      ExpectSameResult(near, far);
      ExpectSameWaitsAndPickups(near, far);
    }
  }
}

// GenerateSynthetic's two-platform city with `requests` requests and
// `workers` workers per platform.
Instance SyntheticCity(int64_t requests, int64_t workers, uint64_t seed) {
  SyntheticConfig config;
  config.requests_per_platform = {requests};
  config.workers_per_platform = {workers};
  config.seed = seed;
  auto ins = GenerateSynthetic(config);
  EXPECT_TRUE(ins.ok()) << ins.status();
  if (!ins.ok()) return Instance{};
  return std::move(ins).value();
}

TEST(EngineBatchTest, MetricsIdentitiesHold) {
  const Instance ins = SyntheticCity(200, 50, 31);
  const SimResult r = RunWindows(ins, 300.0, /*recycle=*/true, 2);
  const PlatformMetrics agg = r.metrics.Aggregate();
  EXPECT_GT(agg.completed_outer, 0);
  EXPECT_EQ(agg.completed + agg.rejected,
            static_cast<int64_t>(ins.requests().size()));
  EXPECT_EQ(agg.completed, agg.completed_inner + agg.completed_outer);
  EXPECT_LE(agg.completed_outer, agg.outer_offers);
  EXPECT_EQ(r.matching.assignments.size(),
            static_cast<size_t>(agg.completed));
  EXPECT_GE(agg.revenue, 0.0);
}

TEST(EngineBatchTest, NoRequestServedTwiceNoWorkerOverlap) {
  const Instance ins = SyntheticCity(150, 40, 32);
  // Strict: without recycling each worker serves once.
  const SimResult r = RunWindows(ins, 600.0, /*recycle=*/false, 3);
  ASSERT_FALSE(r.matching.assignments.empty());
  std::set<RequestId> requests;
  std::set<WorkerId> workers;
  for (const Assignment& a : r.matching.assignments) {
    EXPECT_TRUE(requests.insert(a.request).second) << "request reused";
    EXPECT_TRUE(workers.insert(a.worker).second) << "worker reused";
    const Request& req = ins.request(a.request);
    // The time constraint: a window never hands a request a worker who
    // arrived after it, however long the request waited.
    EXPECT_LE(ins.worker(a.worker).time, req.time) << "request " << a.request;
    if (a.is_outer) {
      EXPECT_GT(a.outer_payment, 0.0);
      EXPECT_NEAR(a.revenue, req.value - a.outer_payment, 1e-9);
    } else {
      EXPECT_NEAR(a.revenue, req.value, 1e-9);
    }
  }
}

TEST(EngineBatchTest, WaitBoundedByOneWindow) {
  // Every request is decided when its own window closes: nothing is held
  // over into a later window.
  constexpr double kWindow = 120.0;
  const Instance ins = SyntheticCity(100, 25, 33);
  const SimResult r = RunWindows(ins, kWindow, /*recycle=*/true, 4);
  const PlatformMetrics agg = r.metrics.Aggregate();
  ASSERT_EQ(agg.response_time_us.count(),
            static_cast<int64_t>(ins.requests().size()));
  EXPECT_GE(agg.response_time_us.min(), 0.0);
  EXPECT_LE(agg.response_time_us.max(), kWindow * 1e6);
}

TEST(EngineBatchTest, DeterministicGivenSeed) {
  // A synthetic city with recycling on: the same seed gives the same
  // decisions, payments and waits.
  const Instance ins = SyntheticCity(80, 20, 34);
  const SimResult a = RunWindows(ins, 240.0, /*recycle=*/true, 5);
  const SimResult b = RunWindows(ins, 240.0, /*recycle=*/true, 5);
  ASSERT_FALSE(a.matching.assignments.empty());
  ExpectSameResult(a, b);
  ExpectSameWaitsAndPickups(a, b);
}

TEST(EngineBatchTest, StepRecordsAccountForEveryRequest) {
  const Instance ins = PaperExample();
  SimConfig config = BaseConfig();
  config.batch_mode = true;
  config.batch_window_seconds = 4.0;
  WindowGreedy g0, g1;
  SimEngine engine;
  ASSERT_TRUE(engine.Init(ins, {&g0, &g1}, config, 3).ok());
  int64_t enqueued = 0;
  int64_t flushed_requests = 0;
  int64_t flushes = 0;
  StepRecord record;
  while (!engine.Done()) {
    ASSERT_TRUE(engine.Step(&record).ok());
    if (record.kind == StepRecord::Kind::kBatchEnqueue) {
      ++enqueued;
      EXPECT_GE(record.request, 0);
    } else if (record.kind == StepRecord::Kind::kBatchFlush) {
      ++flushes;
      for (const StepRecord::BatchPlatformDelta& d : record.batch_deltas) {
        flushed_requests += d.requests;
        EXPECT_EQ(d.requests, d.inner + d.outer + d.rejected);
      }
    }
  }
  EXPECT_EQ(enqueued, 5);
  EXPECT_EQ(flushed_requests, 5);
  EXPECT_GT(flushes, 1);  // the paper example spans several 4s windows
  const SimResult result = engine.Finish();
  EXPECT_TRUE(AuditSimResult(ins, config, result).ok());
}

TEST(EngineBatchTest, InitRefusesFaultPlans) {
  const Instance ins = PaperExample();
  fault::FaultPlan plan;  // even a trivial plan is refused in batch mode
  SimConfig config = BaseConfig();
  config.batch_mode = true;
  config.fault_plan = &plan;
  WindowGreedy g0, g1;
  SimEngine engine;
  EXPECT_EQ(engine.Init(ins, {&g0, &g1}, config, 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineBatchTest, InitRefusesBadWindows) {
  const Instance ins = PaperExample();
  WindowGreedy g0, g1;
  // 1e-300 s windows put the example's requests ~1e300 windows from t=0,
  // far past the 2^53 range where the window index is exact.
  for (double bad : {-1.0, std::nan(""),
                     std::numeric_limits<double>::infinity(), 1e-300}) {
    SimConfig config = BaseConfig();
    config.batch_mode = true;
    config.batch_window_seconds = bad;
    SimEngine engine;
    EXPECT_EQ(engine.Init(ins, {&g0, &g1}, config, 1).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(EngineBatchTest, RunSimulationValidatesTheWindow) {
  // The runner refuses what Init refuses. A zero window is valid: every
  // request is dispatched in its own window on arrival.
  const Instance ins = PaperExample();
  WindowGreedy g0, g1;
  SimConfig config = BaseConfig();
  config.batch_mode = true;
  config.batch_window_seconds = 0.0;
  EXPECT_TRUE(RunSimulation(ins, {&g0, &g1}, config, 1).ok());
  for (double bad : {-1.0, std::nan(""), 1e-300}) {
    config.batch_window_seconds = bad;
    EXPECT_EQ(RunSimulation(ins, {&g0, &g1}, config, 1).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(EngineBatchTest, InitRefusesRequestsBeyondTheExactWindowIndex) {
  // A request at t=1e300 is ~3e298 30-second windows out: its index would
  // overflow the int64 cast and book it into a window that closes long
  // before it arrives.
  Instance ins;
  ins.AddWorker(MakeWorker(0, 0.0, 0.0, 0.0, 2.0));
  ins.AddWorker(MakeWorker(0, 0.0, 1.0, 0.0, 2.0));
  ins.AddRequest(MakeRequest(0, 10.0, 0.5, 0.0, 4.0));
  ins.AddRequest(MakeRequest(0, 1e300, 0.5, 0.0, 4.0));
  ins.BuildEvents();
  ASSERT_TRUE(ins.Validate().ok());
  SimConfig config = BaseConfig();
  config.batch_mode = true;
  config.batch_window_seconds = 30.0;
  WindowGreedy g0;
  SimEngine engine;
  EXPECT_EQ(engine.Init(ins, {&g0}, config, 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineBatchTest, SaveStateRefusedInBatchMode) {
  const Instance ins = PaperExample();
  SimConfig config = BaseConfig();
  config.batch_mode = true;
  WindowGreedy g0, g1;
  SimEngine engine;
  ASSERT_TRUE(engine.Init(ins, {&g0, &g1}, config, 1).ok());
  ByteWriter out;
  EXPECT_EQ(engine.SaveState(&out).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace comx
