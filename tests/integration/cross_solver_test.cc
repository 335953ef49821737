// Cross-solver bound chain on small instances: the relationships that must
// hold between every way this repo can "solve" a COM instance.
//
//   online (reservation mode) <= exact schedule <= relaxed OFF bound
//   batch (reservation mode)  <= exact schedule (a window only defers
//                                decisions; its requests still take only
//                                workers that arrived before them)
//   strict bipartite OFF      <= exact schedule (recycling only adds)

#include <memory>

#include <gtest/gtest.h>

#include "core/dem_com.h"
#include "core/offline_opt.h"
#include "core/ram_com.h"
#include "core/tota_greedy.h"
#include "core/window_greedy.h"
#include "datagen/synthetic.h"
#include "sim/offline_schedule.h"
#include "sim/simulator.h"

namespace comx {
namespace {

constexpr uint64_t kRhoSeed = 321;

Instance TinyInstance(uint64_t seed) {
  SyntheticConfig config;
  config.requests_per_platform = {5};
  config.workers_per_platform = {4};
  config.seed = seed;
  return std::move(GenerateSynthetic(config)).value();
}

SimConfig ReservationSim(bool recycle) {
  SimConfig sim;
  sim.workers_recycle = recycle;
  sim.measure_response_time = false;
  sim.acceptance_mode = AcceptanceMode::kReservation;
  sim.reservation_seed = kRhoSeed;
  return sim;
}

double ExactScheduleTotal(const Instance& ins, bool recycle) {
  ScheduleConfig config;
  config.sim = ReservationSim(recycle);
  config.reservation_seed = kRhoSeed;
  double total = 0.0;
  for (PlatformId p = 0; p < ins.PlatformCount(); ++p) {
    auto sol = SolveOfflineSchedule(ins, p, config);
    EXPECT_TRUE(sol.ok()) << sol.status();
    total += sol->revenue;
  }
  return total;
}

double RelaxedBoundTotal(const Instance& ins) {
  OfflineConfig config;
  config.worker_capacity = 16;  // >= any feasible per-worker service count
  config.seed = kRhoSeed;
  double total = 0.0;
  for (PlatformId p = 0; p < ins.PlatformCount(); ++p) {
    auto sol = SolveOffline(ins, p, config);
    EXPECT_TRUE(sol.ok());
    EXPECT_EQ(sol->solver, "relaxed");
    total += sol->matching.total_revenue;
  }
  return total;
}

double StrictMatchingTotal(const Instance& ins) {
  OfflineConfig config;
  config.seed = kRhoSeed;
  double total = 0.0;
  for (PlatformId p = 0; p < ins.PlatformCount(); ++p) {
    auto sol = SolveOffline(ins, p, config);
    EXPECT_TRUE(sol.ok());
    total += sol->matching.total_revenue;
  }
  return total;
}

class CrossSolverTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CrossSolverTest, BoundChainHolds) {
  const Instance ins = TinyInstance(GetParam());
  const bool recycle = true;

  const double relaxed = RelaxedBoundTotal(ins);
  const double exact = ExactScheduleTotal(ins, recycle);
  const double strict = StrictMatchingTotal(ins);

  EXPECT_LE(exact, relaxed + 1e-9) << "exact schedule above relaxed bound";
  EXPECT_LE(strict, exact + 1e-9) << "strict matching above exact schedule";

  // Online runs under the same reservation reality stay below the exact
  // schedule (which explores every feasible decision sequence).
  for (uint64_t s = 1; s <= 3; ++s) {
    DemCom d0, d1;
    auto dem = RunSimulation(ins, {&d0, &d1}, ReservationSim(recycle), s);
    ASSERT_TRUE(dem.ok());
    EXPECT_LE(dem->metrics.TotalRevenue(), exact + 1e-6);

    RamCom r0, r1;
    auto ram = RunSimulation(ins, {&r0, &r1}, ReservationSim(recycle), s);
    ASSERT_TRUE(ram.ok());
    EXPECT_LE(ram->metrics.TotalRevenue(), exact + 1e-6);
  }
}

TEST_P(CrossSolverTest, BatchStaysBelowExactSchedule) {
  const Instance ins = TinyInstance(GetParam() + 50);
  const double exact = ExactScheduleTotal(ins, /*recycle=*/true);
  for (double window : {30.0, 300.0, 3600.0}) {
    SimConfig batch = ReservationSim(true);
    batch.batch_mode = true;
    batch.batch_window_seconds = window;
    WindowGreedy g0, g1;
    auto result = RunSimulation(ins, {&g0, &g1}, batch, 2);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(AuditSimResult(ins, batch, *result).ok()) << window;
    // A window solve picks among the decisions a per-request dispatch
    // could also make (same workers, MER prices >= the reservation they
    // clear) and starts services later, so the exact schedule, which
    // explores every feasible decision sequence, bounds it like the
    // online runs above.
    EXPECT_LE(result->metrics.TotalRevenue(), exact + 1e-6) << window;
  }
}

TEST_P(CrossSolverTest, NoRecycleChainMatchesStrictOptimum) {
  const Instance ins = TinyInstance(GetParam() + 100);
  const double strict = StrictMatchingTotal(ins);
  const double exact_no_recycle = ExactScheduleTotal(ins, /*recycle=*/false);
  EXPECT_NEAR(strict, exact_no_recycle, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSolverTest,
                         testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace comx
