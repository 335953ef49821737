// End-to-end resilience tests: fault injection wired through the simulator.
// Covers the determinism guard (same seed + plan => bit-identical results),
// the zero-fault equivalence (availability 1.0 == no plan at all), and
// graceful degradation (partner fully down => run completes, revenue no
// worse than inner-only TOTA).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/dem_com.h"
#include "core/ram_com.h"
#include "core/tota_greedy.h"
#include "datagen/synthetic.h"
#include "fault/fault_plan.h"
#include "obs/metrics_registry.h"
#include "sim/simulator.h"

namespace comx {
namespace {

Instance MediumInstance() {
  SyntheticConfig config;
  config.platforms = 2;
  config.requests_per_platform = {120};
  config.workers_per_platform = {40};
  config.radius_km = 1.0;
  config.imbalance = 0.7;
  config.seed = 2020;
  auto instance = GenerateSynthetic(config);
  EXPECT_TRUE(instance.ok());
  return *std::move(instance);
}

fault::FaultPlan AllPartnersAt(double availability, int32_t platforms) {
  fault::FaultPlan plan;
  for (int32_t p = 0; p < platforms; ++p) {
    fault::PartnerFaultSpec spec;
    spec.partner = p;
    spec.availability = availability;
    plan.partners.push_back(spec);
  }
  return plan;
}

Result<SimResult> RunAlgo(const Instance& instance, const char* algo,
                          const fault::FaultPlan* plan, uint64_t seed) {
  std::vector<std::unique_ptr<OnlineMatcher>> owned;
  std::vector<OnlineMatcher*> matchers;
  for (PlatformId p = 0; p < instance.PlatformCount(); ++p) {
    if (std::string(algo) == "tota") {
      owned.push_back(std::make_unique<TotaGreedy>());
    } else if (std::string(algo) == "ramcom") {
      owned.push_back(std::make_unique<RamCom>());
    } else {
      owned.push_back(std::make_unique<DemCom>());
    }
    matchers.push_back(owned.back().get());
  }
  SimConfig sim;
  sim.measure_response_time = false;
  sim.fault_plan = plan;
  return RunSimulation(instance, matchers, sim, seed);
}

TEST(FaultSimTest, SameSeedAndPlanBitIdentical) {
  const Instance instance = MediumInstance();
  fault::FaultPlan plan = AllPartnersAt(0.6, 2);
  plan.partners[1].stale_probability = 0.2;
  plan.partners[1].latency_ms_mean = 20.0;
  plan.partners[1].timeout_ms = 40.0;
  auto a = RunAlgo(instance, "demcom", &plan, 99);
  auto b = RunAlgo(instance, "demcom", &plan, 99);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->matching.assignments, b->matching.assignments);
  EXPECT_DOUBLE_EQ(a->matching.total_revenue, b->matching.total_revenue);
  EXPECT_EQ(a->fault_stats, b->fault_stats);
  // The plan actually fired — this is not a vacuous comparison.
  EXPECT_GT(a->fault_stats.attempts, 0);
}

TEST(FaultSimTest, AvailabilityOnePlanIsBitExactBaseline) {
  const Instance instance = MediumInstance();
  const fault::FaultPlan trivial = AllPartnersAt(1.0, 2);
  ASSERT_TRUE(trivial.Trivial());
  for (const char* algo : {"demcom", "ramcom"}) {
    auto baseline = RunAlgo(instance, algo, nullptr, 7);
    auto faulted = RunAlgo(instance, algo, &trivial, 7);
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(faulted.ok());
    EXPECT_EQ(baseline->matching.assignments, faulted->matching.assignments)
        << algo;
    EXPECT_DOUBLE_EQ(baseline->matching.total_revenue,
                     faulted->matching.total_revenue)
        << algo;
    // No attempts, no retries, no degradation: the whole subsystem idled.
    EXPECT_EQ(faulted->fault_stats, fault::FaultSessionStats{}) << algo;
  }
}

TEST(FaultSimTest, NoPlanLeavesFaultStatsZero) {
  const Instance instance = MediumInstance();
  auto result = RunAlgo(instance, "demcom", nullptr, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->fault_stats, fault::FaultSessionStats{});
}

TEST(FaultSimTest, PartnerFullyDownDegradesToInnerOnly) {
  const Instance instance = MediumInstance();
  const fault::FaultPlan down = AllPartnersAt(0.0, 2);
  auto degraded = RunAlgo(instance, "demcom", &down, 5);
  auto tota = RunAlgo(instance, "tota", nullptr, 5);
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(tota.ok());
  // The run completes, every assignment is inner, and revenue is no worse
  // than never cooperating at all.
  for (const Assignment& a : degraded->matching.assignments) {
    EXPECT_FALSE(a.is_outer);
  }
  EXPECT_GE(degraded->matching.total_revenue,
            tota->matching.total_revenue - 1e-9);
  EXPECT_GT(degraded->fault_stats.degraded_requests, 0);
  EXPECT_GT(degraded->fault_stats.partner_unreachable, 0);
  EXPECT_GT(degraded->fault_stats.retries, 0);
}

TEST(FaultSimTest, BackoffHistogramRecordsEveryRetryInVirtualSeconds) {
  const Instance instance = MediumInstance();
  const fault::FaultPlan down = AllPartnersAt(0.0, 2);
  obs::LatencyHistogram* backoff =
      obs::MetricsRegistry::Global().GetLatencyHistogram(
          "comx_fault_retry_backoff_seconds");
  backoff->Reset();
  auto unobserved = RunAlgo(instance, "demcom", &down, 5);
  ASSERT_TRUE(unobserved.ok());
  EXPECT_EQ(backoff->Count(), 0);  // collection is off by default
  obs::SetCollectionEnabled(true);
  auto result = RunAlgo(instance, "demcom", &down, 5);
  obs::SetCollectionEnabled(false);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->fault_stats.retries, 0);
  const obs::LatencySnapshot snap = backoff->Snapshot();
  EXPECT_EQ(snap.count, result->fault_stats.retries);
  // Each retry's virtual ms is recorded as ns, rounded to the nearest one.
  EXPECT_NEAR(static_cast<double>(snap.sum_nanos),
              result->fault_stats.backoff_ms_total * 1e6,
              0.5 * static_cast<double>(snap.count) + 1.0);
}

TEST(FaultSimTest, BreakerOpensUnderSustainedFailure) {
  const Instance instance = MediumInstance();
  fault::FaultPlan down = AllPartnersAt(0.0, 2);
  down.breaker.failure_threshold = 3;
  down.breaker.open_seconds = 1e9;  // never probes again within the run
  auto result = RunAlgo(instance, "demcom", &down, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->fault_stats.breaker_open_skips, 0);
  EXPECT_GT(result->fault_stats.breaker_transitions, 0);
}

TEST(FaultSimTest, RevenueRecoversMonotonicallyAtTheEndpoints) {
  const Instance instance = MediumInstance();
  const fault::FaultPlan down = AllPartnersAt(0.0, 2);
  const fault::FaultPlan half = AllPartnersAt(0.5, 2);
  double down_rev = 0.0, half_rev = 0.0, full_rev = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto a = RunAlgo(instance, "demcom", &down, seed);
    auto b = RunAlgo(instance, "demcom", &half, seed);
    auto c = RunAlgo(instance, "demcom", nullptr, seed);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    down_rev += a->matching.total_revenue;
    half_rev += b->matching.total_revenue;
    full_rev += c->matching.total_revenue;
  }
  EXPECT_LE(down_rev, half_rev + 1e-9);
  EXPECT_LE(half_rev, full_rev + 1e-9);
}

TEST(FaultSimTest, StaleReservesFallBackOrRejectWithoutFailing) {
  const Instance instance = MediumInstance();
  fault::FaultPlan stale = AllPartnersAt(1.0, 2);
  for (auto& spec : stale.partners) spec.stale_probability = 1.0;
  ASSERT_FALSE(stale.Trivial());
  auto result = RunAlgo(instance, "demcom", &stale, 5);
  ASSERT_TRUE(result.ok());
  // Every reserve conflicts, so every outer commit exhausts its fallbacks
  // and converts to an inner-only decision — never an error.
  EXPECT_GT(result->fault_stats.reserve_conflicts, 0);
  for (const Assignment& a : result->matching.assignments) {
    EXPECT_FALSE(a.is_outer);
  }
}

TEST(FaultSimTest, InvalidPlanFailsTheRunUpFront) {
  const Instance instance = MediumInstance();
  fault::FaultPlan bad = AllPartnersAt(0.5, 1);
  bad.partners[0].availability = -0.5;
  auto result = RunAlgo(instance, "demcom", &bad, 1);
  EXPECT_FALSE(result.ok());
}

TEST(FaultSimTest, OutageWindowOnlyAffectsItsSpan) {
  const Instance instance = MediumInstance();
  fault::FaultPlan plan;
  fault::PartnerFaultSpec spec;
  spec.partner = 1;
  // Cover the whole run: every query to partner 1 lands in the outage.
  spec.outages.push_back({0.0, 1e9});
  plan.partners.push_back(spec);
  auto result = RunAlgo(instance, "demcom", &plan, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->fault_stats.attempt_outages, 0);
  // Outages are deterministic: no retries are spent on them.
  EXPECT_EQ(result->fault_stats.retries, 0);
  // Partner 0 was never mentioned, so platform 1 can still borrow from it.
  EXPECT_EQ(result->fault_stats.reserve_conflicts, 0);
}

}  // namespace
}  // namespace comx
