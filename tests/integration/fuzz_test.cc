// Randomized-configuration fuzzing: draw workload configs, algorithms, and
// simulation modes at random (deterministically seeded) and assert the
// whole-system invariants on every combination. Complements the curated
// InvariantSweep with breadth.

#include <memory>

#include <gtest/gtest.h>

#include "core/cost_aware.h"
#include "core/dem_com.h"
#include "core/greedy_rt.h"
#include "core/ram_com.h"
#include "core/ranking.h"
#include "core/tota_greedy.h"
#include "core/window_greedy.h"
#include "datagen/synthetic.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace comx {
namespace {

std::unique_ptr<OnlineMatcher> RandomMatcher(Rng* rng) {
  switch (rng->UniformInt(0, 5)) {
    case 0:
      return std::make_unique<TotaGreedy>(rng->Bernoulli(0.5));
    case 1:
      return std::make_unique<Ranking>();
    case 2:
      return std::make_unique<GreedyRt>();
    case 3:
      return std::make_unique<DemCom>();
    case 4:
      return std::make_unique<CostAwareDemCom>();
    default:
      return std::make_unique<RamCom>();
  }
}

SyntheticConfig RandomConfig(Rng* rng) {
  SyntheticConfig config;
  config.platforms = static_cast<int32_t>(rng->UniformInt(1, 4));
  config.requests_per_platform = {rng->UniformInt(0, 150)};
  config.workers_per_platform = {rng->UniformInt(0, 60)};
  config.radius_km = rng->Uniform(0.3, 3.0);
  config.imbalance = rng->Uniform(0.0, 1.0);
  config.min_history = static_cast<int32_t>(rng->UniformInt(1, 5));
  config.max_history =
      config.min_history + static_cast<int32_t>(rng->UniformInt(0, 20));
  config.value.distribution = rng->Bernoulli(0.5)
                                  ? ValueDistribution::kRealLike
                                  : ValueDistribution::kNormal;
  config.seed = rng->NextUint64();
  return config;
}

SimConfig RandomSimConfig(Rng* rng) {
  SimConfig sim;
  sim.workers_recycle = rng->Bernoulli(0.5);
  sim.measure_response_time = rng->Bernoulli(0.3);
  sim.acceptance_mode = rng->Bernoulli(0.3) ? AcceptanceMode::kReservation
                                            : AcceptanceMode::kBernoulli;
  sim.reservation_seed = rng->NextUint64();
  sim.speed_kmh = rng->Uniform(10.0, 60.0);
  sim.base_service_seconds = rng->Uniform(0.0, 900.0);
  sim.service_seconds_per_value = rng->Uniform(0.0, 120.0);
  return sim;
}

// Runs `matchers` over the instance and asserts feasibility plus the
// metric identities every run must keep.
void ExpectRunKeepsInvariants(const Instance& instance,
                              const SyntheticConfig& config,
                              const std::vector<OnlineMatcher*>& matchers,
                              const SimConfig& sim, uint64_t seed) {
  auto result = RunSimulation(instance, matchers, sim, seed);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(AuditSimResult(instance, sim, *result).ok())
      << AuditSimResult(instance, sim, *result);

  const PlatformMetrics agg = result->metrics.Aggregate();
  EXPECT_EQ(agg.completed + agg.rejected,
            static_cast<int64_t>(instance.requests().size()));
  EXPECT_EQ(agg.completed, agg.completed_inner + agg.completed_outer);
  EXPECT_LE(agg.completed_outer, agg.outer_offers);
  EXPECT_GE(agg.revenue, 0.0);
  EXPECT_GE(agg.total_pickup_km, 0.0);
  // Pickups are bounded by the configured radius per completion.
  EXPECT_LE(agg.total_pickup_km,
            static_cast<double>(agg.completed) * config.radius_km + 1e-6);
  EXPECT_EQ(result->matching.assignments.size(),
            static_cast<size_t>(agg.completed));
}

class FuzzTest : public testing::TestWithParam<int> {};

TEST_P(FuzzTest, RandomConfigsKeepAllInvariants) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 17);
  for (int round = 0; round < 6; ++round) {
    const SyntheticConfig config = RandomConfig(&rng);
    auto instance = GenerateSynthetic(config);
    ASSERT_TRUE(instance.ok()) << instance.status();
    ASSERT_TRUE(instance->Validate().ok());

    const SimConfig sim = RandomSimConfig(&rng);
    std::vector<std::unique_ptr<OnlineMatcher>> owned;
    std::vector<OnlineMatcher*> matchers;
    for (int32_t p = 0; p < config.platforms; ++p) {
      owned.push_back(RandomMatcher(&rng));
      matchers.push_back(owned.back().get());
    }
    SCOPED_TRACE(testing::Message() << "round " << round);
    ExpectRunKeepsInvariants(*instance, config, matchers, sim,
                             rng.NextUint64());

    // Every other round also dispatches the workload in micro-batch
    // windows of random length and solver, checking the same invariants.
    if (round % 2 == 0) {
      constexpr BatchAlgo kAlgos[] = {BatchAlgo::kAuto, BatchAlgo::kGreedy,
                                      BatchAlgo::kHungarian,
                                      BatchAlgo::kIncrementalKm};
      SimConfig batch = sim;
      batch.batch_mode = true;
      batch.batch_window_seconds =
          rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 900.0);
      batch.batch.algo = kAlgos[rng.UniformInt(0, 3)];
      SCOPED_TRACE(testing::Message()
                   << "batch window " << batch.batch_window_seconds
                   << " algo " << BatchAlgoName(batch.batch.algo));
      std::vector<WindowGreedy> greedy(static_cast<size_t>(config.platforms));
      std::vector<OnlineMatcher*> batch_matchers;
      for (WindowGreedy& g : greedy) batch_matchers.push_back(&g);
      ExpectRunKeepsInvariants(*instance, config, batch_matchers, batch,
                               rng.NextUint64());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, FuzzTest, testing::Range(0, 10));

}  // namespace
}  // namespace comx
