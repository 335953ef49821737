// Micro-benchmarks (google-benchmark) for the performance-critical
// substrates: grid-index operations, offline matchers, the Algorithm 2
// estimator, the MER pricer, and end-to-end simulator throughput.

#include <memory>

#include <benchmark/benchmark.h>

#include "core/dem_com.h"
#include "core/ram_com.h"
#include "core/tota_greedy.h"
#include "datagen/synthetic.h"
#include "geo/grid_index.h"
#include "matching/greedy_offline.h"
#include "matching/hungarian.h"
#include "model/constraints.h"
#include "pricing/mer_pricer.h"
#include "pricing/min_payment_estimator.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace comx {
namespace {

void BM_GridIndexInsertRemove(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  std::vector<Point> points;
  for (int64_t i = 0; i < n; ++i) {
    points.emplace_back(rng.Uniform(-15, 15), rng.Uniform(-15, 15));
  }
  for (auto _ : state) {
    GridIndex index(1.0);
    for (int64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(index.Insert(i, points[static_cast<size_t>(i)]));
    }
    for (int64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(index.Remove(i));
    }
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_GridIndexInsertRemove)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_GridIndexRadiusQuery(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  GridIndex index(1.0);
  for (int64_t i = 0; i < n; ++i) {
    (void)index.Insert(i, Point(rng.Uniform(-15, 15), rng.Uniform(-15, 15)));
  }
  size_t hits = 0;
  for (auto _ : state) {
    const Point c(rng.Uniform(-15, 15), rng.Uniform(-15, 15));
    hits += index.ForEachInRadius(c, 1.0, [](int64_t, double) {});
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridIndexRadiusQuery)->Arg(10'000)->Arg(100'000);

BipartiteGraph RandomGraph(int32_t left, int32_t right, double density,
                           uint64_t seed) {
  Rng rng(seed);
  BipartiteGraph g(left, right);
  for (int32_t l = 0; l < left; ++l) {
    for (int32_t r = 0; r < right; ++r) {
      if (rng.Bernoulli(density)) {
        (void)g.AddEdge(l, r, rng.Uniform(0.1, 30.0));
      }
    }
  }
  return g;
}

void BM_Hungarian(benchmark::State& state) {
  const int32_t n = static_cast<int32_t>(state.range(0));
  const BipartiteGraph g = RandomGraph(n, n, 0.2, 3);
  for (auto _ : state) {
    auto m = HungarianMaxWeight(g);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_Hungarian)->Arg(50)->Arg(100)->Arg(200);

void BM_GreedyOffline(benchmark::State& state) {
  const int32_t n = static_cast<int32_t>(state.range(0));
  const BipartiteGraph g = RandomGraph(n, n, 0.05, 5);
  for (auto _ : state) {
    auto m = GreedyMaxWeight(g);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_GreedyOffline)->Arg(400)->Arg(1000)->Arg(4000);

struct PricingFixture {
  Instance instance;
  std::vector<WorkerId> candidates;
  std::unique_ptr<AcceptanceModel> model;

  explicit PricingFixture(int n_candidates) {
    SyntheticConfig config;
    config.requests_per_platform = {1};
    config.workers_per_platform = {n_candidates};
    config.seed = 6;
    instance = std::move(GenerateSynthetic(config)).value();
    for (const Worker& w : instance.workers()) {
      if (w.platform == 1) candidates.push_back(w.id);
    }
    model = std::make_unique<AcceptanceModel>(instance);
  }
};

void BM_MinPaymentEstimator(benchmark::State& state) {
  PricingFixture fix(static_cast<int>(state.range(0)));
  Rng rng(7);
  for (auto _ : state) {
    auto est =
        EstimateMinOuterPayment(*fix.model, fix.candidates, 20.0, {}, &rng);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_MinPaymentEstimator)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_MerPricer(benchmark::State& state) {
  PricingFixture fix(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto quote = ComputeMerQuote(*fix.model, fix.candidates, 20.0);
    benchmark::DoNotOptimize(quote);
  }
}
BENCHMARK(BM_MerPricer)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

template <typename Matcher>
void BM_Simulator(benchmark::State& state) {
  SyntheticConfig config;
  config.requests_per_platform = {state.range(0) / 2};
  config.workers_per_platform = {state.range(0) / 10};
  config.seed = 8;
  const Instance instance = std::move(GenerateSynthetic(config)).value();
  SimConfig sim;
  sim.measure_response_time = false;
  for (auto _ : state) {
    Matcher m0, m1;
    auto r = RunSimulation(instance, {&m0, &m1}, sim, 1);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_TEMPLATE(BM_Simulator, TotaGreedy)->Arg(2'000)->Arg(10'000);
BENCHMARK_TEMPLATE(BM_Simulator, DemCom)->Arg(2'000)->Arg(10'000);
BENCHMARK_TEMPLATE(BM_Simulator, RamCom)->Arg(2'000)->Arg(10'000);

}  // namespace
}  // namespace comx

BENCHMARK_MAIN();
