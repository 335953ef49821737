// Road-network dispatch: the paper's Section II generalization in action.
// Builds a perturbed Manhattan-grid city, matches the same two-platform
// workload under the Euclidean and the shortest-path range constraints,
// and also shows batched dispatch on the road network — the configuration
// a production deployment would actually run.
//
//   ./build/examples/roadnet_dispatch [grid_side] [requests_per_platform]

#include <cstdio>
#include <cstdlib>

#include "core/dem_com.h"
#include "core/window_greedy.h"
#include "datagen/synthetic.h"
#include "roadnet/road_generator.h"
#include "roadnet/road_metric.h"
#include "roadnet/shortest_path.h"
#include "sim/simulator.h"

int main(int argc, char** argv) {
  const int32_t side = argc > 1 ? std::atoi(argv[1]) : 25;
  const int64_t requests = argc > 2 ? std::atoll(argv[2]) : 1000;

  // 1. The road network.
  comx::RoadGridConfig road;
  road.rows = side;
  road.cols = side;
  road.spacing_km = 1.2;
  road.closure_fraction = 0.15;
  road.diagonal_fraction = 0.2;
  road.seed = 7;
  auto city = comx::GenerateGridCity(road);
  if (!city.ok()) {
    std::fprintf(stderr, "road gen: %s\n",
                 city.status().ToString().c_str());
    return 1;
  }
  std::printf("road network: %s (connected: %s)\n",
              city->Summary().c_str(),
              city->IsConnected() ? "yes" : "NO");

  // A sample route across town.
  const comx::NodeId a = 0;
  const comx::NodeId b = city->node_count() - 1;
  std::printf("corner-to-corner: %.1f km by road vs %.1f km straight "
              "(%zu intersections on the path)\n\n",
              comx::ShortestPathKm(*city, a, b),
              comx::EuclideanDistance(city->NodeLocation(a),
                                      city->NodeLocation(b)),
              comx::ShortestPathNodes(*city, a, b).size());

  // 2. The workload.
  comx::SyntheticConfig config;
  config.requests_per_platform = {requests};
  config.workers_per_platform = {requests / 5};
  config.radius_km = 2.0;
  config.seed = 2020;
  auto instance = comx::GenerateSynthetic(config);
  if (!instance.ok()) return 1;
  std::printf("workload: %s\n\n", instance->Summary().c_str());

  // 3. DemCOM under Euclidean vs road-network ranges.
  const comx::RoadNetworkMetric metric(&*city);
  for (const bool use_roads : {false, true}) {
    comx::SimConfig sim;
    sim.metric = use_roads ? &metric : nullptr;
    comx::DemCom m0, m1;
    auto result = comx::RunSimulation(*instance, {&m0, &m1}, sim, 1);
    if (!result.ok()) {
      std::fprintf(stderr, "sim: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const auto agg = result->metrics.Aggregate();
    std::printf("DemCOM (%s ranges): revenue %.1f, served %lld, borrowed "
                "%lld, pickup %.1f km\n",
                use_roads ? "road-network" : "euclidean", agg.revenue,
                static_cast<long long>(agg.completed),
                static_cast<long long>(agg.completed_outer),
                agg.total_pickup_km);
  }

  // 4. Batched dispatch on the road network (the production configuration:
  //    windowed optimal matching, real street distances), audited against
  //    the same time, range and 1-by-1 constraints as the online runs.
  comx::SimConfig sim;
  sim.metric = &metric;
  sim.batch_mode = true;
  sim.batch_window_seconds = 60.0;
  comx::WindowGreedy g0, g1;
  auto batched = comx::RunSimulation(*instance, {&g0, &g1}, sim, 1);
  if (!batched.ok()) {
    std::fprintf(stderr, "batch: %s\n",
                 batched.status().ToString().c_str());
    return 1;
  }
  if (comx::Status audit = comx::AuditSimResult(*instance, sim, *batched);
      !audit.ok()) {
    std::fprintf(stderr, "batch audit: %s\n", audit.ToString().c_str());
    return 1;
  }
  const auto agg = batched->metrics.Aggregate();
  std::printf("batched 60s windows on roads: revenue %.1f, served %lld, "
              "borrowed %lld, mean wait %.1f s\n",
              agg.revenue, static_cast<long long>(agg.completed),
              static_cast<long long>(agg.completed_outer),
              agg.response_time_us.mean() / 1e6);
  std::printf("\nroad ranges shrink every feasible set (fewer served than "
              "euclidean) but cross-platform borrowing still recovers "
              "demand the single platform would reject; batched dispatch "
              "keeps the same constraints and costs each user the wait "
              "until its window closes.\n");
  return 0;
}
