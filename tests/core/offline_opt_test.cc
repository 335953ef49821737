#include "core/offline_opt.h"

#include <gtest/gtest.h>

#include "geo/distance.h"
#include "testing/builders.h"

namespace comx {
namespace {

using testing_fixtures::MakeRequest;
using testing_fixtures::MakeWorker;
using testing_fixtures::PaperExample;

TEST(OfflineOptTest, PaperExampleTotaOptimum) {
  // Without borrowing, the Fig. 3(b) optimum is 9 + 6 + 3 = 18.
  OfflineConfig config;
  config.allow_outer = false;
  auto sol = SolveOffline(PaperExample(), 0, config);
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->matching.total_revenue, 18.0);
  EXPECT_EQ(sol->matching.size(), 3u);
  EXPECT_EQ(sol->solver, "hungarian");
}

TEST(OfflineOptTest, PaperExampleComOptimum) {
  // With borrowing at the 50% reservations baked into the fixture:
  // 4 + 9 + 3 + 3 + 2 = 21 (Fig. 3(c)).
  auto sol = SolveOffline(PaperExample(), 0, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->matching.total_revenue, 21.0);
  EXPECT_EQ(sol->matching.size(), 5u);
  int outer = 0;
  for (const Assignment& a : sol->matching.assignments) {
    if (a.is_outer) {
      ++outer;
      EXPECT_GT(a.outer_payment, 0.0);
    } else {
      EXPECT_EQ(a.outer_payment, 0.0);
    }
  }
  EXPECT_EQ(outer, 2);
}

TEST(OfflineOptTest, OtherPlatformHasNoRequests) {
  auto sol = SolveOffline(PaperExample(), 1, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->matching.size(), 0u);
}

TEST(OfflineOptTest, GraphBuildRespectsConstraints) {
  std::vector<RequestId> ids;
  std::vector<double> payments;
  auto graph = BuildOfflineGraph(PaperExample(), 0, {}, &ids, &payments);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(ids.size(), 5u);
  EXPECT_EQ(payments.size(), graph->edges().size());
  const Instance ins = PaperExample();
  for (const BipartiteEdge& e : graph->edges()) {
    const Request& r = ins.request(ids[static_cast<size_t>(e.left)]);
    const Worker& w = ins.worker(e.right);
    EXPECT_LE(w.time, r.time);  // time constraint
    EXPECT_LE(EuclideanDistance(w.location, r.location), w.radius + 1e-9);
    EXPECT_GT(e.weight, 0.0);
  }
}

TEST(OfflineOptTest, OuterEdgeWeightsAreValueMinusReservation) {
  std::vector<RequestId> ids;
  std::vector<double> payments;
  auto graph = BuildOfflineGraph(PaperExample(), 0, {}, &ids, &payments);
  ASSERT_TRUE(graph.ok());
  const Instance ins = PaperExample();
  for (size_t ei = 0; ei < graph->edges().size(); ++ei) {
    const BipartiteEdge& e = graph->edges()[ei];
    const Request& r = ins.request(ids[static_cast<size_t>(e.left)]);
    const Worker& w = ins.worker(e.right);
    if (w.platform != 0) {
      // Single-valued histories make the reservation draw deterministic.
      EXPECT_DOUBLE_EQ(payments[ei], w.history[0]);
      EXPECT_DOUBLE_EQ(e.weight, r.value - w.history[0]);
    } else {
      EXPECT_DOUBLE_EQ(payments[ei], 0.0);
      EXPECT_DOUBLE_EQ(e.weight, r.value);
    }
  }
}

TEST(OfflineOptTest, WorkerCapacityRelaxationIncreasesRevenue) {
  // Two requests in range of one worker: capacity 1 serves one, capacity 2
  // serves both.
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0, 0, 2.0));
  ins.AddRequest(MakeRequest(0, 2, 0.5, 0, 5.0));
  ins.AddRequest(MakeRequest(0, 3, -0.5, 0, 7.0));
  ins.BuildEvents();
  OfflineConfig c1;
  auto s1 = SolveOffline(ins, 0, c1);
  ASSERT_TRUE(s1.ok());
  EXPECT_DOUBLE_EQ(s1->matching.total_revenue, 7.0);
  OfflineConfig c2;
  c2.worker_capacity = 2;
  auto s2 = SolveOffline(ins, 0, c2);
  ASSERT_TRUE(s2.ok());
  EXPECT_DOUBLE_EQ(s2->matching.total_revenue, 12.0);
  EXPECT_EQ(s2->solver, "relaxed");
}

TEST(OfflineOptTest, Capacity1BeyondDenseLimitUsesIncrementalKm) {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0, 0, 2.0));
  ins.AddRequest(MakeRequest(0, 2, 0.5, 0, 5.0));
  ins.BuildEvents();
  OfflineConfig config;
  config.dense_cell_limit = 0;
  auto sol = SolveOffline(ins, 0, config);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->solver, "incremental_km");
  EXPECT_DOUBLE_EQ(sol->matching.total_revenue, 5.0);
}

TEST(OfflineOptTest, RejectsWorkerCapacityBelowOne) {
  for (const int32_t capacity : {0, -3}) {
    OfflineConfig config;
    config.worker_capacity = capacity;
    auto sol = SolveOffline(PaperExample(), 0, config);
    EXPECT_EQ(sol.status().code(), StatusCode::kInvalidArgument)
        << "capacity " << capacity;
  }
}

TEST(OfflineOptTest, WorkersWithEmptyHistoryNeverBorrowed) {
  Instance ins;
  ins.AddWorker(MakeWorker(1, 1, 0, 0, 2.0, {}));  // outer, no history
  ins.AddRequest(MakeRequest(0, 2, 0.5, 0, 5.0));
  ins.BuildEvents();
  auto sol = SolveOffline(ins, 0, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->matching.size(), 0u);
}

TEST(OfflineOptTest, DeterministicGivenSeed) {
  auto a = SolveOffline(PaperExample(), 0, {});
  auto b = SolveOffline(PaperExample(), 0, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->matching.total_revenue, b->matching.total_revenue);
  EXPECT_EQ(a->matching.assignments.size(), b->matching.assignments.size());
}

TEST(OfflineOptTest, RevenueAccountingIdentity) {
  auto sol = SolveOffline(PaperExample(), 0, {});
  ASSERT_TRUE(sol.ok());
  double sum = 0.0;
  for (const Assignment& a : sol->matching.assignments) sum += a.revenue;
  EXPECT_NEAR(sum, sol->matching.total_revenue, 1e-9);
}

}  // namespace
}  // namespace comx
