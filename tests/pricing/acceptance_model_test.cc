#include "pricing/acceptance_model.h"

#include <gtest/gtest.h>

#include "testing/builders.h"

namespace comx {
namespace {

using testing_fixtures::MakeWorker;

Instance TwoWorkerInstance() {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0, 0, 1, {2.0, 4.0, 6.0, 8.0}));
  ins.AddWorker(MakeWorker(1, 1, 0, 0, 1, {10.0}));
  ins.BuildEvents();
  return ins;
}

TEST(AcceptanceModelTest, PerWorkerEcdf) {
  const Instance ins = TwoWorkerInstance();
  const AcceptanceModel model(ins);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 8.0), 1.0);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(1, 9.0), 0.0);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(1, 10.0), 1.0);
}

TEST(AcceptanceModelTest, GroupProbabilityIndependentUnion) {
  const Instance ins = TwoWorkerInstance();
  const AcceptanceModel model(ins);
  // pr = 1 - (1 - 0.5)(1 - 0) = 0.5 at payment 4.
  EXPECT_DOUBLE_EQ(model.GroupAcceptProbability({0, 1}, 4.0), 0.5);
  // At 10, both accept surely: 1 - 0 * 0 = 1.
  EXPECT_DOUBLE_EQ(model.GroupAcceptProbability({0, 1}, 10.0), 1.0);
  // Empty group never accepts.
  EXPECT_DOUBLE_EQ(model.GroupAcceptProbability({}, 10.0), 0.0);
}

TEST(AcceptanceModelTest, GroupProbabilityShortCircuitsAtOne) {
  const Instance ins = TwoWorkerInstance();
  const AcceptanceModel model(ins);
  EXPECT_DOUBLE_EQ(model.GroupAcceptProbability({1, 0}, 10.0), 1.0);
}

TEST(AcceptanceModelTest, DrawMatchesProbabilityInFrequency) {
  const Instance ins = TwoWorkerInstance();
  const AcceptanceModel model(ins);
  Rng rng(42);
  int hits = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    hits += model.DrawAcceptance(0, 4.0, &rng) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.5, 0.01);
}

TEST(AcceptanceModelTest, DrawDeterministicAtExtremes) {
  const Instance ins = TwoWorkerInstance();
  const AcceptanceModel model(ins);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(model.DrawAcceptance(1, 5.0, &rng));   // prob 0
    EXPECT_TRUE(model.DrawAcceptance(1, 10.0, &rng));   // prob 1
  }
}

TEST(AcceptanceModelTest, EmptyHistoryNeverAccepts) {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0, 0, 1, {}));
  ins.BuildEvents();
  const AcceptanceModel model(ins);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 1e9), 0.0);
  Rng rng(2);
  EXPECT_FALSE(model.DrawAcceptance(0, 1e9, &rng));
}

TEST(AcceptanceModelTest, CoversEveryWorker) {
  const Instance ins = TwoWorkerInstance();
  const AcceptanceModel model(ins);
  EXPECT_EQ(model.worker_count(), 2u);
  EXPECT_EQ(model.ecdf().Values(0).size(), 4u);
  EXPECT_EQ(model.ecdf().Values(1).size(), 1u);
}

TEST(AcceptanceModelTest, ZeroWorkerInstanceReportsZeroWorkers) {
  Instance ins;
  ins.BuildEvents();
  const AcceptanceModel model(ins);
  EXPECT_EQ(model.worker_count(), 0u);
}

}  // namespace
}  // namespace comx
