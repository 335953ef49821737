#include "obs/metrics_registry.h"

#include <string>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace comx {
namespace obs {
namespace {

// Collection defaults to off; every test that expects updates to land must
// switch it on (and restore, so ordering between tests doesn't matter).
class MetricsRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { SetCollectionEnabled(true); }
  void TearDown() override { SetCollectionEnabled(false); }
};

TEST_F(MetricsRegistryTest, CounterCountsAcrossShards) {
  Counter* c = MetricsRegistry::Global().GetCounter("test_counter_basic");
  EXPECT_EQ(c->Value(), 0);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->Value(), 42);
}

TEST_F(MetricsRegistryTest, UpdatesAreDroppedWhileCollectionDisabled) {
  Counter* c = MetricsRegistry::Global().GetCounter("test_counter_gated");
  Gauge* g = MetricsRegistry::Global().GetGauge("test_gauge_gated");
  SetCollectionEnabled(false);
  c->Inc(100);
  g->Set(7.0);
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(g->Value(), 0.0);
  SetCollectionEnabled(true);
  c->Inc(3);
  EXPECT_EQ(c->Value(), 3);
}

TEST_F(MetricsRegistryTest, GetInternsByName) {
  auto& registry = MetricsRegistry::Global();
  Counter* a = registry.GetCounter("test_counter_interned");
  Counter* b = registry.GetCounter("test_counter_interned");
  EXPECT_EQ(a, b);
  // Distinct labels are distinct metrics.
  Counter* l0 = registry.GetCounter(
      MetricName("test_counter_labeled", "platform", int64_t{0}));
  Counter* l1 = registry.GetCounter(
      MetricName("test_counter_labeled", "platform", int64_t{1}));
  EXPECT_NE(l0, l1);
}

TEST_F(MetricsRegistryTest, MetricNameFormatsAndEscapes) {
  EXPECT_EQ(MetricName("comx_sim_requests_total", "platform", int64_t{3}),
            "comx_sim_requests_total{platform=\"3\"}");
  EXPECT_EQ(MetricName("m", "l", "a\"b\\c"), "m{l=\"a\\\"b\\\\c\"}");
}

TEST_F(MetricsRegistryTest, ConcurrentIncrementsLoseNothing) {
  Counter* c = MetricsRegistry::Global().GetCounter("test_counter_mt");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([c] {
        for (int i = 0; i < kPerThread; ++i) c->Inc();
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kPerThread);
}

TEST_F(MetricsRegistryTest, GaugeIsLastWriteWins) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test_gauge_basic");
  g->Set(5.0);
  g->Set(2.5);
  EXPECT_EQ(g->Value(), 2.5);
  g->Add(1.5);
  EXPECT_EQ(g->Value(), 4.0);
}

TEST_F(MetricsRegistryTest, SnapshotSeesRegisteredMetrics) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test_counter_snap", "a help line")->Inc(7);
  const MetricsSnapshot snap = registry.Snapshot();
  bool found = false;
  for (const CounterSample& s : snap.counters) {
    if (s.name == "test_counter_snap") {
      found = true;
      EXPECT_EQ(s.value, 7);
      EXPECT_EQ(s.help, "a help line");
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsRegistryTest, ResetValuesZeroesButKeepsRegistrations) {
  auto& registry = MetricsRegistry::Global();
  Counter* c = registry.GetCounter("test_counter_reset");
  LatencyHistogram* h = registry.GetLatencyHistogram("test_latency_reset");
  c->Inc(9);
  h->ObserveNanos(500);
  registry.ResetValues();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(h->Count(), 0);
  EXPECT_EQ(h->Snapshot().sum_nanos, 0);
  // Same pointer still valid and usable.
  c->Inc();
  EXPECT_EQ(c->Value(), 1);
}

}  // namespace
}  // namespace obs
}  // namespace comx
