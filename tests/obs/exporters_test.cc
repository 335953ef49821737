#include "obs/exporters.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"

namespace comx {
namespace obs {
namespace {

// Builds a private registry with one of everything (the global registry's
// contents depend on which tests ran before).
class ExportersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetCollectionEnabled(true);
    registry_.GetCounter("comx_test_ops_total", "operations")->Inc(5);
    registry_.GetCounter(MetricName("comx_test_labeled_total", "platform",
                                    int64_t{0}),
                        "labeled")->Inc(2);
    registry_.GetGauge("comx_test_depth", "queue depth")->Set(3.5);
    LatencyHistogram* lat = registry_.GetLatencyHistogram(
        MetricName("comx_test_span_seconds", "phase", "decide"), "spans");
    lat->ObserveNanos(100);              // exact linear-region bucket
    lat->ObserveNanos(100);
    lat->ObserveNanos(2'000'000'000);    // 2 s
  }
  void TearDown() override { SetCollectionEnabled(false); }

  MetricsRegistry registry_;
};

TEST_F(ExportersTest, PrometheusTextHasHeadersAndSeries) {
  const std::string text = ToPrometheusText(registry_.Snapshot());
  EXPECT_NE(text.find("# HELP comx_test_ops_total operations"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE comx_test_ops_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("comx_test_ops_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("comx_test_labeled_total{platform=\"0\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE comx_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("comx_test_depth 3.5\n"), std::string::npos);
}

TEST_F(ExportersTest, PrometheusLatencyExportsAsSummaryInSeconds) {
  const std::string text = ToPrometheusText(registry_.Snapshot());
  EXPECT_NE(text.find("# TYPE comx_test_span_seconds summary"),
            std::string::npos);
  // p50 of {100ns, 100ns, 2s} is the exact 100-ns linear bucket, and
  // nanoseconds convert to the seconds the base name promises (100/1e9,
  // %.17g-rendered). p90 lands on the exact 2-s max.
  EXPECT_NE(text.find("comx_test_span_seconds{phase=\"decide\","
                      "quantile=\"0.5\"} 9.9999999999999995e-08"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("comx_test_span_seconds{phase=\"decide\","
                      "quantile=\"0.9\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("comx_test_span_seconds_count{phase=\"decide\"} 3\n"),
            std::string::npos);
  // quantile=1 is never emitted; the four fixed quantiles are.
  for (const char* q : {"\"0.5\"", "\"0.9\"", "\"0.99\"", "\"0.999\""}) {
    EXPECT_NE(text.find("quantile=" + std::string(q)), std::string::npos)
        << q;
  }
}

TEST_F(ExportersTest, JsonLatencyBlockHasQuantilesAndSparseBuckets) {
  const std::string json = ToJson(registry_.Snapshot());
  const size_t block = json.find("\"latencies\"");
  ASSERT_NE(block, std::string::npos);
  EXPECT_NE(json.find("\"comx_test_span_seconds{phase=\\\"decide\\\"}\"",
                      block),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sum_ns\":2000000200", block), std::string::npos);
  EXPECT_NE(json.find("\"max_ns\":2000000000", block), std::string::npos);
  EXPECT_NE(json.find("\"p50_ns\":100,", block), std::string::npos);
  // Sparse buckets: the exact-region 100-ns bucket is index 100 with
  // count 2.
  EXPECT_NE(json.find("\"buckets\":[[100,2],", block), std::string::npos);
}

TEST_F(ExportersTest, HelpHeaderEmittedOncePerLabeledFamily) {
  registry_.GetCounter(MetricName("comx_test_labeled_total", "platform",
                                  int64_t{1}),
                      "labeled")->Inc(4);
  const std::string text = ToPrometheusText(registry_.Snapshot());
  size_t first = text.find("# TYPE comx_test_labeled_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE comx_test_labeled_total counter", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("comx_test_labeled_total{platform=\"1\"} 4\n"),
            std::string::npos);
}

TEST_F(ExportersTest, JsonSnapshotListsEveryMetric) {
  const std::string json = ToJson(registry_.Snapshot());
  EXPECT_NE(json.find("\"comx_test_ops_total\":5"), std::string::npos);
  EXPECT_NE(json.find("\"comx_test_depth\":3.5"), std::string::npos);
  EXPECT_NE(json.find("\"comx_test_span_seconds{phase=\\\"decide\\\"}\""),
            std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  // Balanced braces as a cheap well-formedness check.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(ExportersTest, ParseMetricsFormatAcceptsKnownNames) {
  ASSERT_TRUE(ParseMetricsFormat("prom").ok());
  EXPECT_EQ(*ParseMetricsFormat("prom"), MetricsFormat::kPrometheus);
  EXPECT_EQ(*ParseMetricsFormat("prometheus"), MetricsFormat::kPrometheus);
  EXPECT_EQ(*ParseMetricsFormat("json"), MetricsFormat::kJson);
  EXPECT_FALSE(ParseMetricsFormat("xml").ok());
}

TEST_F(ExportersTest, WriteMetricsFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "metrics_export.prom";
  ASSERT_TRUE(
      WriteMetricsFile(registry_, path, MetricsFormat::kPrometheus).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), ToPrometheusText(registry_.Snapshot()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace comx
