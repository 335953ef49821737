#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>

#include "workloads.h"

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
volatile double calibration_sink = 0.0;
}  // namespace

int64_t CalibrationNanos() {
  // Each iteration depends on the last, so the loop can neither be
  // vectorized nor dropped (the result is stored through a volatile).
  const int64_t start = NowNanos();
  double g = 0.5;
  for (int i = 0; i < 2'000'000; ++i) {
    g = std::exp(-g) + std::log1p(g * static_cast<double>(i));
  }
  calibration_sink = g;
  return NowNanos() - start;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank),
                   samples.end());
  return samples[rank];
}

double Sum(const std::vector<double>& samples) {
  double s = 0.0;
  for (const double v : samples) s += v;
  return s;
}

double Mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : Sum(samples) / static_cast<double>(samples.size());
}

const std::vector<MetricSpec>& EndToEndCatalog() {
  static const std::vector<MetricSpec> catalog = {
      {"setup_s", "s"},
      {"decisions_per_s", "1/s"},
      {"decision_p50_us", "us"},
      {"decision_p99_us", "us"},
      {"capacity_qps", "1/s"},
      {"revenue", "value"},
      {"peak_rss_mb", "MB"},
  };
  return catalog;
}

const std::vector<MetricSpec>& PerLayerCatalog() {
  static const std::vector<MetricSpec> catalog = [] {
    std::vector<MetricSpec> c = {
        {"sim.steps", "count"},
        {"sim.rearrivals", "count"},
        {"sim.arrival_step_p50_us", "us"},
        {"sim.request_step_p50_us", "us"},
        {"sim.request_step_p99_us", "us"},
        {"sim.busy_s", "s"},
        {"sim.self_busy_s", "s"},
        {"sim.loop_residual_s", "s"},
        {"sim.init_s", "s"},
        {"core.on_request_p50_us", "us"},
        {"core.on_request_p99_us", "us"},
        {"core.busy_s", "s"},
        {"core.self_busy_s", "s"},
        {"core.inner", "count"},
        {"core.outer", "count"},
        {"core.reject", "count"},
        {"pricing.priced_candidates_mean", "count"},
        {"pricing.estimator_samples_mean", "count"},
        {"pricing.offer_ratio", "ratio"},
        {"pricing.acceptance_ratio", "ratio"},
        {"pricing.bisect_iterations_mean", "count"},
        {"geo.inner_scan_p50_us", "us"},
        {"geo.inner_scan_p99_us", "us"},
        {"geo.outer_scan_p50_us", "us"},
        {"geo.outer_scan_p99_us", "us"},
        {"geo.busy_s", "s"},
        {"geo.inner_candidates_mean", "count"},
        {"geo.outer_candidates_mean", "count"},
        {"geo.outer_candidates_p99", "count"},
        {"geo.distance_calls", "count"},
        {"matching.windows", "count"},
        {"matching.window_requests_mean", "count"},
        {"matching.window_requests_max", "count"},
        {"matching.flush_p50_us", "us"},
        {"matching.flush_p99_us", "us"},
        {"matching.flush_busy_s", "s"},
        {"matching.enqueue_step_p50_us", "us"},
        {"matching.mean_wait_s", "s"},
        {"serve.shard_step_p50_us", "us"},
        {"serve.shard_step_p99_us", "us"},
        {"serve.outside_step_p50_us", "us"},
        {"serve.outside_step_p99_us", "us"},
        {"serve.queue_depth_max", "count"},
        {"serve.backlog_max", "count"},
        {"serve.replies_over_30ms", "count"},
        {"serve.error_replies", "count"},
        {"serve.spawn_to_ready_s", "s"},
    };
    // One p50/p99 pair per offered rate, named by kilo-events/s (r12k).
    static std::vector<std::string> rate_names;
    for (const int rate : kServeRates) {
      for (const char* q : {"p50_us", "p99_us"}) {
        rate_names.push_back("serve.r" + std::to_string(rate / 1000) + "k." +
                             q);
      }
    }
    for (const std::string& n : rate_names) c.push_back({n.c_str(), "us"});
    const std::vector<MetricSpec> tail = {
        {"recovery.wal_records", "count"},
        {"recovery.wal_commits", "count"},
        {"recovery.records_per_commit", "count"},
        {"recovery.wal_bytes_per_event", "bytes"},
        {"datagen.generate_s", "s"},
        {"client.send_lag_p99_us", "us"},
        {"trace.overhead_frac", "ratio"},
        {"failed_frac", "ratio"},
    };
    c.insert(c.end(), tail.begin(), tail.end());
    return c;
  }();
  return catalog;
}

void RunReport::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  correct = false;
}

std::string ResultLine(RunReport* report, bool trace) {
  const std::vector<MetricSpec>& catalog =
      trace ? PerLayerCatalog() : EndToEndCatalog();
  const std::map<std::string, double>& values =
      trace ? report->per_layer : report->end_to_end;
  std::set<std::string> known;
  for (const MetricSpec& m : catalog) known.insert(m.name);
  for (const auto& [name, value] : values) {
    if (known.count(name) == 0) {
      report->Fail("metric outside the catalog: " + name);
    }
    if (!std::isfinite(value)) report->Fail("non-finite metric: " + name);
  }
  std::string metrics = "{";
  char buf[512];
  for (size_t i = 0; i < catalog.size(); ++i) {
    const auto it = values.find(catalog[i].name);
    if (it == values.end() && !trace) {
      report->Fail(std::string("end-to-end metric not measured: ") +
                   catalog[i].name);
    }
    const double v =
        it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", catalog[i].name, v, catalog[i].unit);
    metrics += buf;
  }
  metrics += "}";
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": ",
                report->correct ? "true" : "false",
                static_cast<long long>(report->attempted),
                static_cast<long long>(report->failed));
  return std::string(buf) + metrics + "}";
}

}  // namespace perfbench
