// Process-wide metrics registry: named counters, gauges, and log-linear
// latency histograms, safe to update from any thread. Updates go to
// thread-local sharded cells (one cache line each) with relaxed atomic
// increments — no lock, no contention between threads on different shards
// — and are merged only on scrape. Collection is off by default; every
// counter or gauge update is a single relaxed load + branch until
// obs::SetCollectionEnabled(true) is called, so instrumented hot paths
// (grid probes, pricing loops) stay within noise of the uninstrumented
// code when observability is idle.
//
// Naming convention: comx_<area>_<name>[{label="value",...}], e.g.
// comx_geo_grid_queries_total or comx_sim_requests_total{platform="0"}.
// Labels are part of the registered name; MetricName() builds them.

#ifndef COMX_OBS_METRICS_REGISTRY_H_
#define COMX_OBS_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/latency_histogram.h"

namespace comx {
namespace obs {

/// Number of cache-line-padded cells per counter and latency histogram.
/// Threads are assigned cells round-robin; 16 keeps contention negligible
/// for the thread counts ThreadPool spawns while costing 1 KiB per counter.
inline constexpr size_t kShardCount = 16;

/// Global collection switch (default off). Reading it is a relaxed atomic
/// load; flipping it does not reset any values.
void SetCollectionEnabled(bool enabled);

namespace internal {
extern std::atomic<bool> g_collection_enabled;
/// Stable shard index of the calling thread (round-robin assigned).
size_t ThisThreadShard();
}  // namespace internal

inline bool CollectionEnabled() {
  return internal::g_collection_enabled.load(std::memory_order_relaxed);
}

/// Builds "base{label=\"value\"}". `value` is escaped for Prometheus
/// exposition (backslash, quote, newline).
std::string MetricName(std::string_view base, std::string_view label,
                       std::string_view value);
std::string MetricName(std::string_view base, std::string_view label,
                       int64_t value);

struct alignas(64) CounterCell {
  std::atomic<int64_t> value{0};
};

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Inc(int64_t n = 1) {
    if (!CollectionEnabled()) return;
    cells_[internal::ThisThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Merged value across all shards. Exact once updating threads have been
  /// joined; a racy-but-monotonic estimate while they run.
  int64_t Value() const;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  void Reset();

  std::string name_;
  std::string help_;
  std::array<CounterCell, kShardCount> cells_;
};

/// Last-write-wins floating-point metric (single atomic — gauges are set
/// at coarse granularity, not on hot paths).
class Gauge {
 public:
  void Set(double v) {
    if (!CollectionEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(double v) {
    if (!CollectionEnabled()) return;
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  std::string name_;
  std::string help_;
  std::atomic<double> value_{0.0};
};

/// A point-in-time merged view of every registered metric, sorted by name.
struct CounterSample {
  std::string name, help;
  int64_t value = 0;
};
struct GaugeSample {
  std::string name, help;
  double value = 0.0;
};
struct LatencySample {
  std::string name, help;
  LatencySnapshot latency;
};
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<LatencySample> latencies;
};

/// What happened between two snapshots of the same registry: counters and
/// latency histograms are subtracted (metrics absent from `before` count
/// from zero); gauges are last-write-wins, so the diff carries `after`'s
/// value unchanged. Used by the sweep engine to attribute registry activity
/// to a job (serial runs) or to a whole sweep (parallel runs, where
/// concurrent jobs share the global registry and per-job attribution is
/// impossible).
MetricsSnapshot DiffSnapshots(const MetricsSnapshot& before,
                              const MetricsSnapshot& after);

/// Owner of every metric. Get* interns by full name (including the label
/// suffix) and returns a stable pointer; repeated calls with the same name
/// return the same object. Registration takes a mutex — call sites on hot
/// paths cache the pointer (function-local static or member).
class MetricsRegistry {
 public:
  /// The process-wide registry used by all library instrumentation.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  /// Log-linear nanosecond histogram (see latency_histogram.h). Unlike
  /// Counter::Inc, LatencyHistogram::ObserveNanos is NOT gated on
  /// CollectionEnabled() — call sites gate (ScopedSpan samples the switch
  /// on scope entry).
  LatencyHistogram* GetLatencyHistogram(std::string_view name,
                                        std::string_view help = "");

  /// Merged values of everything registered so far.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric value (registrations survive). For tests and for
  /// separating phases in long-lived processes.
  void ResetValues();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      latencies_;
};

}  // namespace obs
}  // namespace comx

#endif  // COMX_OBS_METRICS_REGISTRY_H_
