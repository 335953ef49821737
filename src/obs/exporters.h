// Metric snapshot exporters: Prometheus text exposition (v0.0.4) and a
// JSON snapshot, plus a file writer the CLI's --metrics-out flag uses.
// Both render a merged MetricsSnapshot — scrape once, export either way.

#ifndef COMX_OBS_EXPORTERS_H_
#define COMX_OBS_EXPORTERS_H_

#include <string>

#include "obs/metrics_registry.h"
#include "util/result.h"

namespace comx {
namespace obs {

/// Output format of WriteMetricsFile.
enum class MetricsFormat { kPrometheus, kJson };

/// Parses "prom"/"prometheus" or "json".
Result<MetricsFormat> ParseMetricsFormat(std::string_view name);

/// Prometheus text exposition: # HELP / # TYPE comments; counters and
/// gauges as plain series, latency histograms as summaries (quantile
/// label, seconds) with _sum and _count series. Labeled metric names
/// registered via MetricName() are merged with the synthetic labels
/// correctly.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// JSON snapshot: {"counters": {name: value, ...}, "gauges": {...},
/// "latencies": {name: {"count": n, ..., "p50_ns": v, "buckets":
/// [[index, count], ...]}}}.
std::string ToJson(const MetricsSnapshot& snapshot);

/// Scrapes `registry` and writes it to `path` in `format`.
Status WriteMetricsFile(const MetricsRegistry& registry,
                        const std::string& path, MetricsFormat format);

}  // namespace obs
}  // namespace comx

#endif  // COMX_OBS_EXPORTERS_H_
